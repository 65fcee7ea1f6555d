import hashlib
import importlib
import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qcanary as qc
from qcanary import AuditConfig, DomainError, ModelSpec, NoiseSpec, TrainConfig
from qcanary.audit import (CALIBRATION_CANARIES, KAPPA_RULES, _base_states, _calibration,
                           _evaluate_block, _median, _plugin_bets)
from qcanary.encoding import _encode_rows


# small_config(n=6, kappa_rule="calibrated_median") audited by the code
# that predates the reference rule and the betting bound
PINNED_PAPER_AUDIT = {
    "kappa": 0.7058136183009474,
    "x": [[0, 0, 0], [0, 1, 0], [1, 1, 0], [1, 0, 0], [0, 1, 1], [1, 1, 1]],
    "y": [[1, 1, 1], [1, 0, 0], [0, 0, 0], [0, 1, 1], [0, 1, 1], [0, 0, 1]],
    "p1_lower": 0.0,
    "p0_upper": 1.0,
}

# small_config(n=6, noise=NoiseSpec.measurement(400)), the reference rule
# with the betting bound at d = 0.1, one audited model per trial reading
# both halves. Under shots every loss read draws from the trial's stream,
# so the draw, train and read order all reach these bits
PINNED_DEFAULT_AUDIT = {
    "kappa": 0.7383831321419831,
    "x": [[1, 1, 1], [1, 0, 0], [0, 1, 1], [1, 1, 1], [1, 1, 1], [0, 1, 0]],
    "y": [[1, 0, 0], [1, 1, 0], [1, 0, 1], [0, 0, 0], [1, 1, 0], [1, 1, 1]],
}

# the acceptance audit (iris, n = 64, K = 16, 4 qubits, 3 reps, 100
# epochs, d = 0.1, noiseless, seed 0): the first 16 hex digits of the
# SHA-256 of x and y (uint8, C order), as bench/digests.py prints them,
# kappa and epsilon_hat. A change that only makes the audit faster keeps
# x, y and epsilon_hat; kappa is a median of losses, so it moves with the
# rounding of the gradient
PINNED_ACCEPTANCE_AUDIT = {
    "x": "2df7789cd3952cbd",
    "y": "6e758e45898b5547",
    "kappa": 0.7057716384751527,
    "epsilon_hat": 0.07459289053500204,
}

# the same audit at 15 epochs, evaluated under per-qubit depolarizing
# p = 0.05 (bench's iris-perqubit-eval, seed 0): the one evaluation path
# that builds the readout observable and puts a channel on it
PINNED_PERQUBIT_AUDIT = {
    "x": "6b2a8f888e71c703",
    "y": "79c4b9f2c39a127e",
    "kappa": 0.70235989969888,
    "epsilon_hat": 0.0,
}


def small_config(**kw) -> AuditConfig:
    base = dict(
        n=4, K=3, d=0.1,
        model=ModelSpec(qubits=3, ansatz_reps=2),
        train=TrainConfig(epochs=8, learning_rate=0.1),
        noise=NoiseSpec.depolarizing(0.05),
        seed=17,
    )
    base.update(kw)
    return AuditConfig(**base)


@pytest.fixture(scope="module")
def dataset():
    return qc.synth_gaussians(3, 20, 2.5, np.random.default_rng(99))


# confidence bounds ----------------------------------------------------------

def test_bound_degenerate_all_ones():
    # zero variance leaves only the 7 ln(2/eta) / (3 (n-1)) term:
    # n = 100, eta = 0.025 gives 1 - 0.10328008903271774
    ones = np.ones((100, 5))
    assert qc.bound_lower(ones, 0.025) == pytest.approx(0.8967199109672823, abs=1e-12)
    assert qc.bound_upper(np.zeros((100, 5)), 0.025) == pytest.approx(
        0.10328008903271774, abs=1e-12)


def test_bound_requires_two_trials():
    with pytest.raises(ValueError):
        qc.bound_lower(np.ones((1, 4)), 0.05)
    with pytest.raises(ValueError):
        qc.bound_upper(np.ones((1, 4)), 0.05)


def test_bound_rejects_bad_inputs():
    with pytest.raises(ValueError):
        qc.bound_lower(np.full((4, 2), 1.5), 0.05)
    # NaN compares False both ways, so a min/max range check lets it through
    with_nan = np.ones((64, 16))
    with_nan[3, 5] = np.nan
    for bound in (qc.bound_lower, qc.bound_upper):
        with pytest.raises(ValueError, match="entries"):
            bound(with_nan, 0.05)
    with pytest.raises(ValueError):
        qc.bound_lower(np.ones((4, 2)), 1.5)


@settings(max_examples=150, deadline=None)
@given(arrays(np.int8, (8, 5), elements=st.integers(0, 1)),
       st.floats(0.001, 0.5))
def test_bounds_bracket_the_mean(matrix, eta):
    mean = matrix.mean()
    assert qc.bound_lower(matrix, eta) <= mean + 1e-12
    assert qc.bound_upper(matrix, eta) >= mean - 1e-12


def test_betting_bound_requires_two_trials():
    with pytest.raises(ValueError):
        qc.betting_lower(np.ones((1, 4)), 0.05)
    with pytest.raises(ValueError):
        qc.betting_upper(np.ones((1, 4)), 0.05)


def test_betting_bound_rejects_bad_inputs():
    for eta in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            qc.betting_lower(np.ones((4, 2)), eta)
        with pytest.raises(ValueError):
            qc.betting_upper(np.ones((4, 2)), eta)
    with pytest.raises(ValueError):
        qc.betting_lower(np.full((4, 2), 1.5), 0.05)
    with_nan = np.zeros((64, 16))
    with_nan[3, 5] = np.nan
    for bound in (qc.betting_lower, qc.betting_upper):
        with pytest.raises(ValueError, match="entries"):
            bound(with_nan, 0.05)
    with pytest.raises(ValueError, match="entries"):
        qc.estimate_epsilon(with_nan, np.zeros((64, 16)), 0.05)


def test_betting_bound_degenerate_beats_bernstein():
    # at zero variance the betting bound has no fixed 7/(3(n-1)) term to pay
    ones, zeros = np.ones((100, 5)), np.zeros((100, 5))
    assert qc.bound_lower(ones, 0.025) < qc.betting_lower(ones, 0.025) < 1.0
    assert 0.0 < qc.betting_upper(zeros, 0.025) < qc.bound_upper(zeros, 0.025)


@settings(max_examples=150, deadline=None)
@given(arrays(np.int8, (8, 5), elements=st.integers(0, 1)),
       st.floats(0.001, 0.5))
def test_betting_bounds_bracket_the_mean(matrix, eta):
    mean = matrix.mean()
    lower, upper = qc.betting_lower(matrix, eta), qc.betting_upper(matrix, eta)
    assert 0.0 <= lower <= mean + 1e-12
    assert mean - 1e-12 <= upper <= 1.0


def test_plugin_bets_are_predictable(rng):
    # wager i may see values[:i] only, or the capital is no supermartingale
    # under the null: whatever values[i:] hold, bets[:i + 1] keep their bits
    for _ in range(40):
        n = int(rng.integers(2, 40))
        values, eta = rng.random(n), float(rng.uniform(0.001, 0.5))
        bets = _plugin_bets(values, eta)
        for i in range(n):
            changed = values.copy()
            changed[i:] = rng.integers(0, 2, size=n - i) if i % 2 else rng.random(n - i)
            got = _plugin_bets(changed, eta)[:i + 1]
            assert np.array_equal(got.view(np.int64), bets[:i + 1].view(np.int64)), (n, i)


def test_estimate_epsilon_betting_formula():
    rng = np.random.default_rng(3)
    x = (rng.random((256, 8)) < 0.9).astype(np.uint8)
    y = (rng.random((256, 8)) < 0.3).astype(np.uint8)
    est = qc.estimate_epsilon(x, y, 0.05, delta=0.1)
    assert 0.0 < est.gap_lower < x.mean() - y.mean()
    assert est.p1_lower <= x.mean() and est.p0_upper >= y.mean()
    assert est.epsilon_hat == pytest.approx(
        math.log(1.0 + (est.gap_lower - 0.1) / est.p0_upper), abs=1e-12)
    paper = qc.estimate_epsilon(x, y, 0.05, delta=0.1, estimator="bernstein")
    assert paper.gap_lower is None
    assert paper.epsilon_hat == qc.epsilon_hat(paper.p1_lower, paper.p0_upper, 0.1)
    # no gap, no estimate
    assert qc.estimate_epsilon(y, y, 0.05).epsilon_hat == 0.0
    with pytest.raises(ValueError):
        qc.estimate_epsilon(x, y, 0.05, estimator="hoeffding")


def test_estimate_epsilon_spends_half_of_beta_on_each_bound(rng):
    # the reported failure probability is beta only if each bound the
    # estimate combines holds at 1 - beta/2: every bound it reports must be
    # the public one-sided bound at beta/2 on the same matrices
    for _ in range(12):
        n, K = int(rng.integers(2, 80)), int(rng.integers(1, 17))
        x = (rng.random((n, K)) < rng.uniform(0.2, 1.0)).astype(np.uint8)
        y = (rng.random((n, K)) < rng.uniform(0.0, 0.8)).astype(np.uint8)
        beta = float(rng.uniform(0.01, 0.5))
        eta = beta / 2.0
        bet = qc.estimate_epsilon(x, y, beta)
        diff = 0.5 * (x.mean(axis=1) - y.mean(axis=1) + 1.0)
        assert bet.p1_lower == qc.betting_lower(x, eta), (n, K, beta)
        assert bet.p0_upper == qc.betting_upper(y, eta), (n, K, beta)
        assert bet.gap_lower == 2.0 * qc.betting_lower(diff, eta) - 1.0, (n, K, beta)
        paper = qc.estimate_epsilon(x, y, beta, estimator="bernstein")
        assert paper.p1_lower == qc.bound_lower(x, eta), (n, K, beta)
        assert paper.p0_upper == qc.bound_upper(y, eta), (n, K, beta)


def test_estimate_epsilon_rejects_beta_outside_unit_interval():
    # beta/2 would pass the bounds' own (0, 1) checks for beta in [1, 2)
    x = np.ones((8, 2))
    for estimator in ("betting", "bernstein"):
        for beta in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError, match="failure probability"):
                qc.estimate_epsilon(x, x, beta, estimator=estimator)
    with pytest.raises(ValueError):
        qc.simulate_known_mechanism(0.0, 8, 2, 1.5, np.random.default_rng(0))


def test_estimate_epsilon_rejects_delta_outside_unit_interval():
    # a negative delta would add to the gap and report leakage between a
    # matrix and itself
    y = (np.random.default_rng(4).random((64, 16)) < 0.3).astype(np.uint8)
    for estimator in ("betting", "bernstein"):
        assert qc.estimate_epsilon(y, y, 0.05, estimator=estimator).epsilon_hat == 0.0
        for delta in (-0.5, 1.0, 1.5, math.nan):
            with pytest.raises(ValueError, match="delta"):
                qc.estimate_epsilon(y, y, 0.05, delta=delta, estimator=estimator)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 0.5))
def test_epsilon_hat_nonnegative_and_monotone(p1, p0, delta):
    eps = qc.epsilon_hat(p1, p0, delta)
    assert eps >= 0.0
    # growing the seen rate can only grow the estimate
    assert qc.epsilon_hat(min(1.0, p1 + 0.1), p0, delta) >= eps - 1e-12


def test_epsilon_hat_values():
    assert qc.epsilon_hat(0.9, 0.3) == pytest.approx(math.log(3.0), abs=1e-12)
    assert qc.epsilon_hat(0.2, 0.5) == 0.0
    assert qc.epsilon_hat(0.1, 0.4, delta=0.2) == 0.0  # numerator clamps
    assert math.isfinite(qc.epsilon_hat(0.9, 0.0))
    with pytest.raises(ValueError):
        qc.epsilon_hat(1.2, 0.3)
    for delta in (-0.5, 1.0, math.nan):
        with pytest.raises(ValueError, match="delta"):
            qc.epsilon_hat(0.3, 0.3, delta)


# closed-form bounds ---------------------------------------------------------

def test_depolarizing_bound_values():
    assert qc.theory_epsilon_depolarizing(0.5, 1.0, 2) == pytest.approx(
        math.log(3.0), abs=1e-12)
    assert qc.theory_epsilon_depolarizing(1.0, 0.5, 8) == 0.0
    assert qc.theory_epsilon_depolarizing(0.0, 0.5, 8) == math.inf
    assert qc.theory_epsilon_depolarizing(0.01, 0.1, 16) == pytest.approx(
        5.071416766356115, abs=1e-12)
    with pytest.raises(ValueError):
        qc.theory_epsilon_depolarizing(0.5, 0.0, 2)
    with pytest.raises(ValueError):
        qc.theory_epsilon_depolarizing(0.5, 0.5, 1)


def test_measurement_bound_known_point():
    # independently solved with scipy.optimize.brentq on the same equation
    eps, c = qc.theory_epsilon_measurement(100, 0.001, 1, 0.2, 0.01)
    assert c == pytest.approx(0.06584547731499699, abs=1e-10)
    assert eps == pytest.approx(0.07724229261075678, abs=1e-9)


def test_measurement_bound_zero_distance_is_free():
    eps, _ = qc.theory_epsilon_measurement(1000, 0.0, 1, 0.3, 0.01)
    assert eps == 0.0
    # NaN compares False both ways, so it must fail the range checks too
    for N, d in ((400, math.nan), (math.nan, 1e-4)):
        with pytest.raises(ValueError):
            qc.theory_epsilon_measurement(N, d, 1, 0.1, 0.01)


def test_measurement_bound_domain_error_names_condition():
    with pytest.raises(DomainError) as err:
        qc.theory_epsilon_measurement(10000, 0.9, 1, 0.5, 0.01)
    assert "mu" in str(err.value) and "N d r" in str(err.value)


def test_measurement_bound_is_never_negative():
    # inside mu (1 - mu - N d r) > 0, a negative 1 - 2 mu - N d r can make
    # the c^2 term outweigh c + N d r / 2; a negative epsilon is no ceiling
    with pytest.raises(DomainError, match="must be nonnegative"):
        qc.theory_epsilon_measurement(50, 0.01089, 1, 0.45, 0.01)
    eps, _ = qc.theory_epsilon_measurement(50, 0.01, 1, 0.45, 0.01)
    assert eps > 0.0


def test_measurement_bound_residual_small():
    for N in (50, 500, 5000):
        for mu in (0.05, 0.2, 0.4):
            _, c = qc.theory_epsilon_measurement(N, 1e-4, 1, mu, 0.005)
            sigma = math.sqrt(mu * (1 - mu) / N)
            resid = math.sqrt(2 * math.pi) * sigma * math.erfc(
                c / (math.sqrt(2) * sigma)) - 0.005
            assert abs(resid) < 1e-10


def _binomial_pmf(N: int, q: float) -> list:
    return [math.exp(math.lgamma(N + 1) - math.lgamma(k + 1) - math.lgamma(N - k + 1)
                     + k * math.log(q) + (N - k) * math.log1p(-q)) for k in range(N + 1)]


def _exact_shot_epsilon(N: int, q: float, d: float, delta: float) -> float:
    """The smallest epsilon at which the hockey-stick divergence between
    Bin(N, q) and Bin(N, q + d), taken both ways, is at most delta (Balle
    et al., arXiv:1905.09982), by bisection to 1e-9."""
    P, Q = _binomial_pmf(N, q), _binomial_pmf(N, q + d)

    def holds(eps: float) -> bool:
        w = math.exp(eps)
        return max(sum(max(0.0, a - w * b) for a, b in zip(P, Q)),
                   sum(max(0.0, b - w * a) for a, b in zip(P, Q))) <= delta

    if holds(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    while not holds(hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


def test_measurement_bound_covers_the_exact_binomial_epsilon():
    # the r = 1 ceiling against the exact epsilon of N shots whose outcome
    # probability moves by d, at 5 values of q in [mu, 1 - mu - d]. The grid
    # stays at N d <= (1 - mu) / 2 on purpose: near the edge of the domain
    # the closed form is no ceiling (a FOUND line in CHANGES.md; at N = 50,
    # mu = 0.45, N d = 0.9 (1 - mu) and delta = 1e-3 it gives 0.280 against
    # an exact 0.299)
    for N, mu, share, delta in itertools.product((50, 400), (0.05, 0.2, 0.45),
                                                 (0.1, 0.5), (1e-3, 1e-2)):
        d = share * (1.0 - mu) / N
        ceiling, _ = qc.theory_epsilon_measurement(N, d, 1, mu, delta)
        for q in np.linspace(mu, 1.0 - mu - d, 5):
            exact = _exact_shot_epsilon(N, float(q), d, delta)
            assert exact <= ceiling, (N, mu, share, delta, q, exact, ceiling)


def test_sample_complexity_values():
    assert qc.sample_complexity_estimate(0.2, 0.05, 1) == 75
    assert qc.sample_complexity_estimate(0.2, 0.05, 16) == 5
    with pytest.raises(ValueError):
        qc.sample_complexity_estimate(0.0, 0.05, 1)


# canary generation ----------------------------------------------------------

def test_generate_canaries_fit_and_clamp(dataset, rng):
    feats, labels = qc.generate_canaries(dataset, 500, rng)
    assert feats.shape == (500, 3)
    assert feats.min() >= 0.0 and feats.max() <= 1.0
    assert set(np.unique(labels)) <= {0, 1}
    # feature means should track the dataset's fit
    assert np.abs(feats.mean(axis=0) - dataset.features.mean(axis=0)).max() < 0.1


def test_generate_canaries_constant_feature(rng):
    ds = qc.Dataset(features=np.full((10, 2), 0.5), labels=np.zeros(10, dtype=np.int64),
                    feature_names=("a", "b"), class_names=("x", "y"))
    feats, _ = qc.generate_canaries(ds, 20, rng)
    assert np.all(feats == 0.5)


# trial machinery ------------------------------------------------------------

def test_run_trial_shapes_and_determinism(dataset):
    cfg = small_config()
    x1, y1 = qc.run_trial(0, cfg, dataset)
    x2, y2 = qc.run_trial(0, cfg, dataset)
    assert x1.shape == (3,) and y1.shape == (3,)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
    x3, _ = qc.run_trial(1, cfg, dataset)
    # different trial index redraws canaries and init
    assert x3.shape == (3,)


def test_reference_rule_tie_is_not_recognized(dataset):
    # under a p = 1 channel every model predicts 1/2, so the audited and
    # reference losses tie at ln 2; a tie is not recognition
    cfg = small_config(noise=NoiseSpec.depolarizing(1.0))
    assert cfg.kappa_rule == "reference"
    x, y = qc.run_trial(0, cfg, dataset)
    assert not x.any() and not y.any()


def test_paper_rule_and_bound_reproduce_pinned_audit(dataset):
    # the global calibrated-median threshold with the Bernstein bounds is
    # the paper's audit; these values pin its trial matrices and bounds
    cfg = small_config(n=6, kappa_rule="calibrated_median", estimator="bernstein")
    report = qc.audit(cfg, dataset)
    assert report.kappa == pytest.approx(PINNED_PAPER_AUDIT["kappa"], abs=1e-12)
    assert report.trials.x.tolist() == PINNED_PAPER_AUDIT["x"]
    assert report.trials.y.tolist() == PINNED_PAPER_AUDIT["y"]
    assert report.estimate.p1_lower == PINNED_PAPER_AUDIT["p1_lower"]
    assert report.estimate.p0_upper == PINNED_PAPER_AUDIT["p0_upper"]
    assert report.estimate.gap_lower is None


def test_default_rule_and_bound_reproduce_pinned_audit(dataset):
    cfg = small_config(n=6, noise=NoiseSpec.measurement(400))
    assert (cfg.kappa_rule, cfg.estimator, cfg.d) == ("reference", "betting", 0.1)
    report = qc.audit(cfg, dataset)
    assert report.kappa == PINNED_DEFAULT_AUDIT["kappa"]
    assert report.trials.x.tolist() == PINNED_DEFAULT_AUDIT["x"]
    assert report.trials.y.tolist() == PINNED_DEFAULT_AUDIT["y"]


def _assert_iris_audit_pinned(epochs: int, noise: NoiseSpec, pinned: dict):
    cfg = AuditConfig(n=64, K=16, d=0.1, model=ModelSpec(qubits=4, ansatz_reps=3),
                      train=TrainConfig(epochs=epochs, learning_rate=0.1),
                      noise=noise, seed=0)
    report = qc.audit(cfg, qc.load_iris_binary(), workers=1)
    x, y = (hashlib.sha256(np.ascontiguousarray(m, dtype=np.uint8).tobytes()).hexdigest()[:16]
            for m in (report.trials.x, report.trials.y))
    assert (x, y) == (pinned["x"], pinned["y"])
    assert report.estimate.epsilon_hat == pinned["epsilon_hat"]
    assert report.kappa == pinned["kappa"]


def test_acceptance_audit_reproduces_its_digests():
    _assert_iris_audit_pinned(100, NoiseSpec.none(), PINNED_ACCEPTANCE_AUDIT)


def test_per_qubit_audit_reproduces_its_digests():
    _assert_iris_audit_pinned(15, NoiseSpec.depolarizing(0.05, scope="per_qubit"),
                              PINNED_PERQUBIT_AUDIT)


_ONE_AUDIT = """
import sys
import numpy as np
import qcanary as qc
from qcanary import AuditConfig, ModelSpec, NoiseSpec, TrainConfig

cfg = AuditConfig(n=4, K=3, d=0.1, model=ModelSpec(qubits=3, ansatz_reps=2),
                  train=TrainConfig(epochs=8), noise=NoiseSpec.none(), seed=17,
                  kappa_rule="calibrated_median")
qc.audit(cfg, qc.synth_gaussians(3, 20, 2.5, np.random.default_rng(99)))
print(sys.argv[1] in sys.modules)
"""


def _loaded_by_one_audit(module: str) -> bool:
    """Whether `import qcanary` and one workers=1 audit, in a fresh
    process, load the module."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qc.__file__)))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", _ONE_AUDIT, module], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout.split()[-1] == "True"


def test_one_audit_does_not_import_numpy_ma():
    # np.median imports numpy.ma for its NaN check, about 5 ms that every
    # CLI process, one audit each, would pay; both medians of an audit
    # (calibration and the reported kappa) avoid it
    assert not _loaded_by_one_audit("numpy.ma")


def test_one_audit_does_not_import_the_pool():
    # concurrent.futures is about 8 ms of `import qcanary`, paid by every
    # CLI process; only a pooled audit loads it
    assert not _loaded_by_one_audit("concurrent.futures")


def test_median_matches_numpy_bit_for_bit(rng):
    for size in (*range(1, 12), 64, 2048):
        for values in (rng.normal(size=size), np.round(rng.normal(size=size), 1)):
            want = np.median(values)
            assert np.float64(_median(values)).view(np.int64) == want.view(np.int64), size
            values[rng.integers(size)] = np.nan
            assert math.isnan(_median(values)), size


def test_calibrate_kappa_median(dataset):
    cal = small_config()
    k1 = qc.calibrate_kappa(dataset, cal)
    k2 = qc.calibrate_kappa(dataset, cal)
    assert k1 == k2 and k1 > 0.0


def test_calibration_mu_floor(dataset):
    cfg = small_config()
    _, mu = _calibration(dataset, cfg, _base_states(dataset, cfg))
    assert 1e-3 <= mu <= 0.5


def test_calibration_keeps_the_bits_of_the_lone_public_path(dataset):
    # the calibration reference trained and read through the public calls,
    # drawing from the calibration stream in order: the init seed, then the
    # canaries and their offsets, then the shots of the noisy read.
    # Per-qubit noise is evaluation-only, so it gets no training-noise case
    regimes = (NoiseSpec.none(), NoiseSpec.depolarizing(0.05),
               NoiseSpec.depolarizing(0.05, scope="per_qubit"),
               NoiseSpec.measurement(400), NoiseSpec.measurement(50))
    base = _encode_rows(dataset.features)
    count, m = CALIBRATION_CANARIES, dataset.feature_count
    cases = 0
    for noise, rule, under_noise, seed in itertools.product(
            regimes, KAPPA_RULES, (False, True), (0, 1, 5)):
        if under_noise and noise.scope == "per_qubit":
            continue
        model = ModelSpec(qubits=3, ansatz_reps=2, noise=noise if under_noise else NoiseSpec.none())
        cfg = small_config(model=model, noise=noise, kappa_rule=rule, seed=seed)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        tcfg = replace(cfg.train, seed=int(rng.integers(2**63)))
        reference = qc.train(base, dataset.labels, cfg.model, tcfg)
        feats, labels = qc.generate_canaries(dataset, count, rng)
        offsets = qc.sample_offsets(qc.OffsetSpec(cfg.d, cfg.delta_conf), (count, m), rng)
        states = _encode_rows(feats, offsets)
        losses = qc.evaluate_losses(qc.eval_model(reference, noise), states, labels, rng)
        clean = qc.evaluate_losses(qc.eval_model(reference, NoiseSpec.none()), states, labels)
        probs = np.exp(-clean)
        want = (np.median(losses), max(min(probs.min(), (1.0 - probs).min()), 1e-3))
        got = _calibration(dataset, cfg, _base_states(dataset, cfg))
        assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64)), \
            (noise, rule, under_noise, seed)
        cases += 1
    assert cases == 54


def test_config_validation(dataset):
    with pytest.raises(ValueError):
        small_config(d=0.0)
    with pytest.raises(ValueError):
        small_config(beta=1.0)
    with pytest.raises(ValueError):
        small_config(estimator="hoeffding")
    with pytest.raises(ValueError):
        small_config(kappa_rule="oracle")
    for field, value in (("delta_conf", 0.0), ("delta_conf", 1.5),
                         ("theory_delta", 0.0), ("theory_delta", 1.5), ("seed", -1)):
        with pytest.raises(ValueError):
            small_config(**{field: value})


def test_audit_report_coherent(dataset):
    report = qc.audit(small_config(), dataset)
    est = report.estimate
    assert report.trials.x.shape == (4, 3)
    assert 0.0 <= est.p1_lower <= 1.0 and 0.0 <= est.p0_upper <= 1.0
    assert est.epsilon_hat >= 0.0
    assert est.delta == 0.0  # depolarizing audit resolves delta to zero
    assert report.theory["kind"] == "depolarizing"
    assert est.theory_epsilon == pytest.approx(
        qc.theory_epsilon_depolarizing(0.05, 0.1, 8), abs=1e-12)
    assert report.seeds["master"] == 17
    assert len(report.trial_means_x) == 4
    assert set(report.timings) == {"calibration_s", "trials_s", "bounds_s"}


def test_audit_rejects_bad_shapes(dataset):
    with pytest.raises(ValueError):
        qc.audit(small_config(n=1), dataset)
    wrong = qc.synth_gaussians(2, 10, 2.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        qc.audit(small_config(), wrong)


def test_audit_measurement_noise_attaches_shot_theory(dataset):
    cfg = small_config(noise=NoiseSpec.measurement(400), d=1e-4)
    report = qc.audit(cfg, dataset)
    assert report.theory["kind"] == "measurement_shots"
    assert report.estimate.delta == cfg.theory_delta
    # mu comes from the calibration pass and sits above the floor
    assert report.theory["params"]["mu"] >= 1e-3
    assert (report.theory["epsilon"] is None) == ("note" in report.theory)


def test_per_qubit_noise_reports_no_ceiling(dataset):
    report = qc.audit(small_config(noise=NoiseSpec.depolarizing(0.05, scope="per_qubit")),
                      dataset)
    assert report.theory["kind"] == "depolarizing"
    assert report.theory["epsilon"] is None
    assert report.theory["params"]["scope"] == "per_qubit"
    assert "note" in report.theory
    assert report.estimate.theory_epsilon is None


def test_worker_pool_matches_serial(dataset):
    cfg = small_config(n=4)
    serial = qc.audit(cfg, dataset, workers=1)
    pooled = qc.audit(cfg, dataset, workers=4)
    assert np.array_equal(serial.trials.x, pooled.trials.x)
    assert np.array_equal(serial.trials.y, pooled.trials.y)
    assert serial.estimate == pooled.estimate


@pytest.mark.parametrize("noise, rule", [
    pytest.param(NoiseSpec.depolarizing(0.05), "reference", id="noise0"),
    pytest.param(NoiseSpec.measurement(400), "reference", id="noise1"),
    pytest.param(NoiseSpec.measurement(400), "calibrated_median", id="shots-calibrated_median")])
def test_audit_does_not_depend_on_block_size(dataset, monkeypatch, noise, rule):
    # 3 does not divide n = 8, so the last block is short; under shots each
    # trial's evaluation draws must still come from its own stream in order.
    # Under the paper's rule every block compares with the one global kappa
    cfg = small_config(n=8, noise=noise, kappa_rule=rule)
    default = qc.audit(cfg, dataset)
    audit_module = importlib.import_module("qcanary.audit")
    for block in (1, 3):
        monkeypatch.setattr(audit_module, "TRIAL_BLOCK", block)
        for workers in (1, 2):
            report = qc.audit(cfg, dataset, workers=workers)
            assert np.array_equal(report.trials.x, default.trials.x), (block, workers)
            assert np.array_equal(report.trials.y, default.trials.y), (block, workers)
            assert report.kappa == default.kappa
            assert report.estimate == default.estimate
    for i in range(cfg.n):
        x_row, y_row = qc.run_trial(i, cfg, dataset)
        assert np.array_equal(x_row, default.trials.x[i])
        assert np.array_equal(y_row, default.trials.y[i])


def test_feature_count_must_match_the_qubits(dataset):
    # a 3-feature dataset against a 4-qubit model: every entry point says
    # so, before it encodes a state
    cfg = small_config(model=ModelSpec(qubits=4, ansatz_reps=2))
    for call in (lambda: qc.audit(cfg, dataset), lambda: qc.calibrate_kappa(dataset, cfg),
                 lambda: qc.run_trial(0, cfg, dataset)):
        with pytest.raises(ValueError, match="qubits but the dataset has"):
            call()


def test_audit_across_full_blocks_does_not_depend_on_block_size(dataset, monkeypatch):
    # one full default block and a short one of 8 (n = 40 at TRIAL_BLOCK =
    # 32); shot draws depend on stream order, so they show any trial read
    # from another trial's stream or out of turn
    audit_module = importlib.import_module("qcanary.audit")
    cfg = small_config(n=audit_module.TRIAL_BLOCK + 8, noise=NoiseSpec.measurement(400))
    default = qc.audit(cfg, dataset)
    for block in (1, 7):
        monkeypatch.setattr(audit_module, "TRIAL_BLOCK", block)
        for workers in (1, 2):
            report = qc.audit(cfg, dataset, workers=workers)
            assert np.array_equal(report.trials.x, default.trials.x), (block, workers)
            assert np.array_equal(report.trials.y, default.trials.y), (block, workers)
            assert report.kappa == default.kappa
            assert report.estimate == default.estimate


def test_per_qubit_audit_does_not_depend_on_block_size(dataset, monkeypatch):
    # a block reads all its observables from one walk with the per-qubit
    # channel inside; any block size or worker count must give the same bits
    cfg = small_config(n=8, noise=NoiseSpec.depolarizing(0.05, scope="per_qubit"))
    default = qc.audit(cfg, dataset)
    audit_module = importlib.import_module("qcanary.audit")
    for block in (1, 3):
        monkeypatch.setattr(audit_module, "TRIAL_BLOCK", block)
        for workers in (1, 2):
            report = qc.audit(cfg, dataset, workers=workers)
            assert np.array_equal(report.trials.x, default.trials.x), (block, workers)
            assert np.array_equal(report.trials.y, default.trials.y), (block, workers)
            assert report.kappa == default.kappa
            assert report.estimate == default.estimate


@pytest.mark.parametrize("noise", [NoiseSpec.depolarizing(0.05, scope="per_qubit"),
                                   NoiseSpec.depolarizing(0.05), NoiseSpec.measurement(400)])
def test_block_evaluation_matches_model_by_model(noise):
    # the block's stacked observables against evaluate_losses on one model
    # at a time, each trial from its own identically seeded stream, with
    # and without the references after the audited models
    cfg = small_config(noise=noise)
    spec, T, K = cfg.model, 3, cfg.K
    draw = np.random.default_rng(3)
    models = [qc.TrainedModel(spec=spec, params=draw.uniform(-1, 1, spec.param_count),
                              train_log=()) for _ in range(2 * T)]
    states = _encode_rows(draw.uniform(0, 1, (T * 2 * K, 3))).reshape(T, 2 * K, -1)
    labels = draw.integers(0, 2, size=(T, 2 * K))
    audited, references = models[:T], models[T:]
    for refs in (references, []):
        rngs = [np.random.default_rng(100 + t) for t in range(T)]
        theta = np.stack([model.params for model in audited + refs])
        got = _evaluate_block(cfg, theta, states, labels, rngs)
        got = [got[t::T] for t in range(T)]
        assert len(got) == T
        for t in range(T):
            # model t reads trial t's 2K canaries, then its reference does
            rng = np.random.default_rng(100 + t)
            want = [qc.evaluate_losses(qc.eval_model(model, noise), states[t], labels[t], rng)
                    for model in [audited[t]] + refs[t:t + 1]]
            assert len(got[t]) == len(want)
            for g, w in zip(got[t], want):
                assert np.array_equal(g, w), (len(refs), t)


def test_block_trains_both_models_of_a_trial_from_one_init(dataset, monkeypatch):
    # a trial draws its canaries, offsets and init seed from its own stream,
    # then its audited model and its reference each train from their own
    # copy of that init. Each must equal a lone train() from the init seed:
    # the reference on the base data, the audited model on the base data
    # plus the seen canaries. Training updates its parameters in place, so a
    # reference started from the audited model's array would differ
    audit_module = importlib.import_module("qcanary.audit")
    train_stack, stacks = audit_module._train_stack, []

    def recording(*args):
        log = train_stack(*args)
        stacks.append(args[-1])  # the stack's parameters, trained in place
        return log

    monkeypatch.setattr(audit_module, "_train_stack", recording)
    cfg = small_config()
    qc.audit(cfg, dataset)
    audited, references = stacks
    K, m = cfg.K, dataset.feature_count
    base = _encode_rows(dataset.features)
    for i in range(cfg.n):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0, i)))
        feats, labels = qc.generate_canaries(dataset, 2 * K, rng)
        offsets = qc.sample_offsets(qc.OffsetSpec(cfg.d, cfg.delta_conf), (2 * K, m), rng)
        tcfg = replace(cfg.train, seed=int(rng.integers(2**63)))
        seen = np.vstack([base, _encode_rows(feats[:K], offsets[:K])])
        want = qc.train(seen, np.concatenate([dataset.labels, labels[:K]]), cfg.model, tcfg)
        assert np.array_equal(audited[i].view(np.int64), want.params.view(np.int64)), i
        want = qc.train(base, dataset.labels, cfg.model, tcfg)
        assert np.array_equal(references[i].view(np.int64),
                              want.params.view(np.int64)), i


def test_reference_does_not_depend_on_which_canaries_are_seen(dataset, monkeypatch):
    # seen and unseen canaries are exchangeable only if the reference, and
    # the initialization it shares with the audited model, ignore which
    # half is seen: swapping each trial's halves must leave every trained
    # reference on its bits and move the audited models
    audit_module = importlib.import_module("qcanary.audit")
    train_stack, draw = audit_module._train_stack, audit_module._draw_canaries

    def trained(cfg):
        stacks = []

        def recording(*args):
            log = train_stack(*args)
            stacks.append(args[-1].copy())
            return log

        monkeypatch.setattr(audit_module, "_train_stack", recording)
        qc.audit(cfg, dataset)
        return stacks

    def swapped(fit, config, count, rngs):
        half = count // 2
        return tuple(np.concatenate([m[:, half:], m[:, :half]], axis=1)
                     for m in draw(fit, config, count, rngs))

    cfg = small_config(n=8)
    audited, references = trained(cfg)
    monkeypatch.setattr(audit_module, "_draw_canaries", swapped)
    audited_swapped, references_swapped = trained(cfg)
    assert np.array_equal(references_swapped.view(np.int64), references.view(np.int64))
    assert not np.array_equal(audited_swapped, audited)


@pytest.mark.parametrize("rule, per_trial", [("reference", 2), ("calibrated_median", 1)])
def test_trials_train_one_audited_model_each(dataset, monkeypatch, rule, per_trial):
    # the audited model reads its unseen canaries too, so a trial trains
    # only it and, under the reference rule, its canary-free reference
    audit_module = importlib.import_module("qcanary.audit")
    train_stack, trained = audit_module._train_stack, []

    def counting(states, labels, spec, cfg, seeds):
        trained.append(len(seeds))
        return train_stack(states, labels, spec, cfg, seeds)

    monkeypatch.setattr(audit_module, "_train_stack", counting)
    cfg = small_config(n=8, kappa_rule=rule)
    qc.audit(cfg, dataset)
    # the paper's rule also trains its calibration reference, through the same call
    assert sum(trained) == per_trial * cfg.n + (rule == "calibrated_median")


def test_pool_starts_no_more_workers_than_blocks(dataset, monkeypatch):
    audit_module = importlib.import_module("qcanary.audit")
    started = []

    class RecordingPool(audit_module.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(audit_module, "ProcessPoolExecutor", RecordingPool)
    serial = qc.audit(small_config(n=8), dataset)
    pooled = qc.audit(small_config(n=8), dataset, workers=4)
    # one block of eight trials: the parent runs it, and starts no pool
    assert started == []
    assert np.array_equal(serial.trials.x, pooled.trials.x)
    assert np.array_equal(serial.trials.y, pooled.trials.y)


def test_pool_gives_every_worker_a_block(dataset, monkeypatch):
    # 32 trials fill one default block, which a pool must still split so
    # that four processes run at once, the parent and three workers; no
    # block falls below eight trials
    audit_module = importlib.import_module("qcanary.audit")
    started, sizes = [], []

    class RecordingPool(audit_module.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

        def map(self, fn, blocks):
            blocks = list(blocks)
            sizes.extend(len(block) for block in blocks)
            return super().map(fn, blocks)

    monkeypatch.setattr(audit_module, "ProcessPoolExecutor", RecordingPool)
    cfg = small_config(n=32)
    serial = qc.audit(cfg, dataset)
    pooled = qc.audit(cfg, dataset, workers=4)
    qc.audit(cfg, dataset, workers=8)
    assert started == [3, 3]
    assert sizes == [8] * 6
    assert np.array_equal(serial.trials.x, pooled.trials.x)
    assert np.array_equal(serial.trials.y, pooled.trials.y)
    assert serial.estimate == pooled.estimate


def test_fully_private_oracle_audits_to_zero(dataset):
    cfg = small_config(noise=NoiseSpec.depolarizing(1.0))
    report = qc.audit(cfg, dataset)
    assert report.kappa == math.log(2.0)
    assert not report.trials.x.any() and not report.trials.y.any()
    assert report.estimate.epsilon_hat == 0.0


# synthetic harness ----------------------------------------------------------

def test_simulate_known_mechanism_recovers_gap(rng):
    est = qc.simulate_known_mechanism(math.log(3.0), 2048, 16, 0.05, rng)
    assert 0.5 < est.epsilon_hat <= math.log(3.0) + 0.05
    assert est.theory_epsilon == pytest.approx(math.log(3.0))


def test_simulate_zero_epsilon_stays_zero_mostly(rng):
    overshoots = sum(
        qc.simulate_known_mechanism(0.0, 128, 8, 0.05, rng).epsilon_hat > 0.0
        for _ in range(200))
    assert overshoots <= 14  # beta/2 per side at 5 percent, plus slack


def test_simulate_validation(rng):
    with pytest.raises(ValueError):
        qc.simulate_known_mechanism(-0.5, 16, 4, 0.05, rng)
    with pytest.raises(ValueError):
        qc.simulate_known_mechanism(0.5, 16, 4, 0.05, rng, p0=0.0)
    # NaN compares False both ways, so it must fail the range checks too
    with pytest.raises(ValueError):
        qc.simulate_known_mechanism(math.nan, 16, 4, 0.05, rng)
    with pytest.raises(ValueError, match="target_epsilon"):
        qc.trials_to_target(math.nan, 0.5, 4, 0.05, rng)


def test_trials_to_target_doubling_grid(rng):
    n = qc.trials_to_target(0.5, math.log(3.0), 4, 0.05, rng)
    assert n >= 8 and (n & (n - 1)) == 0  # power of two on the grid
    capped = qc.trials_to_target(10.0, 0.01, 1, 0.05, rng, max_n=64)
    assert capped == 64


def test_harness_rejects_empty_grids_and_trials(rng):
    # below the first grid point no estimate would run, and a trial
    # without canaries has no rates to bound
    with pytest.raises(ValueError, match="max_n"):
        qc.trials_to_target(0.5, math.log(3.0), 4, 0.05, rng, max_n=4)
    with pytest.raises(ValueError, match="K >= 1"):
        qc.simulate_known_mechanism(0.5, 16, 0, 0.05, rng)
