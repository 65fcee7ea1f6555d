"""The privacy audit: canary membership trials and confidence bounds.

One trial draws 2K i.i.d. synthetic canary records with small random
offsets on their encoding angles, trains one model on the dataset plus
the first K, and reads it on all 2K. A model that memorizes recognizes
the K it saw (low loss) more often than the K it did not; seen and unseen
canaries are exchangeable, so that gap bounds a replace-one guarantee
(Steinke, Nasr & Jagielski, arXiv:2305.08846). By default a canary counts
as recognized when the model's loss on it is below that of a canary-free
reference trained from the same initialization, which cancels how easy
each canary happens to be (Carlini et al., LiRA, arXiv:2112.03570); the
paper's rule uses one calibrated global threshold instead. kappa reports
the median of the per-canary thresholds, under the paper's rule the
global threshold itself. Indicator matrices over n independent trials
feed confidence bounds whose gap yields an empirical lower bound
epsilon_hat on the privacy budget, with failure probability at most beta:
by default a betting bound on the mean per-trial seen-minus-unseen
difference (Waudby-Smith & Ramdas, arXiv:2010.09686), or the paper's
empirical-Bernstein bounds. Closed-form upper bounds for the depolarizing
and finite-shot mechanisms are computed alongside so the two directions
can be compared.

Trials are independent and keyed by (master seed, trial index). They run
in blocks of at most TRIAL_BLOCK consecutive trials: every trial of a block draws
its canaries, offsets and initialization from its own stream, the block's
models train as one stack, their readout rows come from one walk back,
all of them read their canaries in one stack under the evaluation noise,
and under shots each trial then draws from its own stream again. A
stacked model trains and reads out to the same bits as a lone one, so
block size, order and process placement leave every output bit
unchanged. A pooled audit runs its first blocks in the calling process.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from statistics import NormalDist

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it lazily, at an audit's first draw)

from .classifier import ModelSpec, TrainConfig, _init_params, _losses, _per_qubit, _train_stack
from .classifier import evaluate_losses, train  # noqa: F401  (bench traces them as classifier.*)
from .data import Dataset
from .encoding import OffsetSpec, _encode_rows, sample_offsets
from .encoding import angle_encode, angle_encode_offset  # noqa: F401  (bench traces them as encoding.encode)
from .noise import NoiseSpec

KAPPA_RULES = ("reference", "calibrated_median")
ESTIMATORS = ("betting", "bernstein")

CALIBRATION_CANARIES = 64
MU_FLOOR = 1e-3
# truncation c of the betting bound's wager, lambda <= c / m, so one
# adverse trial costs at most ln(1/(1 - c)) of capital. Waudby-Smith &
# Ramdas suggest c in {1/2, 3/4}; on the synthetic harness 3/4 certifies
# much smaller rate gaps than 1/2 at n = 64 (power table in CHANGES.md)
BET_CLIP = 0.75
# lockstep regula falsi (Illinois) steps that bracket each betting bound's
# crossing before its bisection path is guessed
_ILLINOIS_STEPS = 5
# values in one batched test of the betting bisection; a larger batch is
# split, so its arrays and numpy's broadcast buffers stay within 32 KiB and
# peak memory stays flat
_TEST_ELEMENTS = 4096
_TINY = np.finfo(float).tiny
# consecutive trials whose models train in one stack. A larger stack
# spreads each step's per-call overhead over more models; above 32 the gain
# flattens, while the step's buffers and the block's arrays grow with the
# block
TRIAL_BLOCK = 32
# a block is also the unit of work handed to a pool worker, so a pooled
# audit cuts its trials into one block per worker, though never into
# blocks smaller than this, where per-call overhead dominates
_MIN_POOL_BLOCK = 8


class DomainError(ValueError):
    """A closed-form bound was evaluated outside its region of validity."""


@dataclass(frozen=True)
class AuditConfig:
    """An audit's settings. train.seed is unused by audit, run_trial and
    calibrate_kappa: every initialization comes from a trial's stream or
    the calibration stream."""

    n: int
    K: int
    d: float
    model: ModelSpec
    train: TrainConfig
    noise: NoiseSpec = field(default_factory=NoiseSpec.none)
    delta_conf: float = 0.01
    beta: float = 0.05
    kappa_rule: str = "reference"
    estimator: str = "betting"
    seed: int = 0
    theory_delta: float = 0.01

    def __post_init__(self):
        if self.n < 2 or self.K < 1:
            raise ValueError("need n >= 2 (the confidence bounds) and K >= 1")
        if not 0.0 < self.d <= 1.0:
            raise ValueError(f"adjacency threshold {self.d} not in (0, 1]")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"failure probability {self.beta} not in (0, 1)")
        if not 0.0 < self.delta_conf < 1.0:
            raise ValueError(f"offset tail probability {self.delta_conf} not in (0, 1)")
        if not 0.0 < self.theory_delta < 1.0:
            raise ValueError(f"theory_delta {self.theory_delta} not in (0, 1)")
        if self.kappa_rule not in KAPPA_RULES:
            raise ValueError(f"unknown kappa rule {self.kappa_rule!r}")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be nonnegative")
        if _per_qubit(self.model.noise):
            raise ValueError("training under per-qubit depolarizing noise is not supported; "
                             "use global scope or evaluate noise at audit time only")

    def resolved_delta(self) -> float:
        # shot noise is an (epsilon, delta) mechanism; depolarizing is pure epsilon
        return self.theory_delta if self.noise.kind == "measurement_shots" else 0.0


@dataclass(frozen=True)
class TrialMatrix:
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        for m in (self.x, self.y):
            if m.ndim != 2:
                raise ValueError("indicator matrices must be 2-d")
            if not np.isin(m, (0, 1)).all():
                raise ValueError("indicator matrices must be binary")
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError("seen/unseen matrices must have equal trial counts")


@dataclass(frozen=True)
class EpsilonEstimate:
    """The audited lower bound and the confidence bounds it came from.

    p1_lower and p0_upper each hold at level 1 - beta/2 for the seen and
    unseen recognition rates. gap_lower is the betting estimator's lower
    bound on their difference, also at 1 - beta/2, and None under the
    Bernstein estimator, which combines p1_lower and p0_upper instead.
    Under 'betting', epsilon_hat uses gap_lower and p0_upper only;
    p1_lower is a third bound reported for reference, so the three hold
    jointly only at 1 - 3 beta/2, not at 1 - beta.
    """

    p1_lower: float
    p0_upper: float
    epsilon_hat: float
    beta: float
    delta: float
    theory_epsilon: float | None
    guarantee: str
    gap_lower: float | None = None


@dataclass(frozen=True)
class AuditReport:
    """Everything one audit produced.

    kappa is the median of the per-canary loss thresholds a canary had to
    beat. Under 'calibrated_median' every threshold is the global one, so
    kappa is that threshold itself. Under 'reference' each canary is
    compared with its own reference loss, and kappa is only a summary.
    """

    estimate: EpsilonEstimate
    kappa: float
    config: AuditConfig
    trials: TrialMatrix
    trial_means_x: np.ndarray
    trial_means_y: np.ndarray
    seeds: dict
    theory: dict
    timings: dict


# ---------------------------------------------------------------------------
# estimators

def _check_indicator_matrix(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2 or m.shape[0] < 2:
        raise ValueError("need a 2-d matrix with at least two trial rows")
    # written so that NaN, for which every comparison is False, fails too
    if not ((m >= 0.0) & (m <= 1.0)).all():
        raise ValueError("matrix entries must lie in [0, 1]")
    return m


def _bernstein_terms(matrix, eta: float):
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta {eta} not in (0, 1)")
    m = _check_indicator_matrix(matrix)
    means = m.mean(axis=1)
    n = means.shape[0]
    log_term = math.log(2.0 / eta)
    p_hat = float(means.mean())
    v_hat = float(means.var(ddof=1))
    dev = math.sqrt(2.0 * v_hat * log_term / n) + 7.0 * log_term / (3.0 * (n - 1))
    return p_hat, dev


def bound_lower(matrix, eta: float) -> float:
    """Empirical-Bernstein lower confidence bound on the per-trial mean.

    Holds with probability at least 1 - eta for i.i.d. trial rows with
    entries in [0, 1]. The variance term adapts to the data; the 7/(3(n-1))
    term is the fixed price of estimating that variance.
    """
    p_hat, dev = _bernstein_terms(matrix, eta)
    return float(np.clip(p_hat - dev, 0.0, 1.0))


def bound_upper(matrix, eta: float) -> float:
    """Mirror image of bound_lower: p_hat plus the same deviation terms."""
    p_hat, dev = _bernstein_terms(matrix, eta)
    return float(np.clip(p_hat + dev, 0.0, 1.0))


def _plugin_bets(values: np.ndarray, eta: float) -> np.ndarray:
    """Predictable wagers lambda_i built from values[..., :i] only.

    The fixed-sample plug-in sqrt(2 ln(1/eta) / (n sigma_{i-1}^2)) of
    Waudby-Smith & Ramdas, with their regularized running mean and
    variance (prior mean 1/2, prior variance 1/4), along the last axis.
    """
    n = values.shape[-1]
    t = np.arange(1, n + 1)
    mu = (0.5 + np.cumsum(values, axis=-1)) / (t + 1)
    var = (0.25 + np.cumsum((values - mu) ** 2, axis=-1)) / (t + 1)
    var_before = np.concatenate((np.full(values.shape[:-1] + (1,), 0.25), var[..., :-1]), axis=-1)
    return np.sqrt(2.0 * math.log(1.0 / eta) / (n * var_before))


def _max_log_capital(means: np.ndarray, bets: np.ndarray, mids: np.ndarray) -> np.ndarray:
    """The largest log capital of a gambler betting against each candidate
    mean in mids (r, k), on rows of means and bets (r, n), each to the bits
    of a lone test. At m = 0 the clip BET_CLIP / tiny lies above every
    plug-in stake, so those stakes are the plug-in ones."""
    m = mids[:, :, None]
    capital = np.subtract(means[:, None, :], m)
    capital *= np.minimum(bets[:, None, :], BET_CLIP / np.maximum(m, _TINY))
    np.log1p(capital, out=capital)
    return np.add.accumulate(capital, axis=2, out=capital).max(axis=2)


def _guess_crossing(a: float, fa: float, b: float, fb: float) -> float:
    """Where the line through (a, fa) and (b, fb) crosses zero."""
    return a - fa * (b - a) / (fb - fa) if fa != fb else a


def _betting_lowers(means: np.ndarray, eta: float) -> list:
    """betting_lower of each row of trial means (r, n), each to the bits of
    its own bisection, which depend only on its decisions at its midpoints.

    Each row brackets the m where its capital crosses 1/eta by lockstep
    Illinois steps, then guesses its remaining path, and all rows' guesses
    are tested in one batch. A row keeps its path up to its first wrong
    guess, with that test's outcome, and guesses again; after two wrong
    guesses it tests one midpoint per batch. So the guesses set the cost,
    never the result: at most _ILLINOIS_STEPS batches above a lone
    bisection's tests."""
    n = means.shape[1]
    bets = _plugin_bets(means, eta)
    threshold = math.log(1.0 / eta)
    p_hat = means.mean(axis=1)
    ends = _max_log_capital(means, bets, np.stack((np.zeros_like(p_hat), p_hat), axis=1))
    lowers = np.where(ends[:, 0] >= threshold, p_hat, 0.0).tolist()
    rows = np.flatnonzero((ends[:, 0] >= threshold) & (ends[:, 1] < threshold))
    means, bets, f = means[rows], bets[rows], (ends[rows] - threshold).tolist()
    # per row: the bisection's lo, hi and wrong guesses, then two tests
    # (|f|, m, f) to guess from, f being max log capital - ln(1/eta)
    state = [[0.0, lowers[r], 0, (abs(f0), 0.0, f0), (-f1, lowers[r], f1)]
             for r, (f0, f1) in zip(rows, f)]
    # Illinois keeps a bracket a, f(a) >= 0 > f(b), b and halves f at an
    # end kept twice in a row
    illinois = [[0.0, f0, lowers[r], f1, None] for r, (f0, f1) in zip(rows, f)]
    for _ in range(_ILLINOIS_STEPS if state else 0):
        xs = [_guess_crossing(*il[:4]) for il in illinois]
        fs = (_max_log_capital(means, bets, np.array(xs)[:, None]) - threshold).ravel().tolist()
        for s, il, x, f in zip(state, illinois, xs, fs):
            end = 0 if f >= 0.0 else 2   # the end x replaces, a or b
            il[end:end + 2] = x, f
            if il[4] == end:
                il[3 - end] *= 0.5
            il[4] = end
            s[3:] = s[4], (abs(f), x, f)   # guess from the last two steps
    active = range(len(state))
    while active := [i for i in active if state[i][1] - state[i][0] > 1e-10]:
        room = max(1, _TEST_ELEMENTS // (len(active) * n))
        paths, guesses = [], []
        for i in active:
            lo, hi, wrong, (_, a, fa), (_, b, fb) = state[i]
            guess, path = _guess_crossing(a, fa, b, fb), []
            while hi - lo > 1e-10 and len(path) < (room if wrong < 2 else 1):
                mid = 0.5 * (lo + hi)
                path.append(mid)
                lo, hi = (mid, hi) if mid < guess else (lo, mid)
            paths.append(path)
            guesses.append(guess)
        k = max(map(len, paths))
        mids = np.array([p + p[-1:] * (k - len(p)) for p in paths])
        tested = (_max_log_capital(means[active], bets[active], mids) - threshold).tolist()
        for i, path, guess, fs in zip(active, paths, guesses, tested):
            s = state[i]
            for mid, f in zip(path, fs):
                s[f < 0.0] = mid   # lo if rejected, else hi
                if (f >= 0.0) != (mid < guess):
                    s[2] += 1
                    s[3:] = sorted(s[3:] + [(abs(f), m, f) for m, f in zip(path, fs)])[:2]
                    break
    for r, s in zip(rows, state):
        lowers[r] = s[0]
    return lowers


def betting_lower(matrix, eta: float) -> float:
    """Betting lower confidence bound on the per-trial mean.

    For each candidate mean m, a gambler stakes lambda_i = min(plug-in,
    BET_CLIP/m) on each trial row mean exceeding m; its capital is a
    nonnegative supermartingale whenever the true mean is at most m, so by
    Ville's inequality it reaches 1/eta with probability at most eta. The
    bound is the smallest m whose capital never got there. Capital falls
    as m rises, so bisection finds that point, and every m below the
    returned value was rejected. The bisection is batched (_betting_lowers)
    and exact: it returns the bits of one that tests one midpoint at a time.
    Holds with probability at least 1 - eta for i.i.d. trial rows with
    entries in [0, 1]; never above the sample mean.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta {eta} not in (0, 1)")
    return _betting_lowers(_check_indicator_matrix(matrix).mean(axis=1)[None], eta)[0]


def betting_upper(matrix, eta: float) -> float:
    """Mirror image of betting_lower: one minus the lower bound of 1 - rows."""
    return 1.0 - betting_lower(1.0 - _check_indicator_matrix(matrix), eta)


def epsilon_hat(p1_lower: float, p0_upper: float, delta: float = 0.0) -> float:
    """max(0, ln((p1_lower - delta) / p0_upper)), the audited lower bound."""
    for name, v in (("p1_lower", p1_lower), ("p0_upper", p0_upper)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} = {v} not in [0, 1]")
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta {delta} not in [0, 1)")
    numerator = p1_lower - delta
    if numerator <= 0.0:
        return 0.0
    # the upper bound is strictly positive whenever it came from
    # bound_upper; the floor keeps a hand-fed zero finite
    return max(0.0, math.log(numerator / max(p0_upper, np.finfo(float).tiny)))


def estimate_epsilon(x, y, beta: float, delta: float = 0.0,
                     estimator: str = "betting",
                     theory_epsilon: float | None = None) -> EpsilonEstimate:
    """epsilon_hat from seen (x) and unseen (y) indicator matrices.

    'bernstein' is the paper's max(0, ln((p1_lower - delta) / p0_upper)).
    'betting' bounds the mean per-trial seen-minus-unseen difference g
    from below and the unseen rate p0 from above, and reports

        epsilon_hat = ln(1 + (g_lower - delta) / p0_upper)

    when g_lower > delta, else 0. Since (p0 + g - delta) / p0 falls as p0
    grows, both bounds holding implies the privacy inequality's epsilon
    is at least that value. Each bound spends beta/2.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"failure probability {beta} not in (0, 1)")
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta {delta} not in [0, 1)")
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    x = _check_indicator_matrix(x)
    y = _check_indicator_matrix(y)
    if x.shape[0] != y.shape[0]:
        raise ValueError("seen/unseen matrices must have equal trial counts")
    eta = beta / 2.0
    gap = None
    if estimator == "bernstein":
        p1, p0 = bound_lower(x, eta), bound_upper(y, eta)
        eps = epsilon_hat(p1, p0, delta)
    else:
        # p1 from x, p0 from 1 - y, as betting_upper takes it, and the
        # difference of row means, which lies in [-1, 1], mapped into [0, 1]
        x_means = x.mean(axis=1)
        means = np.stack((x_means, (1.0 - y).mean(axis=1), 0.5 * (x_means - y.mean(axis=1) + 1.0)))
        p1, lower_not_y, lower_diff = _betting_lowers(means, eta)
        p0, gap = 1.0 - lower_not_y, 2.0 * lower_diff - 1.0
        eps = 0.0
        if gap > delta:
            eps = math.log1p((gap - delta) / max(p0, np.finfo(float).tiny))
    return EpsilonEstimate(
        p1_lower=p1, p0_upper=p0, epsilon_hat=eps, beta=beta, delta=delta,
        theory_epsilon=theory_epsilon,
        guarantee=f"P(true epsilon < epsilon_hat) <= {beta}", gap_lower=gap)


# ---------------------------------------------------------------------------
# closed-form mechanism bounds

def theory_epsilon_depolarizing(p: float, d: float, D: int) -> float:
    """Privacy budget of the depolarizing channel: ln(1 + (1-p) d D / p).

    p = 0 means no noise and an unbounded budget, returned as +inf.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing probability {p} not in [0, 1]")
    if not 0.0 < d <= 1.0:
        raise ValueError(f"trace distance {d} not in (0, 1]")
    if D < 2:
        raise ValueError(f"Hilbert dimension {D} must be at least 2")
    if p == 0.0:
        return math.inf
    return math.log(1.0 + (1.0 - p) * d * D / p)


def theory_epsilon_measurement(N: int, d: float, r: int, mu: float,
                               target_delta: float):
    """(epsilon, c) for the finite-shot measurement mechanism.

    N is the shot count, d the state distance, r a rank factor, mu the
    smallest outcome probability. For a two-outcome readout {Pi, I - Pi}
    with 0 <= Pi <= I, |tr Pi (rho - sigma)| <= T(rho, sigma) <= d whatever
    rank(Pi) is, so each shot's outcome probability moves by at most d, N
    shots move the count's mean by at most N d = A, and r = 1. c solves

        target_delta = sqrt(2 pi) sigma erfc(c / (sqrt(2) sigma)),
        sigma = sqrt(mu (1 - mu) / N),

    in closed form: erfc(x) = 2 Phi(-x sqrt(2)), so c = -sigma
    Phi^-1(target_delta / (2 sqrt(2 pi) sigma)) while that argument is
    below 1/2. A target_delta at or above the c = 0 value is already
    satisfied there, so c = 0 is returned. epsilon is

        A / (mu (1 - mu)) * [ (1 - 2 mu - A) c^2 / (2 mu (1 - mu - A))
                              + c + A / 2 ]        with A = N d r,

    which requires mu (1 - mu - A) > 0 and a bracket that is not negative;
    either failing raises DomainError. Where 1 - 2 mu - A < 0 the c^2 term
    can outweigh c + A/2, and a negative epsilon is no ceiling.
    """
    if not N >= 1:
        raise ValueError(f"shot count {N} must be at least 1")
    if not (d >= 0.0 and r >= 1):  # NaN fails too; r = 0 would give a ceiling of 0
        raise ValueError("need d >= 0 and r >= 1")
    if not 0.0 < target_delta < 1.0:
        raise ValueError(f"target_delta {target_delta} not in (0, 1)")
    if not 0.0 < mu < 1.0:  # NaN fails too
        raise ValueError(f"outcome probability mu {mu} not in (0, 1)")
    A = N * d * r
    if mu * (1.0 - mu - A) <= 0.0:
        raise DomainError(
            f"mu (1 - mu - N d r) must be positive: mu = {mu}, N d r = {A}")

    sigma_stat = math.sqrt(mu * (1.0 - mu) / N)
    tail = target_delta / (2.0 * math.sqrt(2.0 * math.pi) * sigma_stat)
    c = -sigma_stat * NormalDist().inv_cdf(tail) if tail < 0.5 else 0.0

    bracket = (1.0 - 2.0 * mu - A) * c * c / (2.0 * mu * (1.0 - mu - A)) + c + A / 2.0
    if bracket < 0.0:
        raise DomainError(
            f"(1 - 2 mu - N d r) c^2 / (2 mu (1 - mu - N d r)) + c + N d r / 2 must be "
            f"nonnegative: mu = {mu}, N d r = {A}, c = {c}")
    eps = A / (mu * (1.0 - mu)) * bracket
    return eps, c


def sample_complexity_estimate(delta_gap: float, beta: float, K: int) -> int:
    """Trials needed to resolve a seen/unseen rate gap, ceil(ln(1/beta)/(K gap^2)).

    An asymptotic order estimate, not a guarantee: the K canaries per
    trial divide the work of driving the tail bound down.
    """
    if not 0.0 < delta_gap <= 1.0:
        raise ValueError(f"rate gap {delta_gap} not in (0, 1]")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta {beta} not in (0, 1)")
    if K < 1:
        raise ValueError("K must be at least 1")
    return math.ceil(math.log(1.0 / beta) / (K * delta_gap * delta_gap))


# ---------------------------------------------------------------------------
# trial pipeline

def generate_canaries(dataset: Dataset, count: int, rng: np.random.Generator):
    """Synthetic records matching the dataset's per-feature Gaussian fit.

    Features draw from N(mean_j, std_j^2) and are clamped to the unit
    interval; labels are fair coin flips. Returns (features, labels).
    """
    feats, labels = _sample_canaries(_canary_fit(dataset), count, [rng])
    return feats[0], labels[0]


def _canary_fit(dataset: Dataset):
    """The per-feature (mean, std) that generate_canaries draws from."""
    if dataset.size == 0:
        raise ValueError("cannot fit canaries to an empty dataset")
    return dataset.features.mean(axis=0), dataset.features.std(axis=0)


def _sample_canaries(fit, count: int, rngs):
    """generate_canaries from a _canary_fit computed once, for each
    generator of rngs: the (len(rngs), count, m) features, clamped once
    for all of them, and the (len(rngs), count) labels. Each generator
    draws its normal features, then its labels."""
    mu, sd = fit
    feats = np.empty((len(rngs), count, mu.size))
    labels = np.empty((len(rngs), count), dtype=np.int64)
    for rng, row, label in zip(rngs, feats, labels):
        row[...] = rng.normal(mu, sd, size=row.shape)
        label[...] = rng.integers(0, 2, size=count)
    return np.clip(feats, 0.0, 1.0, out=feats), labels


def _trial_seed_seq(config: AuditConfig, trial_index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(config.seed, spawn_key=(0, trial_index))


def _kappa_seed_seq(config: AuditConfig) -> np.random.SeedSequence:
    return np.random.SeedSequence(config.seed, spawn_key=(1,))


def run_trial(trial_index: int, config: AuditConfig, dataset: Dataset):
    """One canary trial; returns the seen and unseen indicator rows.

    config.kappa_rule decides each canary's threshold: 'reference' uses its
    loss under the trial's reference model, 'calibrated_median' the global
    kappa of calibrate_kappa. The trial's entire randomness derives from
    (config.seed, trial_index), so any execution order, block or process
    placement yields the same rows.
    """
    base_states = _base_states(dataset, config)
    kappa = (_calibration(dataset, config, base_states)[0]
             if config.kappa_rule == "calibrated_median" else None)
    x, y, _ = _run_block(range(trial_index, trial_index + 1), config, dataset, kappa, base_states)
    return x[0], y[0]


def _base_states(dataset: Dataset, config: AuditConfig) -> np.ndarray:
    """The dataset's encoded states as the engine's contiguous (dim, N)
    block of amplitude columns, encoded once per audit, after checking
    that it has one feature per qubit of the model."""
    if dataset.feature_count != config.model.qubits:
        raise ValueError(
            f"model has {config.model.qubits} qubits but the dataset has "
            f"{dataset.feature_count} features")
    return np.ascontiguousarray(_encode_rows(dataset.features).T)


def _draw_canaries(fit, config: AuditConfig, count: int, rngs):
    """count canaries for each generator of rngs, from the dataset's
    _canary_fit, and their encoding offsets: (T, count, m) features,
    (T, count) labels and (T, count, m) offsets, T = len(rngs). Each
    generator draws as a lone trial does: its normal features and its
    labels (_sample_canaries), then its offsets (sample_offsets); the
    features are clamped once for the block.

    Adjacency is guaranteed by clipping; refuse to continue if it ever
    fails, since epsilon_hat is meaningless without it. One check covers
    the block.
    """
    feats, labels = _sample_canaries(fit, count, rngs)
    spec = OffsetSpec(config.d, config.delta_conf)
    offsets = np.stack([sample_offsets(spec, feats.shape[1:], rng) for rng in rngs])
    worst = np.abs(np.sin(offsets / 2.0)).max()
    if not worst <= config.d + 1e-12:  # NaN fails too
        raise ValueError(f"canary adjacency violated: {worst} > d = {config.d}")
    return feats, labels, offsets


def _run_block(indices: range, config: AuditConfig, dataset: Dataset,
               kappa: float | None, base_states: np.ndarray):
    """run_trial's rows for T consecutive trials: the (T, K) seen and (T, K)
    unseen indicators, and the (T, 2K) per-canary thresholds, seen then
    unseen: the reference losses under the 'reference' rule, else the
    calibrated global kappa. base_states is the dataset's (dim, N) block
    (_base_states), encoded once per audit.

    A trial's stream draws its canaries and offsets (_draw_canaries, the
    whole block at once), then its initialization seed. The initialization
    is drawn once per trial, and its audited model and its reference each
    train from their own copy of it."""
    K, m, dim = config.K, dataset.feature_count, config.model.dim
    reference = config.kappa_rule == "reference"

    # draw: each trial's canaries and offsets (the first K are seen, the
    # last K unseen) and initialization, from its own stream in the order
    # of a lone trial. The initialization depends on the trial seed alone,
    # never on which canaries are seen, and the trial's reference shares it
    rngs = [np.random.default_rng(_trial_seed_seq(config, index)) for index in indices]
    feats, labels, offsets = _draw_canaries(_canary_fit(dataset), config, 2 * K, rngs)
    init = _init_params(config.model, [int(rng.integers(2**63)) for rng in rngs])
    T = len(rngs)
    phi2 = _encode_rows(feats.reshape(-1, m), offsets.reshape(-1, m)).reshape(T, 2 * K, -1)

    # train: each trial's audited model on the base data and its K seen
    # canaries in one stack, rows :T of theta, and under the reference rule
    # the references in another, rows T:. A reference sees the base data
    # only, so its losses are a canary-independent post-processing of the
    # trial's initialization. Training updates its rows in place, so each
    # stack starts from its own copy of the initialization
    N = dataset.size
    base_labels = np.broadcast_to(dataset.labels, (T, N))
    seen = np.empty((T, dim, N + K))
    seen[:, :, :N] = base_states
    seen[:, :, N:] = phi2[:, :K].transpose(0, 2, 1)
    theta = np.tile(init, (2 if reference else 1, 1))
    _train_stack(seen, np.concatenate([base_labels, labels[:, :K]], axis=1),
                 config.model, config.train, theta[:T])
    if reference:
        base = np.broadcast_to(base_states, (T, dim, N))
        _train_stack(base, base_labels, config.model, config.train, theta[T:])

    # read: each trial's losses from its own stream in the order of a lone
    # trial, recognized where they fall below the thresholds
    losses = _evaluate_block(config, theta, phi2, labels, rngs)
    thresholds = losses[T:] if reference else np.full((T, 2 * K), kappa)
    recognized = (losses[:T] < thresholds).astype(np.uint8)
    return recognized[:, :K], recognized[:, K:], thresholds


def _evaluate_block(config: AuditConfig, theta: np.ndarray, states: np.ndarray,
                    labels: np.ndarray, rngs) -> np.ndarray:
    """The (S, 2K) losses of the S models of the stacked (S, P) theta under
    config.noise: model s reads trial t = s % T's states[t] against
    labels[t], T = len(rngs), so the T audited models come first and any
    references follow in the same trial order. Every model reads in one
    stack; under shots model s is handed rngs[t], one generator per model,
    so each trial's stream draws for model t before model T + t, and every
    loss and every shot draw equals evaluate_losses on that model alone."""
    reads = np.arange(len(theta)) % len(rngs)
    stacked = np.ascontiguousarray(states.transpose(0, 2, 1))[reads]
    return _losses(config.model, theta, config.noise, stacked, labels[reads],
                   [rngs[t] for t in reads])


def __getattr__(name: str):
    """The pool class, imported on first use (PEP 562): concurrent.futures
    is about 8 ms of `import qcanary`, and only a pooled audit needs it.
    audit() looks it up as a module attribute, so a replacement set on the
    module is the one it starts."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _median(values) -> float:
    """np.median of the values, to the bit, without its NaN check, which
    imports numpy.ma (about 5 ms, paid by every CLI process). The same
    partition np.median makes, NaNs sorted last, then the mean of the one
    or two middle values; NaN if any value is NaN."""
    part = np.ravel(values)
    half = part.size // 2
    middle = [half] if part.size % 2 else [half - 1, half]
    part = np.partition(part, middle + [-1])
    if np.isnan(part[-1]):
        return float(part[-1])
    return float(np.mean(part[middle[0]:half + 1]))


def _calibration(dataset: Dataset, config: AuditConfig, base_states: np.ndarray):
    """Reference-model kappa and the smallest outcome probability.

    The reference trains and reads as a trial's reference does, from the
    calibration stream's initialization, on the dataset alone (the
    _base_states block): one _train_stack call and _losses reads. Its
    median loss over fresh canaries becomes the rejection threshold. The
    same canaries, read without noise whatever regime the model trained
    under, provide mu for the finite-shot bound, floored at MU_FLOOR.
    """
    rng = np.random.default_rng(_kappa_seed_seq(config))
    theta = _init_params(config.model, [int(rng.integers(2**63))])
    _train_stack(base_states[None], dataset.labels[None], config.model, config.train, theta)

    feats, labels, offsets = _draw_canaries(_canary_fit(dataset), config,
                                            CALIBRATION_CANARIES, [rng])
    states = np.ascontiguousarray(_encode_rows(feats[0], offsets[0]).T)[None]

    kappa = _median(_losses(config.model, theta, config.noise, states, labels, [rng]))
    clean = _losses(config.model, theta, NoiseSpec.none(), states, labels)
    probs = np.exp(-clean)  # loss = -ln(p of the labeled outcome)
    mu = float(min(np.min(probs), np.min(1.0 - probs)))
    return kappa, max(mu, MU_FLOOR)


def calibrate_kappa(dataset: Dataset, config: AuditConfig) -> float:
    """The paper's global rejection threshold, the calibrated median. The
    'reference' rule compares per canary and does not use it.
    """
    return _calibration(dataset, config, _base_states(dataset, config))[0]


def _theory_for(config: AuditConfig, mu_est: float | None) -> dict:
    """config.noise's closed-form ceiling and its inputs. The finite-shot one
    takes r = 1, which any two-outcome readout proves (theory_epsilon_measurement)."""
    noise = config.noise
    if noise.kind == "depolarizing":
        params = {"p": noise.p, "d": config.d, "D": 2**config.model.qubits,
                  "scope": noise.scope}
        if noise.scope == "per_qubit":  # its output floor is (2p/3)^qubits, not p/D
            return {"kind": "depolarizing", "epsilon": None, "params": params,
                    "note": "ln(1 + (1-p)dD/p) is proven for the global channel only"}
        eps = theory_epsilon_depolarizing(noise.p, config.d, params["D"])
        return {"kind": "depolarizing", "epsilon": eps, "params": params}
    if noise.kind == "measurement_shots":
        params = {"N": noise.shots, "d": config.d, "r": 1,
                  "mu": mu_est, "mu_floor": MU_FLOOR,
                  "target_delta": config.theory_delta}
        try:
            eps, c = theory_epsilon_measurement(noise.shots, config.d, 1, mu_est,
                                                config.theory_delta)
            return {"kind": "measurement_shots", "epsilon": eps, "c": c,
                    "params": params}
        except DomainError as err:
            return {"kind": "measurement_shots", "epsilon": None,
                    "params": params, "note": str(err)}
    return {"kind": "none", "epsilon": None}


def audit(config: AuditConfig, dataset: Dataset, workers: int = 1) -> AuditReport:
    """Run the full audit and return the report with its epsilon estimate.

    The estimator's two bounds consume beta/2 each, so the overall failure
    probability of the reported epsilon_hat stays at beta.
    """
    t0 = time.perf_counter()
    base_states = _base_states(dataset, config)
    kappa = mu_est = None
    # the finite-shot bound needs mu whatever the recognition rule
    if config.kappa_rule == "calibrated_median" or config.noise.kind == "measurement_shots":
        kappa, mu_est = _calibration(dataset, config, base_states)
    t1 = time.perf_counter()

    block = min(TRIAL_BLOCK, max(_MIN_POOL_BLOCK, -(-config.n // max(workers, 1))))
    blocks = [range(start, min(start + block, config.n))
              for start in range(0, config.n, block)]
    run_block = partial(_run_block, config=config, dataset=dataset, kappa=kappa,
                        base_states=base_states)
    if workers > 1 and len(blocks) > 1:
        # the calling process runs the first blocks, an equal share, while
        # the pool runs the rest, so one worker fewer starts cold; the fork
        # context starts every worker at once, so start no more than there
        # are blocks to hand out
        busy = min(workers, len(blocks))
        share = len(blocks) // busy
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=busy - 1) as pool:
            rest = pool.map(run_block, blocks[share:])
            done = [run_block(block) for block in blocks[:share]] + list(rest)
    else:
        done = [run_block(block) for block in blocks]
    x, y, thresholds = (np.concatenate(m) for m in zip(*done))
    kappa = _median(thresholds)
    t2 = time.perf_counter()

    theory = _theory_for(config, mu_est)
    estimate = estimate_epsilon(x, y, config.beta, config.resolved_delta(),
                                config.estimator, theory.get("epsilon"))
    t3 = time.perf_counter()

    seeds = {
        "master": config.seed,
        "calibration_spawn_key": [1],
        "trial_spawn_keys": [[0, i] for i in range(config.n)],
    }
    timings = {"calibration_s": t1 - t0, "trials_s": t2 - t1, "bounds_s": t3 - t2}
    return AuditReport(
        estimate=estimate, kappa=kappa, config=config,
        trials=TrialMatrix(x=x, y=y),
        trial_means_x=x.mean(axis=1), trial_means_y=y.mean(axis=1),
        seeds=seeds, theory=theory, timings=timings)


# ---------------------------------------------------------------------------
# synthetic harness

def _check_harness(epsilon_true: float, n: int, K: int, beta: float, p0: float) -> None:
    """The synthetic harness's inputs, each check written so that NaN fails it."""
    if not epsilon_true >= 0.0:
        raise ValueError(f"epsilon_true {epsilon_true} must be nonnegative")
    if not n >= 2:
        raise ValueError(f"need n >= 2 trials (the confidence bounds), got {n}")
    if not K >= 1:
        raise ValueError(f"need K >= 1 canaries per trial, got {K}")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"failure probability {beta} not in (0, 1)")
    if not 0.0 < p0 < 1.0:
        raise ValueError(f"base rate {p0} not in (0, 1)")


def _check_target(target_epsilon: float, max_n: int) -> None:
    """trials_to_target's own inputs: a grid that reaches n = 8 and a target
    that NaN fails, since a NaN target would never be reached."""
    if not max_n >= 8:
        raise ValueError(f"max_n {max_n} is below the first trial count, 8")
    if not target_epsilon >= 0.0:
        raise ValueError(f"target_epsilon {target_epsilon} must be nonnegative")


def simulate_known_mechanism(epsilon_true: float, n: int, K: int, beta: float,
                             rng: np.random.Generator,
                             p0: float = 0.3) -> EpsilonEstimate:
    """Run the estimator pipeline on Bernoulli matrices with known epsilon.

    Seen entries draw at rate p1 = min(1, exp(epsilon_true) * p0), unseen
    at p0, which realizes the privacy gap exactly. Used to measure how
    often the pipeline overshoots a known ground truth, with the betting
    estimator that audit() reports by default.
    """
    _check_harness(epsilon_true, n, K, beta, p0)
    p1 = min(1.0, math.exp(epsilon_true) * p0)
    x = (rng.random((n, K)) < p1).astype(np.uint8)
    y = (rng.random((n, K)) < p0).astype(np.uint8)
    return estimate_epsilon(x, y, beta, 0.0, "betting", epsilon_true)


def trials_to_target(target_epsilon: float, epsilon_true: float, K: int,
                     beta: float, rng: np.random.Generator, p0: float = 0.3,
                     max_n: int = 4096) -> int:
    """Smallest trial count (on a doubling grid) reaching the target estimate.

    Returns max_n when the target is never reached; callers treat that as
    saturation rather than an error. max_n must reach the first grid point, 8.
    """
    _check_target(target_epsilon, max_n)
    _check_harness(epsilon_true, 8, K, beta, p0)
    n = 8
    while n <= max_n:
        est = simulate_known_mechanism(epsilon_true, n, K, beta, rng, p0)
        if est.epsilon_hat >= target_epsilon:
            return n
        n *= 2
    return max_n
