import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import qcanary as qc
from qcanary import ModelSpec, NoiseSpec, TrainConfig, TrainedModel
from qcanary.classifier import (_engine_for, _observables, _stack_states, _train_stack,
                                loss_gradient, mean_loss)
from qcanary.circuits import (Gate, _gate_unitary, apply_circuit_density, build_real_amplitudes,
                              expectation, parameter_shift_gradient, z_on_qubit)
from qcanary.noise import _depolarize_qubit_mat
from qcanary.states import pure_to_density


def _fixed_model(qubits=1, reps=1, **kw) -> TrainedModel:
    spec = ModelSpec(qubits=qubits, ansatz_reps=reps, **kw)
    return TrainedModel(spec=spec, params=np.zeros(spec.param_count), train_log=())


def _p1(model: TrainedModel, state, rng=None) -> float:
    """The class-1 probability, read back as exp(-loss) at label 1."""
    return math.exp(-qc.evaluate_losses(model, [state], [1], rng)[0])


def test_predict_single_qubit_closed_form():
    # identity ansatz leaves RY(pi/3)|0>, so p = (1 + cos(pi/3)) / 2 = 3/4
    model = _fixed_model()
    p = _p1(model, qc.angle_encode([1 / 3]))
    assert p == pytest.approx(0.75, abs=1e-12)


def test_loss_values():
    model = _fixed_model()
    st = qc.angle_encode([1 / 3])  # p = 0.75
    got = qc.evaluate_losses(model, [st, st], [1, 0])
    assert got[0] == pytest.approx(-math.log(0.75), abs=1e-12)
    assert got[1] == pytest.approx(-math.log(0.25), abs=1e-12)
    for bad in (2, -1, 0.5):
        with pytest.raises(ValueError, match="0 or 1"):
            qc.evaluate_losses(model, [st, st], [1, bad])
    # the training loss and its gradient take the same checks
    spec, params = model.spec, model.params
    for fn in (mean_loss, loss_gradient):
        with pytest.raises(ValueError, match="0 or 1"):
            fn(spec, params, [st], [2])
        with pytest.raises(ValueError, match="length"):
            fn(spec, params, [st, st], [1])
        with pytest.raises(ValueError, match="no states"):
            fn(spec, params, [], [])


def test_loss_clamp_keeps_values_finite():
    model = _fixed_model()
    st = qc.angle_encode([1.0])  # p = 0 exactly
    val = qc.evaluate_losses(model, [st], [1])[0]
    assert math.isfinite(val)
    assert val == pytest.approx(-math.log(1e-9), rel=1e-6)


def test_evaluate_losses_matches_loss_loop(rng):
    spec = ModelSpec(qubits=2, ansatz_reps=2)
    params = rng.uniform(-1, 1, spec.param_count)
    model = TrainedModel(spec=spec, params=params, train_log=())
    states = [qc.angle_encode(rng.uniform(0, 1, 2)) for _ in range(7)]
    labels = rng.integers(0, 2, 7)
    batch = qc.evaluate_losses(model, states, labels)
    singles = [qc.evaluate_losses(model, [s], [l])[0] for s, l in zip(states, labels)]
    assert np.allclose(batch, singles, atol=1e-12)


def test_mean_loss_gradient_matches_finite_differences(rng):
    spec = ModelSpec(qubits=3, ansatz_reps=2)
    states = [qc.angle_encode(rng.uniform(0, 1, 3)) for _ in range(6)]
    labels = rng.integers(0, 2, 6)
    params = rng.uniform(-0.5, 0.5, spec.param_count)
    grad = loss_gradient(spec, params, states, labels)
    h = 1e-5
    for j in range(spec.param_count):
        up, down = params.copy(), params.copy()
        up[j] += h
        down[j] -= h
        fd = (mean_loss(spec, up, states, labels)
              - mean_loss(spec, down, states, labels)) / (2 * h)
        assert grad[j] == pytest.approx(fd, abs=1e-5)


def _reference_z_and_dz(spec: ModelSpec, params, states):
    """Noiseless <Z> and its parameter-shift gradient, one circuit per state."""
    circuit = build_real_amplitudes(spec.qubits, spec.ansatz_reps)
    obs = z_on_qubit(spec.qubits)
    z = np.array([expectation(apply_circuit_density(circuit, params, pure_to_density(st),
                                                    NoiseSpec.none()), obs)
                  for st in states])
    dz = np.array([parameter_shift_gradient(circuit, params, st, obs) for st in states])
    return z, dz


def _chain_rule_gradient(z, dz, labels, scale=1.0):
    """0.5 mean_b(dL/dp_b dz_b): the loss read through the global-noise
    scale, the circuit derivative noiseless."""
    p = np.clip((1.0 + scale * z) / 2.0, 1e-9, 1.0 - 1e-9)
    dldp = -labels / p + (1.0 - labels) / (1.0 - p)
    loss = -(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))
    return loss.mean(), 0.5 * (dz * dldp[:, None]).mean(axis=0)


def test_loss_gradient_matches_parameter_shift_reference(rng):
    # one qubit has no CX chain. Features stay inside (0.2, 0.8) so no
    # prediction sits at the clamp, where dL/dp ~ 1/p would magnify
    # rounding in both computations
    for qubits, reps in itertools.product((1, 2, 3), (1, 2)):
        spec = ModelSpec(qubits=qubits, ansatz_reps=reps)
        states = [qc.angle_encode(rng.uniform(0.2, 0.8, qubits)) for _ in range(5)]
        labels = rng.integers(0, 2, 5).astype(float)
        params = rng.uniform(-1, 1, spec.param_count)
        z, dz = _reference_z_and_dz(spec, params, states)
        _, want = _chain_rule_gradient(z, dz, labels)
        got = loss_gradient(spec, params, states, labels)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12,
                                   err_msg=f"{qubits} qubits, {reps} reps")


def test_training_under_global_noise_matches_parameter_shift_loop(rng):
    ds = qc.synth_gaussians(2, 6, 3.0, rng)
    states = [qc.angle_encode(x) for x in ds.features]
    labels = ds.labels.astype(float)
    spec = ModelSpec(qubits=2, ansatz_reps=1, noise=NoiseSpec.depolarizing(0.2))
    cfg = TrainConfig(epochs=10, learning_rate=0.3, seed=3)
    model = qc.train(states, labels, spec, cfg)

    # a global channel at the input scales <Z> by 1 - p; Z is traceless,
    # so there is no offset
    scale = 0.8
    theta = np.random.default_rng(cfg.seed).uniform(-0.1, 0.1, spec.param_count)
    log = []
    for _ in range(cfg.epochs):
        z, dz = _reference_z_and_dz(spec, theta, states)
        loss, grad = _chain_rule_gradient(z, dz, labels, scale)
        log.append(loss)
        theta = theta - cfg.learning_rate * grad
    np.testing.assert_allclose(model.params, theta, rtol=0, atol=1e-12)
    np.testing.assert_allclose(model.train_log, log, rtol=0, atol=1e-12)


def test_global_noise_scale_matches_density_walk(rng):
    # both scopes act at one hook, on the effective observable: global
    # noise as the scale 1 - p, per-qubit noise as its Pauli gathers
    for scope in ("global", "per_qubit"):
        spec = ModelSpec(qubits=3, ansatz_reps=2,
                         noise=NoiseSpec.depolarizing(0.13, scope=scope))
        params = rng.uniform(-1, 1, spec.param_count)
        st = qc.angle_encode(rng.uniform(0, 1, 3))
        model = TrainedModel(spec=spec, params=params, train_log=())
        fast = _p1(model, st)

        circ = build_real_amplitudes(3, 2)
        rho = apply_circuit_density(circ, params, pure_to_density(st), spec.noise)
        z = float(np.trace(np.asarray(z_on_qubit(spec.qubits)) @ rho.mat).real)
        assert fast == pytest.approx((1 + z) / 2, abs=1e-12)


def test_per_qubit_full_mix_predicts_half(rng):
    spec = ModelSpec(qubits=2, ansatz_reps=1,
                     noise=NoiseSpec.depolarizing(0.75, scope="per_qubit"))
    params = rng.uniform(-1, 1, spec.param_count)
    model = TrainedModel(spec=spec, params=params, train_log=())
    assert _p1(model, qc.angle_encode([0.3, 0.8])) == pytest.approx(0.5, abs=1e-12)


def test_total_depolarizing_predicts_half_exactly(rng):
    spec = ModelSpec(qubits=2, ansatz_reps=1, noise=NoiseSpec.depolarizing(1.0))
    params = rng.uniform(-1, 1, spec.param_count)
    model = TrainedModel(spec=spec, params=params, train_log=())
    p = _p1(model, qc.angle_encode([0.3, 0.8]))
    assert p == 0.5  # scale is exactly zero, no float residue allowed
    assert qc.evaluate_losses(model, [qc.angle_encode([0.3, 0.8])], [1])[0] == math.log(2.0)


def test_shot_noise_needs_rng_and_is_deterministic(rng):
    spec = ModelSpec(qubits=1, ansatz_reps=1, noise=NoiseSpec.measurement(200))
    model = TrainedModel(spec=spec, params=np.zeros(spec.param_count), train_log=())
    st = qc.angle_encode([0.37])
    with pytest.raises(ValueError):
        _p1(model, st)
    a = _p1(model, st, np.random.default_rng(4))
    b = _p1(model, st, np.random.default_rng(4))
    assert a == b


def test_shot_noise_concentrates_with_many_shots():
    spec_shots = ModelSpec(qubits=1, ansatz_reps=1,
                           noise=NoiseSpec.measurement(200_000))
    model = TrainedModel(spec=spec_shots, params=np.zeros(spec_shots.param_count),
                         train_log=())
    st = qc.angle_encode([0.37])
    clean = ModelSpec(qubits=1, ansatz_reps=1)
    exact = _p1(TrainedModel(spec=clean, params=np.zeros(clean.param_count), train_log=()), st)
    sampled = _p1(model, st, np.random.default_rng(8))
    assert abs(sampled - exact) < 0.01


def test_train_determinism_and_progress(rng):
    ds = qc.synth_gaussians(2, 20, 3.0, rng)
    states = [qc.angle_encode(x) for x in ds.features]
    spec = ModelSpec(qubits=2, ansatz_reps=2)
    cfg = TrainConfig(epochs=25, learning_rate=0.3, seed=5)
    m1 = qc.train(states, ds.labels, spec, cfg)
    m2 = qc.train(states, ds.labels, spec, cfg)
    assert np.array_equal(m1.params, m2.params)
    assert m1.train_log[-1] < m1.train_log[0]
    m3 = qc.train(states, ds.labels, spec, TrainConfig(epochs=25, learning_rate=0.3, seed=6))
    assert not np.array_equal(m1.params, m3.params)


@pytest.mark.parametrize("noise", [NoiseSpec.none(), NoiseSpec.depolarizing(0.2)])
def test_stacked_training_matches_one_model_at_a_time(rng, noise):
    # each model of a stack sees only its own slice of every matmul, so
    # the stack must reproduce train() on that model alone, bit for bit
    spec = ModelSpec(qubits=3, ansatz_reps=2, noise=noise)
    cfg = TrainConfig(epochs=12, learning_rate=0.3)
    for S in (1, 2, 5):
        data = [[qc.angle_encode(rng.uniform(0, 1, 3)) for _ in range(9)]
                for _ in range(S)]
        labels = rng.integers(0, 2, size=(S, 9)).astype(float)
        seeds = [int(seed) for seed in rng.integers(2**63, size=S)]
        states = np.stack([_stack_states(d, spec.dim) for d in data])
        stacked = _train_stack(states, labels, spec, cfg, seeds)
        for s in range(S):
            alone = qc.train(data[s], labels[s], spec, replace(cfg, seed=seeds[s]))
            assert np.array_equal(stacked[s].params, alone.params), (S, s)
            assert np.array_equal(stacked[s].train_log, alone.train_log), (S, s)


def test_engine_layers_match_kron_reference(rng):
    # per layer the Kronecker product of the RY matrices, qubit 0 most
    # significant, times the CX chain before it; the engine gathers where
    # the reference multiplies, so every bit must agree
    for qubits, reps in itertools.product(range(1, 6), range(1, 4)):
        circuit = build_real_amplitudes(qubits, reps)
        chain = np.eye(2**qubits)
        for q in range(qubits - 1):
            chain = _gate_unitary(Gate("CX", (q, q + 1)), circuit, np.zeros(0)).real @ chain
        theta = rng.uniform(-np.pi, np.pi, size=(3, (reps + 1) * qubits))
        got = _engine_for(ModelSpec(qubits=qubits, ansatz_reps=reps)).layers(theta)
        for s, layer in itertools.product(range(3), range(reps + 1)):
            want = np.ones((1, 1))
            for angle in theta[s, layer * qubits:(layer + 1) * qubits]:
                c, si = np.cos(angle / 2.0), np.sin(angle / 2.0)
                want = np.kron(want, np.array([[c, -si], [si, c]]))
            if layer > 0:
                want = want @ chain
            assert np.array_equal(got[s, layer].view(np.int64), want.view(np.int64)), \
                (qubits, reps, s, layer)


def test_per_qubit_channel_matches_complex_pauli_products(rng):
    # the engine's real gather against noise.py's embedded Pauli products,
    # model by model: equal bits, and nothing imaginary to drop
    for qubits, S, p in itertools.product(range(1, 5), (1, 5), (0.0, 0.05, 0.75, 1.0)):
        engine = _engine_for(ModelSpec(qubits=qubits, ansatz_reps=1))
        A = rng.normal(size=(S, 2**qubits, 2**qubits))
        A = A + A.transpose(0, 2, 1)
        for q in range(qubits):
            got = engine.depolarize_qubit(A, q, p)
            for s in range(S):
                want = _depolarize_qubit_mat(A[s], q, p)
                assert not want.imag.any()
                assert np.array_equal(got[s], want.real), (qubits, S, p, q, s)


def test_engine_is_real(rng):
    # the engine runs in float64: a complex state is read only when its
    # imaginary part is zero, and then gives the bits of its real twin
    spec = ModelSpec(qubits=2, ansatz_reps=1, noise=NoiseSpec.depolarizing(0.1))
    cfg = TrainConfig(epochs=3, learning_rate=0.3, seed=2)
    real = [qc.angle_encode(x) for x in rng.uniform(0, 1, (4, 2))]
    labels = [0, 1, 1, 0]
    twins = [qc.pure(st.amps) for st in real]
    assert all(np.iscomplexobj(st.amps) for st in twins)
    phased = [qc.pure(st.amps * 1j) for st in real]

    model = qc.train(real, labels, spec, cfg)
    assert model.params.dtype == np.float64
    assert _observables(spec, model.params, spec.noise).dtype == np.float64
    twin_model = qc.train(twins, labels, spec, cfg)
    assert np.array_equal(twin_model.params, model.params)
    assert np.array_equal(qc.evaluate_losses(model, twins, labels),
                          qc.evaluate_losses(model, real, labels))

    with pytest.raises(ValueError, match="imaginary"):
        qc.evaluate_losses(model, phased, labels)
    with pytest.raises(ValueError, match="imaginary"):
        qc.train(phased, labels, spec, cfg)


def test_under_noise_training_uses_noisy_forward(rng):
    ds = qc.synth_gaussians(2, 12, 3.0, rng)
    states = [qc.angle_encode(x) for x in ds.features]
    noisy_spec = ModelSpec(qubits=2, ansatz_reps=1, noise=NoiseSpec.depolarizing(0.2))
    clean_spec = replace(noisy_spec, noise=NoiseSpec.none())
    cfg = TrainConfig(epochs=10, learning_rate=0.3, seed=1)
    m_noisy = qc.train(states, ds.labels, noisy_spec, cfg)
    m_clean = qc.train(states, ds.labels, clean_spec, cfg)
    assert not np.array_equal(m_noisy.params, m_clean.params)


def test_under_noise_per_qubit_training_unsupported(rng):
    ds = qc.synth_gaussians(2, 8, 3.0, rng)
    states = [qc.angle_encode(x) for x in ds.features]
    spec = ModelSpec(qubits=2, ansatz_reps=1,
                     noise=NoiseSpec.depolarizing(0.2, scope="per_qubit"))
    cfg = TrainConfig(epochs=2, learning_rate=0.1)
    with pytest.raises(NotImplementedError):
        qc.train(states, ds.labels, spec, cfg)
    qc.train(states, ds.labels, replace(spec, noise=NoiseSpec.none()), cfg)


def test_eval_model_swaps_noise_only(rng):
    spec = ModelSpec(qubits=2, ansatz_reps=1)
    params = rng.uniform(-1, 1, spec.param_count)
    model = TrainedModel(spec=spec, params=params, train_log=())
    noisy = qc.eval_model(model, NoiseSpec.depolarizing(1.0))
    assert np.array_equal(noisy.params, model.params)
    assert noisy.spec.noise.p == 1.0
    assert _p1(noisy, qc.angle_encode([0.2, 0.9])) == 0.5


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(qubits=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    for rate in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            TrainConfig(epochs=5, learning_rate=rate)
