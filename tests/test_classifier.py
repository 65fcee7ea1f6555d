import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import qcanary as qc
from qcanary import ModelSpec, NoiseSpec, TrainConfig, TrainedModel
from qcanary.classifier import loss_gradient, mean_loss
from qcanary.circuits import (Observable, apply_circuit_density, build_real_amplitudes,
                              expectation, parameter_shift_gradient, with_noise_ids)
from qcanary.noise import _Y, _embed_1q
from qcanary.states import pure_to_density


def _fixed_model(qubits=1, reps=1, **kw) -> TrainedModel:
    spec = ModelSpec(qubits=qubits, ansatz_reps=reps, **kw)
    return TrainedModel(spec=spec, params=np.zeros(spec.param_count), train_log=())


def test_predict_single_qubit_closed_form():
    # identity ansatz leaves RY(pi/3)|0>, so p = (1 + cos(pi/3)) / 2 = 3/4
    model = _fixed_model()
    p = qc.predict(model, qc.angle_encode([1 / 3]))
    assert p == pytest.approx(0.75, abs=1e-12)


def test_loss_values():
    model = _fixed_model()
    st = qc.angle_encode([1 / 3])  # p = 0.75
    assert qc.loss(model, st, 1) == pytest.approx(-math.log(0.75), abs=1e-12)
    assert qc.loss(model, st, 0) == pytest.approx(-math.log(0.25), abs=1e-12)
    with pytest.raises(ValueError):
        qc.loss(model, st, 2)


def test_loss_clamp_keeps_values_finite():
    model = _fixed_model()
    st = qc.angle_encode([1.0])  # p = 0 exactly
    val = qc.loss(model, st, 1)
    assert math.isfinite(val)
    assert val == pytest.approx(-math.log(1e-9), rel=1e-6)


def test_evaluate_losses_matches_loss_loop(rng):
    spec = ModelSpec(qubits=2, ansatz_reps=2)
    params = rng.uniform(-1, 1, spec.param_count)
    model = TrainedModel(spec=spec, params=params, train_log=())
    states = [qc.angle_encode(rng.uniform(0, 1, 2)) for _ in range(7)]
    labels = rng.integers(0, 2, 7)
    batch = qc.evaluate_losses(model, states, labels)
    singles = [qc.loss(model, s, int(l)) for s, l in zip(states, labels)]
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
    """Noiseless <obs> and its parameter-shift gradient, one circuit per state."""
    circuit = build_real_amplitudes(spec.qubits, spec.ansatz_reps)
    obs = spec.resolved_observable()
    z = np.array([expectation(apply_circuit_density(circuit, params, pure_to_density(st),
                                                    NoiseSpec.none()), obs)
                  for st in states])
    dz = np.array([parameter_shift_gradient(circuit, params, st, obs) for st in states])
    return z, dz


def _chain_rule_gradient(z, dz, labels, scale=1.0, offset=0.0):
    """0.5 mean_b(dL/dp_b dz_b): the loss read through the (scale, offset)
    noise map, the circuit derivative noiseless."""
    p = np.clip((1.0 + scale * z + offset) / 2.0, 1e-9, 1.0 - 1e-9)
    dldp = -labels / p + (1.0 - labels) / (1.0 - p)
    loss = -(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))
    return loss.mean(), 0.5 * (dz * dldp[:, None]).mean(axis=0)


def test_loss_gradient_matches_parameter_shift_reference(rng):
    # one qubit has no CX chain; RX inputs and the Y readout are complex.
    # Features stay inside (0.2, 0.8) so no prediction sits at the clamp,
    # where dL/dp ~ 1/p would magnify rounding in both computations
    for qubits, reps, axis, readout in itertools.product(
            (1, 2, 3), (1, 2), ("RY", "RX"), ("Z", "Y")):
        obs = None if readout == "Z" else Observable(_embed_1q(_Y, qubits - 1, qubits))
        spec = ModelSpec(qubits=qubits, ansatz_reps=reps, encoding_axis=axis,
                         observable=obs)
        states = [qc.angle_encode(rng.uniform(0.2, 0.8, qubits), axis) for _ in range(5)]
        labels = rng.integers(0, 2, 5).astype(float)
        params = rng.uniform(-1, 1, spec.param_count)
        z, dz = _reference_z_and_dz(spec, params, states)
        _, want = _chain_rule_gradient(z, dz, labels)
        got = loss_gradient(spec, params, states, labels)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12,
                                   err_msg=f"{qubits} qubits, {reps} reps, {axis}, {readout}")


def test_training_under_global_noise_matches_parameter_shift_loop(rng):
    ds = qc.synth_gaussians(2, 6, 3.0, rng)
    states = [qc.angle_encode(x) for x in ds.features]
    labels = ds.labels.astype(float)
    spec = ModelSpec(qubits=2, ansatz_reps=1, noise=NoiseSpec.depolarizing(0.2),
                     noise_placement="input_and_layers")
    cfg = TrainConfig(epochs=10, learning_rate=0.3, seed=3, under_noise=True)
    model = qc.train(states, labels, spec, cfg)

    # a global channel at the input and after both RY layers scales <Z> by
    # (1 - p)^3; Z is traceless, so the offset is 0
    scale = 0.8**3
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
    # both scopes: global noise as the (scale, offset) map, per-qubit noise
    # inside the effective observable
    for scope, placement in itertools.product(("global", "per_qubit"),
                                              ("input", "input_and_layers")):
        spec = ModelSpec(qubits=3, ansatz_reps=2,
                         noise=NoiseSpec.depolarizing(0.13, scope=scope),
                         noise_placement=placement)
        params = rng.uniform(-1, 1, spec.param_count)
        st = qc.angle_encode(rng.uniform(0, 1, 3))
        model = TrainedModel(spec=spec, params=params, train_log=())
        fast = qc.predict(model, st)

        circ = with_noise_ids(build_real_amplitudes(3, 2), placement, scope)
        rho = apply_circuit_density(circ, params, pure_to_density(st), spec.noise)
        z = float(np.trace(np.asarray(spec.resolved_observable().matrix) @ rho.mat).real)
        assert fast == pytest.approx((1 + z) / 2, abs=1e-12)


def test_per_qubit_full_mix_predicts_half(rng):
    spec = ModelSpec(qubits=2, ansatz_reps=1,
                     noise=NoiseSpec.depolarizing(0.75, scope="per_qubit"))
    params = rng.uniform(-1, 1, spec.param_count)
    model = TrainedModel(spec=spec, params=params, train_log=())
    assert qc.predict(model, qc.angle_encode([0.3, 0.8])) == pytest.approx(0.5, abs=1e-12)


def test_total_depolarizing_predicts_half_exactly(rng):
    spec = ModelSpec(qubits=2, ansatz_reps=1, noise=NoiseSpec.depolarizing(1.0))
    params = rng.uniform(-1, 1, spec.param_count)
    model = TrainedModel(spec=spec, params=params, train_log=())
    p = qc.predict(model, qc.angle_encode([0.3, 0.8]))
    assert p == 0.5  # scale is exactly zero, no float residue allowed
    assert qc.loss(model, qc.angle_encode([0.3, 0.8]), 1) == math.log(2.0)


def test_shot_noise_needs_rng_and_is_deterministic(rng):
    spec = ModelSpec(qubits=1, ansatz_reps=1, noise=NoiseSpec.measurement(200))
    model = TrainedModel(spec=spec, params=np.zeros(spec.param_count), train_log=())
    st = qc.angle_encode([0.37])
    with pytest.raises(ValueError):
        qc.predict(model, st)
    a = qc.predict(model, st, np.random.default_rng(4))
    b = qc.predict(model, st, np.random.default_rng(4))
    assert a == b


def test_shot_noise_concentrates_with_many_shots():
    spec_shots = ModelSpec(qubits=1, ansatz_reps=1,
                           noise=NoiseSpec.measurement(200_000))
    model = TrainedModel(spec=spec_shots, params=np.zeros(spec_shots.param_count),
                         train_log=())
    st = qc.angle_encode([0.37])
    clean = ModelSpec(qubits=1, ansatz_reps=1)
    exact = qc.predict(TrainedModel(spec=clean, params=np.zeros(clean.param_count),
                                    train_log=()), st)
    sampled = qc.predict(model, st, np.random.default_rng(8))
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


def test_spsa_training_runs(rng):
    ds = qc.synth_gaussians(2, 16, 3.0, rng)
    states = [qc.angle_encode(x) for x in ds.features]
    spec = ModelSpec(qubits=2, ansatz_reps=1)
    cfg = TrainConfig(epochs=60, learning_rate=0.4, optimizer="spsa", seed=2)
    model = qc.train(states, ds.labels, spec, cfg)
    assert len(model.train_log) == 60
    assert model.train_log[-1] < model.train_log[0]
    # deterministic for a fixed seed, with exact and with sampled readout
    for s in (spec, replace(spec, train_shots=50)):
        m1, m2 = (qc.train(states, ds.labels, s, cfg) for _ in range(2))
        assert np.array_equal(m1.params, m2.params)
        assert np.array_equal(m1.train_log, m2.train_log)
        assert not np.array_equal(m1.params, qc.train(states, ds.labels, s,
                                                      replace(cfg, seed=3)).params)


def test_under_noise_training_uses_noisy_forward(rng):
    ds = qc.synth_gaussians(2, 12, 3.0, rng)
    states = [qc.angle_encode(x) for x in ds.features]
    noisy_spec = ModelSpec(qubits=2, ansatz_reps=1, noise=NoiseSpec.depolarizing(0.2))
    cfg_noisy = TrainConfig(epochs=10, learning_rate=0.3, seed=1, under_noise=True)
    cfg_clean = TrainConfig(epochs=10, learning_rate=0.3, seed=1, under_noise=False)
    m_noisy = qc.train(states, ds.labels, noisy_spec, cfg_noisy)
    m_clean = qc.train(states, ds.labels, noisy_spec, cfg_clean)
    assert not np.array_equal(m_noisy.params, m_clean.params)


def test_under_noise_per_qubit_training_unsupported(rng):
    ds = qc.synth_gaussians(2, 8, 3.0, rng)
    states = [qc.angle_encode(x) for x in ds.features]
    spec = ModelSpec(qubits=2, ansatz_reps=1,
                     noise=NoiseSpec.depolarizing(0.2, scope="per_qubit"))
    with pytest.raises(NotImplementedError):
        qc.train(states, ds.labels, spec,
                 TrainConfig(epochs=2, learning_rate=0.1, under_noise=True))


def test_eval_model_swaps_noise_only(rng):
    spec = ModelSpec(qubits=2, ansatz_reps=1)
    params = rng.uniform(-1, 1, spec.param_count)
    model = TrainedModel(spec=spec, params=params, train_log=())
    noisy = qc.eval_model(model, NoiseSpec.depolarizing(1.0))
    assert np.array_equal(noisy.params, model.params)
    assert noisy.spec.noise.p == 1.0
    assert qc.predict(noisy, qc.angle_encode([0.2, 0.9])) == 0.5


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(qubits=0)
    with pytest.raises(ValueError):
        ModelSpec(qubits=2, encoding_axis="RZ")
    with pytest.raises(ValueError):
        ModelSpec(qubits=2, noise_placement="everywhere")
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=5, learning_rate=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(epochs=5, optimizer="adam")
