import itertools
import math
import platform
import sys
from dataclasses import replace

import numpy as np
import pytest

import qcanary as qc
from qcanary import ModelSpec, NoiseSpec, TrainConfig, TrainedModel
from qcanary.classifier import (_bce, _engine_for, _GradientStep, _init_params, _label_probs,
                                _losses, _Plan, _stack_states, _train_stack, loss_gradient,
                                mean_loss, P_CLAMP)
from qcanary.circuits import (Gate, _gate_unitary, apply_circuit_density, apply_circuit_pure,
                              build_real_amplitudes, expectation, parameter_shift_gradient,
                              z_on_qubit)
from qcanary.encoding import _encode_rows
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


def test_training_loss_and_gradient_check_the_parameter_count(rng):
    # one value must not spread over every slot, and five must not fail
    # inside numpy: both calls refuse a vector of the wrong length
    spec = ModelSpec(qubits=4, ansatz_reps=3)
    states = [qc.angle_encode(rng.uniform(0, 1, 4)) for _ in range(3)]
    for fn, got in itertools.product((mean_loss, loss_gradient), (1, 5)):
        with pytest.raises(ValueError, match=f"spec wants 16 parameters, got {got}"):
            fn(spec, np.full(got, 0.3), states, [0, 1, 1])


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
    # rounding in both computations. (4, 3) is the acceptance audit's shape
    for qubits, reps in [*itertools.product((1, 2, 3), (1, 2)), (4, 3), (5, 2)]:
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
        theta = _init_params(spec, seeds)
        log = _train_stack(states, labels, spec, cfg, theta)
        for s in range(S):
            alone = qc.train(data[s], labels[s], spec, replace(cfg, seed=seeds[s]))
            assert np.array_equal(theta[s], alone.params), (S, s)
            assert np.array_equal(log[s], alone.train_log), (S, s)


def _allocating_step(engine, states, labels, noise, theta):
    """The gradient step as it was before it wrote into buffers: fresh
    arrays at every stage, the layer products with the two-entry axis
    innermost, the two-log loss, the slots read after each layer's
    rotation through the observables the walk back passed, and a
    fancy-index trace gather."""
    S, L, n = theta.shape[0], engine.reps + 1, engine.n
    half = np.reshape(theta, (S, L, n)) / 2.0
    factors = np.stack([np.cos(half), np.sin(half)], axis=-1)
    products = factors[:, :, 0]
    for q in range(1, n):
        products = (products[..., :, None] * factors[:, :, q, None, :]).reshape(S, L, -1)
    table = np.concatenate([products, -products], axis=-1).reshape(S, -1)
    layers = np.take(table, engine.gather, axis=1)
    # Z on qubit 0, +1 on the first dim/2 basis states
    after, A = [None] * L, np.diag(-engine.sign[0])
    for layer in range(L - 1, -1, -1):
        after[layer] = A
        V = layers[:, layer]
        A = V.transpose(0, 2, 1) @ A @ V
    if noise.kind == "depolarizing":
        A = (1.0 - noise.p) * A
    z = np.einsum("sib,sib->sb", states, A @ states)
    p = np.clip((1.0 + z) / 2.0, 1e-9, 1.0 - 1e-9)
    dldp = -labels / p + (1.0 - labels) / (1.0 - p)
    C = (states * (0.5 * dldp / labels.shape[-1])[:, None, :]) @ states.transpose(0, 2, 1)
    M = np.empty_like(layers)
    for layer in range(L):
        V = layers[:, layer]
        C = V @ C @ V.transpose(0, 2, 1)
        M[:, layer] = C @ after[layer]
    loss = -(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))
    traces = (engine.sign * M[..., engine.flip, np.arange(engine.dim)]).sum(axis=-1)
    return loss.mean(axis=-1), traces.reshape(S, -1), p


@pytest.mark.parametrize("noise", [NoiseSpec.none(), NoiseSpec.depolarizing(0.3)])
def test_gradient_step_matches_allocating_step(rng, noise):
    # the step reads p as ||R_0 psi||^2 where the reference reads
    # (1 + psi^T A psi)/2, and its slots through dim/2 rows and columns
    # where the reference walks whole observables: the same quantities by
    # other products of the same layers. dL/dp = +-1/q magnifies their
    # rounding as a prediction nears the clamp, so each model's bound
    # follows its conditioning, q the reference's label probabilities
    eps = np.finfo(float).eps
    for qubits, reps, S in itertools.product(range(1, 6), range(1, 4), (1, 3, 32)):
        engine = _engine_for(ModelSpec(qubits=qubits, ansatz_reps=reps))
        B = 7 if S == 32 else 13
        rows = _encode_rows(rng.uniform(0, 1, size=(S * B, qubits)))
        states = np.ascontiguousarray(rows.reshape(S, B, -1).transpose(0, 2, 1))
        labels = rng.integers(0, 2, size=(S, B)).astype(float)
        theta = rng.uniform(-0.5, 0.5, size=(S, (reps + 1) * qubits))
        step = _GradientStep(engine, states, labels, noise)
        for epoch in range(20):
            loss, grad = step(theta)
            want_loss, want_grad, p = _allocating_step(engine, states, labels, noise, theta)
            q = np.where(labels == 1.0, p, 1.0 - p)
            where = (qubits, reps, S, epoch)
            assert np.all(np.abs(loss - want_loss) <= 64 * eps * (1.0 / q).mean(axis=-1)), where
            assert np.all(np.abs(grad - want_grad).max(axis=-1)
                          <= 64 * eps * (1.0 / q**2).mean(axis=-1)), where
            theta = theta - 0.3 * grad


def test_generator_traces_read_the_cx_permuted_generators(rng):
    # 2 tr(G_q V_l Y_l V_l^T) = 2 tr(V_l^T G_q V_l Y_l), and the RY layer in
    # V_l commutes with G_q: the gather through the permuted generators
    # must give the dense trace with the whole layer in place
    G1 = np.array([[0.0, -0.5], [0.5, 0.0]])  # -iY/2
    for qubits, reps in itertools.product(range(1, 6), range(1, 4)):
        engine = _engine_for(ModelSpec(qubits=qubits, ansatz_reps=reps))
        S, L, dim = 3, reps + 1, engine.dim
        plan = _Plan(engine, S, 1, NoiseSpec.none(), gradient=True)
        layers = engine.layers(plan, rng.uniform(-np.pi, np.pi, size=(S, L * qubits))).copy()
        Y = rng.normal(size=(S, L, dim, dim))
        plan.layers[...] = Y
        G = [np.kron(np.kron(np.eye(2**q), G1), np.eye(2**(qubits - 1 - q)))
             for q in range(qubits)]
        want = np.array([[2.0 * np.trace(Gq @ V @ Yl @ V.T)
                          for V, Yl in zip(layers[s], Y[s]) for Gq in G] for s in range(S)])
        np.testing.assert_allclose(engine.generator_traces(plan), want, rtol=0, atol=1e-13,
                                   err_msg=f"{qubits} qubits, {reps} reps")
    # the order of the sum is pinned too: slot (l, q) adds its signed
    # entries over the columns a one at a time, in order, as the per-model
    # reduction did. A reduction along a contiguous last axis sums
    # pairwise and changes the last bits from 3 qubits up
    for qubits, S in itertools.product(range(1, 6), (1, 3, 32)):
        engine = _engine_for(ModelSpec(qubits=qubits, ansatz_reps=2))
        L, dim, P = 3, engine.dim, 3 * qubits
        plan = _Plan(engine, S, 1, NoiseSpec.none(), gradient=True)
        plan.layers[...] = rng.normal(size=(S, L, dim, dim))
        entries = (plan.layers.reshape(S, -1)[:, engine.generator_offsets]
                   * engine.generator_signs).reshape(S, dim, P)
        want = entries[:, 0].copy()
        for a in range(1, dim):
            want += entries[:, a]
        got = engine.generator_traces(plan)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (qubits, S)


def test_label_probs_need_no_mask(rng):
    # q = |off - p| with off = 1 - label is p itself at label 1 and the
    # rounded 1 - p at label 0, whatever the order of the labels; and the
    # loss is the two-log binary cross-entropy bit for bit
    for p in (np.full((3, 8), P_CLAMP), np.full((3, 8), 1.0 - P_CLAMP),
              rng.uniform(P_CLAMP, 1.0 - P_CLAMP, size=(32, 116))):
        shuffled = rng.integers(0, 2, size=p.shape).astype(float)
        for labels in (np.sort(shuffled, axis=-1), shuffled):
            label_one = labels == 1.0
            want = np.where(label_one, p, 1.0 - p)
            assert np.array_equal(_label_probs(p, 1.0 - labels).view(np.int64),
                                  want.view(np.int64))
            into = np.empty_like(p)
            assert _label_probs(p, 1.0 - labels, out=into) is into
            assert np.array_equal(into.view(np.int64), want.view(np.int64))
            two_logs = -(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))
            assert np.array_equal(_bce(p, labels).view(np.int64), two_logs.view(np.int64))


def test_walk_back_keeps_the_readout_rows(rng):
    # R_l = E V_{L-1} ... V_l is the top half of the dense product of the
    # layers; through R_0 the readout observable U^T Z U is 2 R_0^T R_0 - I,
    # and the read's p is the Born rule of the pure-state circuit walk
    for qubits, reps in itertools.product(range(1, 6), range(1, 4)):
        spec = ModelSpec(qubits=qubits, ansatz_reps=reps)
        engine, S, L, dim, half = _engine_for(spec), 3, reps + 1, spec.dim, spec.dim // 2
        circuit = build_real_amplitudes(qubits, reps)
        theta = rng.uniform(-np.pi, np.pi, size=(S, spec.param_count))
        encoded = [qc.angle_encode(rng.uniform(0, 1, qubits)) for _ in range(5)]
        states = np.broadcast_to(_stack_states(encoded, dim), (S, dim, len(encoded)))
        plan = _Plan(engine, S, len(encoded), NoiseSpec.none())
        layers = engine.layers(plan, theta)
        rows = engine.walk_back(plan)
        assert rows.shape == (S, L, half, dim)
        p = engine.read(plan, states)
        for s in range(S):
            where = f"{qubits} qubits, {reps} reps, model {s}"
            product = np.eye(dim)
            for layer in range(L - 1, -1, -1):
                product = product @ layers[s, layer]
                np.testing.assert_allclose(rows[s, layer], product[:half], rtol=0, atol=1e-13,
                                           err_msg=f"{where}, layer {layer}")
            U = np.eye(dim)
            for gate in circuit.gates:
                U = _gate_unitary(gate, circuit, theta[s]).real @ U
            np.testing.assert_allclose(2.0 * rows[s, 0].T @ rows[s, 0] - np.eye(dim),
                                       U.T @ z_on_qubit(qubits).real @ U, rtol=0, atol=1e-13,
                                       err_msg=where)
            want = [np.sum(np.abs(apply_circuit_pure(circuit, theta[s], st).amps[:half]) ** 2)
                    for st in encoded]
            np.testing.assert_allclose(p[s], want, rtol=0, atol=1e-12, err_msg=where)


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the bound describes how glibc malloc trims freed memory back "
                           "to the OS, counted by Linux's ru_minflt")
def test_stacked_training_does_not_refault_its_step_buffers(rng):
    # an audit block's stack: 32 models on 116 states each. Arrays this
    # large, freed and allocated again on every step, go back to the OS and
    # fault in anew each time, hundreds of minor faults per epoch; the
    # step's buffers live for the whole call instead
    import resource

    spec, cfg, S, B = ModelSpec(qubits=4, ansatz_reps=3), TrainConfig(epochs=100), 32, 116
    rows = _encode_rows(rng.uniform(0, 1, size=(S * B, spec.qubits)))
    states = np.ascontiguousarray(rows.reshape(S, B, spec.dim).transpose(0, 2, 1))
    labels = rng.integers(0, 2, size=(S, B)).astype(float)
    init = _init_params(spec, range(S))
    _train_stack(states, labels, spec, cfg, init.copy())  # warm-up
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _train_stack(states, labels, spec, cfg, init)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 50 * cfg.epochs, faults


_FIRST_CALL = """
import resource
import numpy as np
from qcanary import ModelSpec, TrainConfig
from qcanary.classifier import _init_params, _train_stack
from qcanary.encoding import _encode_rows

rng = np.random.default_rng(0)
spec, cfg, S, B = ModelSpec(qubits=4, ansatz_reps=3), TrainConfig(epochs=100), 32, 116
rows = _encode_rows(rng.uniform(0, 1, size=(S * B, spec.qubits)))
states = np.ascontiguousarray(rows.reshape(S, B, spec.dim).transpose(0, 2, 1))
labels = rng.integers(0, 2, size=(S, B)).astype(float)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
_train_stack(states, labels, spec, cfg, _init_params(spec, range(S)))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the bound describes how glibc malloc trims freed memory back "
                           "to the OS, counted by Linux's ru_minflt")
def test_first_training_call_in_a_process_faults_only_its_buffers():
    # the CLI runs one audit per process, so the first stacked training
    # call is the one it pays for. Until glibc's trim threshold has grown,
    # arrays a step allocates and frees go back to the OS after every
    # epoch and fault in anew, about a hundred faults per epoch; a step
    # that writes only into its buffers faults each page of them once
    import os
    import subprocess

    src = os.path.dirname(os.path.dirname(os.path.abspath(qc.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", _FIRST_CALL], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    faults = int(done.stdout.split()[-1])
    assert faults < 20 * 100, faults


def test_warm_gradient_step_allocates_no_arrays(rng):
    # an audit block's stack. After its first call a step writes every
    # array into its own buffers; what a warm call still allocates is
    # numpy's iteration state, under 2 KiB at any moment once the ufunc
    # iteration buffers are shrunk to 16 elements. Any per-epoch array of
    # this stack is 4 KiB or more: (S, P) is, and so are the layer table's
    import tracemalloc

    spec, S, B = ModelSpec(qubits=4, ansatz_reps=3), 32, 116
    rows = _encode_rows(rng.uniform(0, 1, size=(S * B, spec.qubits)))
    states = np.ascontiguousarray(rows.reshape(S, B, spec.dim).transpose(0, 2, 1))
    labels = rng.integers(0, 2, size=(S, B)).astype(float)
    theta = rng.uniform(-0.1, 0.1, size=(S, spec.param_count))
    for noise in (NoiseSpec.none(), NoiseSpec.depolarizing(0.3)):
        step = _GradientStep(_engine_for(spec), states, labels, noise)
        step(theta)  # warm-up
        with np.errstate():  # restores the buffer size on exit
            np.setbufsize(16)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                step(theta)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        assert peak < 4096, (noise.kind, peak)


def test_warm_per_qubit_read_allocates_no_observable_per_qubit(rng):
    # an audit block's read under per-qubit noise: 64 models on 32
    # canaries each. The read builds the observable and applies each
    # qubit's channel in buffers its plan owns, so past the plan's own
    # buffers a warm call allocates less than one (S, dim, dim) array. The
    # read leaves the readout rows' T unwritten, so its plan owns none
    import tracemalloc

    spec, S, B = ModelSpec(qubits=4, ansatz_reps=3), 64, 32
    noise = NoiseSpec.depolarizing(0.05, scope="per_qubit")
    theta = rng.uniform(-1, 1, size=(S, spec.param_count))
    encoded = _encode_rows(rng.uniform(0, 1, size=(S * B, spec.qubits)))
    states = np.ascontiguousarray(encoded.reshape(S, B, spec.dim).transpose(0, 2, 1))
    labels = rng.integers(0, 2, size=(S, B)).astype(float)
    _losses(spec, theta, noise, states, labels)  # warm-up
    with np.errstate():  # restores the buffer size on exit
        np.setbufsize(16)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            plan = _Plan(_engine_for(spec), S, B, noise=noise)
            owned = tracemalloc.get_traced_memory()[0] - start
            del plan
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _losses(spec, theta, noise, states, labels)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    assert peak - owned < S * spec.dim * spec.dim * 8, (peak, owned)
    assert not hasattr(_Plan(_engine_for(spec), S, B, noise=noise), "T")


def test_engine_layers_match_kron_reference(rng):
    # per layer the Kronecker product of the RY matrices, qubit 0 most
    # significant, times the CX chain before it; the engine gathers where
    # the reference multiplies, so every bit must agree
    for qubits, reps in itertools.product(range(1, 6), range(1, 4)):
        circuit = build_real_amplitudes(qubits, reps)
        chain = np.eye(2**qubits)
        for q in range(qubits - 1):
            chain = _gate_unitary(Gate("CX", (q, q + 1)), circuit, np.zeros(0)).real @ chain
        # the chain is a permutation matrix, so times it is a column gather;
        # the matmul also adds +0.0 to every entry, which drops a zero's sign
        perm = chain.argmax(axis=0)
        assert np.array_equal(np.eye(2**qubits)[:, perm], chain)
        P = (reps + 1) * qubits
        # exact zeros give sin 0 = 0 and with it signed zeros; +-pi give
        # cos +-pi/2, the nearest float to 0, and sin at its extremes
        theta = np.vstack([rng.uniform(-np.pi, np.pi, size=(3, P)), np.zeros(P),
                           rng.choice([0.0, np.pi, -np.pi], size=(2, P))])
        engine = _engine_for(ModelSpec(qubits=qubits, ansatz_reps=reps))
        got = engine.layers(_Plan(engine, len(theta), 1, NoiseSpec.none()), theta)
        for s, layer in itertools.product(range(len(theta)), range(reps + 1)):
            want = np.ones((1, 1))
            for angle in theta[s, layer * qubits:(layer + 1) * qubits]:
                c, si = np.cos(angle / 2.0), np.sin(angle / 2.0)
                want = np.kron(want, np.array([[c, -si], [si, c]]))
            if layer > 0:
                assert np.array_equal(want @ chain, want[:, perm])
                want = want[:, perm]
            assert np.array_equal(got[s, layer].view(np.int64), want.view(np.int64)), \
                (qubits, reps, s, layer)


def test_per_qubit_channel_matches_complex_pauli_products(rng):
    # the engine's real gather against noise.py's embedded Pauli products,
    # model by model: equal bits, and nothing imaginary to drop
    for qubits, S, p in itertools.product(range(1, 5), (1, 5), (0.0, 0.05, 0.75, 1.0)):
        engine = _engine_for(ModelSpec(qubits=qubits, ansatz_reps=1))
        A = rng.normal(size=(S, 2**qubits, 2**qubits))
        A = A + A.transpose(0, 2, 1)
        plan = _Plan(engine, S, 1, noise=NoiseSpec.depolarizing(p, scope="per_qubit"))
        for q in range(qubits):
            plan.observables[q % 2] = A
            got = engine.depolarize_qubit(plan, q, p)
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
    engine = _engine_for(spec)
    plan = _Plan(engine, 1, len(real), spec.noise)
    engine.layers(plan, model.params[None])
    assert engine.walk_back(plan).dtype == np.float64
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
