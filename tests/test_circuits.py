import math

import numpy as np
import pytest

import qcanary as qc
from qcanary.circuits import Gate, _gate_unitary, apply_circuit_pure
from qcanary.states import pure_to_density

from conftest import random_pure


def test_cx_matrix_msb_control():
    circ = qc.ParamCircuit(qubits=2, gates=(Gate("CX", (0, 1)),), param_count=0)
    u = _gate_unitary(circ.gates[0], circ, np.array([]))
    # control is qubit 0 (most significant bit): |10> -> |11>, |11> -> |10>
    expect = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert np.allclose(u, expect, atol=1e-14)


def test_z_observable_indexing():
    assert np.allclose(np.diag(qc.z_on_qubit(2, 0).matrix), [1, 1, -1, -1])
    assert np.allclose(np.diag(qc.z_on_qubit(2, 1).matrix), [1, -1, 1, -1])


def test_ansatz_shapes():
    c41 = qc.build_real_amplitudes(4, 1)
    assert c41.param_count == 8
    assert sum(g.kind == "CX" for g in c41.gates) == 3
    c52 = qc.build_real_amplitudes(5, 2)
    assert c52.param_count == 15
    assert sum(g.kind == "CX" for g in c52.gates) == 8
    c12 = qc.build_real_amplitudes(1, 2)
    assert c12.param_count == 3
    assert not any(g.kind == "CX" for g in c12.gates)


def test_single_ry_expectation():
    circ = qc.ParamCircuit(qubits=1, gates=(Gate("RY", (0,), param_slot=0),),
                           param_count=1)
    theta = math.pi / 3
    out = apply_circuit_pure(circ, np.array([theta]), qc.pure([1, 0]))
    z = qc.expectation(pure_to_density(out), qc.z_on_qubit(1, 0))
    assert z == pytest.approx(math.cos(theta), abs=1e-12)


def test_parameter_shift_single_ry():
    circ = qc.ParamCircuit(qubits=1, gates=(Gate("RY", (0,), param_slot=0),),
                           param_count=1)
    theta = 0.9
    grad = qc.parameter_shift_gradient(circ, np.array([theta]), qc.pure([1, 0]),
                                       qc.z_on_qubit(1, 0))
    assert grad[0] == pytest.approx(-math.sin(theta), abs=1e-12)


def _fd_gradient(circ, params, state, obs, h=1e-5):
    grad = np.zeros_like(params)
    for j in range(len(params)):
        up, down = params.copy(), params.copy()
        up[j] += h
        down[j] -= h
        zu = qc.expectation(pure_to_density(apply_circuit_pure(circ, up, state)), obs)
        zd = qc.expectation(pure_to_density(apply_circuit_pure(circ, down, state)), obs)
        grad[j] = (zu - zd) / (2 * h)
    return grad


def test_parameter_shift_matches_finite_differences(rng):
    circ = qc.build_real_amplitudes(3, 2)
    obs = qc.z_on_qubit(3, 0)
    for _ in range(10):
        params = rng.uniform(-math.pi, math.pi, circ.param_count)
        state = random_pure(rng, 8)
        ps = qc.parameter_shift_gradient(circ, params, state, obs)
        fd = _fd_gradient(circ, params, state, obs)
        assert np.abs(ps - fd).max() < 1e-6


def test_parameter_shift_shared_slot():
    # two rotations driven by one parameter: contributions must add
    gates = (Gate("RY", (0,), param_slot=0), Gate("RY", (0,), param_slot=0))
    circ = qc.ParamCircuit(qubits=1, gates=gates, param_count=1)
    theta = 0.4
    grad = qc.parameter_shift_gradient(circ, np.array([theta]), qc.pure([1, 0]),
                                       qc.z_on_qubit(1, 0))
    # total angle is 2 theta, so d cos(2 theta)/d theta = -2 sin(2 theta)
    assert grad[0] == pytest.approx(-2 * math.sin(2 * theta), abs=1e-12)


def test_density_walk_matches_pure_when_noiseless(rng):
    circ = qc.build_real_amplitudes(3, 2)
    params = rng.uniform(-1, 1, circ.param_count)
    psi = random_pure(rng, 8)
    rho = qc.apply_circuit_density(circ, params, pure_to_density(psi),
                                   qc.NoiseSpec.none())
    out = apply_circuit_pure(circ, params, psi)
    assert np.allclose(rho.mat, np.outer(out.amps, out.amps.conj()), atol=1e-12)


def test_full_depolarizing_kills_expectation(rng):
    circ = qc.build_real_amplitudes(2, 1)
    params = rng.uniform(-1, 1, circ.param_count)
    rho = qc.apply_circuit_density(circ, params, pure_to_density(random_pure(rng, 4)),
                                   qc.NoiseSpec.depolarizing(1.0))
    assert qc.expectation(rho, qc.z_on_qubit(2, 0)) == pytest.approx(0.0, abs=1e-12)


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("CX", (0,))
    with pytest.raises(ValueError):
        Gate("RY", (0,))  # rotation without a param slot
    with pytest.raises(ValueError):
        Gate("CX", (0, 1), param_slot=0)
    with pytest.raises(ValueError):
        Gate("H", (0,))  # not in the gate set


def test_circuit_slot_range_checked():
    with pytest.raises(ValueError):
        qc.ParamCircuit(qubits=1, gates=(Gate("RY", (0,), param_slot=2),),
                        param_count=1)
    with pytest.raises(ValueError):
        qc.ParamCircuit(qubits=1, gates=(Gate("RY", (1,), param_slot=0),),
                        param_count=1)
