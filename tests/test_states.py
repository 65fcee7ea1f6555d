import math

import numpy as np
import pytest

import qcanary as qc
from qcanary.states import MAX_DIM, DensityMatrix

from conftest import random_density, random_pure


def test_pure_requires_power_of_two_dim():
    with pytest.raises(ValueError):
        qc.pure([1.0, 0.0, 0.0])


def test_pure_requires_unit_norm():
    with pytest.raises(ValueError):
        qc.pure([1.0, 1.0])


def test_density_rejects_non_hermitian():
    with pytest.raises(ValueError):
        qc.density(np.array([[0.5, 0.5], [0.1, 0.5]]))


def test_density_rejects_wrong_trace():
    with pytest.raises(ValueError):
        qc.density(np.eye(2))


def test_density_rejects_negative_eigenvalue():
    with pytest.raises(ValueError):
        qc.density(np.diag([1.5, -0.5]))


def test_trace_distance_zero_vs_plus():
    # closed form: sqrt(1 - |<0|+>|^2) = sqrt(1 - 1/2) = 1/sqrt(2)
    rho = qc.pure_to_density(qc.pure([1, 0]))
    sigma = qc.pure_to_density(qc.pure(np.array([1, 1]) / math.sqrt(2)))
    assert qc.trace_distance(rho, sigma) == pytest.approx(0.7071067811865475, abs=1e-12)


def test_pure_trace_distance_ry_angles():
    # RY(a)|0> and RY(b)|0> overlap at cos((b-a)/2); angles 0 and pi/3
    # give distance sin(pi/6) = 1/2
    a = qc.pure([1, 0])
    b = qc.pure([math.cos(math.pi / 6), math.sin(math.pi / 6)])
    assert qc.pure_trace_distance(a, b) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_ignores_global_phase(rng):
    psi = random_pure(rng, 4)
    rotated = qc.PureState(psi.amps * np.exp(1j * 0.731))
    # pure_trace_distance reads the fidelity |<a|b>|
    assert qc.pure_trace_distance(psi, rotated) == pytest.approx(0.0, abs=1e-7)


def test_pure_formula_matches_eigendecomposition(rng):
    for dim in (2, 4, 16):
        for _ in range(100):
            a, b = random_pure(rng, dim), random_pure(rng, dim)
            direct = qc.pure_trace_distance(a, b)
            via_eigs = qc.trace_distance(qc.pure_to_density(a), qc.pure_to_density(b))
            assert direct == pytest.approx(via_eigs, abs=1e-9)


def test_trace_distance_properties(rng):
    for _ in range(50):
        r, s, t = (random_density(rng, 4) for _ in range(3))
        drs = qc.trace_distance(r, s)
        assert 0.0 <= drs <= 1.0 + 1e-12
        assert drs == pytest.approx(qc.trace_distance(s, r), abs=1e-12)
        assert drs <= qc.trace_distance(r, t) + qc.trace_distance(t, s) + 1e-10
    same = random_density(rng, 8)
    assert qc.trace_distance(same, same) == pytest.approx(0.0, abs=1e-12)


def test_dimension_cap_enforced():
    big = DensityMatrix(np.eye(2 * MAX_DIM) / (2 * MAX_DIM))
    with pytest.raises(ValueError):
        qc.trace_distance(big, big)
    # the Hermitian check rides along with the cap
    skew = DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="Hermitian"):
        qc.trace_distance(skew, qc.density(np.eye(2) / 2))
