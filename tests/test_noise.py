import numpy as np
import pytest

import qcanary as qc
from qcanary import NoiseSpec
from qcanary.noise import _depolarize_qubit_mat

from conftest import random_density


def test_spec_validation():
    NoiseSpec.none()
    NoiseSpec.depolarizing(0.3)
    NoiseSpec.measurement(500)
    with pytest.raises(ValueError):
        NoiseSpec(kind="thermal")
    with pytest.raises(ValueError):
        NoiseSpec.depolarizing(1.5)
    with pytest.raises(ValueError):
        NoiseSpec.depolarizing(0.1, scope="local")
    with pytest.raises(ValueError):
        NoiseSpec.measurement(0)


def test_global_identity_at_zero(rng):
    rho = random_density(rng, 4)
    out = qc.depolarize_global(rho, 0.0)
    assert np.allclose(out.mat, rho.mat, atol=1e-14)


def test_global_fully_mixes_at_one(rng):
    rho = random_density(rng, 8)
    out = qc.depolarize_global(rho, 1.0)
    assert np.allclose(out.mat, np.eye(8) / 8, atol=1e-12)


def test_global_half_on_diagonal_state():
    # (1-p) diag(1,0) + p I/2 with p = 1/2 gives diag(3/4, 1/4)
    rho = qc.density(np.diag([1.0, 0.0]))
    out = qc.depolarize_global(rho, 0.5)
    assert np.allclose(np.diag(out.mat).real, [0.75, 0.25], atol=1e-14)


def test_per_qubit_fully_mixes_at_three_quarters(rng):
    rho = random_density(rng, 2)
    out = _depolarize_qubit_mat(rho.mat, 0, 0.75)
    assert np.allclose(out, np.eye(2) / 2, atol=1e-12)


def test_per_qubit_shrinks_bloch_vector(rng):
    # the Pauli twirl scales every Bloch component by 1 - 4p/3
    p = 0.3
    z = np.diag([1.0, -1.0])
    rho = random_density(rng, 2)
    before = np.trace(z @ rho.mat).real
    after = np.trace(z @ _depolarize_qubit_mat(rho.mat, 0, p)).real
    assert after == pytest.approx((1 - 4 * p / 3) * before, abs=1e-12)


def test_per_qubit_acts_on_named_qubit_only(rng):
    rho = random_density(rng, 4)
    out = _depolarize_qubit_mat(rho.mat, 1, 0.75)
    # qubit 0 marginal must survive while qubit 1 is erased
    z0 = np.kron(np.diag([1.0, -1.0]), np.eye(2))
    z1 = np.kron(np.eye(2), np.diag([1.0, -1.0]))
    assert np.trace(z0 @ out).real == pytest.approx(
        np.trace(z0 @ rho.mat).real, abs=1e-12)
    assert np.trace(z1 @ out).real == pytest.approx(0.0, abs=1e-12)


def test_channels_preserve_trace_and_positivity(rng):
    for _ in range(60):
        rho = random_density(rng, 4)
        for out in (qc.depolarize_global(rho, 0.37).mat,
                    _depolarize_qubit_mat(rho.mat, rng.integers(2), 0.37)):
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(out).min() > -1e-12


def test_contractivity(rng):
    for _ in range(40):
        a, b = random_density(rng, 4), random_density(rng, 4)
        before = qc.trace_distance(a, b)
        after = qc.trace_distance(qc.depolarize_global(a, 0.4),
                                  qc.depolarize_global(b, 0.4))
        assert after <= before + 1e-12


def test_probability_range_checked(rng):
    rho = random_density(rng, 2)
    with pytest.raises(ValueError):
        qc.depolarize_global(rho, -0.1)
