"""Dense quantum state primitives.

Everything downstream (circuit simulation, noise channels, canary
construction) works with the two state carriers defined here: pure
statevectors and density matrices. Dimensions are kept small on purpose,
the simulator targets at most 8 qubits, so dense complex arrays and
LAPACK eigendecompositions are the right tool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DIM = 256

HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-10
NORM_ATOL = 1e-10
EIGVAL_FLOOR = -1e-10


def _as_complex_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def is_hermitian(m: np.ndarray, atol: float = HERMITIAN_ATOL) -> bool:
    return bool(np.max(np.abs(m - m.conj().T)) <= atol)


@dataclass(frozen=True)
class PureState:
    """Normalized statevector on a 2^k dimensional Hilbert space."""

    amps: np.ndarray

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    def check(self) -> "PureState":
        v = np.asarray(self.amps, dtype=complex)
        if v.ndim != 1:
            raise ValueError("statevector must be one dimensional")
        d = v.shape[0]
        if d < 2 or d & (d - 1):
            raise ValueError(f"dimension {d} is not a power of two")
        norm2 = float(np.vdot(v, v).real)
        if abs(norm2 - 1.0) > NORM_ATOL:
            raise ValueError(f"statevector is not normalized: |psi|^2 = {norm2}")
        return self


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator."""

    mat: np.ndarray

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def check(self) -> "DensityMatrix":
        m = _as_complex_matrix(self.mat)
        d = m.shape[0]
        if d < 2 or d & (d - 1):
            raise ValueError(f"dimension {d} is not a power of two")
        if not is_hermitian(m):
            raise ValueError("density matrix is not Hermitian")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"density matrix trace is {tr}, expected 1")
        evals = np.linalg.eigvalsh(m)
        if evals.min() < EIGVAL_FLOOR:
            raise ValueError(f"density matrix has negative eigenvalue {evals.min()}")
        return self


def pure(amps) -> PureState:
    """Wrap and validate a statevector."""
    return PureState(np.asarray(amps, dtype=complex)).check()


def density(mat) -> DensityMatrix:
    """Wrap and validate a density matrix.

    Eigenvalues in [-1e-10, 0) are treated as numerical noise and pass
    the positivity check; anything below that is rejected.
    """
    return DensityMatrix(_as_complex_matrix(mat)).check()


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the 1-norm of (rho - sigma).

    Computed from the eigenvalues of the difference matrix, which is
    Hermitian whenever both inputs are; a non-Hermitian difference and
    dimensions above MAX_DIM are rejected. This is the operational
    distinguishability metric used for canary adjacency.
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    diff = _as_complex_matrix(rho.mat) - _as_complex_matrix(sigma.mat)
    if diff.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {diff.shape[0]} exceeds the supported {MAX_DIM}")
    if not is_hermitian(diff):
        raise ValueError("difference matrix is not Hermitian")
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())


def pure_trace_distance(a: PureState, b: PureState) -> float:
    """Trace distance between two pure states, sqrt(1 - |<a|b>|^2)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    overlap = complex(np.vdot(a.amps, b.amps))
    return float(np.sqrt(max(0.0, 1.0 - abs(overlap) ** 2)))


def pure_to_density(psi: PureState) -> DensityMatrix:
    """Outer product |psi><psi| of a validated statevector."""
    v = np.asarray(psi.check().amps, dtype=complex)
    return DensityMatrix(np.outer(v, v.conj()))
