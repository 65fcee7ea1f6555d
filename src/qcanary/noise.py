"""Noise channels and their configuration.

Two channel families are modeled. Depolarizing noise mixes the state
toward maximally mixed, either over the full register (one global channel)
or qubit by qubit. Shot noise is not a channel at all: it enters only at
the measurement stage through finite-sample counts, so its spec carries a
shot budget and no operator acts on the state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import DensityMatrix

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

KINDS = ("none", "depolarizing", "measurement_shots")
SCOPES = ("global", "per_qubit")


@dataclass(frozen=True)
class NoiseSpec:
    kind: str = "none"
    p: float = 0.0
    shots: int = 0
    scope: str = "global"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "depolarizing":
            if not 0.0 <= self.p <= 1.0:
                raise ValueError(f"depolarizing probability {self.p} not in [0, 1]")
            if self.scope not in SCOPES:
                raise ValueError(f"unknown depolarizing scope {self.scope!r}")
            if self.shots:
                raise ValueError("depolarizing noise takes no shot count")
        elif self.kind == "measurement_shots":
            if self.shots < 1:
                raise ValueError("measurement noise needs shots >= 1")
            if self.p:
                raise ValueError("measurement noise takes no probability")
        else:
            if self.p or self.shots:
                raise ValueError("kind 'none' takes no parameters")

    @classmethod
    def none(cls) -> "NoiseSpec":
        return cls()

    @classmethod
    def depolarizing(cls, p: float, scope: str = "global") -> "NoiseSpec":
        return cls(kind="depolarizing", p=p, scope=scope)

    @classmethod
    def measurement(cls, shots: int) -> "NoiseSpec":
        return cls(kind="measurement_shots", shots=shots)


def _embed_1q(m2: np.ndarray, qubit: int, qubits: int) -> np.ndarray:
    # qubit 0 is the leftmost (most significant) tensor factor
    left = np.eye(2**qubit, dtype=complex)
    right = np.eye(2 ** (qubits - qubit - 1), dtype=complex)
    return np.kron(np.kron(left, m2), right)


def _depolarize_global_mat(mat: np.ndarray, p: float) -> np.ndarray:
    d = mat.shape[0]
    return (1.0 - p) * mat + (p / d) * np.trace(mat) * np.eye(d, dtype=complex)


def _depolarize_qubit_mat(mat: np.ndarray, qubit: int, p: float) -> np.ndarray:
    """The depolarizing channel on one qubit in its Pauli-twirl form,
    (1-p) rho + p/3 (X rho X + Y rho Y + Z rho Z), which fully depolarizes
    that qubit at p = 3/4."""
    n = mat.shape[-1].bit_length() - 1
    out = (1.0 - p) * mat
    for pauli in (_X, _Y, _Z):
        full = _embed_1q(pauli, qubit, n)
        out = out + (p / 3.0) * (full @ mat @ full)
    return out


def depolarize_global(rho: DensityMatrix, p: float) -> DensityMatrix:
    """Mix rho with the maximally mixed state: (1-p) rho + p I/D."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} not in [0, 1]")
    return DensityMatrix(_depolarize_global_mat(np.asarray(rho.mat, dtype=complex), p))
