"""Angle encoding and offset-perturbed canary states.

A feature vector x in [0,1]^m becomes the product state with one RY(pi*x_j)
per qubit. A canary gets a second, slightly different encoding where each
angle is shifted by a small Gaussian offset alpha_j. The offset scale is
chosen so the two encodings of the same record stay within a target trace
distance d per qubit, which is what makes them a valid neighboring pair
for the privacy audit:

    per-qubit distance  |sin(alpha_j / 2)| <= d

holds with probability 1 - delta_conf when sigma respects sigma_bound, and
holds surely once offsets are clipped to gamma_bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .states import PureState

# Conventional two-sided z value at the 1% level. Tables (and the tests
# pinning sigma values downstream) fix this at 2.576 rather than the
# longer 2.5758... expansion, so the 0.01 case must not go through inv_cdf.
_Z_AT_1PCT = 2.576


def sigma_bound(d: float, delta_conf: float) -> float:
    """Largest Gaussian std dev keeping |sin(alpha/2)| < d w.p. 1 - delta_conf."""
    if not 0.0 < d <= 1.0:
        raise ValueError(f"distance threshold {d} not in (0, 1]")
    if not 0.0 < delta_conf < 1.0:
        raise ValueError(f"tail probability {delta_conf} not in (0, 1)")
    if delta_conf == 0.01:
        z = _Z_AT_1PCT
    else:
        z = NormalDist().inv_cdf(1.0 - delta_conf / 2.0)
    return 2.0 * math.asin(d) / z


def gamma_bound(d: float) -> float:
    """Clip bound on offsets: |alpha| <= 2 arcsin(d) forces |sin(alpha/2)| <= d."""
    if not 0.0 < d <= 1.0:
        raise ValueError(f"distance threshold {d} not in (0, 1]")
    return 2.0 * math.asin(d)


@dataclass(frozen=True)
class OffsetSpec:
    """Offset distribution for one adjacency threshold d: the widths
    sigma and gamma are derived, always equal to their bounds."""

    d: float
    delta_conf: float = 0.01
    sigma: float = field(init=False)
    gamma: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "sigma", sigma_bound(self.d, self.delta_conf))
        object.__setattr__(self, "gamma", gamma_bound(self.d))


def _encode_rows(features: np.ndarray, offsets=None) -> np.ndarray:
    """(B, m) features -> (B, 2^m) real amplitudes of their RY encodings.

    Row b puts angle pi * features[b, j] (+ offsets[b, j]) on qubit j,
    features clamped to [0, 1], and multiplies the qubits out as broadcast
    outer products in np.kron order (qubit 0 most significant).
    """
    angles = math.pi * np.clip(features, 0.0, 1.0)
    if offsets is not None:
        angles = angles + offsets
    half = angles / 2.0
    factors = np.stack([np.cos(half), np.sin(half)], axis=-1)
    rows = angles.shape[0]
    amps = factors[:, 0]
    for q in range(1, angles.shape[1]):
        amps = (amps[:, :, None] * factors[:, q, None, :]).reshape(rows, -1)
    return amps


def angle_encode(x) -> PureState:
    """Encode features as one RY rotation per qubit, angle pi * x_j.

    Features are clamped to [0, 1] so the base angle stays in [0, pi];
    upstream scaling should already guarantee that.
    """
    v = np.asarray(x, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("cannot encode an empty feature vector")
    return PureState(_encode_rows(v[None])[0])


def angle_encode_offset(c, alpha) -> PureState:
    """Perturbed encoding: angle pi * c_j + alpha_j per qubit."""
    cv = np.asarray(c, dtype=float).ravel()
    av = np.asarray(alpha, dtype=float).ravel()
    if cv.size == 0:
        raise ValueError("cannot encode an empty feature vector")
    if cv.shape != av.shape:
        raise ValueError(f"feature/offset length mismatch: {cv.shape} vs {av.shape}")
    return PureState(_encode_rows(cv[None], av[None])[0])


def sample_offsets(spec: OffsetSpec, m: int | tuple, rng: np.random.Generator) -> np.ndarray:
    """m i.i.d. N(0, sigma^2) draws, clipped to [-gamma, gamma]; m may be a shape."""
    return np.clip(rng.normal(0.0, spec.sigma, size=m), -spec.gamma, spec.gamma)


def pair_distances(c, alpha):
    """Trace distances between the plain and offset encodings.

    Returns (per-qubit vector, full product-state value). The per-qubit
    value is |sin(alpha_j / 2)|; the full-state value follows from the
    product overlap prod_j cos(alpha_j / 2).
    """
    cv = np.asarray(c, dtype=float).ravel()
    av = np.asarray(alpha, dtype=float).ravel()
    if cv.shape != av.shape:
        raise ValueError(f"feature/offset length mismatch: {cv.shape} vs {av.shape}")
    if not np.isfinite(av).all():
        raise ValueError("offsets must be finite")
    per_qubit = np.abs(np.sin(av / 2.0))
    overlap_sq = float(np.prod(np.cos(av / 2.0) ** 2))
    full = math.sqrt(max(0.0, 1.0 - overlap_sq))
    return per_qubit, full
