"""Correctness checks made apart from the code they check.

Each function returns a list of problems, empty when the output passes.
The forward pass, the per-qubit Kraus sum, the finite-shot ceiling and the
harness properties are written here from their definitions, not taken
from qcanary's fast paths.
"""

from __future__ import annotations

import math

import numpy as np

from qcanary import (PureState, apply_circuit_pure, build_real_amplitudes,
                     estimate_epsilon)

P_CLAMP = 1e-9  # the classifier's documented probability clamp
LOSS_TOL = 1e-9

_PAULIS = (np.array([[0, 1], [1, 0]], dtype=complex),
           np.array([[0, -1j], [1j, 0]], dtype=complex),
           np.array([[1, 0], [0, -1]], dtype=complex))


def _unitary(params, qubits: int, reps: int) -> np.ndarray:
    """The ansatz unitary, column by column from the gate-list reference."""
    circuit = build_real_amplitudes(qubits, reps)
    eye = np.eye(2**qubits, dtype=complex)
    return np.column_stack([apply_circuit_pure(circuit, params, PureState(e)).amps
                            for e in eye])


def _depolarize_each_qubit(rho: np.ndarray, qubits: int, p: float) -> np.ndarray:
    """(1 - p) rho + p/3 sum_P P rho P on every qubit in turn."""
    for q in range(qubits):
        t = rho.reshape((2,) * (2 * qubits))
        out = (1.0 - p) * t
        for pauli in _PAULIS:
            # P acts on the ket index q and, conjugated, on the bra index q
            k = np.moveaxis(np.tensordot(pauli, t, axes=([1], [q])), 0, q)
            out = out + (p / 3.0) * np.moveaxis(
                np.tensordot(k, pauli.conj().T, axes=([qubits + q], [0])),
                -1, qubits + q)
        rho = out.reshape(rho.shape)
    return rho


def reference_losses(params, qubits: int, reps: int, states, labels, noise,
                     rng=None) -> np.ndarray:
    """Per-state loss under `noise`: none, per-qubit depolarizing on the
    encoded input, or finite shots.

    Readout is Z on qubit 0 mapped to p = (1 + <Z>)/2 and binary cross
    entropy. Finite shots draw one binomial count per state from `rng`,
    all states in one call, as the measurement model defines.
    """
    u = _unitary(params, qubits, reps)
    idx = np.arange(2**qubits)
    z_diag = 1.0 - 2.0 * ((idx >> (qubits - 1)) & 1)
    z = []
    for s in states:
        psi = np.asarray(s.amps, dtype=complex)
        rho = np.outer(psi, psi.conj())
        if noise.kind == "depolarizing":
            if noise.scope != "per_qubit":
                raise ValueError("the reference covers per-qubit depolarizing only")
            rho = _depolarize_each_qubit(rho, qubits, noise.p)
        out = u @ rho @ u.conj().T
        z.append(float(np.real(np.sum(z_diag * np.diag(out)))))
    z = np.asarray(z)
    if noise.kind == "measurement_shots":
        counts = rng.binomial(noise.shots, np.clip((1.0 + z) / 2.0, 0.0, 1.0))
        z = -1.0 + 2.0 * counts / noise.shots
    p = np.clip((1.0 + z) / 2.0, P_CLAMP, 1.0 - P_CLAMP)
    y = np.asarray(labels, dtype=float)
    return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


def compare_losses(got, want, what: str) -> list:
    err = float(np.max(np.abs(np.asarray(got) - want)))
    return [] if err <= LOSS_TOL else [f"{what}: losses differ from the reference by {err:.3g}"]


def audit_report(report, n: int, K: int) -> list:
    """Shape and range of the indicators, and epsilon_hat from its bounds."""
    problems = []
    for name, m in (("x", report.trials.x), ("y", report.trials.y)):
        if m.shape != (n, K):
            problems.append(f"{name} has shape {m.shape}, want {(n, K)}")
        if not np.isin(m, (0, 1)).all():
            problems.append(f"{name} is not binary")
    est = report.estimate
    gap, delta = est.gap_lower, est.delta
    if gap is None:
        problems.append("no gap_lower under the betting estimator")
    else:
        want = math.log(1.0 + (gap - delta) / est.p0_upper) if gap > delta else 0.0
        if not math.isclose(est.epsilon_hat, want, rel_tol=1e-12, abs_tol=1e-15):
            problems.append(f"epsilon_hat {est.epsilon_hat} != {want} from its bounds")
    return problems


def same_outputs(a, b) -> list:
    """Two audits of one config must agree bit for bit."""
    if (np.array_equal(a.trials.x, b.trials.x) and np.array_equal(a.trials.y, b.trials.y)
            and a.kappa == b.kappa and a.estimate == b.estimate):
        return []
    return ["a repeated audit of the same config gave different outputs"]


def shot_ceiling(report) -> list:
    """The finite-shot ceiling, recomputed from its closed form.

    c must solve sqrt(2 pi) sigma erfc(c / (sqrt 2 sigma)) = delta, with
    sigma = sqrt(mu (1 - mu) / N), to 1e-10; c = 0 is right only when the
    c = 0 value is already at or below delta.
    """
    theory = report.theory
    prm = theory["params"]
    N, d, r, mu, target = prm["N"], prm["d"], prm["r"], prm["mu"], prm["target_delta"]
    c, eps = theory.get("c"), theory.get("epsilon")
    if c is None or eps is None:
        return [f"no finite-shot ceiling: {theory.get('note')}"]
    sigma = math.sqrt(mu * (1.0 - mu) / N)

    def shot_delta(x):
        return math.sqrt(2.0 * math.pi) * sigma * math.erfc(x / (math.sqrt(2.0) * sigma))

    problems = []
    if c == 0.0:
        if shot_delta(0.0) > target:
            problems.append("c = 0 although the c = 0 value exceeds delta")
    elif abs(shot_delta(c) - target) > 1e-10:
        problems.append(f"c = {c} misses its erfc equation by {shot_delta(c) - target:.3g}")
    A = N * d * r
    want = A / (mu * (1.0 - mu)) * (
        (1.0 - 2.0 * mu - A) * c * c / (2.0 * mu * (1.0 - mu - A)) + c + A / 2.0)
    if not math.isclose(eps, want, rel_tol=1e-12):
        problems.append(f"finite-shot epsilon {eps} != {want} from its closed form")
    return problems


def replay_known_mechanism(epsilon_true, n, K, rng, p0=0.3):
    """The Bernoulli matrices simulate_known_mechanism documents drawing."""
    p1 = min(1.0, math.exp(epsilon_true) * p0)
    x = (rng.random((n, K)) < p1).astype(np.uint8)
    y = (rng.random((n, K)) < p0).astype(np.uint8)
    return x, y


def bounds_within_means(est, x, y) -> list:
    """A lower confidence bound never exceeds the sample mean it bounds."""
    mx, my = float(x.mean()), float(y.mean())
    problems = []
    if est.p1_lower > mx + 1e-12:
        problems.append(f"p1_lower {est.p1_lower} above the seen mean {mx}")
    if est.p0_upper < my - 1e-12:
        problems.append(f"p0_upper {est.p0_upper} below the unseen mean {my}")
    if est.gap_lower is not None and est.gap_lower > mx - my + 1e-12:
        problems.append(f"gap_lower {est.gap_lower} above the mean gap {mx - my}")
    return problems


def replay_matches(est, x, y, beta) -> list:
    """The replayed matrices are the ones the harness drew."""
    again = estimate_epsilon(x, y, beta, 0.0, "betting", est.theory_epsilon)
    return [] if again == est else ["replayed harness matrices give another estimate"]


def binomial_tail(k: int, n: int, q: float) -> float:
    """P(Binomial(n, q) >= k)."""
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    logs = [math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
            + j * math.log(q) + (n - j) * math.log1p(-q) for j in range(k, n + 1)]
    top = max(logs)
    return min(1.0, math.exp(top) * sum(math.exp(v - top) for v in logs))
