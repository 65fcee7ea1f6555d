"""Parameterized circuits and their dense simulation.

The gate set is the classifier's: RY rotations, each driven by a slot of
a shared parameter vector, and CX entanglers. Circuits are immutable gate
sequences over that vector. A depolarizing channel acts once, on the
input state, before any gate runs, which is where the classifier's
engine applies it too.

Simulation is dense and straightforward. Every gate is embedded into the
full register dimension and applied by matrix multiplication. At the
register sizes this package targets (at most 8 qubits) that is faster to
reason about than axis gymnastics and plenty fast to run. The vectorized
training engine in the classifier module is the performance path; this
module is the reference semantics it is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .noise import NoiseSpec, _X, _depolarize_global_mat, _depolarize_qubit_mat, _embed_1q
from .states import DensityMatrix, PureState, pure_to_density

_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)


@dataclass(frozen=True)
class Gate:
    """One gate: a kind, its target qubit(s) and, for RY, the index into
    the circuit's parameter vector that drives its angle."""

    kind: str
    targets: tuple
    param_slot: int | None = None

    def __post_init__(self):
        if self.kind == "RY":
            if len(self.targets) != 1:
                raise ValueError("RY takes one target")
            if self.param_slot is None:
                raise ValueError("RY needs a param_slot")
        elif self.kind == "CX":
            if len(self.targets) != 2 or self.targets[0] == self.targets[1]:
                raise ValueError("CX takes two distinct targets")
            if self.param_slot is not None:
                raise ValueError("CX is not parameterized")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")


@dataclass(frozen=True)
class ParamCircuit:
    qubits: int
    gates: tuple = field(default_factory=tuple)
    param_count: int = 0

    def __post_init__(self):
        for g in self.gates:
            for t in g.targets:
                if not 0 <= t < self.qubits:
                    raise ValueError(f"gate target {t} out of range")
            if g.param_slot is not None and not 0 <= g.param_slot < self.param_count:
                raise ValueError(f"param slot {g.param_slot} out of range")

    @property
    def dim(self) -> int:
        return 2**self.qubits


def z_on_qubit(qubits: int, qubit: int = 0) -> np.ndarray:
    """Pauli Z on one qubit of a register, identity elsewhere, as a matrix."""
    idx = np.arange(2**qubits)
    diag = 1.0 - 2.0 * ((idx >> (qubits - 1 - qubit)) & 1)
    return np.diag(diag.astype(complex))


def _gate_unitary(g: Gate, circuit: ParamCircuit, params: np.ndarray,
                  extra_angle: float = 0.0) -> np.ndarray:
    """Full-register unitary for one gate.

    extra_angle shifts this particular gate occurrence, which is how the
    parameter-shift rule handles parameters shared across gates.
    """
    n = circuit.qubits
    if g.kind == "RY":
        # exp(-i theta Y / 2)
        half = (float(params[g.param_slot]) + extra_angle) / 2.0
        c, s = math.cos(half), math.sin(half)
        return _embed_1q(np.array([[c, -s], [s, c]], dtype=complex), g.targets[0], n)
    control, target = g.targets
    return _embed_1q(_P0, control, n) + _embed_1q(_P1, control, n) @ _embed_1q(_X, target, n)


def _check_params(circuit: ParamCircuit, params) -> np.ndarray:
    p = np.asarray(params, dtype=float).ravel()
    if p.shape[0] != circuit.param_count:
        raise ValueError(
            f"parameter vector has length {p.shape[0]}, circuit expects {circuit.param_count}")
    return p


def _walk_density(circuit: ParamCircuit, p: np.ndarray, rho: np.ndarray,
                  shifted: int = -1, shift: float = 0.0) -> np.ndarray:
    """rho -> U rho U^dagger through every gate in order, with the angle of
    gate number shifted moved by shift."""
    for i, g in enumerate(circuit.gates):
        u = _gate_unitary(g, circuit, p, extra_angle=shift if i == shifted else 0.0)
        rho = u @ rho @ u.conj().T
    return rho


def apply_circuit_pure(circuit: ParamCircuit, params, state: PureState) -> PureState:
    """Run the noiseless circuit on a statevector."""
    p = _check_params(circuit, params)
    if state.dim != circuit.dim:
        raise ValueError(f"state dim {state.dim} does not match circuit dim {circuit.dim}")
    psi = np.asarray(state.amps, dtype=complex)
    for g in circuit.gates:
        psi = _gate_unitary(g, circuit, p) @ psi
    return PureState(psi)


def apply_circuit_density(circuit: ParamCircuit, params, state: DensityMatrix,
                          noise: NoiseSpec) -> DensityMatrix:
    """Run the circuit on a density matrix, with the channel on the input.

    A depolarizing spec acts once, on the input state, before any gate:
    global scope mixes the whole register, per_qubit scope applies the
    single-qubit channel to qubits 0, 1, ..., n - 1 in turn. Measurement-shot
    specs contribute nothing here because shot noise only exists at readout.
    """
    p = _check_params(circuit, params)
    if state.dim != circuit.dim:
        raise ValueError(f"state dim {state.dim} does not match circuit dim {circuit.dim}")
    rho = np.asarray(state.mat, dtype=complex)
    if noise.kind == "depolarizing" and noise.scope == "global":
        rho = _depolarize_global_mat(rho, noise.p)
    elif noise.kind == "depolarizing":
        for q in range(circuit.qubits):
            rho = _depolarize_qubit_mat(rho, q, noise.p)
    return DensityMatrix(_walk_density(circuit, p, rho))


def build_real_amplitudes(qubits: int, reps: int) -> ParamCircuit:
    """RY layers alternating with linear CX chains, ending on an RY layer.

    Parameter count is (reps + 1) * qubits; slot (layer * qubits + q)
    drives the RY on qubit q in that layer. A single qubit has no chain.
    """
    if qubits < 1 or reps < 1:
        raise ValueError("need qubits >= 1 and reps >= 1")
    gates = []
    for q in range(qubits):
        gates.append(Gate("RY", (q,), param_slot=q))
    for layer in range(1, reps + 1):
        for q in range(qubits - 1):
            gates.append(Gate("CX", (q, q + 1)))
        for q in range(qubits):
            gates.append(Gate("RY", (q,), param_slot=layer * qubits + q))
    return ParamCircuit(qubits=qubits, gates=tuple(gates),
                        param_count=(reps + 1) * qubits)


def expectation(rho: DensityMatrix, obs) -> float:
    """Tr(obs rho) for an observable matrix, with a guard on the imaginary residue."""
    obs = np.asarray(obs, dtype=complex)
    if rho.dim != obs.shape[0]:
        raise ValueError(f"dimension mismatch: state {rho.dim}, observable {obs.shape[0]}")
    val = complex(np.trace(obs @ np.asarray(rho.mat)))
    if abs(val.imag) > 1e-9:
        raise ValueError(f"expectation has imaginary residue {val.imag}")
    return float(val.real)


def parameter_shift_gradient(circuit: ParamCircuit, params, state, obs) -> np.ndarray:
    """Exact gradient of Tr(obs U rho U') over the parameter vector.

    Takes a pure or density input state. Each RY occurrence is shifted by
    +-pi/2 separately and the two expectations differenced; occurrences
    sharing a slot accumulate into that slot. No channel is applied here:
    the gradient under an input channel is this one taken at the
    channel's output state.
    """
    p = _check_params(circuit, params)
    grad = np.zeros_like(p)
    rho_in = pure_to_density(state) if isinstance(state, PureState) else state
    rho = np.asarray(rho_in.mat, dtype=complex)
    obs_mat = np.asarray(obs, dtype=complex)

    def forward(idx: int, shift: float) -> float:
        return float(np.trace(obs_mat @ _walk_density(circuit, p, rho, idx, shift)).real)

    for i, g in enumerate(circuit.gates):
        if g.param_slot is None:
            continue
        plus = forward(i, math.pi / 2.0)
        minus = forward(i, -math.pi / 2.0)
        grad[g.param_slot] += 0.5 * (plus - minus)
    return grad
