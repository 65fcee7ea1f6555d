"""Parameterized circuits and their dense simulation.

The gate set is deliberately small: Pauli rotations, H, the Paulis
themselves, CX/CZ entanglers, and an explicit ID gate that exists only to
mark where a noise channel acts. Circuits are immutable gate sequences
over a shared parameter vector.

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

from .noise import (NoiseSpec, _X, _Y, _Z, _depolarize_global_mat,
                    _depolarize_qubit_mat, _embed_1q)
from .states import DensityMatrix, PureState, is_hermitian, pure_to_density

ROTATIONS = ("RX", "RY", "RZ")
FIXED_1Q = ("H", "X", "Y", "Z", "ID")
TWO_QUBIT = ("CX", "CZ")

_I2 = np.eye(2, dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)

_FIXED = {"H": _H, "X": _X, "Y": _Y, "Z": _Z, "ID": _I2}


@dataclass(frozen=True)
class Gate:
    """One gate: a kind, target qubit(s), and an angle source.

    Rotations carry either a param_slot (index into the circuit's
    parameter vector) or a fixed angle in radians, never both.
    """

    kind: str
    targets: tuple
    param_slot: int | None = None
    angle: float | None = None

    def __post_init__(self):
        if self.kind in ROTATIONS:
            if len(self.targets) != 1:
                raise ValueError(f"{self.kind} takes one target")
            if (self.param_slot is None) == (self.angle is None):
                raise ValueError(f"{self.kind} needs a param_slot or a fixed angle")
        elif self.kind in TWO_QUBIT:
            if len(self.targets) != 2 or self.targets[0] == self.targets[1]:
                raise ValueError(f"{self.kind} takes two distinct targets")
            if self.param_slot is not None or self.angle is not None:
                raise ValueError(f"{self.kind} is not parameterized")
        elif self.kind in FIXED_1Q:
            if len(self.targets) != 1:
                raise ValueError(f"{self.kind} takes one target")
            if self.param_slot is not None or self.angle is not None:
                raise ValueError(f"{self.kind} is not parameterized")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")


@dataclass(frozen=True)
class ParamCircuit:
    qubits: int
    gates: tuple = field(default_factory=tuple)
    param_count: int = 0
    noise_slots: tuple = field(default_factory=tuple)

    def __post_init__(self):
        for g in self.gates:
            for t in g.targets:
                if not 0 <= t < self.qubits:
                    raise ValueError(f"gate target {t} out of range")
            if g.param_slot is not None and not 0 <= g.param_slot < self.param_count:
                raise ValueError(f"param slot {g.param_slot} out of range")
        for s in self.noise_slots:
            if not 0 <= s < len(self.gates):
                raise ValueError(f"noise slot {s} out of range")

    @property
    def dim(self) -> int:
        return 2**self.qubits


@dataclass(frozen=True)
class Observable:
    matrix: np.ndarray

    def check(self) -> "Observable":
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("observable must be a square matrix")
        if not is_hermitian(m):
            raise ValueError("observable is not Hermitian")
        return self

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def z_on_qubit(qubits: int, qubit: int = 0) -> Observable:
    """Pauli Z on one qubit of a register, identity elsewhere."""
    idx = np.arange(2**qubits)
    diag = 1.0 - 2.0 * ((idx >> (qubits - 1 - qubit)) & 1)
    return Observable(np.diag(diag.astype(complex)))


def rotation_matrix(kind: str, theta: float) -> np.ndarray:
    """exp(-i theta P / 2) for P in {X, Y, Z}."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "RZ":
        return np.array([[c - 1j * s, 0], [0, c + 1j * s]])
    raise ValueError(f"not a rotation kind: {kind!r}")


def gate_unitary(g: Gate, circuit: ParamCircuit, params: np.ndarray,
                 extra_angle: float = 0.0) -> np.ndarray:
    """Full-register unitary for one gate.

    extra_angle shifts this particular gate occurrence, which is how the
    parameter-shift rule handles parameters shared across gates.
    """
    n = circuit.qubits
    if g.kind in ROTATIONS:
        theta = params[g.param_slot] if g.param_slot is not None else g.angle
        return _embed_1q(rotation_matrix(g.kind, float(theta) + extra_angle), g.targets[0], n)
    if g.kind in FIXED_1Q:
        return _embed_1q(_FIXED[g.kind], g.targets[0], n)
    control, target = g.targets
    flip = _X if g.kind == "CX" else _Z
    return _embed_1q(_P0, control, n) + _embed_1q(_P1, control, n) @ _embed_1q(flip, target, n)


def _check_params(circuit: ParamCircuit, params) -> np.ndarray:
    p = np.asarray(params, dtype=float).ravel()
    if p.shape[0] != circuit.param_count:
        raise ValueError(
            f"parameter vector has length {p.shape[0]}, circuit expects {circuit.param_count}")
    return p


def apply_circuit_pure(circuit: ParamCircuit, params, state: PureState) -> PureState:
    """Run the circuit on a statevector. Noise slots are ignored."""
    p = _check_params(circuit, params)
    if state.dim != circuit.dim:
        raise ValueError(f"state dim {state.dim} does not match circuit dim {circuit.dim}")
    psi = np.asarray(state.amps, dtype=complex)
    for g in circuit.gates:
        psi = gate_unitary(g, circuit, p) @ psi
    return PureState(psi)


def apply_circuit_density(circuit: ParamCircuit, params, state: DensityMatrix,
                          noise: NoiseSpec) -> DensityMatrix:
    """Run the circuit on a density matrix, applying channels at noise slots.

    A depolarizing spec with global scope mixes the whole register at each
    marked gate; with per_qubit scope the channel acts on that gate's
    target. Measurement-shot specs contribute nothing here because shot
    noise only exists at readout.
    """
    p = _check_params(circuit, params)
    if state.dim != circuit.dim:
        raise ValueError(f"state dim {state.dim} does not match circuit dim {circuit.dim}")
    slots = frozenset(circuit.noise_slots)
    rho = np.asarray(state.mat, dtype=complex)
    for i, g in enumerate(circuit.gates):
        u = gate_unitary(g, circuit, p)
        rho = u @ rho @ u.conj().T
        if i in slots and noise.kind == "depolarizing":
            if noise.scope == "global":
                rho = _depolarize_global_mat(rho, noise.p)
            else:
                rho = _depolarize_qubit_mat(rho, g.targets[0], noise.p)
    return DensityMatrix(rho)


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


def with_noise_ids(circuit: ParamCircuit, scope: str = "per_qubit") -> ParamCircuit:
    """Insert ID gates that mark where a channel acts: on the encoded input
    state, before anything else runs.

    Per-qubit scope gets one ID per qubit. A global channel hits the whole
    register at once, so global scope gets a single ID (on qubit 0);
    marking every qubit would apply it qubits times and overstate the
    mixing.
    """
    if scope not in ("per_qubit", "global"):
        raise ValueError(f"unknown noise scope {scope!r}")
    marked = range(circuit.qubits) if scope == "per_qubit" else (0,)
    ids = tuple(Gate("ID", (q,)) for q in marked)
    return ParamCircuit(qubits=circuit.qubits, gates=ids + tuple(circuit.gates),
                        param_count=circuit.param_count,
                        noise_slots=tuple(range(len(ids))))


def expectation(rho: DensityMatrix, obs: Observable) -> float:
    """Tr(obs rho), with a guard on the imaginary residue."""
    if rho.dim != obs.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, observable {obs.dim}")
    val = complex(np.trace(np.asarray(obs.matrix, dtype=complex) @ np.asarray(rho.mat)))
    if abs(val.imag) > 1e-9:
        raise ValueError(f"expectation has imaginary residue {val.imag}")
    return float(val.real)


def parameter_shift_gradient(circuit: ParamCircuit, params, state,
                             obs: Observable) -> np.ndarray:
    """Exact gradient of Tr(obs U rho U') over the parameter vector.

    Takes a pure or density input state. Each rotation occurrence is
    shifted by +-pi/2 separately and the two expectations differenced;
    occurrences sharing a slot accumulate into that slot. Channels are
    never applied here, gradients are a property of the noiseless circuit.
    """
    p = _check_params(circuit, params)
    grad = np.zeros_like(p)
    rho_in = pure_to_density(state) if isinstance(state, PureState) else state

    def forward(idx: int, shift: float) -> float:
        rho = np.asarray(rho_in.mat, dtype=complex)
        for i, g in enumerate(circuit.gates):
            u = gate_unitary(g, circuit, p, extra_angle=shift if i == idx else 0.0)
            rho = u @ rho @ u.conj().T
        val = complex(np.trace(np.asarray(obs.matrix, dtype=complex) @ rho))
        return float(val.real)

    for i, g in enumerate(circuit.gates):
        if g.param_slot is None:
            continue
        if g.kind not in ROTATIONS:
            raise ValueError(f"cannot shift non-rotation gate {g.kind}")
        plus = forward(i, math.pi / 2.0)
        minus = forward(i, -math.pi / 2.0)
        grad[g.param_slot] += 0.5 * (plus - minus)
    return grad
