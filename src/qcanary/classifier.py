"""The variational classifier: encode, rotate, entangle, measure, read out.

A model is a RealAmplitudes-style ansatz over encoded product states with
a single observable readout mapped to a class probability p = (1 + <obs>)/2
and binary cross-entropy loss. Training is full-batch gradient descent on
exact parameter-shift gradients (or SPSA for the shot-noise regime).

One engine serves every noise regime. A privacy audit retrains the model
hundreds of times, so the _Engine below simulates all 2P+1
parameter-shifted circuit variants in one batched pass, building each
layer unitary with a broadcast Kronecker product. Evaluation walks the
observable back through the same layers, per-qubit channels included, and
reads <obs> = psi^T A psi; global noise and shots then act on <obs>. RY
and CX matrices are real, so all of it runs in float64 for the default RY
encoding. The circuits module is the reference these paths are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .circuits import Observable, z_on_qubit
from .circuits import apply_circuit_density  # noqa: F401  (bench traces it as circuits.density)
from .noise import NoiseSpec, _depolarize_qubit_mat
from .states import PureState

P_CLAMP = 1e-9

OPTIMIZERS = ("gradient_descent", "spsa")
PLACEMENTS = ("input", "input_and_layers")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture plus the noise regime the model is evaluated under."""

    qubits: int
    ansatz_reps: int = 3
    encoding_axis: str = "RY"
    noise: NoiseSpec = field(default_factory=NoiseSpec.none)
    noise_placement: str = "input"
    train_shots: int | None = None
    observable: Observable | None = None

    def __post_init__(self):
        if self.qubits < 1 or self.ansatz_reps < 1:
            raise ValueError("need qubits >= 1 and ansatz_reps >= 1")
        if self.encoding_axis not in ("RY", "RX"):
            raise ValueError(f"unsupported encoding axis {self.encoding_axis!r}")
        if self.noise_placement not in PLACEMENTS:
            raise ValueError(f"unknown noise placement {self.noise_placement!r}")
        if self.observable is not None:
            self.observable.check()
            if self.observable.dim != 2**self.qubits:
                raise ValueError("observable dimension does not match qubit count")

    @property
    def param_count(self) -> int:
        return (self.ansatz_reps + 1) * self.qubits

    @property
    def dim(self) -> int:
        return 2**self.qubits

    def resolved_observable(self) -> Observable:
        return self.observable if self.observable is not None else z_on_qubit(self.qubits)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    learning_rate: float = 0.1
    optimizer: str = "gradient_descent"
    seed: int = 0
    under_noise: bool = False

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0.0:
            raise ValueError("learning rate must be positive")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


@dataclass(frozen=True)
class TrainedModel:
    spec: ModelSpec
    params: np.ndarray
    train_log: np.ndarray

    def __post_init__(self):
        got = np.asarray(self.params).size
        if got != self.spec.param_count:
            raise ValueError(
                f"spec wants {self.spec.param_count} parameters, got {got}")


# ---------------------------------------------------------------------------
# batched simulation engine

class _Engine:
    """Simulates S parameter vectors against B input states at once.

    Works on raw arrays in the float64 domain (complex128 only when the
    inputs force it). Layout: thetas is (S, P), states_T is (dim, B),
    forward returns <obs> as (S, B).
    """

    def __init__(self, qubits: int, reps: int, obs: Observable | None = None):
        self.n = qubits
        self.reps = reps
        self.dim = 2**qubits
        self.P = (reps + 1) * qubits
        self.chain = self._cx_chain()
        if obs is None:
            obs = z_on_qubit(qubits)
        m = np.asarray(obs.matrix)
        offdiag = np.abs(m - np.diag(np.diag(m))).max() if m.size > 1 else 0.0
        if offdiag == 0.0 and np.abs(m.imag).max() == 0.0:
            self.obs_diag = np.ascontiguousarray(np.diag(m).real)
            self.obs_full = None
        else:
            self.obs_diag = None
            self.obs_full = np.ascontiguousarray(m)

    def _cx_chain(self) -> np.ndarray:
        """Composed unitary of the linear CX chain, as one real matrix."""
        dim, n = self.dim, self.n
        chain = np.eye(dim)
        idx = np.arange(dim)
        for q in range(n - 1):
            control_bit = (idx >> (n - 1 - q)) & 1
            flipped = np.where(control_bit == 1, idx ^ (1 << (n - 2 - q)), idx)
            gate = np.zeros((dim, dim))
            gate[flipped, idx] = 1.0
            chain = gate @ chain
        return chain

    def _ry_layer(self, angles: np.ndarray) -> np.ndarray:
        """(S, n) angles -> (S, dim, dim) layer unitaries via broadcast kron."""
        c = np.cos(angles / 2.0)
        s = np.sin(angles / 2.0)
        S = angles.shape[0]
        out = np.empty((S, 2, 2))
        out[:, 0, 0] = c[:, 0]
        out[:, 0, 1] = -s[:, 0]
        out[:, 1, 0] = s[:, 0]
        out[:, 1, 1] = c[:, 0]
        for q in range(1, self.n):
            m = np.empty((S, 2, 2))
            m[:, 0, 0] = c[:, q]
            m[:, 0, 1] = -s[:, q]
            m[:, 1, 0] = s[:, q]
            m[:, 1, 1] = c[:, q]
            d = out.shape[1]
            out = (out[:, :, None, :, None] * m[:, None, :, None, :]).reshape(S, 2 * d, 2 * d)
        return out

    def unitaries(self, thetas: np.ndarray) -> np.ndarray:
        n = self.n
        U = self._ry_layer(thetas[:, :n])
        for layer in range(1, self.reps + 1):
            U = self.chain @ U
            U = self._ry_layer(thetas[:, layer * n:(layer + 1) * n]) @ U
        return U

    def forward(self, thetas: np.ndarray, states_T: np.ndarray) -> np.ndarray:
        """<obs> for every (parameter vector, input state) combination."""
        phi = self.unitaries(thetas) @ states_T
        if self.obs_diag is not None:
            weighted = self.obs_diag[:, None] * phi
        else:
            weighted = np.matmul(self.obs_full, phi)
        if np.iscomplexobj(phi):
            return np.einsum("sib,sib->sb", phi.conj(), weighted).real
        return np.einsum("sib,sib->sb", phi, weighted)


_engine_cache: dict = {}


def _engine_for(spec: ModelSpec) -> _Engine:
    if spec.observable is None:
        key = (spec.qubits, spec.ansatz_reps)
        if key not in _engine_cache:
            _engine_cache[key] = _Engine(spec.qubits, spec.ansatz_reps)
        return _engine_cache[key]
    return _Engine(spec.qubits, spec.ansatz_reps, spec.observable)


def _stack_states(states, dim: int) -> np.ndarray:
    """Stack encoded inputs into a (dim, B) array, real when possible."""
    vecs = []
    for s in states:
        v = s.amps if isinstance(s, PureState) else np.asarray(s)
        if v.shape != (dim,):
            raise ValueError(f"need pure states of dim {dim}, got {type(s).__name__} {v.shape}")
        vecs.append(v)
    block = np.stack(vecs, axis=1)
    if np.iscomplexobj(block) and np.abs(block.imag).max() == 0.0:
        block = block.real
    return np.ascontiguousarray(block)


def _noise_scale(spec: ModelSpec) -> tuple:
    """(scale, offset) such that <obs> under global depolarizing noise is
    scale * <obs>_clean + offset. Only valid for global scope."""
    if spec.noise.kind != "depolarizing" or spec.noise.scope != "global":
        return 1.0, 0.0
    hooks = 1 if spec.noise_placement == "input" else spec.ansatz_reps + 2
    scale = (1.0 - spec.noise.p) ** hooks
    obs_trace = float(np.trace(np.asarray(spec.resolved_observable().matrix)).real)
    return scale, (1.0 - scale) * obs_trace / spec.dim


def _probs_from_z(z: np.ndarray) -> np.ndarray:
    return np.clip((1.0 + z) / 2.0, P_CLAMP, 1.0 - P_CLAMP)


def _bce(p: np.ndarray, labels: np.ndarray) -> np.ndarray:
    return -(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))


def _sample_z(z_exact: np.ndarray, obs: Observable, shots: int,
              rng: np.random.Generator) -> np.ndarray:
    """Finite-shot estimate of <obs> from measurement counts.

    For the two-eigenvalue observables used here the count distribution
    is binomial over the +-1 outcomes; general observables sample their
    eigenbasis. z_exact must come from the same observable.
    """
    evals = np.linalg.eigvalsh(np.asarray(obs.matrix))
    lo, hi = float(evals.min()), float(evals.max())
    z = np.atleast_1d(z_exact)
    if hi - lo < 1e-15:
        return np.full(z.shape, lo)
    p_hi = np.clip((z - lo) / (hi - lo), 0.0, 1.0)
    counts = rng.binomial(shots, p_hi)
    return lo + (hi - lo) * counts / shots


def _effective_observable(spec: ModelSpec, params: np.ndarray, noisy: bool) -> np.ndarray:
    """A with <obs> = psi^T A psi: the readout walked back through the ansatz.

    Each layer V maps A to V^T A V, last layer first, and a per-qubit
    depolarizing channel (a Pauli channel, its own adjoint) acts on A at
    every hook where it would act on the state.
    """
    engine, n, noise = _engine_for(spec), spec.qubits, spec.noise
    per_qubit = noisy and noise.kind == "depolarizing" and noise.scope == "per_qubit"
    at_input = range(n) if per_qubit else ()
    after_layer = at_input if spec.noise_placement == "input_and_layers" else ()
    A = np.diag(engine.obs_diag) if engine.obs_diag is not None else engine.obs_full
    for layer in range(spec.ansatz_reps, -1, -1):
        for q in after_layer:
            A = _depolarize_qubit_mat(A, q, noise.p)
        ry = engine._ry_layer(params[None, layer * n:(layer + 1) * n])[0]
        A = ry.T @ A @ ry
        if layer:
            A = engine.chain.T @ A @ engine.chain
    for q in at_input:
        A = _depolarize_qubit_mat(A, q, noise.p)
    if np.iscomplexobj(A) and not A.imag.any():
        A = A.real
    return A


def _batch_z(spec: ModelSpec, params: np.ndarray, states,
             noisy: bool, rng: np.random.Generator | None) -> np.ndarray:
    """<obs> per state under the model's noise regime (when noisy=True)."""
    states_T = _stack_states(states, spec.dim)
    weighted = _effective_observable(spec, params, noisy) @ states_T
    z = np.einsum("ib,ib->b", states_T.conj(), weighted).real
    if not noisy:
        return z
    scale, offset = _noise_scale(spec)
    z = scale * z + offset
    if spec.noise.kind == "measurement_shots":
        if rng is None:
            raise ValueError("finite-shot evaluation needs an explicit rng")
        z = _sample_z(z, spec.resolved_observable(), spec.noise.shots, rng)
    return z


# ---------------------------------------------------------------------------
# public operations

def predict(model: TrainedModel, state, rng: np.random.Generator | None = None) -> float:
    """Class-1 probability p = (1 + <obs>) / 2 of a pure state under the model's noise."""
    z = float(_batch_z(model.spec, model.params, [state], noisy=True, rng=rng)[0])
    return float(np.clip((1.0 + z) / 2.0, 0.0, 1.0))


def loss(model: TrainedModel, state, label: int,
         rng: np.random.Generator | None = None) -> float:
    """Binary cross-entropy of predict() against a {0, 1} label."""
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label!r}")
    p = np.clip(predict(model, state, rng), P_CLAMP, 1.0 - P_CLAMP)
    return float(_bce(np.asarray(p), float(label)))


def evaluate_losses(model: TrainedModel, states, labels,
                    rng: np.random.Generator | None = None) -> np.ndarray:
    """Per-input losses, in input order, under the model's noise spec."""
    labels = np.asarray(labels, dtype=float).ravel()
    states = list(states)
    if len(states) == 0:
        raise ValueError("no states to evaluate")
    if len(states) != labels.size:
        raise ValueError("states and labels differ in length")
    z = _batch_z(model.spec, model.params, states, noisy=True, rng=rng)
    return _bce(_probs_from_z(z), labels)


def mean_loss(spec: ModelSpec, params: np.ndarray, states, labels) -> float:
    """Noiseless exact-expectation mean loss, the quantity training descends."""
    labels = np.asarray(labels, dtype=float).ravel()
    z = _batch_z(spec, np.asarray(params, dtype=float), states, noisy=False, rng=None)
    return float(_bce(_probs_from_z(z), labels).mean())


def loss_gradient(spec: ModelSpec, params: np.ndarray, states, labels) -> np.ndarray:
    """Gradient of mean_loss via parameter shift and the chain rule.

    All 2P+1 shifted parameter vectors go through the engine in a single
    batched forward pass.
    """
    params = np.asarray(params, dtype=float)
    labels = np.asarray(labels, dtype=float).ravel()
    engine = _engine_for(spec)
    states_T = _stack_states(states, spec.dim)
    _, grad = _gd_step_values(engine, params, states_T, labels, 1.0, 0.0)
    return grad


def _gd_step_values(engine: _Engine, theta: np.ndarray, states_T: np.ndarray,
                    labels: np.ndarray, scale: float, offset: float):
    """One epoch's (mean loss, gradient) at theta.

    Rows of the shifted-parameter block: row 0 is theta itself, rows
    1+2j / 2+2j are theta with slot j shifted by +pi/2 / -pi/2. The loss
    is evaluated under the (scale, offset) noise map; the circuit
    derivative d<obs>/dtheta stays noiseless by contract.
    """
    P = engine.P
    thetas = np.tile(theta, (2 * P + 1, 1))
    j = np.arange(P)
    thetas[1 + 2 * j, j] += math.pi / 2.0
    thetas[2 + 2 * j, j] -= math.pi / 2.0
    z = engine.forward(thetas, states_T)
    dz = 0.5 * (z[1::2] - z[2::2])
    p = _probs_from_z(scale * z[0] + offset)
    dldp = -labels / p + (1.0 - labels) / (1.0 - p)
    grad = 0.5 * (dz * dldp[None, :]).mean(axis=1)
    return float(_bce(p, labels).mean()), grad


def train(states, labels, spec: ModelSpec, cfg: TrainConfig) -> TrainedModel:
    """Fit the ansatz parameters to encoded states with {0, 1} labels.

    Full-batch descent for cfg.epochs steps from a small uniform random
    initialization. Deterministic for a fixed seed: the RNG stream is
    consumed in a fixed order (init, then any per-epoch draws).
    """
    labels = np.asarray(labels, dtype=float).ravel()
    states = list(states)
    if len(states) == 0:
        raise ValueError("cannot train on an empty dataset")
    if len(states) != labels.size:
        raise ValueError("states and labels differ in length")
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise ValueError("labels must be 0 or 1")

    rng = np.random.default_rng(cfg.seed)
    theta = rng.uniform(-0.1, 0.1, spec.param_count)
    engine = _engine_for(spec)
    states_T = _stack_states(states, spec.dim)

    if cfg.under_noise:
        scale, offset = _noise_scale(spec)
        if spec.noise.kind == "depolarizing" and spec.noise.scope == "per_qubit":
            raise NotImplementedError(
                "training under per-qubit depolarizing noise is not supported; "
                "use global scope or evaluate noise at audit time only")
    else:
        scale, offset = 1.0, 0.0

    log = np.empty(cfg.epochs)
    if cfg.optimizer == "gradient_descent":
        for epoch in range(cfg.epochs):
            log[epoch], grad = _gd_step_values(engine, theta, states_T, labels,
                                               scale, offset)
            theta = theta - cfg.learning_rate * grad
    else:
        shots = spec.train_shots

        def spsa_loss(t: np.ndarray) -> float:
            z = engine.forward(t[None, :], states_T)[0]
            z = scale * z + offset
            if shots:
                z = _sample_z(z, spec.resolved_observable(), shots, rng)
            return float(_bce(_probs_from_z(z), labels).mean())

        for epoch in range(cfg.epochs):
            k = epoch + 1
            ck = 0.1 * k**-0.101
            ak = cfg.learning_rate * k**-0.602
            delta = rng.integers(0, 2, spec.param_count) * 2.0 - 1.0
            log[epoch] = spsa_loss(theta)
            ghat = (spsa_loss(theta + ck * delta) - spsa_loss(theta - ck * delta)) \
                / (2.0 * ck) * delta
            theta = theta - ak * ghat

    return TrainedModel(spec=spec, params=theta, train_log=log)


def eval_model(model: TrainedModel, noise: NoiseSpec) -> TrainedModel:
    """The same trained parameters evaluated under a different noise spec."""
    return TrainedModel(spec=replace(model.spec, noise=noise),
                        params=model.params, train_log=model.train_log)
