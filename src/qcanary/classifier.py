"""The variational classifier: encode, rotate, entangle, measure, read out.

A model is a RealAmplitudes-style ansatz over encoded product states with
a fixed readout, <Z> on qubit 0, mapped to a class probability
p = (1 + <Z>)/2 and binary cross-entropy loss. Training is full-batch
gradient descent on exact adjoint gradients.

One engine serves every path, and it works on stacks of models. A privacy
audit retrains the model hundreds of times, so the _Engine below takes S
parameter vectors at once, builds all their layer unitaries as staged
Kronecker products whose gather indices also apply the CX chain, a
permutation, and walks the observable back through them to the effective
observables A_s with <Z> = psi^T A_s psi. Both depolarizing channels
act there and only there, on the stacked A_s at the input end of the walk
(_Engine.walk_back): the global channel as the scale 1 - p, each
per-qubit channel as an exact real gather. Shots are a readout effect,
not a channel, and are drawn from the exact <Z> afterwards. Evaluation
reads every state through A, and an audit block reads all its models
through one stack. A gradient step reuses the observables of that walk
and adds one walk forward from the data, so its cost does not grow with
the parameter count, and one step advances all S models: model s sees
only its own slice of every stacked matmul, so a stack trains each model
to the same bits as training it alone, and a single model is the S = 1
case. RY encodings, RY, CX and Z are all real, so everything runs in
float64. The circuits module is the reference these paths are tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .circuits import apply_circuit_density  # noqa: F401  (bench traces it as circuits.density)
from .noise import NoiseSpec
from .states import PureState

P_CLAMP = 1e-9


@dataclass(frozen=True)
class ModelSpec:
    """Architecture plus the noise regime the model trains and is evaluated
    under; eval_model swaps in another regime for evaluation."""

    qubits: int
    ansatz_reps: int = 3
    noise: NoiseSpec = field(default_factory=NoiseSpec.none)

    def __post_init__(self):
        if self.qubits < 1 or self.ansatz_reps < 1:
            raise ValueError("need qubits >= 1 and ansatz_reps >= 1")

    @property
    def param_count(self) -> int:
        return (self.ansatz_reps + 1) * self.qubits

    @property
    def dim(self) -> int:
        return 2**self.qubits


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    learning_rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0.0:
            raise ValueError("learning rate must be positive")


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
# simulation engine

class _Engine:
    """The ansatz as raw float64 arrays: RY layers, the CX chain and the Z readout."""

    def __init__(self, qubits: int, reps: int):
        self.n = qubits
        self.reps = reps
        self.dim = 2**qubits
        # the RY generator on qubit q, G_q = -iY_q/2, pairs index j with
        # j ^ mask_q, with entry -1/2 where bit q of j is 0 and +1/2 where 1
        idx = np.arange(self.dim)
        masks = 1 << (qubits - 1 - np.arange(qubits))[:, None]
        self.cols = idx
        self.flip = idx ^ masks
        self.sign = np.where(idx & masks, 1.0, -1.0)
        # (-1)^(bit_q(i) + bit_q(j)), the signs Z_q puts on entry (i, j)
        self.parity = self.sign[:, :, None] * self.sign[:, None, :]
        self.obs = np.diag(-self.sign[0])  # the readout, Z on qubit 0
        self.stages = self._kron_stages(self._cx_columns())

    def _cx_columns(self) -> np.ndarray:
        """The linear CX chain as a permutation: it maps basis state j to
        cols[j], so V @ chain is the column gather V[:, cols]."""
        cols, n = np.arange(self.dim), self.n
        for q in range(n - 1):
            control = (cols >> (n - 1 - q)) & 1
            cols = cols ^ (control << (n - 2 - q))
        return cols

    def _kron_stages(self, chain_cols: np.ndarray) -> list:
        """Flat gather indices for the staged Kronecker product of a layer's
        RY matrices, ((R_0 x R_1) x R_2) x ..., qubit 0 most significant.

        Stage q reads entry ((a, x), j) of P x R_q as P[a, col >> 1] *
        R_q[x, col & 1], with P the product so far and col = j, except in
        the last stage of every layer after the first, where col =
        chain_cols[j] folds the CX chain before the layer into the gather.
        Indices run over all reps + 1 layers of one model at once.
        """
        L, stages = self.reps + 1, []
        for q in range(1, self.n):
            d = 2**q
            cols = np.tile(np.arange(2 * d), (L, 1))
            if q == self.n - 1:
                cols[1:] = chain_cols
            rows = np.arange(2 * d)[None, :, None]
            layer = np.arange(L)[:, None, None]
            stages.append(((layer * d + (rows >> 1)) * d + (cols >> 1)[:, None, :],
                           (layer * 2 + (rows & 1)) * 2 + (cols & 1)[:, None, :]))
        return stages

    def layers(self, theta: np.ndarray) -> np.ndarray:
        """(S, P) parameter vectors -> (S, reps + 1, dim, dim): per model,
        the first RY layer, then each later RY layer times the CX chain
        before it. Every entry is one product of RY entries, so the stack
        equals the np.kron reference, chain matmul included, bit for bit."""
        S, L = theta.shape[0], self.reps + 1
        half = np.reshape(theta, (S, L, self.n)).transpose(0, 2, 1) / 2.0
        c, s = np.cos(half), np.sin(half)
        ry = np.stack([c, -s, s, c], axis=-1)  # (S, n, L, 4): each RY row-major
        out = ry[:, 0]
        for q, (p_idx, r_idx) in enumerate(self.stages, start=1):
            # in place: one less full-size temporary keeps the allocator
            # from returning and refaulting pages on every training step
            stage = np.take(out.reshape(S, -1), p_idx, axis=1)
            stage *= np.take(ry[:, q].reshape(S, -1), r_idx, axis=1)
            out = stage
        return out.reshape(S, L, self.dim, self.dim)

    def walk_back(self, layers: np.ndarray, noise: NoiseSpec):
        """The readout walked back through each model's ansatz, last layer first.

        Returns (after, A): after[l] is the observable the states see just
        after layer l, (S, dim, dim) (the shared readout for the last
        layer), and A the (S, dim, dim) one the input states see, so that
        <Z> = psi^T A_s psi. Each layer V (real, so V^dagger = V^T) maps A
        to V^T A V. This is the one place a depolarizing channel touches
        the engine: it acts on A at the input, where it acts on the state.
        The global channel's adjoint is (1 - p) A, as Z is traceless; a
        per-qubit channel is a Pauli channel, its own adjoint. after stays
        noiseless, and with it the circuit derivative of a training step.
        """
        L = layers.shape[1]
        after = [None] * L
        A = self.obs
        for layer in range(L - 1, -1, -1):
            after[layer] = A
            V = layers[:, layer]
            A = V.transpose(0, 2, 1) @ A @ V
        if noise.kind == "depolarizing" and noise.scope == "global":
            A = (1.0 - noise.p) * A
        elif noise.kind == "depolarizing":
            for q in range(self.n):
                A = self.depolarize_qubit(A, q, noise.p)
        return after, A

    def depolarize_qubit(self, A: np.ndarray, q: int, p: float) -> np.ndarray:
        """The depolarizing channel on qubit q, applied to each real (S, dim,
        dim) matrix: (1-p) A + p/3 (X A X + Y A Y + Z A Z) on that qubit.

        X_q A X_q is the gather A[f, f] with f the bit-q flip, Z_q A Z_q the
        parity signs times A and Y_q A Y_q the signs times A[f, f], all real
        and exact; summed in X, Y, Z order this matches the complex Pauli
        products of noise.depolarize_qubit bit for bit.
        """
        f, signs, w = self.flip[q], self.parity[q], p / 3.0
        flipped = A[:, f[:, None], f]
        return (1.0 - p) * A + w * flipped + w * (signs * flipped) + w * (signs * A)

    def generator_traces(self, M: np.ndarray) -> np.ndarray:
        """2 tr(G_q M_l) for every layer l and qubit q, in slot order, as a
        signed gather over the real (S, layers, dim, dim) stack M -> (S, P)."""
        traces = (self.sign * M[..., self.flip, self.cols]).sum(axis=-1)
        return traces.reshape(M.shape[0], -1)


_engine_cache: dict = {}


def _engine_for(spec: ModelSpec) -> _Engine:
    key = (spec.qubits, spec.ansatz_reps)
    if key not in _engine_cache:
        _engine_cache[key] = _Engine(spec.qubits, spec.ansatz_reps)
    return _engine_cache[key]


def _stack_states(states, dim: int) -> np.ndarray:
    """Encoded inputs, a sequence of states or a (B, dim) array of
    amplitude rows, as a contiguous float64 (dim, B) block.

    The engine is real: complex amplitudes, as qc.pure() stores them, are
    accepted only with a zero imaginary part."""
    if isinstance(states, np.ndarray) and states.ndim == 2 and states.shape[1] == dim:
        block = states.T
    else:
        vecs = []
        for s in states:
            v = s.amps if isinstance(s, PureState) else np.asarray(s)
            if v.shape != (dim,):
                raise ValueError(f"need pure states of dim {dim}, got {type(s).__name__} {v.shape}")
            vecs.append(v)
        block = np.stack(vecs, axis=1)
    if np.iscomplexobj(block):
        if block.imag.any():
            raise ValueError("the engine is real: states need a zero imaginary part")
        block = block.real
    return np.ascontiguousarray(block, dtype=float)


def _probs_from_z(z: np.ndarray) -> np.ndarray:
    return np.clip((1.0 + z) / 2.0, P_CLAMP, 1.0 - P_CLAMP)


def _bce(p: np.ndarray, labels: np.ndarray) -> np.ndarray:
    return -(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))


def _binary_labels(labels) -> np.ndarray:
    labels = np.asarray(labels, dtype=float)
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise ValueError("labels must be 0 or 1")
    return labels


def _batch_labels(states, labels) -> np.ndarray:
    """labels as a flat float array, checked against a nonempty batch of states."""
    labels = np.asarray(labels, dtype=float).ravel()
    if len(states) == 0:
        raise ValueError("no states in the batch")
    if len(states) != labels.size:
        raise ValueError("states and labels differ in length")
    return labels


def _sample_z(z_exact: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Finite-shot estimate of <Z> from measurement counts: the count of
    +1 outcomes is binomial with probability (1 + <Z>)/2."""
    p_plus = np.clip((np.atleast_1d(z_exact) + 1.0) / 2.0, 0.0, 1.0)
    counts = rng.binomial(shots, p_plus)
    return -1.0 + 2.0 * counts / shots


def _observables(spec: ModelSpec, params: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    """The effective observables A_s, with <Z> = psi^T A_s psi, of the
    rows of the (S, P) params under noise, as one (S, dim, dim) walk back.
    Depolarizing noise acts inside A; shots act later, on <Z> (see
    _noisy_z)."""
    engine = _engine_for(spec)
    _, A = engine.walk_back(engine.layers(np.reshape(params, (-1, spec.param_count))), noise)
    return A


def _read_z(A: np.ndarray, states: np.ndarray) -> np.ndarray:
    """z[s, b] = psi^T A_s psi for every column psi of states[s]:
    (S, dim, dim) observables and (S, dim, B) states -> (S, B)."""
    return np.einsum("sib,sib->sb", states, A @ states)


def _noisy_z(A: np.ndarray, noise: NoiseSpec, states,
             rng: np.random.Generator | None) -> np.ndarray:
    """<Z> per state through one model's (1, dim, dim) observable A, which
    already holds any depolarizing channel; under shots, drawn from rng."""
    z = _read_z(A, _stack_states(states, A.shape[-1])[None])[0]
    if noise.kind == "measurement_shots":
        if rng is None:
            raise ValueError("finite-shot evaluation needs an explicit rng")
        z = _sample_z(z, noise.shots, rng)
    return z


def _read_losses(A: np.ndarray, noise: NoiseSpec, states, labels,
                 rng: np.random.Generator | None) -> np.ndarray:
    """evaluate_losses for the model whose observable under noise is A, a
    (1, dim, dim) slice of an _observables stack. Binary labels are left to
    the callers: evaluate_losses checks them, the audit generates its own."""
    labels = _batch_labels(states, labels)
    return _bce(_probs_from_z(_noisy_z(A, noise, states, rng)), labels)


# ---------------------------------------------------------------------------
# public operations

def predict(model: TrainedModel, state, rng: np.random.Generator | None = None) -> float:
    """Class-1 probability p = (1 + <Z>) / 2 of a pure state under the model's noise."""
    noise = model.spec.noise
    z = float(_noisy_z(_observables(model.spec, model.params, noise), noise, [state], rng)[0])
    return float(np.clip((1.0 + z) / 2.0, 0.0, 1.0))


def evaluate_losses(model: TrainedModel, states, labels,
                    rng: np.random.Generator | None = None) -> np.ndarray:
    """Per-input binary cross-entropy losses against {0, 1} labels, in
    input order, under the model's noise spec.

    states is a sequence of encoded states or a (B, dim) array of
    amplitude rows."""
    noise = model.spec.noise
    return _read_losses(_observables(model.spec, model.params, noise), noise,
                        states, _binary_labels(labels), rng)


def mean_loss(spec: ModelSpec, params: np.ndarray, states, labels) -> float:
    """Noiseless exact-expectation mean loss, the quantity training descends."""
    labels = _binary_labels(_batch_labels(states, labels))
    clean = NoiseSpec.none()
    z = _noisy_z(_observables(spec, np.asarray(params, dtype=float), clean), clean, states, None)
    return float(_bce(_probs_from_z(z), labels).mean())


def loss_gradient(spec: ModelSpec, params: np.ndarray, states, labels) -> np.ndarray:
    """Exact gradient of mean_loss, by the adjoint method and the chain rule.

    One walk back from the readout and one walk forward from the data,
    whatever the parameter count (see _gd_step_values).
    """
    theta = np.asarray(params, dtype=float).reshape(1, -1)
    labels = _binary_labels(_batch_labels(states, labels))[None]
    states_T = _stack_states(states, spec.dim)
    _, grad = _gd_step_values(_engine_for(spec), theta, states_T[None], labels,
                              NoiseSpec.none())
    return grad[0]


def _gd_step_values(engine: _Engine, theta: np.ndarray, states: np.ndarray,
                    labels: np.ndarray, noise: NoiseSpec):
    """One epoch's (mean loss, gradient) for each of S models, by the adjoint method.

    theta is (S, P), states the real (S, dim, B) and labels (S, B); returns
    the (S,) losses and the (S, P) gradients. The loss reads <Z> through
    the observable walk_back gives under noise, so a global channel acts
    on it; the circuit derivative dz/dtheta stays noiseless by contract,
    so the gradient is 0.5 * mean_b(dL/dp_b * dz_b/dtheta) (Jones & Gacon,
    arXiv:2009.02823).

    The walk back from the readout gives A_l, the noiseless observable
    seen just after RY layer l, and z_b = psi_b^T A psi_b. The data then
    enter only through C = sum_b w_b psi_b psi_b^T, w_b = 0.5 dL/dp_b / B,
    which the walk forward turns into S_l, the weighted states just after
    layer l. The RY on qubit q in layer l has derivative G_q RY, with
    G_q = -iY_q/2 a real matrix, so that slot's entry is
    2 tr(A_l G_q S_l). Every product is a real stacked matmul, one GEMM
    per model.
    """
    layers = engine.layers(theta)
    after, A = engine.walk_back(layers, noise)
    p = _probs_from_z(_read_z(A, states))
    dldp = -labels / p + (1.0 - labels) / (1.0 - p)
    weighted = states * (0.5 * dldp / labels.shape[-1])[:, None, :]
    S = weighted @ states.transpose(0, 2, 1)
    # tr(A G S) = tr(G M) with M = S A
    M = np.empty(layers.shape)
    for layer in range(layers.shape[1]):
        V = layers[:, layer]
        S = V @ S @ V.transpose(0, 2, 1)
        np.matmul(S, after[layer], out=M[:, layer])
    return _bce(p, labels).mean(axis=-1), engine.generator_traces(M)


def train(states, labels, spec: ModelSpec, cfg: TrainConfig) -> TrainedModel:
    """Fit the ansatz parameters to encoded states with {0, 1} labels.

    Full-batch descent for cfg.epochs steps from a small uniform random
    initialization, all in float64 on real states (see _stack_states).
    Global depolarizing noise in spec.noise acts on the observable the
    loss reads, the gradient's circuit derivative stays noiseless, and
    shots are ignored; per-qubit noise is not supported. Deterministic for
    a fixed seed, which draws the initialization.
    """
    labels = _batch_labels(states, labels)
    states_T = _stack_states(states, spec.dim)
    return _train_stack(states_T[None], labels[None], spec, cfg, [cfg.seed])[0]


def _train_stack(states: np.ndarray, labels: np.ndarray, spec: ModelSpec,
                 cfg: TrainConfig, seeds) -> list:
    """train() for S models at once, one stacked gradient step per epoch.

    Model s fits the columns of states[s] (states is (S, dim, B)) to
    labels[s] from the initialization seeds[s] draws; cfg.seed is unused.
    Each model ends on the same bits as train() gives it alone.
    """
    labels = _binary_labels(labels)
    if spec.noise.kind == "depolarizing" and spec.noise.scope == "per_qubit":
        raise NotImplementedError(
            "training under per-qubit depolarizing noise is not supported; "
            "use global scope or evaluate noise at audit time only")
    engine = _engine_for(spec)
    theta = np.stack([np.random.default_rng(seed).uniform(-0.1, 0.1, spec.param_count)
                      for seed in seeds])

    log = np.empty((len(seeds), cfg.epochs))
    for epoch in range(cfg.epochs):
        log[:, epoch], grad = _gd_step_values(engine, theta, states, labels, spec.noise)
        theta = theta - cfg.learning_rate * grad

    return [TrainedModel(spec=spec, params=t, train_log=l) for t, l in zip(theta, log)]


def eval_model(model: TrainedModel, noise: NoiseSpec) -> TrainedModel:
    """The same trained parameters evaluated under a different noise spec."""
    return TrainedModel(spec=replace(model.spec, noise=noise),
                        params=model.params, train_log=model.train_log)
