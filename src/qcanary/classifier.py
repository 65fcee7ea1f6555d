"""The variational classifier: encode, rotate, entangle, measure, read out.

A model is a RealAmplitudes-style ansatz over encoded product states with
a fixed readout, a projective measurement of qubit 0: class 1 is outcome
0, with probability p = ||Pi U psi||^2, and the loss is binary
cross-entropy. Pi = E^T E projects onto the first dim/2 basis states (E
holds those rows of the identity), so <Z> on qubit 0 is 2p - 1. Training
is full-batch gradient descent on exact adjoint gradients.

One engine serves every path, and it works on stacks of models. A privacy
audit retrains the model hundreds of times, so the _Engine below takes S
parameter vectors at once and gathers all their layer unitaries in one
take from per-layer tables: every entry of an RY layer is a signed product
of one cos or sin per qubit, and the gather index also applies the CX
chain, a permutation. It then walks the readout's dim/2 rows back through
them (_Engine.walk_back), R_l = E V_{L-1} ... V_l, and reads p as the
squared norm of T = R_0 psi. Noise acts there and only there, at the read
(_Engine.read): the global channel mixes in 1/2, a per-qubit channel acts
as an exact real gather on the observable 2 R_0^T R_0 - I, and shots are
drawn from the exact p. Evaluation and training share that read, and an
audit block reads all its models through one stack. A gradient step
keeps every R_l and adds one walk forward from the data through dim/2
columns, the states weighted with their T, so its cost does not grow with
the parameter count: an RY layer commutes with its own generators, so each
layer's slots are read before its rotation, through the generators the CX
chain permutes. One step advances all S models: model s sees only its own
slice of every stacked matmul, so a stack trains each model to the same
bits as training it alone, and a single model is the S = 1 case. Each
stack's epoch is laid out once as a _Plan, which owns every buffer the
engine writes and every view it reads, so an engine call goes straight
to numpy: a training run builds one plan for all its epochs, and an
epoch writes its late products into the buffers of early ones it no
longer reads, so a stack spans less memory. RY encodings, RY, CX and the
projector are all real, so everything runs in float64. The circuits
module is the reference these paths are tested against.
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
        if not 0.0 < self.learning_rate < np.inf:  # NaN fails too
            raise ValueError(f"learning rate {self.learning_rate} must be finite and positive")


@dataclass(frozen=True)
class TrainedModel:
    spec: ModelSpec
    params: np.ndarray
    train_log: np.ndarray

    def __post_init__(self):
        _theta(self.spec, self.params)


# ---------------------------------------------------------------------------
# simulation engine

class _Engine:
    """The ansatz as raw float64 arrays: RY layers, the CX chain and the qubit-0 readout."""

    def __init__(self, qubits: int, reps: int):
        self.n = qubits
        self.reps = reps
        self.dim = 2**qubits
        # the RY generator on qubit q, G_q = -iY_q/2, pairs index j with
        # j ^ mask_q, with entry -1/2 where bit q of j is 0 and +1/2 where 1
        idx = np.arange(self.dim)
        masks = 1 << (qubits - 1 - np.arange(qubits))[:, None]
        self.flip = idx ^ masks
        self.sign = np.where(idx & masks, 1.0, -1.0)
        # (-1)^(bit_q(i) + bit_q(j)), the signs Z_q puts on entry (i, j)
        self.parity = self.sign[:, :, None] * self.sign[:, None, :]
        # X_q A X_q as a gather: entry (i, j) is A[flip_q i, flip_q j], at
        # this flat offset into one model's dim x dim matrix
        self.flip_index = self.flip[:, :, None] * self.dim + self.flip[:, None, :]
        perm = self._layer_columns()
        self.gather = self._table_index(perm)
        # generator_traces reads the CX-permuted generators P_l^T G_q P_l
        # (see _GradientStep): entry (a, r) is G_q[perm a, perm r], so row
        # a's one nonzero sits at r = perm^-1[flip_q[perm a]] and is
        # sign_q[perm a] / 2. Both tables are (dim, L, n) over (a, l, q), the
        # rows as flat offsets into one model's (L, dim, dim) stack
        L = reps + 1
        rows = np.argsort(perm, axis=1)[np.arange(L)[:, None], self.flip[:, perm].T]
        self.generator_offsets = ((np.arange(L)[:, None] * self.dim + rows) * self.dim
                                  + idx[:, None, None])
        self.generator_signs = self.sign[:, perm].T

    def _layer_columns(self) -> np.ndarray:
        """(L, dim): the basis permutation P_l before each layer, the
        identity before the first and the linear CX chain before the rest.
        P_l maps basis state j to perm[l, j], so V @ P_l is the column
        gather V[:, perm[l]]."""
        cols, n = np.arange(self.dim), self.n
        for q in range(n - 1):
            control = (cols >> (n - 1 - q)) & 1
            cols = cols ^ (control << (n - 2 - q))
        perm = np.tile(np.arange(self.dim), (self.reps + 1, 1))
        perm[1:] = cols
        return perm

    def _table_index(self, perm: np.ndarray) -> np.ndarray:
        """(L, dim, dim) flat indices into a model's (L, 2 dim) layer table.

        Entry (i, c) of the Kronecker product of a layer's RY matrices,
        qubit 0 most significant, is the product over qubits of cos where
        bits i_q and c_q agree and sin where they differ, negated once for
        every qubit with i_q = 0 and c_q = 1 (the -sin of RY). So it is
        table[pattern] or table[dim + pattern], pattern = i ^ c. Column j of
        layer l reads column c = perm[l, j] (_layer_columns), which folds
        the CX chain before the layer into the gather.
        """
        L, dim = perm.shape
        rows, cols = np.arange(dim)[:, None], perm[:, None, :]
        minus_sin = ~rows & cols
        negated = sum((minus_sin >> q) & 1 for q in range(self.n)) & 1
        return (np.arange(L)[:, None, None] * 2 + negated) * dim + (rows ^ cols)

    def layers(self, plan: "_Plan", theta: np.ndarray) -> np.ndarray:
        """The plan's (S, P) parameter vectors -> its (S, reps + 1, dim, dim)
        layer stack: per model, the first RY layer, then each later RY layer
        times the CX chain before it.

        Each layer's table holds its dim products of one cos or sin per
        qubit, multiplied in qubit order as np.kron multiplies them, and
        their negations. The products run with the (model, layer) axis
        innermost, so every multiply has long inner loops, and one
        transposed copy lays them out per model. One gather through
        _table_index then places every entry, chain included. Negation is
        exact, so every entry has the bits of the np.kron reference, signed
        zeros included.
        """
        np.divide(theta, 2.0, out=plan.half_angles)
        np.cos(plan.sines, out=plan.cosines)
        np.sin(plan.sines, out=plan.sines)
        for source, factor, into in plan.products:
            np.multiply(source, factor, out=into)
        np.copyto(plan.table_pos, plan.products_T)
        np.negative(plan.table_pos, out=plan.table_neg)
        # the indices are in range by construction; mode="clip" writes
        # straight into out, where "raise" would fill a copy first
        return plan.flat_table.take(self.gather, axis=1, out=plan.layers, mode="clip")

    def walk_back(self, plan: "_Plan") -> np.ndarray:
        """The readout's rows walked back through each model's ansatz, last
        layer first, from the plan's layer stack into its row stack.

        Returns the (S, L, dim/2, dim) stack R_l = E V_{L-1} ... V_l, E the
        first dim/2 rows of the identity, so that the readout projector seen
        just before layer l is R_l^T R_l and p = ||R_0 psi||^2 (read).
        R_{L-1} is the top half of V_{L-1}, and R_l = R_{l+1} V_l: one
        (dim/2 x dim)(dim x dim) GEMM per layer and model, with no
        transposed operand. The walk is noiseless; every channel acts at
        the read.
        """
        np.copyto(plan.rows_last, plan.layers_top)
        for a, b, out in plan.walk_back:
            np.matmul(a, b, out=out)
        return plan.rows

    def read(self, plan: "_Plan", states: np.ndarray, rngs=()) -> np.ndarray:
        """p[s, b], the clamped probability that model s, whose readout rows
        are plan.readout[s] = R_0 (walk_back), reads class 1 from column b
        of states[s] under plan.noise: (S, dim, B) states -> (S, B) plan.p.

        This is the one place noise touches the engine. Noiseless, p is the
        Born rule, sum_i T_ib^2 with T = R_0 psi, the plan's (S, dim/2, B)
        T. The global channel mixes each state with I/dim, which the
        rank-dim/2 projector reads as 1/2, so p becomes (1 - p_n) p +
        p_n/2. A per-qubit channel is a Pauli channel, its own adjoint, so
        it acts on the observable the states see, A = U^T Z U = 2 R_0^T R_0
        - I, one qubit at a time (depolarize_qubit), and p = (1 + psi^T A
        psi)/2. Only this path builds A, in buffers its plan holds when
        built for that noise, and its plan has no T; subtracting I touches
        only A's diagonal, since 2a - 0 is 2a to the bit. Under shots p of
        model s becomes the share of outcome 0 in a binomial count drawn
        from its exact p with rngs[s], one generator per model, in model
        order, so a model read in a stack draws from its generator what it
        draws read alone; with no rngs, as in training, shots are ignored.
        """
        rows, p, noise = plan.readout, plan.p, plan.noise
        if _per_qubit(noise):
            A = plan.observables[0]
            np.matmul(plan.readout_T, rows, out=A)
            np.multiply(A, 2.0, out=A)
            np.subtract(plan.diagonal, 1.0, out=plan.diagonal)
            for q in range(self.n):
                A = self.depolarize_qubit(plan, q, noise.p)
            np.einsum("sib,sib->sb", states, np.matmul(A, states, out=plan.observed), out=p)
            np.divide(np.add(1.0, p, out=p), 2.0, out=p)
        else:
            T = np.matmul(rows, states, out=plan.T)
            np.einsum("sib,sib->sb", T, T, out=p)
            if noise.kind == "depolarizing":
                np.add(np.multiply(1.0 - noise.p, p, out=p), noise.p / 2.0, out=p)
            elif noise.kind == "measurement_shots" and rngs:
                for s in range(len(p)):
                    rng = rngs[s]
                    if rng is None:
                        raise ValueError("finite-shot evaluation needs an explicit rng")
                    p[s] = rng.binomial(noise.shots, np.clip(p[s], 0.0, 1.0)) / noise.shots
        return np.minimum(np.maximum(p, P_CLAMP, out=p), 1.0 - P_CLAMP, out=p)

    def depolarize_qubit(self, plan: "_Plan", q: int, p: float) -> np.ndarray:
        """The depolarizing channel on qubit q, applied to each of the plan's
        real (S, dim, dim) observables A: (1-p) A + p/3 (X A X + Y A Y + Z A
        Z) on that qubit. A is plan.observables[q % 2]; the channel writes
        into the other one, which it returns, and overwrites A.

        X_q A X_q is F = A[f, f] with f the bit-q flip, one take through
        the flat index tabled in __init__; Z_q A Z_q is the parity signs s
        times A and Y_q A Y_q is s F. With w = p/3 the sum runs as ((1-p) A
        + w F) + w (s F) + w (s A), and s = +-1 makes w (s F) = s (w F)
        exactly, so w F is made once. All of it is real and exact, and
        summed in X, Y, Z order it matches the complex Pauli products of
        noise._depolarize_qubit_mat bit for bit.
        """
        A, flat_A, out = plan.channel[q % 2]
        F, s, w = plan.flipped, self.parity[q], p / 3.0
        flat_A.take(self.flip_index[q], axis=1, out=F, mode="clip")
        np.multiply(F, w, out=F)
        np.multiply(A, 1.0 - p, out=out)
        np.add(out, F, out=out)
        np.add(out, np.multiply(F, s, out=F), out=out)
        np.multiply(np.multiply(A, s, out=A), w, out=A)
        return np.add(out, A, out=out)

    def generator_traces(self, plan: "_Plan") -> np.ndarray:
        """2 tr(P_l^T G_q P_l Y_l) for every layer l and qubit q, in slot
        order, as a signed gather over the plan's real (S, layers, dim, dim)
        stack Y -> its (S, P) traces.

        The CX-permuted generator has one nonzero, +-1/2, in each row a, so
        each trace is dim signed entries of Y_l, one from each column a
        (tabled in __init__). The gather takes them with a outermost and
        the models inside, (dim, S, L n), the signs apply elementwise, and
        the sum over a adds whole (S, L n) slices in column order (_Plan).
        """
        gathered = plan.gathered
        plan.flat_Y.take(plan.trace_index, out=gathered, mode="clip")
        np.multiply(gathered, plan.trace_signs, out=gathered)
        return np.add.reduce(gathered, axis=0, out=plan.traces)


class _Plan:
    """One stack's epoch under one noise regime, laid out once: every
    buffer the engine writes for S models on B states and every view it
    reads, so that _Engine.layers, walk_back, read and generator_traces
    neither slice, reshape nor allocate when called.

    _losses builds one for a read, and _GradientStep one with the walk
    forward and the trace gather too (gradient=True), once for a whole
    training call. theta/2 goes into the half of the factor buffer that
    then holds the sines, and each qubit's layer products alternate
    between the two rows of work. A plan for per-qubit noise gets the
    channel's buffers in place of T: the observable A and the channel's
    output alternate between two (S, dim, dim) buffers, qubit by qubit,
    with a third for A's flip and one for A psi.

    A gradient plan writes late products into buffers of early ones the
    epoch no longer reads:
    - Y = F R goes into the layer stack, whose (S, L, dim, dim) shape it
      has: the walk forward, F_{l+1} = V_l F_l, is the last reader of V_l.
    - The trace gather goes into the front of F: F's last reader is the
      product Y = F R the gather reads, and dim S L n <= S L dim dim/2,
      since n <= 2**(n - 1).
    - w T goes into T, whose last reader is p's Born rule, and ln q into
      p, whose last reader is q.

    The trace gather reads Y through a flat index, s L dim^2 plus the
    engine's generator offsets, into a (dim, S, L n) block, and the signs
    are made at that full shape, so no operand broadcasts. Reducing axis 0
    of that block adds its contiguous (S, L n) slices to the traces one a
    at a time, in order: each trace is (((g_0 + g_1) + g_2) + ...), the
    order of the per-model sum it replaces. numpy sums pairwise only
    along a reduced axis that is the inner loop.
    """

    def __init__(self, engine: _Engine, S: int, B: int, noise: NoiseSpec,
                 gradient: bool = False):
        self.noise = noise
        L, n, dim = engine.reps + 1, engine.n, engine.dim
        half, SL = dim // 2, S * L
        factors = np.empty((2, SL, n))
        self.cosines, self.sines = factors
        self.half_angles = self.sines.reshape(S, L * n)
        work = np.empty((2, dim * SL))
        products, self.products = factors[..., 0], []  # (2**(q + 1), S L) after qubit q
        for q in range(1, n):
            into = work[q % 2, :2**(q + 1) * SL].reshape(2**q, 2, SL)
            self.products.append((products[:, None], factors[None, ..., q], into))
            products = into.reshape(-1, SL)
        self.products_T = products.T.reshape(S, L, dim)
        table = np.empty((S, L, 2, dim))
        self.table_pos, self.table_neg = table[:, :, 0], table[:, :, 1]
        self.flat_table = table.reshape(S, -1)
        self.layers = np.empty((S, L, dim, dim))  # the layers V_l, then Y_l
        self.rows = np.empty((S, L, half, dim))
        self.rows_last, self.layers_top = self.rows[:, L - 1], self.layers[:, L - 1, :half]
        self.walk_back = [(self.rows[:, layer + 1], self.layers[:, layer], self.rows[:, layer])
                          for layer in range(L - 2, -1, -1)]
        self.readout = self.rows[:, 0]
        self.p = np.empty((S, B))  # p, then ln q
        if _per_qubit(noise):
            self.readout_T = self.readout.transpose(0, 2, 1)
            observables = np.empty((2, S, dim, dim))
            flat = observables.reshape(2, S, dim * dim)
            self.observables = observables
            self.diagonal = flat[0, :, ::dim + 1]
            self.channel = [(observables[0], flat[0], observables[1]),
                            (observables[1], flat[1], observables[0])]
            self.flipped = np.empty((S, dim, dim))
            self.observed = np.empty((S, dim, B))  # A psi
        else:
            self.T = np.empty((S, half, B))  # R_0 psi, then w R_0 psi
        if gradient:
            self.T_t = self.T.transpose(0, 2, 1)
            self.q, self.w = np.empty((2, S, B))
            self.w_rows = self.w[:, None, :]
            self.loss = np.empty(S)
            self.F = np.empty((S, L, dim, half))
            self.F0 = self.F[:, 0]
            self.walk_forward = [(self.layers[:, layer], self.F[:, layer], self.F[:, layer + 1])
                                 for layer in range(L - 1)]
            self.flat_Y = self.layers.reshape(-1)
            offsets = engine.generator_offsets.reshape(dim, 1, L * n)
            self.trace_index = np.arange(S)[:, None] * (L * dim * dim) + offsets
            self.trace_signs = np.repeat(engine.generator_signs.reshape(dim, 1, L * n), S, axis=1)
            self.gathered = self.F.reshape(-1)[:dim * S * L * n].reshape(dim, S, L * n)
            self.traces = np.empty((S, L * n))


def _per_qubit(noise: NoiseSpec) -> bool:
    """Whether noise is the per-qubit depolarizing channel, the one regime
    that reads an observable rather than the readout rows' T."""
    return noise.kind == "depolarizing" and noise.scope == "per_qubit"


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


def _label_probs(p: np.ndarray, off: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """q, the probability p gives each label, with off = 1 - label: |off -
    p|, which is exactly p for label 1 and 1 - p for label 0."""
    return np.absolute(np.subtract(off, p, out=out), out=out)


def _bce(p: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Binary cross-entropy -ln q, q = _label_probs, against {0, 1} labels.

    This is -(labels ln p + (1 - labels) ln(1 - p)) to the bit: p is
    clamped away from 0 and 1, so the term a label drops is a signed zero
    added to a nonzero log, which is exact."""
    return -np.log(_label_probs(p, 1.0 - labels))


def _batch(states, labels, dim: int):
    """The public calls' one check of a batch: nonempty states (a sequence,
    or (B, dim) amplitude rows) with one label of 0 or 1 each. Returns
    their (dim, B) block (_stack_states) and the labels as flat floats."""
    labels = np.asarray(labels, dtype=float).ravel()
    if len(states) == 0:
        raise ValueError("no states in the batch")
    if len(states) != labels.size:
        raise ValueError("states and labels differ in length")
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise ValueError("labels must be 0 or 1")
    return _stack_states(states, dim), labels


def _theta(spec: ModelSpec, params) -> np.ndarray:
    """One model's parameters as a (1, P) theta, checked against the spec."""
    theta = np.asarray(params, dtype=float).reshape(1, -1)
    if theta.size != spec.param_count:
        raise ValueError(f"spec wants {spec.param_count} parameters, got {theta.size}")
    return theta


def _losses(spec: ModelSpec, theta: np.ndarray, noise: NoiseSpec, states: np.ndarray,
            labels: np.ndarray, rngs=()) -> np.ndarray:
    """Every model's losses, (S, B): model s, with the parameters theta[s]
    of the (S, P) theta, reads the columns of states[s] against labels[s]
    under noise, shots drawn from rngs[s] as _Engine.read draws them. One
    plan, built for noise, holds the layer gather, the walk back and the
    read. Nothing is checked: the public calls check theirs (_batch)."""
    engine = _engine_for(spec)
    plan = _Plan(engine, len(theta), states.shape[-1], noise)
    engine.layers(plan, theta)
    engine.walk_back(plan)
    return _bce(engine.read(plan, states, rngs), labels)


# ---------------------------------------------------------------------------
# public operations

def evaluate_losses(model: TrainedModel, states, labels,
                    rng: np.random.Generator | None = None) -> np.ndarray:
    """Per-input binary cross-entropy losses against {0, 1} labels, in
    input order, under the model's noise spec.

    states is a sequence of encoded states or a (B, dim) array of
    amplitude rows."""
    spec = model.spec
    states_T, labels = _batch(states, labels, spec.dim)
    return _losses(spec, np.reshape(model.params, (1, -1)), spec.noise,
                   states_T[None], labels[None], [rng])[0]


def mean_loss(spec: ModelSpec, params: np.ndarray, states, labels) -> float:
    """Noiseless exact-expectation mean loss, the quantity training descends."""
    theta = _theta(spec, params)
    states_T, labels = _batch(states, labels, spec.dim)
    return float(_losses(spec, theta, NoiseSpec.none(), states_T[None], labels[None])[0].mean())


def loss_gradient(spec: ModelSpec, params: np.ndarray, states, labels) -> np.ndarray:
    """Exact gradient of mean_loss, by the adjoint method and the chain rule.

    One walk back from the readout and one walk forward from the data,
    whatever the parameter count (see _GradientStep).
    """
    theta = _theta(spec, params)
    states_T, labels = _batch(states, labels, spec.dim)
    step = _GradientStep(_engine_for(spec), states_T[None], labels[None], NoiseSpec.none())
    return step(theta)[1][0]


class _GradientStep:
    """One epoch's (mean loss, gradient) for each of S models, by the adjoint method.

    states is the real (S, dim, B) and labels (S, B); a call takes the
    (S, P) theta and returns the (S,) losses and the (S, P) gradients. The
    loss reads p through _Engine.read under noise, so a global channel
    acts on it; the circuit derivative dp_clean/dtheta stays noiseless by
    contract, so the gradient is mean_b(dL/dp_b * dp_clean_b/dtheta)
    (Jones & Gacon, arXiv:2009.02823).

    Layer l is V_l = R_l P_l, the RY layer R_l after the CX chain P_l
    (P_0 = I). The RY on qubit q has derivative G_q R_l, with G_q = -iY_q/2
    a real matrix that commutes with every RY, so R_l^T G_q R_l = G_q.
    The readout is the projector Pi = E^T E (walk_back), so with psi_l a
    state just before layer l, the rows R_l seen there and T = R_0 psi,

        dp_clean/dtheta_lq = 2 T^T R_{l+1} G_q V_l psi_l
                           = 2 T^T R_l (V_l^T G_q V_l) psi_l
                           = 2 T^T R_l (P_l^T G_q P_l) psi_l.

    The data enter through w_b = dL/dp_b / B, so slot (l, q) is
    2 tr(P_l^T G_q P_l Y_l) with Y_l = F_l R_l and F_l = sum_b w_b psi_lb
    T_b^T, a dim x dim/2 stack: F_0 = states (w T)^T, and every V_l maps
    the states on, so F_{l+1} = V_l F_l. The permuted generator
    P_l^T G_q P_l is fixed, so a slot is a signed gather of Y_l
    (_Engine.generator_traces).

    This is the observable walk with A = U^T Z U = 2 R_0^T R_0 - I put in:
    its Y_0 = sum_b (w_b/2) psi_b (A psi_b)^T becomes F_0 R_0 - rho/2, with
    rho = sum_b w_b psi_b psi_b^T. rho and every V rho V^T are symmetric,
    and every P_l^T G_q P_l is antisymmetric, so the rho part adds exactly
    0 to every slot and is dropped. What is left walks dim/2 rows back and
    dim/2 columns forward, where the observable walk carried dim x dim
    matrices both ways. Every product is a real stacked matmul, one GEMM
    per model (and layer), of a shape that does not depend on S.

    The loss is -ln q, q the probability of the model's label (_bce), so
    dL/dp is -1/q or 1/q. Every array an epoch writes, and every view of
    one it reads, is laid out once, here, in a _Plan: freed and allocated
    again on every step, arrays this large go back to the OS and fault in
    anew each time, and the slicing alone is much of a lone model's step.
    The plan reuses dead buffers: Y goes into the layer stack and the
    trace gather into F. The returned losses and gradients are buffers
    too, overwritten by the next call.
    """

    def __init__(self, engine: _Engine, states: np.ndarray, labels: np.ndarray,
                 noise: NoiseSpec):
        S, _, B = states.shape
        self.engine, self.states = engine, states
        self.plan = _Plan(engine, S, B, noise, gradient=True)
        self.off = 1.0 - labels
        self.dldp_sign = np.where(labels == 1.0, -1.0, 1.0)  # dL/dp = -1/q or 1/q
        self.B = B

    def __call__(self, theta: np.ndarray):
        engine, plan = self.engine, self.plan
        engine.layers(plan, theta)
        engine.walk_back(plan)
        p = engine.read(plan, self.states)
        q = _label_probs(p, self.off, out=plan.q)
        # the mean of -ln q, as the sum of ln q over -B
        loss = np.add.reduce(np.log(q, out=p), axis=-1, out=plan.loss)
        np.divide(loss, -self.B, out=loss)
        w = np.divide(self.dldp_sign, q, out=plan.w)
        np.divide(w, self.B, out=w)
        np.multiply(plan.T, plan.w_rows, out=plan.T)
        np.matmul(self.states, plan.T_t, out=plan.F0)
        for a, b, out in plan.walk_forward:
            np.matmul(a, b, out=out)
        # the walk forward was the layers' last reader
        np.matmul(plan.F, plan.rows, out=plan.layers)
        return loss, engine.generator_traces(plan)


def train(states, labels, spec: ModelSpec, cfg: TrainConfig) -> TrainedModel:
    """Fit the ansatz parameters to encoded states with {0, 1} labels.

    Full-batch descent for cfg.epochs steps from a small uniform random
    initialization, all in float64 on real states (see _stack_states).
    Global depolarizing noise in spec.noise acts on the probability the
    loss reads, the gradient's circuit derivative stays noiseless, and
    shots are ignored; per-qubit noise is refused, as is a batch _batch
    rejects. Deterministic for a fixed seed, which draws the initialization.
    """
    if _per_qubit(spec.noise):
        raise NotImplementedError(
            "training under per-qubit depolarizing noise is not supported; "
            "use global scope or evaluate noise at audit time only")
    states_T, labels = _batch(states, labels, spec.dim)
    theta = _init_params(spec, [cfg.seed])
    log = _train_stack(states_T[None], labels[None], spec, cfg, theta)
    return TrainedModel(spec=spec, params=theta[0], train_log=log[0])


def _init_params(spec: ModelSpec, seeds) -> np.ndarray:
    """(S, P) initial parameters, row s the small uniform initialization
    train() draws from seeds[s]."""
    return np.stack([np.random.default_rng(seed).uniform(-0.1, 0.1, spec.param_count)
                     for seed in seeds])


def _train_stack(states: np.ndarray, labels: np.ndarray, spec: ModelSpec,
                 cfg: TrainConfig, theta: np.ndarray) -> np.ndarray:
    """train() for S models at once, one stacked gradient step per epoch.

    Model s fits the columns of states[s] (states is (S, dim, B)) to the
    {0, 1} labels[s] from the initial parameters theta[s] (_init_params);
    cfg.seed is unused. Nothing is checked: train() and AuditConfig refuse
    per-qubit noise. theta is updated in place, epoch by epoch, and ends
    holding the trained parameters, so a caller that trains from the same
    initialization again passes a copy. Returns the (S, epochs) log of
    mean losses. Each model ends on the same bits as train() gives it
    alone.
    """
    step = _GradientStep(_engine_for(spec), states, labels, spec.noise)
    log = np.empty((len(theta), cfg.epochs))
    for epoch in range(cfg.epochs):
        log[:, epoch], grad = step(theta)
        theta -= np.multiply(cfg.learning_rate, grad, out=grad)
    return log


def eval_model(model: TrainedModel, noise: NoiseSpec) -> TrainedModel:
    """The same trained parameters evaluated under a different noise spec."""
    return TrainedModel(spec=replace(model.spec, noise=noise),
                        params=model.params, train_log=model.train_log)
