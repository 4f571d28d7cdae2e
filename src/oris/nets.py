"""Dense-network engine: batched forward, reverse-mode gradients, Adam, soft updates.

A net is relu hidden layers and an affine output layer; a caller that squashes
the output (as the GAN does) folds the squash's derivative into grad_out.

A net computes in its own dtype, float32 unless built with dtype=np.float64
(the gradient oracles' reference precision): its parameters, gradients, Adam
moments and the activations and deltas it records all have that dtype.
Inputs and upstream gradients are cast to it on entry, once per call, so
callers keep their states and rewards in float64. Initial weights are drawn
in float64 and rounded, so both precisions consume the same random draws.

A net records its activations during forward and replays them in backward; a
net is owned by one caller at a time (no sharing a net object across
interleaved forward/backward pairs). Relu is applied in place on each hidden
layer's fresh pre-activation, so the relu mask in backward reads the recorded
activation, which is positive exactly where its pre-activation is.

Each net keeps all of its parameters in one flat vector, `params`, laid out
layer by layer, weight matrix (row-major) then bias vector; checkpoints use
the same layout. `weights[l]` and `biases[l]` are views into `params`, so a
write through either name is seen by the other, and whole-net operations
(Adam, soft updates, checkpoints) act on the one vector. A net is built from
such a vector, and its gradients are one vector in the same layout. Copies
(`clone_net`, `copy.deepcopy`, pickling) get a fresh vector with fresh views.

A stack of k nets of one architecture (`stack`) is one net whose `params` is
a (k, P) block: row j is member j's flat vector, and the views are
weights[l] (k, out, in) and biases[l] (k, out). The same kernels run it, one
call for all k members: np.matmul broadcasts over the leading member axis,
and each member's rows come out with the bits that member computes alone.
A stack's input is (k, n, in), or one (n, in) batch that every member sees;
its outputs, upstream gradients and input gradients are (k, n, .).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import functools

import numpy as np

from .config import Config
from .errors import ContractError, NumericsError, UsageError
from .files import read_record, write_record

DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
# zero in each dtype, for relu and its mask: a Python 0.0 against a float32
# array costs a scalar promotion per call, which acting on a few rows is
# short enough to feel
_ZERO = {dt: dt.type(0.0) for dt in DTYPES}
# relu's other operand. From about this many entries on, np.maximum runs
# faster against a contiguous zeros array than against a broadcast scalar
# (3.6 against 7.3 us at (256, 64) float32), with the same bits; on fewer,
# as when acting on a few rows, the scalar is faster. The zeros are views of
# one read-only buffer per dtype, grown to the largest activation seen.
_ZEROS_FROM = 8192
_ZEROS = {dt: np.zeros(0, dt) for dt in DTYPES}


@functools.lru_cache(maxsize=None)
def _layout(layer_sizes: tuple) -> tuple:
    """(start, split, end, W shape) of each layer: W is [start:split], b is [split:end]."""
    spans, i = [], 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        split = i + fan_out * fan_in
        spans.append((i, split, split + fan_out, (fan_out, fan_in)))
        i = split + fan_out
    return tuple(spans)


def _views(flat: np.ndarray, layer_sizes) -> tuple[list, list]:
    """Per-layer weight and bias views into a flat parameter-layout vector,
    or into each row of a stack's (k, P) block."""
    lead = flat.shape[:-1]
    weights, biases = [], []
    for start, split, end, shape in _layout(tuple(layer_sizes)):
        weights.append(flat[..., start:split].reshape(lead + shape))
        biases.append(flat[..., split:end])
    return weights, biases


@dataclass
class MlpNet:
    """A fully connected net. weights[l] has shape (layer_sizes[l+1], layer_sizes[l]).

    The constructor copies `params`, a vector in the flat layout of
    `layer_sizes`, rounded to `dtype`. Given a (k, P) block, it builds a
    stack of k nets, and init_seed is then a tuple of the k members' seeds.
    """

    layer_sizes: list[int]
    params: np.ndarray = field(repr=False)
    init_seed: int | tuple = 0
    dtype: np.dtype = np.float32
    _acts: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        if len(self.layer_sizes) < 2 or any(int(s) < 1 for s in self.layer_sizes):
            raise ContractError(f"layer_sizes must be >= 2 positive entries, got {self.layer_sizes}")
        self.dtype = np.dtype(self.dtype)
        if self.dtype not in DTYPES:
            raise ContractError(f"dtype must be float32 or float64, got {self.dtype}")
        params = np.array(self.params, dtype=self.dtype, order="C")
        size = _layout(tuple(self.layer_sizes))[-1][2]
        lead = params.shape[:-1]
        if params.ndim not in (1, 2) or params.shape[-1] != size or (
                isinstance(self.init_seed, tuple) != bool(lead)) or (
                lead and len(self.init_seed) != lead[0]):
            raise ContractError(f"params for layer_sizes {self.layer_sizes} are ({size},), or "
                                f"(k, {size}) with k init seeds; got {params.shape} "
                                f"and init_seed {self.init_seed}")
        self._bind(params)

    def _bind(self, params: np.ndarray) -> None:
        self.params = params
        self.weights, self.biases = _views(params, self.layer_sizes)
        # forward's operands, views made once: each weight transposed, each
        # bias as a row that broadcasts over the batch
        self._forward_operands = [(w.swapaxes(-1, -2), b[..., None, :])
                                  for w, b in zip(self.weights, self.biases)]

    # copy.deepcopy and pickle carry params only and rebuild the views on it
    def __getstate__(self):
        state = dict(self.__dict__)
        del state["weights"], state["biases"], state["_forward_operands"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._bind(self.params)

    @property
    def num_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_dim(self) -> int:
        return self.layer_sizes[-1]

    @property
    def stack_size(self) -> int | None:
        """k for a stack of k nets, None for a single net."""
        return self.params.shape[0] if self.params.ndim == 2 else None

    @classmethod
    def he_uniform(cls, layer_sizes, seed=0, dtype=np.float32) -> "MlpNet":
        """He-uniform weights, zero biases, from a PRNG seeded with `seed`;
        drawn in float64, then rounded to `dtype`."""
        if len(layer_sizes) < 2 or any(int(s) < 1 for s in layer_sizes):
            raise ContractError(f"layer_sizes must be >= 2 positive entries, got {layer_sizes}")
        rng = np.random.default_rng(seed)
        parts = []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            limit = np.sqrt(6.0 / fan_in)
            parts += [rng.uniform(-limit, limit, size=fan_out * fan_in), np.zeros(fan_out)]
        return cls(list(layer_sizes), np.concatenate(parts), int(seed), dtype)


def _relu(z: np.ndarray) -> np.ndarray:
    """max(z, 0), in place on z. The zero is a scalar or, from _ZEROS_FROM
    entries on, a read-only zeros array of z's shape, a view of _ZEROS."""
    zero = _ZERO[z.dtype]
    if z.size >= _ZEROS_FROM:
        buf = _ZEROS[z.dtype]
        if buf.size < z.size:
            buf = np.zeros(z.size, z.dtype)
            buf.flags.writeable = False
            _ZEROS[z.dtype] = buf
        zero = buf[:z.size].reshape(z.shape)
    return np.maximum(z, zero, out=z)


def forward_batch(net: MlpNet, x: np.ndarray) -> np.ndarray:
    """Run a (n, in_dim) batch through the net, recording activations for backward.

    A stack of k nets takes (k, n, in_dim) or a shared (n, in_dim) and
    returns (k, n, out_dim). The batch is cast to the net's dtype, and so is
    the output."""
    x = np.asarray(x, dtype=net.dtype)
    lead = net.params.shape[:-1]
    if x.ndim < 2 or x.shape[-1] != net.in_dim or x.shape[:-2] not in ((), lead):
        want = f"(n, {net.in_dim})" + (f" or ({lead[0]}, n, {net.in_dim})" if lead else "")
        raise ContractError(f"input has shape {x.shape}, want {want}")
    acts = [x]
    h = x
    last = net.num_layers - 1
    for l, (w_t, b_row) in enumerate(net._forward_operands):
        h = h @ w_t
        h += b_row
        if l < last:
            _relu(h)
        acts.append(h)
    net._acts = acts
    return h


def _output_delta(net: MlpNet, grad_out) -> np.ndarray:
    """The caller's upstream gradient d(loss)/d(output), checked and cast."""
    if not net._acts:
        raise UsageError("backward called before forward")
    grad_out = np.asarray(grad_out, dtype=net.dtype)
    if grad_out.shape != net._acts[-1].shape:
        raise ContractError(f"grad_out has shape {grad_out.shape}, want {net._acts[-1].shape}")
    return grad_out


def _delta_below(net: MlpNet, delta: np.ndarray, l: int) -> np.ndarray:
    """Carry d(loss)/d(pre-activation of layer l) to the layer's input side:
    the pre-activation of layer l - 1, or the net input when l == 0.

    A one-output layer takes np.einsum("...ni,...io->...no"): numpy runs a
    matmul with an inner dimension of 1 outside BLAS, several times slower,
    and each entry is the same single product either way. In float32 the
    einsum costs 8.1 us against 11.1 us for the broadcast product delta * w
    at (256, 1) x (1, 64), 14.3 against 24.0 us at (2, 256, 1) x (2, 1, 64)."""
    w = net.weights[l]
    delta = np.einsum("...ni,...io->...no", delta, w) if w.shape[-2] == 1 else delta @ w
    if l > 0:
        delta *= net._acts[l] > _ZERO[delta.dtype]
    return delta


def backward_batch(net: MlpNet, grad_out: np.ndarray) -> np.ndarray:
    """Reverse-mode pass from d(loss)/d(output) through the recorded forward.

    Returns the parameter gradients as one vector in the net's flat layout;
    it stops at layer 0, so the gradient at the input is backward_input's. A
    stack's gradients are (k, P), one row per member, also when its input
    was shared.
    """
    delta = _output_delta(net, grad_out)
    flat = np.empty(net.params.shape, dtype=net.dtype)
    g_w, g_b = _views(flat, net.layer_sizes)
    for l in range(net.num_layers - 1, -1, -1):
        np.matmul(delta.swapaxes(-1, -2), net._acts[l], out=g_w[l])
        np.add.reduce(delta, axis=-2, out=g_b[l])
        if l > 0:
            delta = _delta_below(net, delta, l)
    return flat


def backward_input(net: MlpNet, grad_out: np.ndarray) -> np.ndarray:
    """d(loss)/d(input batch) through the recorded forward, without the
    parameter gradients. A stack returns (k, n, in_dim), each member's own,
    also when its input was shared."""
    delta = _output_delta(net, grad_out)
    for l in range(net.num_layers - 1, -1, -1):
        delta = _delta_below(net, delta, l)
    return delta


@dataclass
class AdamState:
    """Adam moments for one net, in its flat parameter layout, with bias correction."""

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @classmethod
    def for_net(cls, net: MlpNet, learning_rate: float, beta1: float = 0.9,
                beta2: float = 0.999, epsilon: float = 1e-8) -> "AdamState":
        st = cls(learning_rate, beta1, beta2, epsilon)
        st.m = np.zeros_like(net.params)
        st.v = np.zeros_like(net.params)
        return st


def adam_step(net: MlpNet, g: np.ndarray, opt: AdamState) -> None:
    """One Adam step, in place on net parameters and opt moments, from the
    gradient vector g in the net's flat layout (backward_batch's).

    A non-finite gradient raises NumericsError before anything changes;
    parameters that come out non-finite raise after the step.
    """
    p, m, v = net.params, opt.m, opt.v
    if g.shape != p.shape or m.shape != p.shape or g.dtype != p.dtype or m.dtype != p.dtype:
        raise ContractError("gradient structure does not match net")
    if not np.isfinite(g).all():
        raise NumericsError("non-finite gradient passed to adam_step")
    opt.step_count += 1
    t = opt.step_count
    b1, b2 = opt.beta1, opt.beta2
    # p -= lr * mhat / (sqrt(vhat) + eps) with its float operations in the
    # textbook order, through two scratch vectors instead of one per operation
    m *= b1
    tmp = (1.0 - b1) * g
    m += tmp
    v *= b2
    np.multiply(1.0 - b2, g, out=tmp)
    tmp *= g
    v += tmp
    step = m / (1.0 - b1 ** t)           # mhat
    np.divide(v, 1.0 - b2 ** t, out=tmp)  # vhat
    np.sqrt(tmp, out=tmp)
    tmp += opt.epsilon
    step *= opt.learning_rate
    step /= tmp
    p -= step
    if not np.isfinite(p).all():
        raise NumericsError("parameters became non-finite after adam_step")


@dataclass
class ScalarAdam(Config):
    """Adam for a single scalar parameter (used for the entropy temperature)."""

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    m: float = 0.0
    v: float = 0.0

    def step(self, value: float, grad: float) -> float:
        if not np.isfinite(grad):
            raise NumericsError("non-finite scalar gradient")
        self.step_count += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        mhat = self.m / (1.0 - self.beta1 ** self.step_count)
        vhat = self.v / (1.0 - self.beta2 ** self.step_count)
        return value - self.learning_rate * mhat / (np.sqrt(vhat) + self.epsilon)


def soft_update(target: MlpNet, source: MlpNet, tau: float) -> None:
    """target <- (1 - tau) * target + tau * source, in place."""
    if not 0.0 <= tau <= 1.0:
        raise ContractError(f"tau must be in [0, 1], got {tau}")
    if target.layer_sizes != source.layer_sizes or target.params.shape != source.params.shape:
        raise ContractError("architecture mismatch in soft_update")
    target.params *= 1.0 - tau
    target.params += tau * source.params


def clone_net(net: MlpNet) -> MlpNet:
    return MlpNet(list(net.layer_sizes), net.params, net.init_seed, net.dtype)


def stack(members) -> MlpNet:
    """A stack of single nets of one architecture and dtype; row j of its
    params is a copy of members[j].params."""
    first = members[0]
    if any(m.stack_size is not None or (m.layer_sizes, m.dtype) != (first.layer_sizes, first.dtype)
           for m in members):
        raise ContractError("a stack's members must be single nets of one architecture and dtype")
    return MlpNet(list(first.layer_sizes), np.stack([m.params for m in members]),
                  tuple(m.init_seed for m in members), first.dtype)


def unstack(net: MlpNet) -> list[MlpNet]:
    """Copies of a stack's members, each a single net with its own init_seed."""
    if net.stack_size is None:
        raise ContractError("unstack takes a stack of nets")
    return [MlpNet(list(net.layer_sizes), row, seed, net.dtype)
            for row, seed in zip(net.params, net.init_seed)]


@dataclass(frozen=True, kw_only=True)
class MlpHeader(Config):
    """The header line of a checkpoint (save_checkpoint)."""

    format: str = "oris-mlp"
    version: int = 1
    layer_sizes: tuple[int, ...]
    hidden_activation: str  # "relu": every net's, which the header states
    output_activation: str  # "identity"
    init_seed: int
    param_count: int
    dtype: str

    @property
    def shape(self) -> tuple:
        return (self.param_count,)

    def __post_init__(self):
        if (self.hidden_activation, self.output_activation) != ("relu", "identity"):
            raise ContractError(f"holds {self.hidden_activation} layers and "
                                f"{self.output_activation} output, not relu and identity")


@dataclass(frozen=True, kw_only=True)
class AdamHeader(Config):
    """The header line of an optimizer state (save_adam)."""

    format: str = "oris-adam"
    version: int = 1
    learning_rate: float
    beta1: float
    beta2: float
    epsilon: float
    step_count: int
    param_count: int
    dtype: str

    @property
    def shape(self) -> tuple:
        """m, then v."""
        return (2, self.param_count)


def save_checkpoint(net: MlpNet, path) -> None:
    """One JSON header line, then the flat little-endian parameter vector in
    the net's dtype, which the header records ("<f4" or "<f8"). A stack is
    saved member by member (unstack)."""
    if net.stack_size is not None:
        raise ContractError("save_checkpoint takes a single net; save a stack's members")
    write_record(path, MlpHeader(
        layer_sizes=tuple(net.layer_sizes), hidden_activation="relu",
        output_activation="identity", init_seed=net.init_seed, param_count=net.params.size,
        dtype=net.dtype.newbyteorder("<").str), net.params)


def load_checkpoint(path) -> MlpNet:
    """The net a checkpoint holds, in the dtype it records."""
    header, flat = read_record(path, MlpHeader)
    try:
        return MlpNet(list(header.layer_sizes), flat, header.init_seed, header.dtype)
    except ContractError as e:
        raise ContractError(f"bad checkpoint {path}: {e}") from e


def save_adam(opt: AdamState, path) -> None:
    """The optimizer's settings and step count in the header line, then its
    moments m and v in their dtype."""
    write_record(path, AdamHeader(
        learning_rate=opt.learning_rate, beta1=opt.beta1, beta2=opt.beta2,
        epsilon=opt.epsilon, step_count=opt.step_count, param_count=opt.m.size,
        dtype=opt.m.dtype.newbyteorder("<").str), opt.m, opt.v)


def load_adam(path, net: MlpNet) -> AdamState:
    """The AdamState save_adam wrote, checked to fit `net`."""
    header, (m, v) = read_record(path, AdamHeader)
    n = net.params.size
    if header.param_count != n or np.dtype(header.dtype) != net.dtype:
        raise ContractError(f"optimizer state in {path} does not fit a {n}-parameter "
                            f"{net.dtype} net")
    opt = AdamState(header.learning_rate, header.beta1, header.beta2, header.epsilon,
                    header.step_count)
    opt.m, opt.v = m.astype(net.dtype), v.astype(net.dtype)
    return opt
