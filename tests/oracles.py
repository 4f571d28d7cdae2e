"""Independent oracles used by the test suite.

These deliberately avoid the package's own gradient/statistics code paths:
finite differences, naive two-pass summation, quadrature, and a from-scratch
Adam reference, and a dataset writer that encodes one row at a time, plus
the flat parameter helpers the finite-difference oracles perturb a net with.
Kept as plain functions so tests stay readable.
"""

import json

import numpy as np

from oris import data, nets
from oris.errors import ContractError


def get_flat_params(net) -> np.ndarray:
    """A copy of the net's flat parameter vector."""
    return net.params.copy()


def set_flat_params(net, flat) -> None:
    """Write `flat`, in the net's flat layout, into its parameters in place."""
    flat = np.asarray(flat, dtype=net.dtype)
    if flat.shape != net.params.shape:
        raise ContractError(f"flat vector has shape {flat.shape}, want {net.params.shape}")
    net.params[...] = flat


def fd_grad(f, x0, eps=1e-6):
    """Central-difference gradient of scalar f at x0 (1-D array)."""
    x0 = np.asarray(x0, dtype=np.float64)
    g = np.zeros_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2.0 * eps)
    return g


def max_rel_err(a, b, floor=1e-6):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


# A central difference of f with step eps carries rounding noise of about
# machine epsilon * sum|terms of f| / eps. On float64 role nets and stacks the
# largest error against a correct gradient was 1.4 times that; the factor
# leaves headroom.
FD_NOISE_FACTOR = 8.0
# The largest relative error gradcheck_once allows a correct gradient.
GRADCHECK_RTOL = 1e-4


def fd_noise(f_scale, eps):
    """The rounding noise of a float64 central difference of a sum whose
    terms add up to f_scale in magnitude."""
    return FD_NOISE_FACTOR * np.finfo(np.float64).eps * f_scale / eps


ROLE_ARCHS = {
    # role -> (in_dim, out_dim)
    "actor": (3, 2),
    "critic": (4, 1),
    "generator": (4, 3),
    "discriminator": (3, 1),
}


def make_role_net(role, width=16, seed=0):
    """A float64 net: the precision the finite-difference oracles check at."""
    in_dim, out_dim = ROLE_ARCHS[role]
    return nets.MlpNet.he_uniform([in_dim, width, width, out_dim], seed=seed,
                                  dtype=np.float64)


def far_from_relu_kinks(net, x, margin=1e-4):
    """True when no hidden pre-activation of the batch x sits within margin of
    0; the pre-activations are computed here, in float64, from the net's
    weights and biases."""
    h = np.asarray(x, dtype=np.float64)
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = h @ w.astype(np.float64).swapaxes(-1, -2) + b[..., None, :]
        if np.min(np.abs(z)) < margin:
            return False
        h = np.maximum(z, 0.0)
    return True


def gradcheck_once(net, rng, batch=4, eps=1e-6, kink_margin=1e-4, max_redraws=50,
                   shared=True, corrupt=None):
    """One randomized check against central differences of backward_batch
    (parameter gradients) and backward_input (input gradients).

    Returns the max relative error across parameter and input gradients. An
    entry is measured against its own size or, when that is smaller, against
    the finite-difference noise over GRADCHECK_RTOL, so an error within the
    noise stays below GRADCHECK_RTOL however small the entry. Draws (input
    batch, upstream) pairs, redrawing while any hidden ReLU pre-activation is
    within kink_margin of zero. A stack of nets sees one shared batch, whose gradient is the sum of
    its members', or with shared=False a batch per member. corrupt, if given,
    edits the analytic parameter gradient (flat, in place) before the
    comparison.
    """
    lead = net.params.shape[:-1]
    x_shape = (batch, net.in_dim) if shared else lead + (batch, net.in_dim)
    for _ in range(max_redraws):
        x = rng.normal(size=x_shape)
        if far_from_relu_kinks(net, x, kink_margin):
            break
    else:
        raise RuntimeError("could not find a kink-free draw")
    upstream = rng.normal(size=lead + (batch, net.out_dim))

    y = nets.forward_batch(net, x)
    floor = fd_noise(float(np.sum(np.abs(upstream * y))), eps) / GRADCHECK_RTOL
    analytic = nets.backward_batch(net, upstream)
    analytic_x = nets.backward_input(net, upstream)
    if analytic_x.shape != x.shape:
        analytic_x = analytic_x.sum(axis=0)
    analytic_p = analytic.ravel().copy()
    if corrupt is not None:
        corrupt(analytic_p)

    p0 = get_flat_params(net)

    def loss_of_params(p):
        set_flat_params(net, p.reshape(p0.shape))
        y = nets.forward_batch(net, x)
        return float(np.sum(upstream * y))

    fd_p = fd_grad(loss_of_params, p0.ravel(), eps=eps)
    set_flat_params(net, p0)

    x0 = x.ravel().copy()

    def loss_of_input(xv):
        y = nets.forward_batch(net, xv.reshape(x_shape))
        return float(np.sum(upstream * y))

    fd_x = fd_grad(loss_of_input, x0, eps=eps)

    err_p = max_rel_err(analytic_p, fd_p, floor)
    err_x = max_rel_err(analytic_x.ravel(), fd_x, floor)
    return max(err_p, err_x)


class ColumnReplayBuffer:
    """A FIFO ring of transitions in six parallel columns (S, A, R, S2, D, W),
    written one row at a time: the reference for data.ReplayBuffer's packed
    rows and for its samplers' draws."""

    def __init__(self, capacity, obs_dim, action_dim):
        self.capacity = capacity
        self.cols = [np.zeros((capacity, obs_dim)), np.zeros((capacity, action_dim)),
                     np.zeros(capacity), np.zeros((capacity, obs_dim)), np.zeros(capacity),
                     np.zeros(capacity)]
        self.n = 0
        self.cursor = 0

    def _put(self, row):
        for col, x in zip(self.cols, row):
            col[self.cursor] = x
        self.cursor = (self.cursor + 1) % self.capacity
        self.n = min(self.n + 1, self.capacity)

    def extend(self, columns, weights=None):
        S, A, R, S2, D = columns
        for k in range(len(R)):
            self._put((S[k], A[k], R[k], S2[k], D[k], 1.0 if weights is None else weights[k]))

    def sample_weighted(self, n, rng):
        idx = rng.integers(0, self.n, size=n)
        return tuple(c[idx] for c in self.cols[:5]), self.cols[5][idx]


def damage_record(path, value) -> None:
    """Overwrite the last data value of a nets record file (a .mlp or .adam
    file) with `value`, in the dtype its header records: the damaged file
    the savers refuse to write."""
    raw = path.read_bytes()
    header, _, blob = raw.partition(b"\n")
    dtype = np.dtype(json.loads(header)["dtype"])
    path.write_bytes(raw[:-dtype.itemsize] + np.array([value], dtype).tobytes())


def stored_columns(buf):
    """(S, A, R, S2, D, W) of every slot of a data.ReplayBuffer, as views."""
    columns, w = data.columns_of(buf.block, buf.obs_dim)
    return (*columns, w)


def two_pass_mean(rows):
    """Naive per-dimension mean: explicit sum loop, then divide."""
    rows = [np.asarray(r, dtype=np.float64) for r in rows]
    total = np.zeros_like(rows[0])
    for r in rows:
        total = total + r
    return total / len(rows)


def two_pass_std(rows):
    rows = [np.asarray(r, dtype=np.float64) for r in rows]
    mu = two_pass_mean(rows)
    total = np.zeros_like(mu)
    for r in rows:
        total = total + (r - mu) ** 2
    return np.sqrt(total / len(rows))


class ReferenceAdam:
    """Straightforward per-element Adam over a flat vector, for cross-checking."""

    def __init__(self, n, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps

    def step(self, p, g):
        self.t += 1
        p = p.copy()
        for i in range(p.size):
            self.m[i] = self.b1 * self.m[i] + (1 - self.b1) * g[i]
            self.v[i] = self.b2 * self.v[i] + (1 - self.b2) * g[i] ** 2
            mhat = self.m[i] / (1 - self.b1 ** self.t)
            vhat = self.v[i] / (1 - self.b2 ** self.t)
            p[i] -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
        return p


class PerTensorAdam:
    """Adam over separate weight and bias arrays, one tensor at a time, with the
    same float operations in the same order as a flat step (for bitwise checks)."""

    def __init__(self, tensors, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.m = [np.zeros_like(p) for p in tensors]
        self.v = [np.zeros_like(p) for p in tensors]
        self.t = 0
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps

    def step(self, tensors, grads):
        """In place on `tensors`."""
        self.t += 1
        for p, g, m, v in zip(tensors, grads, self.m, self.v):
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            mhat = m / (1.0 - self.b1 ** self.t)
            vhat = v / (1.0 - self.b2 ** self.t)
            p -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def gauss_legendre_integral(f, lo, hi, n=200):
    """Fixed-order Gauss-Legendre quadrature of f over [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return float(half * np.sum(w * f(mid + half * x)))


def binomial_3sigma(p, n):
    return 3.0 * np.sqrt(p * (1.0 - p) / n)
