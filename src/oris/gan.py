"""Restart-distribution GAN: fits the offline state marginal, then serves two jobs.

The generator proposes rollout start states (plus optional Gaussian smoothing
noise); the discriminator scores simulator states against the data marginal and
induces the critic weight w(s) = clip(1 - 2 D(s), w_min, w_max). Both nets are
frozen after pretraining.

Both nets have affine outputs, which this module squashes: G(z) is out_scale *
tanh(generator(z)) in normalized units, and the discriminator's output is the
logit of D. Training is the saturating objective: one discriminator ascent
step on E[log D(s)] + E[log(1 - D(G(z)))] and one generator descent step on
E[log(1 - D(G(z)))] per iteration, both through logits for stability. Both
nets compute in float32; states outside them (data, restarts) stay float64.

A fitted GAN (GanPair) is its two nets and one GanMeta record: the numbers
pretrain fixes besides the nets. pretrain builds the record, and save_gan and
load_gan write and read it as gan.json, unconverted.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import hashlib
import json
import os
from pathlib import Path
import shutil
import tempfile

import numpy as np

from . import nets
from .config import Config, load_json, read_header
from .errors import ContractError, NumericsError
from .files import atomic_write

GAN_VERSION = 2  # 1: the nets squashed their own outputs
REPORT_FILE = "report.json"
MIN_FIT_STATES = 100


@dataclass(frozen=True)
class GanHparams(Config):
    """Desk-scale defaults: one CPU core, minutes per run. The README
    tabulates the paper-scale values."""

    z_dim: int = 8
    hidden: tuple[int, ...] = (128, 128)
    iterations: int = 2000
    batch_size: int = 256
    learning_rate: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    restart_noise_sigma: float = 0.05
    # 0.3, not 0.1: on densely covered state spaces the discriminator has
    # little spatial contrast, and D near 1/2 puts most weights at w_min
    w_min: float = 0.3
    w_max: float = 1.0

    def __post_init__(self):
        if self.z_dim < 1 or self.iterations < 1 or self.batch_size < 2:
            raise ContractError(f"bad GAN hparams {self}")
        _check_served_values(self)
        if self.learning_rate <= 0.0:
            raise ContractError("learning_rate must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ContractError(f"beta1 and beta2 must be in [0, 1), got {self.beta1}, {self.beta2}")
        if any(h < 1 for h in self.hidden):
            raise ContractError(f"hidden widths must be >= 1, got {self.hidden}")


def _check_served_values(c) -> None:
    """The restart noise and weight clip that GanHparams sets and GanMeta copies."""
    if not 0.0 <= c.w_min <= c.w_max:
        raise ContractError(f"need 0 <= w_min <= w_max, got {c.w_min}, {c.w_max}")
    if c.restart_noise_sigma < 0.0:
        raise ContractError("restart_noise_sigma must be >= 0")


@dataclass(frozen=True, kw_only=True)
class GanMeta(Config):
    """gan.json, and what a fitted GAN holds besides its two nets: the state
    mean and std (floored at 1e-6), the per-dim scale on the generator's tanh
    in normalized units, and GanHparams' restart noise and weight clip."""

    format: str = "oris-gan"
    version: int = GAN_VERSION
    z_dim: int
    mean: tuple[float, ...]
    std: tuple[float, ...]
    out_scale: tuple[float, ...]
    restart_noise_sigma: float
    w_min: float
    w_max: float

    def __post_init__(self):
        if self.z_dim < 1:
            raise ContractError(f"z_dim must be >= 1, got {self.z_dim}")
        if not len(self.mean) == len(self.std) == len(self.out_scale):
            raise ContractError(f"mean, std and out_scale have widths {len(self.mean)}, "
                                f"{len(self.std)} and {len(self.out_scale)}")
        if not all(s > 0.0 for s in self.std):
            raise ContractError(f"std entries must be > 0, got {list(self.std)}")
        _check_served_values(self)


@dataclass
class GanPair:
    """A fitted GAN, the same whether pretrain fitted it or load_gan read it."""

    generator: nets.MlpNet  # latent (z_dim) -> state_dim, squashed by tanh, then out_scale
    discriminator: nets.MlpNet  # state_dim -> 1, the logit of D
    meta: GanMeta


@dataclass
class GanTrainReport:
    """Per-iteration curves. d_objective is the value the discriminator ascends;
    an uninformative discriminator (D = 1/2 everywhere) gives -2 ln 2."""

    d_objective: np.ndarray
    g_loss: np.ndarray
    d_real_mean: np.ndarray
    d_fake_mean: np.ndarray

    def summary(self, tail: int = 200) -> dict:
        k = min(tail, len(self.d_objective))
        return {
            "iterations": int(len(self.d_objective)),
            "d_objective_tail": float(np.mean(self.d_objective[-k:])),
            "g_loss_tail": float(np.mean(self.g_loss[-k:])),
            "d_real_tail": float(np.mean(self.d_real_mean[-k:])),
            "d_fake_tail": float(np.mean(self.d_fake_mean[-k:])),
        }


def _softplus(x):
    return np.logaddexp(0.0, x)


def _sigmoid(z):
    """The logistic function, stable for large |z|."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def generate_states(gan: GanPair, Z: np.ndarray) -> np.ndarray:
    """Denormalized generator output for latent batch Z, (n, generator.in_dim),
    without restart noise."""
    raw = np.tanh(nets.forward_batch(gan.generator, Z)) * gan.meta.out_scale
    return raw * gan.meta.std + gan.meta.mean


def sample_restart(gan: GanPair, rng: np.random.Generator) -> np.ndarray:
    """One start state: denormalized G(z) plus N(0, sigma^2 I) in state units."""
    z = rng.standard_normal(gan.generator.in_dim)
    state = generate_states(gan, z[None, :])[0]
    if gan.meta.restart_noise_sigma > 0.0:
        state = state + rng.normal(0.0, gan.meta.restart_noise_sigma, size=state.shape)
    return state


def discriminator_prob_batch(gan: GanPair, S: np.ndarray) -> np.ndarray:
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[1] != gan.generator.out_dim:
        raise ContractError(f"states have shape {S.shape}, want (n, {gan.generator.out_dim})")
    SN = (S - gan.meta.mean) / gan.meta.std
    return _sigmoid(nets.forward_batch(gan.discriminator, SN)[:, 0])


def weight_of_batch(gan: GanPair, S: np.ndarray) -> np.ndarray:
    """Critic weight w(s) = clip(1 - 2 D(s), w_min, w_max) for a state batch."""
    d = discriminator_prob_batch(gan, S)
    return np.clip(1.0 - 2.0 * d, gan.meta.w_min, gan.meta.w_max)


def discriminator_step_grads(disc: nets.MlpNet, real: np.ndarray, fake: np.ndarray):
    """Gradient of the discriminator's loss -(E[log D(real)] + E[log(1 - D(fake))])
    for equal-size batches, scored in one pass over the rows of both.

    Returns (the gradient vector, D(real), D(fake), the objective E[log D(real)] +
    E[log(1 - D(fake))]).
    """
    bs = real.shape[0]
    logits = nets.forward_batch(disc, np.concatenate([real, fake]))[:, 0]
    d = _sigmoid(logits)
    # d(loss)/d(logit) is (D - label) / bs, label 1 for real rows and 0 for fake
    upstream = np.concatenate([d[:bs] - 1.0, d[bs:]]) / bs
    grads = nets.backward_batch(disc, upstream[:, None])
    objective = float(np.add.reduce(-_softplus(-logits[:bs])) / bs
                      + np.add.reduce(-_softplus(logits[bs:])) / bs)
    return grads, d[:bs], d[bs:], objective


def generator_step_grads(gen: nets.MlpNet, disc: nets.MlpNet, Z: np.ndarray, scale):
    """Gradient of the generator's loss E[log(1 - D(G(z)))] over the latent
    batch Z, where G(z) = scale * tanh(gen(z)), through the discriminator's
    logits. Returns (the gradient vector, the loss)."""
    bs = Z.shape[0]
    y = np.tanh(nets.forward_batch(gen, Z))
    logits = nets.forward_batch(disc, y * scale)[:, 0]
    loss = float(np.add.reduce(-_softplus(logits)) / bs)
    # d(loss)/d(logit) is -D / bs; tanh' is 1 - y^2
    d_in = nets.backward_input(disc, (-_sigmoid(logits) / bs)[:, None])
    return nets.backward_batch(gen, d_in * scale * (1.0 - y * y)), loss


def pretrain(states, hparams: GanHparams, rng: np.random.Generator):
    """Fit the GAN to a state marginal, an (n, d) array of states.
    Returns (GanPair, GanTrainReport).

    Raises NumericsError, naming the iteration, if a loss goes non-finite.
    """
    S = np.asarray(states, dtype=np.float64)
    if S.ndim != 2:
        raise ContractError(f"states have shape {S.shape}, want (n, d)")
    if S.shape[0] < MIN_FIT_STATES:
        raise ContractError(f"need at least {MIN_FIT_STATES} states to fit, got {S.shape[0]}")
    if not np.all(np.isfinite(S)):
        raise ContractError("non-finite states passed to pretrain")
    d = S.shape[1]

    mean, std = S.mean(axis=0), np.maximum(S.std(axis=0), 1e-6)
    SN = (S - mean) / std
    out_scale = 1.25 * np.max(np.abs(SN), axis=0)

    g_seed = int(rng.integers(2 ** 31))
    d_seed = int(rng.integers(2 ** 31))
    gen = nets.MlpNet.he_uniform([hparams.z_dim, *hparams.hidden, d], seed=g_seed)
    disc = nets.MlpNet.he_uniform([d, *hparams.hidden, 1], seed=d_seed)
    opt_g = nets.AdamState.for_net(gen, hparams.learning_rate, hparams.beta1, hparams.beta2)
    opt_d = nets.AdamState.for_net(disc, hparams.learning_rate, hparams.beta1, hparams.beta2)
    # the training batches in the nets' dtype, cast once
    SN_net, scale = SN.astype(disc.dtype), out_scale.astype(gen.dtype)

    n = S.shape[0]
    bs = hparams.batch_size
    curves = np.zeros((4, hparams.iterations))
    for i in range(hparams.iterations):
        idx = rng.integers(0, n, size=bs)
        real = SN_net[idx]
        Zd = rng.standard_normal((bs, hparams.z_dim))
        fake = np.tanh(nets.forward_batch(gen, Zd)) * scale

        # discriminator step: ascend E[log D(real)] + E[log(1 - D(fake))]
        d_grads, d_real, d_fake, d_objective = discriminator_step_grads(disc, real, fake)
        if not np.isfinite(d_objective):
            raise NumericsError(f"non-finite discriminator objective at GAN iteration {i}")
        nets.adam_step(disc, d_grads, opt_d)

        # generator step: descend E[log(1 - D(G(z)))]
        Zg = rng.standard_normal((bs, hparams.z_dim))
        g_grads, g_loss = generator_step_grads(gen, disc, Zg, scale)
        if not np.isfinite(g_loss):
            raise NumericsError(f"non-finite generator loss at GAN iteration {i}")
        nets.adam_step(gen, g_grads, opt_g)

        curves[:, i] = (d_objective, g_loss, np.add.reduce(d_real) / bs,
                        np.add.reduce(d_fake) / bs)

    meta = GanMeta(z_dim=hparams.z_dim, mean=tuple(mean.tolist()), std=tuple(std.tolist()),
                   out_scale=tuple(out_scale.tolist()), w_min=hparams.w_min,
                   w_max=hparams.w_max, restart_noise_sigma=hparams.restart_noise_sigma)
    return GanPair(gen, disc, meta), GanTrainReport(*(c.copy() for c in curves))


def save_gan(gan: GanPair, dirpath) -> None:
    os.makedirs(dirpath, exist_ok=True)
    nets.save_checkpoint(gan.generator, os.path.join(dirpath, "generator.mlp"))
    nets.save_checkpoint(gan.discriminator, os.path.join(dirpath, "discriminator.mlp"))
    with atomic_write(os.path.join(dirpath, "gan.json")) as f:
        json.dump(gan.meta.to_json(), f, indent=1)
        f.write("\n")


def load_gan(dirpath) -> GanPair:
    path = os.path.join(dirpath, "gan.json")
    meta = read_header(GanMeta, load_json(path) if os.path.isfile(path) else {},
                       path, dirpath)
    gen = nets.load_checkpoint(os.path.join(dirpath, "generator.mlp"))
    disc = nets.load_checkpoint(os.path.join(dirpath, "discriminator.mlp"))
    if meta.z_dim != gen.in_dim:
        raise ContractError(f"{dirpath}: gan.json has z_dim {meta.z_dim}, "
                            f"but the generator takes {gen.in_dim} inputs")
    for what, width in (("gan.json", len(meta.mean)), ("the discriminator's input", disc.in_dim)):
        if width != gen.out_dim:
            raise ContractError(f"{dirpath}: {what} has width {width}, but the "
                                f"generator gives {gen.out_dim} state dims")
    return GanPair(gen, disc, meta)


@functools.cache
def numerics_sha256() -> str:
    """Digest of the parameters and curves one tiny fixed-seed pretrain gives,
    computed once per process. It stands for the code that fits in a fit's
    key: a change to the numbers pretrain computes (here, in nets, or in the
    numpy and BLAS build) changes it, and an edit that keeps them does not."""
    t = np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False)
    states = np.stack([np.cos(t), 0.5 * np.sin(3.0 * t)], axis=1)
    pair, report = pretrain(states, GanHparams(z_dim=2, hidden=(4, 4), iterations=3,
                                               batch_size=16), np.random.default_rng(0))
    h = hashlib.sha256()
    for a in (pair.generator.params, pair.discriminator.params, report.d_objective,
              report.g_loss, report.d_real_mean, report.d_fake_mean):
        h.update(a.tobytes())
    return h.hexdigest()


def fit_inputs(states, hparams: GanHparams, rng: np.random.Generator) -> dict:
    """What decides the fit pretrain(states, hparams, rng) returns, as JSON:
    the states (by digest), the hparams, the RNG state before the fit, the
    code that fits (by numerics_sha256, and the numpy version), and the entry's
    format (GAN_VERSION), so that no entry is read by code that squashes the
    nets' outputs elsewhere than the code that wrote it.
    """
    S = np.ascontiguousarray(states, dtype=np.float64)
    return {"states_sha256": hashlib.sha256(S.tobytes()).hexdigest(),
            "states_shape": list(S.shape),
            "hparams": hparams.to_json(),
            "rng_state": repr(rng.bit_generator.state),
            "numerics_sha256": numerics_sha256(),
            "numpy": np.__version__,
            "gan_version": GAN_VERSION}


def fit_key(inputs: dict) -> str:
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()


def save_fit(gan: GanPair, report: GanTrainReport, inputs: dict, dirpath) -> None:
    """save_gan's files plus report.json: the fit's key, inputs and curve summary."""
    save_gan(gan, dirpath)
    record = {"key": fit_key(inputs), "inputs": inputs, "train": report.summary()}
    with atomic_write(os.path.join(dirpath, REPORT_FILE)) as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")


def pretrain_or_load(states, hparams: GanHparams, rng: np.random.Generator,
                     store) -> GanPair:
    """The GanPair pretrain(states, hparams, rng) fits, loaded from the
    content-addressed store directory when an earlier fit of the same inputs
    left it there as <store>/<fit_key>/.

    A miss fits and writes the entry to a temporary sibling, then renames it
    into place, so a cut fit leaves no half entry; if another writer published
    the key meanwhile, its entry stays and the copy is dropped. A hit leaves
    rng where it was.
    """
    inputs = fit_inputs(states, hparams, rng)
    entry = Path(store) / fit_key(inputs)
    if entry.is_dir():
        return load_gan(entry)
    pair, report = pretrain(states, hparams, rng)
    entry.parent.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=entry.name + ".", suffix=".tmp", dir=entry.parent)
    save_fit(pair, report, inputs, tmp)
    try:
        os.replace(tmp, entry)
    except OSError:
        if not entry.is_dir():
            raise
        shutil.rmtree(tmp)
    return pair
