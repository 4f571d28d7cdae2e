"""Restart-distribution GAN: fits the offline state marginal, then serves two jobs.

The generator proposes rollout start states (plus optional Gaussian smoothing
noise); the discriminator scores simulator states against the data marginal and
induces the critic weight w(s) = clip(1 - 2 D(s), w_min, w_max). Both nets are
frozen after pretraining.

Training is the saturating objective: one discriminator ascent step on
E[log D(s)] + E[log(1 - D(G(z)))] and one generator descent step on
E[log(1 - D(G(z)))] per iteration, both through logits for stability. Both
nets compute in float32; states outside them (data, restarts) stay float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import functools
import hashlib
import json
import os
from pathlib import Path
import shutil
import tempfile

import numpy as np

from . import nets
from .config import Config
from .errors import ContractError, NumericsError
from .files import atomic_write

GAN_FORMAT = "oris-gan"
GAN_VERSION = 1
REPORT_FILE = "report.json"


@dataclass(frozen=True)
class GanHparams(Config):
    """Desk-scale defaults: one CPU core, minutes per run. The README
    tabulates the paper-scale values."""

    z_dim: int = 8
    hidden: tuple = (128, 128)
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
        if not 0.0 <= self.w_min <= self.w_max:
            raise ContractError(f"need 0 <= w_min <= w_max, got {self.w_min}, {self.w_max}")
        if self.restart_noise_sigma < 0.0:
            raise ContractError("restart_noise_sigma must be >= 0")
        if self.learning_rate <= 0.0:
            raise ContractError("learning_rate must be positive")
        if any(h < 1 for h in self.hidden):
            raise ContractError(f"hidden widths must be >= 1, got {self.hidden}")


@dataclass
class StateNormalizer:
    mean: np.ndarray
    std: np.ndarray  # floored at 1e-6 per dimension

    @classmethod
    def fit(cls, S: np.ndarray) -> "StateNormalizer":
        return cls(S.mean(axis=0), np.maximum(S.std(axis=0), 1e-6))

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std

    def denormalize(self, x: np.ndarray) -> np.ndarray:
        return x * self.std + self.mean


@dataclass
class GanPair:
    generator: nets.MlpNet  # z_dim -> state_dim, tanh output, scaled by out_scale
    discriminator: nets.MlpNet  # state_dim -> 1, sigmoid output
    z_dim: int
    normalizer: StateNormalizer
    out_scale: np.ndarray  # per-dim scale on the generator tanh, normalized units
    restart_noise_sigma: float
    w_min: float
    w_max: float

    @property
    def state_dim(self) -> int:
        return self.generator.out_dim


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


def generate_states(gan: GanPair, Z: np.ndarray) -> np.ndarray:
    """Denormalized generator output for latent batch Z, without restart noise."""
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != gan.z_dim:
        raise ContractError(f"Z has shape {Z.shape}, want (n, {gan.z_dim})")
    raw = nets.forward_batch(gan.generator, Z) * gan.out_scale
    return gan.normalizer.denormalize(raw)


def sample_restart(gan: GanPair, rng: np.random.Generator) -> np.ndarray:
    """One start state: denormalized G(z) plus N(0, sigma^2 I) in state units."""
    z = rng.standard_normal(gan.z_dim)
    state = generate_states(gan, z[None, :])[0]
    if gan.restart_noise_sigma > 0.0:
        state = state + rng.normal(0.0, gan.restart_noise_sigma, size=state.shape)
    return state


def discriminator_prob_batch(gan: GanPair, S: np.ndarray) -> np.ndarray:
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[1] != gan.state_dim:
        raise ContractError(f"states have shape {S.shape}, want (n, {gan.state_dim})")
    return nets.forward_batch(gan.discriminator, gan.normalizer.normalize(S))[:, 0]


def weight_of_batch(gan: GanPair, S: np.ndarray) -> np.ndarray:
    """Critic weight w(s) = clip(1 - 2 D(s), w_min, w_max) for a state batch."""
    d = discriminator_prob_batch(gan, S)
    return np.clip(1.0 - 2.0 * d, gan.w_min, gan.w_max)


def discriminator_step_grads(disc: nets.MlpNet, real: np.ndarray, fake: np.ndarray):
    """Gradient of the discriminator's loss -(E[log D(real)] + E[log(1 - D(fake))])
    for equal-size batches, scored in one pass over the rows of both.

    Returns (Gradients, D(real), D(fake), the objective E[log D(real)] +
    E[log(1 - D(fake))]).
    """
    bs = real.shape[0]
    d = nets.forward_batch(disc, np.concatenate([real, fake]))[:, 0]
    logits = nets.output_preactivation(disc)[:, 0]
    # d(loss)/d(logit) is (D - label) / bs, label 1 for real rows and 0 for fake
    upstream = np.concatenate([d[:bs] - 1.0, d[bs:]]) / bs
    grads = nets.backward_batch(disc, upstream[:, None], wrt_preactivation=True)
    objective = float(np.add.reduce(-_softplus(-logits[:bs])) / bs
                      + np.add.reduce(-_softplus(logits[bs:])) / bs)
    return grads, d[:bs], d[bs:], objective


def pretrain(states, hparams: GanHparams, rng: np.random.Generator):
    """Fit the GAN to a state marginal, an (n, d) array of states.
    Returns (GanPair, GanTrainReport).

    Raises NumericsError (with .report carrying the partial curves) if a loss
    goes non-finite.
    """
    S = np.asarray(states, dtype=np.float64)
    if S.ndim != 2:
        raise ContractError(f"states have shape {S.shape}, want (n, d)")
    if S.shape[0] < 100:
        raise ContractError(f"need at least 100 states to fit, got {S.shape[0]}")
    if not np.all(np.isfinite(S)):
        raise ContractError("non-finite states passed to pretrain")
    d = S.shape[1]

    norm = StateNormalizer.fit(S)
    SN = norm.normalize(S)
    out_scale = 1.25 * np.max(np.abs(SN), axis=0)

    g_seed = int(rng.integers(2 ** 31))
    d_seed = int(rng.integers(2 ** 31))
    gen = nets.MlpNet.he_uniform([hparams.z_dim, *hparams.hidden, d],
                                 output_activation="tanh", seed=g_seed)
    disc = nets.MlpNet.he_uniform([d, *hparams.hidden, 1],
                                  output_activation="sigmoid", seed=d_seed)
    opt_g = nets.AdamState.for_net(gen, hparams.learning_rate, hparams.beta1, hparams.beta2)
    opt_d = nets.AdamState.for_net(disc, hparams.learning_rate, hparams.beta1, hparams.beta2)
    # the training batches in the nets' dtype, cast once
    SN_net, scale = SN.astype(disc.dtype), out_scale.astype(gen.dtype)

    n = S.shape[0]
    bs = hparams.batch_size
    curves = np.zeros((4, hparams.iterations))

    def fail(i, what):
        report = GanTrainReport(*(c[:i].copy() for c in curves))
        err = NumericsError(f"non-finite {what} at GAN iteration {i}")
        err.report = report
        return err

    for i in range(hparams.iterations):
        idx = rng.integers(0, n, size=bs)
        real = SN_net[idx]
        Zd = rng.standard_normal((bs, hparams.z_dim))
        fake = nets.forward_batch(gen, Zd) * scale

        # discriminator step: ascend E[log D(real)] + E[log(1 - D(fake))]
        d_grads, d_real, d_fake, d_objective = discriminator_step_grads(disc, real, fake)
        if not np.isfinite(d_objective):
            raise fail(i, "discriminator objective")
        nets.adam_step(disc, d_grads, opt_d)

        # generator step: descend E[log(1 - D(G(z)))]
        Zg = rng.standard_normal((bs, hparams.z_dim))
        fake_g = nets.forward_batch(gen, Zg) * scale
        d_g = nets.forward_batch(disc, fake_g)[:, 0]
        l_g = nets.output_preactivation(disc)[:, 0]
        g_loss = float(np.add.reduce(-_softplus(l_g)) / bs)
        if not np.isfinite(g_loss):
            raise fail(i, "generator loss")
        d_in = nets.backward_input(disc, (-d_g / bs)[:, None],
                                   wrt_preactivation=True)
        g_grads = nets.backward_batch(gen, d_in * scale)
        nets.adam_step(gen, g_grads, opt_g)

        curves[0, i] = d_objective
        curves[1, i] = g_loss
        curves[2, i] = np.add.reduce(d_real) / bs
        curves[3, i] = np.add.reduce(d_fake) / bs

    pair = GanPair(gen, disc, hparams.z_dim, norm, out_scale,
                   hparams.restart_noise_sigma, hparams.w_min, hparams.w_max)
    report = GanTrainReport(*(c.copy() for c in curves))
    return pair, report


def save_gan(gan: GanPair, dirpath) -> None:
    os.makedirs(dirpath, exist_ok=True)
    nets.save_checkpoint(gan.generator, os.path.join(dirpath, "generator.mlp"))
    nets.save_checkpoint(gan.discriminator, os.path.join(dirpath, "discriminator.mlp"))
    meta = {
        "format": GAN_FORMAT,
        "version": GAN_VERSION,
        "z_dim": gan.z_dim,
        "mean": list(gan.normalizer.mean),
        "std": list(gan.normalizer.std),
        "out_scale": list(gan.out_scale),
        "restart_noise_sigma": gan.restart_noise_sigma,
        "w_min": gan.w_min,
        "w_max": gan.w_max,
    }
    with atomic_write(os.path.join(dirpath, "gan.json")) as f:
        json.dump(meta, f, indent=1)
        f.write("\n")


def load_gan(dirpath) -> GanPair:
    with open(os.path.join(dirpath, "gan.json"), "r", encoding="utf-8") as f:
        meta = json.load(f)
    if meta.get("format") != GAN_FORMAT or meta.get("version") != GAN_VERSION:
        raise ContractError(f"not a {GAN_FORMAT} v{GAN_VERSION} directory: {dirpath}")
    gen = nets.load_checkpoint(os.path.join(dirpath, "generator.mlp"))
    disc = nets.load_checkpoint(os.path.join(dirpath, "discriminator.mlp"))
    norm = StateNormalizer(np.array(meta["mean"], dtype=np.float64),
                           np.array(meta["std"], dtype=np.float64))
    return GanPair(gen, disc, int(meta["z_dim"]), norm,
                   np.array(meta["out_scale"], dtype=np.float64),
                   float(meta["restart_noise_sigma"]),
                   float(meta["w_min"]), float(meta["w_max"]))


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
    the states (by digest), the hparams, the RNG state before the fit, and the
    code that fits (by numerics_sha256, and the numpy version).
    """
    S = np.ascontiguousarray(states, dtype=np.float64)
    return {"states_sha256": hashlib.sha256(S.tobytes()).hexdigest(),
            "states_shape": list(S.shape),
            "hparams": hparams.to_json(),
            "rng_state": repr(rng.bit_generator.state),
            "numerics_sha256": numerics_sha256(),
            "numpy": np.__version__}


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
