"""Soft actor-critic on the dense-net engine, with a per-row weighted critic loss.

The critic regresses a batch of transition columns onto soft Bellman targets,
each row at its own weight (1 for offline rows, w(s) for simulator rows); the
actor ascends the min of the twin critics with entropy regularization; the
temperature follows the usual dual update toward a target entropy. The twin
critics always see the same batch, so they are one stack of two nets (see
oris.nets), and so are their targets: each kernel call serves both.

All update functions consume a Generator and draw in a fixed order, so a run
is reproducible from its seed. The nets compute in float32 by default (see
oris.nets); the random draws are float64 either way, cast where they meet
the nets, so a float32 and a float64 agent consume the same draws.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
import json
import math
import os

import numpy as np

from . import nets
from .config import Config, load_json, read_header
from .errors import ContractError, NumericsError
from .files import atomic_write

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0

# a critic error beyond this, squared and summed over a batch, is near overflow
ERROR_LIMIT = {np.dtype(np.float32): 1e15, np.dtype(np.float64): 1e150}


@dataclass(frozen=True)
class SacHparams(Config):
    """Desk-scale defaults: one CPU core, minutes per run. The README
    tabulates the paper-scale values."""

    hidden: tuple[int, ...] = (64, 64)  # () gives a linear net
    actor_lr: float = 3e-4
    critic_lr: float = 1e-3
    temperature_lr: float = 3e-4
    gamma: float = 0.99
    tau: float = 0.01
    init_temperature: float = 0.2
    target_entropy: float | None = None  # None -> -action_dim
    batch_off: int = 128
    batch_sim: int = 128

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0 or not 0.0 < self.tau <= 1.0:
            raise ContractError(f"bad gamma/tau in {self}")
        if self.init_temperature <= 0.0:
            raise ContractError("init_temperature must be positive")
        if self.batch_off < 1 or self.batch_sim < 1:
            raise ContractError("batch sizes must be positive")
        if min(self.actor_lr, self.critic_lr, self.temperature_lr) <= 0.0:
            raise ContractError("learning rates must be positive")
        if any(h < 1 for h in self.hidden):
            raise ContractError(f"hidden widths must be >= 1, got {self.hidden}")


@dataclass
class SacAgent:
    actor: nets.MlpNet
    critics: nets.MlpNet  # the twin critics, a stack of two nets
    targets: nets.MlpNet  # their target nets, stacked alike
    log_temperature: float
    target_entropy: float
    action_scale: float
    hparams: SacHparams
    opt_actor: nets.AdamState
    opt_critics: nets.AdamState
    opt_temperature: nets.ScalarAdam
    update_count: int = 0

    @property
    def obs_dim(self) -> int:
        return self.actor.in_dim

    @property
    def action_dim(self) -> int:
        return self.actor.out_dim // 2

    @property
    def temperature(self) -> float:
        return math.exp(self.log_temperature)

    @classmethod
    def create(cls, obs_dim: int, action_dim: int, action_scale: float,
               hparams: SacHparams, seed: int, dtype=np.float32) -> "SacAgent":
        if obs_dim < 1 or action_dim < 1 or action_scale <= 0.0:
            raise ContractError("bad agent dimensions")
        seeds = np.random.default_rng(seed).integers(2 ** 31, size=3)
        actor = nets.MlpNet.he_uniform([obs_dim, *hparams.hidden, 2 * action_dim],
                                       seed=int(seeds[0]), dtype=dtype)
        critics = nets.stack([nets.MlpNet.he_uniform([obs_dim + action_dim, *hparams.hidden, 1],
                                                     seed=int(s), dtype=dtype)
                              for s in seeds[1:]])
        te = hparams.target_entropy if hparams.target_entropy is not None else -float(action_dim)
        return cls(
            actor, critics, nets.clone_net(critics),
            log_temperature=math.log(hparams.init_temperature),
            target_entropy=te, action_scale=float(action_scale), hparams=hparams,
            opt_actor=nets.AdamState.for_net(actor, hparams.actor_lr),
            opt_critics=nets.AdamState.for_net(critics, hparams.critic_lr),
            opt_temperature=nets.ScalarAdam(hparams.temperature_lr),
        )


@dataclass
class ActorSample:
    """One reparameterized draw per row: a = scale * tanh(mu + sigma * noise)."""

    action: np.ndarray
    u: np.ndarray
    log_prob: np.ndarray
    log_std: np.ndarray
    noise: np.ndarray
    clip_mask: np.ndarray  # 1 where the raw log-std head was inside the clip range


def sample_actions(agent: SacAgent, S: np.ndarray, noise: np.ndarray) -> ActorSample:
    """Actions for a state batch under the (n, A) standard normal noise given.

    Everything in the sample is in the actor's dtype, the noise included."""
    out = nets.forward_batch(agent.actor, S)
    A = agent.action_dim
    mu, kappa = out[:, :A], out[:, A:]
    log_std = np.minimum(np.maximum(kappa, LOG_STD_MIN), LOG_STD_MAX)
    clip_mask = ((kappa > LOG_STD_MIN) & (kappa < LOG_STD_MAX)).astype(out.dtype)
    std = np.exp(log_std)
    noise = np.asarray(noise, dtype=out.dtype)
    u = mu + std * noise
    tanh_u = np.tanh(u)
    action = agent.action_scale * tanh_u
    # log N(u; mu, std) minus the tanh-and-scale change of variables,
    # with log(1 - tanh(u)^2) = 2 (log 2 - u - softplus(-2u)); the constants
    # are Python floats, which leave a float32 array float32
    log_prob = np.add.reduce(
        -0.5 * noise ** 2 - log_std - 0.5 * math.log(2.0 * math.pi)
        - math.log(agent.action_scale)
        - 2.0 * (math.log(2.0) - u - np.logaddexp(0.0, -2.0 * u)),
        axis=1)
    return ActorSample(action, u, log_prob, log_std, noise, clip_mask)


def act(agent: SacAgent, S: np.ndarray, mode: str, rng=None) -> np.ndarray:
    """Policy query for a (n, obs_dim) state batch; returns (n, A) actions in
    the actor's dtype. mode is "stochastic" or "deterministic".

    One forward_batch, and in stochastic mode one standard_normal((n, A)):
    the bits of sample_actions' action under that noise, without its
    log-density.
    """
    if mode not in ("deterministic", "stochastic"):
        raise ContractError(f"unknown mode {mode!r}")
    if mode == "stochastic" and rng is None:
        raise ContractError("stochastic act needs an rng")
    out = nets.forward_batch(agent.actor, S)
    A = agent.action_dim
    u = out[:, :A]
    if mode == "stochastic":
        std = np.exp(np.minimum(np.maximum(out[:, A:], LOG_STD_MIN), LOG_STD_MAX))
        u = u + std * rng.standard_normal((out.shape[0], A)).astype(out.dtype)
    return agent.action_scale * np.tanh(u)


def bellman_targets(agent: SacAgent, S2, R, DONE, rng) -> np.ndarray:
    """Soft targets y = r + (1 - done) gamma (min_k Q_target_k(s', a') - temp log pi(a'|s')),
    in the nets' dtype; a' takes one standard_normal((n, A)) from rng."""
    S2 = np.asarray(S2, dtype=agent.actor.dtype)
    sample = sample_actions(agent, S2, rng.standard_normal((len(S2), agent.action_dim)))
    x2 = np.concatenate([S2, sample.action], axis=1)
    q = nets.forward_batch(agent.targets, x2)[..., 0]
    soft_q = np.minimum(q[0], q[1]) - agent.temperature * sample.log_prob
    R, DONE = (np.asarray(c, dtype=soft_q.dtype) for c in (R, DONE))
    return R + (1.0 - DONE) * agent.hparams.gamma * soft_q


def critic_loss_and_grads(agent: SacAgent, S: np.ndarray, A: np.ndarray,
                          weights: np.ndarray, targets: np.ndarray):
    """Weighted squared Bellman error, normalized by the row count.

    loss_k = sum_i w_i e_k,i^2 / n, in the critics' dtype. Returns (mean loss
    over the twin critics, their gradients as one row each, the (2, n) TD
    errors).
    """
    dtype = agent.critics.dtype
    weights, targets = (np.asarray(c, dtype=dtype) for c in (weights, targets))
    x = np.concatenate([S, A], axis=1, dtype=dtype)
    n = x.shape[0]
    e = nets.forward_batch(agent.critics, x)[..., 0] - targets
    ok = np.abs(e) <= ERROR_LIMIT[dtype]
    if not ok.all():
        bad = int(np.flatnonzero(~ok)[0]) % n  # the first critic's rows first
        raise NumericsError(f"non-finite critic error at batch row {bad}")
    losses = np.add.reduce(weights * e * e, axis=-1) / n
    grads = nets.backward_batch(agent.critics, (2.0 * weights * e / n)[..., None])
    return 0.5 * (float(losses[0]) + float(losses[1])), grads, e


def critic_update(agent: SacAgent, batch: tuple, weights: np.ndarray, rng) -> float:
    """One weighted twin-critic step plus target soft updates; returns the loss.

    batch is the transition columns (S, A, R, S2, D) and weights[k] is row k's
    coefficient in the loss: 1 for offline rows, w(s) for simulator rows.
    Draw order from rng: one standard_normal((n, A)) for the target policy
    actions.
    """
    S, A, R, S2, D = batch
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(R),) or len(R) < 1:
        raise ContractError(f"{weights.shape} weights for a batch of {len(R)} rows")
    if not np.isfinite(weights).all() or (weights < 0).any():
        raise ContractError("weights must be finite and non-negative")
    y = bellman_targets(agent, S2, R, D, rng)
    ok = np.isfinite(y)
    if not ok.all():
        bad = int(np.flatnonzero(~ok)[0])
        raise NumericsError(f"non-finite Bellman target at batch row {bad}")
    loss, grads, _ = critic_loss_and_grads(agent, S, A, weights, y)
    nets.adam_step(agent.critics, grads, agent.opt_critics)
    nets.soft_update(agent.targets, agent.critics, agent.hparams.tau)
    agent.update_count += 1
    return loss


def actor_loss_and_grads(agent: SacAgent, S: np.ndarray, noise: np.ndarray,
                         q_and_grad=None):
    """Entropy-regularized policy loss mean(-min_k Q_k(s, a) + temp * log pi(a|s))
    under the reparameterized draw a = scale * tanh(mu + sigma * noise).

    q_and_grad(S, A) -> (q, dq_dA) overrides the twin critics (testing seam).
    Returns (loss, the actor's gradient vector, ActorSample). A non-finite loss
    raises NumericsError naming the first batch row whose term is non-finite.
    """
    S = np.asarray(S, dtype=agent.actor.dtype)
    sample = sample_actions(agent, S, noise)
    n = S.shape[0]
    lam = agent.temperature
    if q_and_grad is None:
        x = np.concatenate([S, sample.action], axis=1)
        q1, q2 = nets.forward_batch(agent.critics, x)[..., 0]
        qmin = np.minimum(q1, q2)
        # each critic's gradient where it is the min (the first on a tie):
        # upstream -[q1 <= q2, 1 - (q1 <= q2)] / n, built in one array
        up = np.empty((2, n, 1), q1.dtype)
        np.less_equal(q1, q2, out=up[0, :, 0])
        np.subtract(1.0, up[0], out=up[1])
        up /= -n
        gin = nets.backward_input(agent.critics, up)
        dL_da = (gin[0] + gin[1])[:, agent.obs_dim:]
    else:
        qmin, dq_da = q_and_grad(S, sample.action)
        dL_da = -np.asarray(dq_da, dtype=sample.u.dtype) / n
    terms = -qmin + lam * sample.log_prob
    loss = float(np.add.reduce(terms) / n)
    if not math.isfinite(loss):
        bad = np.flatnonzero(~np.isfinite(terms))
        raise NumericsError(f"non-finite actor loss at batch row {bad[0]}" if bad.size
                            else "non-finite actor loss: the finite rows' sum overflows")

    tanh_u = np.tanh(sample.u)
    dadu = agent.action_scale * (1.0 - tanh_u ** 2)
    dlogp_du = 2.0 * tanh_u
    g_u = dL_da * dadu + (lam / n) * dlogp_du
    g_mu = g_u
    sigma_noise = np.exp(sample.log_std) * sample.noise
    g_kappa = (g_u * sigma_noise - lam / n) * sample.clip_mask
    upstream = np.concatenate([g_mu, g_kappa], axis=1)
    # the actor's recorded forward from sample_actions is still current
    grads = nets.backward_batch(agent.actor, upstream)
    return loss, grads, sample


def actor_update(agent: SacAgent, S: np.ndarray, rng, q_and_grad=None) -> float:
    """One policy step followed by the temperature dual step; returns the loss.

    Draw order from rng: one standard_normal((n, A)) for the policy sample.
    """
    S = np.asarray(S)
    if S.ndim != 2 or S.shape[0] < 1:
        raise ContractError(f"states have shape {S.shape}")
    noise = rng.standard_normal((S.shape[0], agent.action_dim))
    loss, grads, sample = actor_loss_and_grads(agent, S, noise, q_and_grad)
    nets.adam_step(agent.actor, grads, agent.opt_actor)
    # dual step on log temperature: d/dloglam of -lam * mean(logp + target_entropy)
    mean_lp = float(np.add.reduce(sample.log_prob) / len(sample.log_prob))
    grad_loglam = -agent.temperature * (mean_lp + agent.target_entropy)
    agent.log_temperature = agent.opt_temperature.step(agent.log_temperature, grad_loglam)
    return loss


def bc_update(agent: SacAgent, S: np.ndarray, A_target: np.ndarray) -> float:
    """Mean squared error regression of the deterministic head onto dataset actions."""
    S, A_target = (np.asarray(c, dtype=agent.actor.dtype) for c in (S, A_target))
    n = S.shape[0]
    out = nets.forward_batch(agent.actor, S)
    mu = out[:, :agent.action_dim]
    a = agent.action_scale * np.tanh(mu)
    e = a - A_target
    loss = float(np.add.reduce(e * e, axis=None) / n)
    g_mu = (2.0 / n) * e * agent.action_scale * (1.0 - np.tanh(mu) ** 2)
    upstream = np.concatenate([g_mu, np.zeros_like(g_mu)], axis=1)
    grads = nets.backward_batch(agent.actor, upstream)
    nets.adam_step(agent.actor, grads, agent.opt_actor)
    agent.update_count += 1
    return loss


# an agent directory holds one <name>.mlp per net, a stack's members under
# their own names, and one opt_<name>.adam per net that Adam trains
AGENT_NETS = ("actor", "critic1", "critic2", "target1", "target2")
TRAINED_NETS = ("actor", "critic1", "critic2")


def _adam_rows(opt: nets.AdamState) -> list:
    """The Adam state of each member of a stack: its rows of the moments."""
    return [dataclasses.replace(opt, m=m, v=v) for m, v in zip(opt.m, opt.v)]


def _stack_adam(opts: list) -> nets.AdamState:
    """One Adam state for a stack from its members' states, which must agree
    on everything but the moments."""
    settings = {(o.learning_rate, o.beta1, o.beta2, o.epsilon, o.step_count) for o in opts}
    if len(settings) != 1:
        raise ContractError(f"a stack's members have optimizer states of different "
                            f"settings or step counts: {sorted(settings)}")
    return dataclasses.replace(opts[0], m=np.stack([o.m for o in opts]),
                               v=np.stack([o.v for o in opts]))


@dataclass(frozen=True, kw_only=True)
class AgentMeta(Config):
    """agent.json: the agent's scalars and hparams, and its temperature
    optimizer."""

    format: str = "oris-sac"
    version: int = 1
    log_temperature: float
    target_entropy: float
    action_scale: float
    update_count: int
    hparams: SacHparams
    opt_temperature: nets.ScalarAdam


def save_agent(agent: SacAgent, dirpath) -> None:
    """The five nets, the three Adam states and agent.json (which holds the
    temperature optimizer), so a reloaded agent updates as the saved one would.
    The stacked critics and targets are written member by member."""
    os.makedirs(dirpath, exist_ok=True)
    parts = dict(zip(AGENT_NETS, [agent.actor, *nets.unstack(agent.critics),
                                  *nets.unstack(agent.targets)]))
    opts = dict(zip(TRAINED_NETS, [agent.opt_actor, *_adam_rows(agent.opt_critics)]))
    for name, net in parts.items():
        nets.save_checkpoint(net, os.path.join(dirpath, f"{name}.mlp"))
    for name, opt in opts.items():
        nets.save_adam(opt, os.path.join(dirpath, f"opt_{name}.adam"))
    meta = AgentMeta(log_temperature=agent.log_temperature,
                     target_entropy=agent.target_entropy, action_scale=agent.action_scale,
                     update_count=agent.update_count, hparams=agent.hparams,
                     opt_temperature=agent.opt_temperature)
    with atomic_write(os.path.join(dirpath, "agent.json")) as f:
        json.dump(meta.to_json(), f, indent=1)
        f.write("\n")


def load_agent(dirpath) -> SacAgent:
    """The agent save_agent wrote. A file of it that is missing, or whose
    header lacks a key, is refused, naming the file."""
    path = os.path.join(dirpath, "agent.json")
    meta = read_header(AgentMeta, load_json(path) if os.path.isfile(path) else {},
                       path, dirpath)
    parts = {name: nets.load_checkpoint(os.path.join(dirpath, f"{name}.mlp"))
             for name in AGENT_NETS}
    try:
        critics = nets.stack([parts["critic1"], parts["critic2"]])
        targets = nets.stack([parts["target1"], parts["target2"]])
    except ContractError as e:
        raise ContractError(f"bad agent directory {dirpath}: {e}") from e
    opts = {name: nets.load_adam(os.path.join(dirpath, f"opt_{name}.adam"), parts[name])
            for name in TRAINED_NETS}
    return SacAgent(
        parts["actor"], critics, targets,
        log_temperature=meta.log_temperature, target_entropy=meta.target_entropy,
        action_scale=meta.action_scale, hparams=meta.hparams,
        opt_actor=opts["actor"], opt_critics=_stack_adam([opts["critic1"], opts["critic2"]]),
        opt_temperature=meta.opt_temperature, update_count=meta.update_count)
