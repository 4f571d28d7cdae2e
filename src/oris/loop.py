"""Interleaved collect-and-train loop mixing offline data with simulator rollouts.

A run reads offline data from the real env, whose meta names it, and a
simulator gap, a DynamicsPerturbation of that env. Each epoch performs C
rollouts of horizon H in the simulator, then a block of actor-critic updates
on mixed minibatches: offline rows at weight 1 next to simulator rows
weighted by the frozen discriminator, then an evaluation in the real,
unperturbed env. The discriminator is frozen, so each rollout's rows are
scored once, when they enter the replay buffer, and the updates read the
stored weights. What each variant restarts from, how it weights the
simulator rows, whether it draws offline rows and which learner it updates
is its row of VARIANTS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import envs, gan as gan_mod, sac
from .config import Config
from .data import Dataset, ReplayBuffer, columns_of
from .errors import ConfigError, ContractError, InvalidStateError, NumericsError


class Variant(NamedTuple):
    """A variant's mechanisms, the columns of the README's variant table."""

    restart: str | None  # "rho0" (the env's own starts) or "gan" (the generator)
    weight: str | None  # simulator rows at "one", or "disc": weight_of_batch
    offline: bool  # whether the updates draw offline rows
    learner: str  # "sac", or "bc", which collects nothing

    @property
    def needs_gan(self) -> bool:
        return self.restart == "gan" or self.weight == "disc"


# in the README's order; bc collects nothing, so it has no restart or weight
VARIANTS = {
    "oris": Variant("gan", "disc", True, "sac"),
    "no_restart": Variant("rho0", "disc", True, "sac"),
    "uniform_weight": Variant("gan", "one", True, "sac"),
    "naive_mix": Variant("rho0", "one", True, "sac"),
    "sim_only_sac": Variant("rho0", "one", False, "sac"),
    "bc": Variant(None, None, True, "bc"),
}

# rejected generator states in a row before a rollout falls back to rho_0
RESTART_MAX_RETRIES = 20


@dataclass(frozen=True)
class OrisConfig(Config):
    """Desk-scale defaults: one CPU core, minutes per run. The README
    tabulates the paper-scale values."""

    variant: str = "oris"
    rollout_horizon: int = 100
    rollout_count: int = 10
    random_policy_prob: float = 0.0  # collect with plain pi rollouts
    # mid-convergence, where restart quality and data reuse still matter
    epochs: int = 20
    updates_per_epoch: int = 250
    replay_capacity: int = 200_000
    eval_episodes: int = 10

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, know {tuple(VARIANTS)}")
        for k in ("rollout_horizon", "rollout_count", "epochs",
                  "updates_per_epoch", "eval_episodes"):
            if getattr(self, k) < 1:
                raise ConfigError(f"{k} must be >= 1")
        if not 0.0 <= self.random_policy_prob <= 1.0:
            raise ConfigError("random_policy_prob must be in [0, 1]")
        if self.replay_capacity < 1:
            raise ConfigError("replay_capacity must be >= 1")


@dataclass
class EpochReport:
    epoch: int
    env_steps: int  # cumulative simulator steps
    transitions_collected: int
    random_rollout_fraction: float
    invalid_restart_count: int
    eval_return_mean: float
    eval_return_std: float
    critic_loss: float
    actor_loss: float
    temperature: float
    mean_sim_weight: float

    def __post_init__(self):
        if not 0.0 <= self.random_rollout_fraction <= 1.0:
            raise ContractError("random_rollout_fraction outside [0, 1]")
        for k in self.__dataclass_fields__:
            if not np.isfinite(getattr(self, k)):
                raise NumericsError(f"non-finite {k} in epoch report")


@dataclass
class CollectStats:
    transitions: int = 0
    random_rollouts: int = 0
    invalid_restarts: int = 0


def _draw_restart(env: envs.Env, g: gan_mod.GanPair, stats: CollectStats,
                  rng) -> np.ndarray:
    """A generator state that the env accepts or, after RESTART_MAX_RETRIES + 1
    rejections in a row, a state drawn from rho_0."""
    for _ in range(RESTART_MAX_RETRIES + 1):
        s = gan_mod.sample_restart(g, rng)
        try:
            env.set_state(s[None])
            return s
        except InvalidStateError:
            stats.invalid_restarts += 1
    return env.reset(rng, 1)[0]


def collect_epoch(env: envs.Env, agent: sac.SacAgent, cfg: OrisConfig,
                  buffer: ReplayBuffer, rng,
                  g: gan_mod.GanPair | None = None) -> CollectStats:
    """C rollouts of horizon H in env, the simulator, appended to the buffer
    in rollout order.

    Each rollout first draws its action source, one rng.random() against
    cfg.random_policy_prob: below it the rollout acts uniformly at random,
    else it samples the stochastic actor pi. Then, if the variant's row of
    VARIANTS restarts from "gan", it draws its generator start; from "rho0",
    envs.rollout draws the starts. Then the C rollouts step in lockstep
    (envs.rollout): per step, one actor forward over the pi rows and one
    uniform draw over the random rows. A "disc" weight stores each row with
    its weight w(s), scored one rollout per call: one call over all C * H
    rows would record the discriminator's activations for every row at once
    and raise the peak memory of a run by several MB. A weight of "one"
    keeps the buffer's default weight 1. g is the run's GAN, which every
    variant that needs one (Variant.needs_gan) passes.
    """
    variant = VARIANTS[cfg.variant]
    stats = CollectStats()
    pi = lambda obs, rng_: sac.act(agent, obs, "stochastic", rng_)
    random_policy = envs.uniform_random_policy(env)
    policies, starts = [], []
    for _ in range(cfg.rollout_count):
        used_random = rng.random() < cfg.random_policy_prob
        policies.append(random_policy if used_random else pi)
        stats.random_rollouts += used_random
        if variant.restart == "gan":
            starts.append(_draw_restart(env, g, stats, rng))
    episodes = envs.rollout(env, policies, np.array(starts) if starts else cfg.rollout_count,
                            cfg.rollout_horizon, rng)
    for ep in episodes:
        buffer.extend(ep, gan_mod.weight_of_batch(g, ep[0]) if variant.weight == "disc" else None)
        stats.transitions += len(ep[2])
    return stats


def _update_block(agent, offline_rows, buffer, cfg, hp, rng):
    """One epoch's worth of critic/actor updates on mixed minibatches, each one
    block of rows: batch_off offline rows at weight 1, then batch_sim buffer
    rows at the weights collect_epoch stored (all from the buffer when
    offline_rows is None). One gather per source."""
    n = hp.batch_off + hp.batch_sim
    n_off = 0 if offline_rows is None else hp.batch_off
    critic_losses, actor_losses, sim_weights = [], [], []
    for _ in range(cfg.updates_per_epoch):
        rows = np.empty((n, buffer.width))
        if offline_rows is not None:
            offline_rows.sample_rows(n_off, rng, out=rows[:n_off])
        buffer.sample_rows(n - n_off, rng, out=rows[n_off:])
        batch, weights = columns_of(rows, buffer.obs_dim)
        sim_weights.append(float(np.add.reduce(weights[n_off:]) / (n - n_off)))
        critic_losses.append(sac.critic_update(agent, batch, weights, rng))
        actor_losses.append(sac.actor_update(agent, batch[0], rng))
    return (float(np.mean(critic_losses)), float(np.mean(actor_losses)),
            float(np.mean(sim_weights)))


def check_offline(offline: Dataset) -> None:
    """Refuse, as a ConfigError, a dataset whose rows do not have the state
    and action widths of its env, offline.meta.env_id, a known env."""
    env_id = offline.meta.env_id
    env = envs.ENVS[env_id]
    rows = offline.rows
    if (rows.obs_dim, rows.action_dim) != (env.obs_dim, env.action_dim):
        raise ConfigError(f"dataset has {rows.obs_dim}-d states and {rows.action_dim}-d "
                          f"actions, but {env_id!r} has {env.obs_dim}-d states and "
                          f"{env.action_dim}-d actions")


def train(offline: Dataset, perturbation: envs.DynamicsPerturbation,
          cfg: OrisConfig, hp: sac.SacHparams, seed: int, *,
          gan_hp: gan_mod.GanHparams, gan_store,
          progress=None) -> tuple[sac.SacAgent, list[EpochReport]]:
    """Run one variant to completion; returns the agent and per-epoch reports.

    The variant's row of VARIANTS picks each epoch's work: a "sac" learner
    collects, then updates on buffer rows and, if the row draws them,
    offline rows; a "bc" learner clones offline actions. The env is
    offline.meta.env_id: rollouts step it under `perturbation`, and each
    epoch evaluates it unperturbed, EnvSpec.real(env_id). A dataset whose
    rows do not fit that env is refused first (check_offline). A variant
    that needs a GAN gets the one gan_hp fits to the offline state marginal
    through the gan_store directory (gan.pretrain_or_load), from its own RNG
    stream, so loading it moves no other draw.
    """
    env_id = offline.meta.env_id
    variant = VARIANTS[cfg.variant]
    ss = np.random.SeedSequence(seed)
    rng_init, rng_gan, rng_collect, rng_update, rng_eval = \
        [np.random.default_rng(s) for s in ss.spawn(5)]

    sim_env = envs.make_env(envs.EnvSpec(env_id, perturbation))
    check_offline(offline)
    obs_dim, act_dim = sim_env.obs_dim, sim_env.action_dim
    agent = sac.SacAgent.create(obs_dim, act_dim, sim_env.action_scale,
                                hp, seed=int(rng_init.integers(2 ** 31)))
    g = None
    if variant.needs_gan:
        g = gan_mod.pretrain_or_load(offline.columns[0], gan_hp, rng_gan, gan_store)

    real = envs.EnvSpec.real(env_id)
    # a run writes at most this many rows: a ring this size never wraps, so it
    # samples what a replay_capacity ring would, without allocating the rest
    max_rows = cfg.epochs * cfg.rollout_count * cfg.rollout_horizon
    buffer = ReplayBuffer(min(cfg.replay_capacity, max_rows), obs_dim, act_dim)
    env_steps = 0
    reports: list[EpochReport] = []
    for epoch in range(1, cfg.epochs + 1):
        if variant.learner == "bc":
            stats = CollectStats()
            n = hp.batch_off + hp.batch_sim
            losses = [sac.bc_update(agent, *columns_of(offline.rows.sample_rows(n, rng_update),
                                                       obs_dim)[0][:2])
                      for _ in range(cfg.updates_per_epoch)]
            critic_loss, actor_loss = 0.0, float(np.mean(losses))
            mean_w = 1.0
        else:
            stats = collect_epoch(sim_env, agent, cfg, buffer, rng_collect, g)
            env_steps += stats.transitions
            critic_loss, actor_loss, mean_w = _update_block(
                agent, offline.rows if variant.offline else None, buffer, cfg, hp,
                rng_update)

        det = lambda o, _r: sac.act(agent, o, "deterministic")
        ret, std, _ = envs.evaluate_policy(real, det, cfg.eval_episodes, rng_eval)
        reports.append(EpochReport(
            epoch=epoch, env_steps=env_steps,
            transitions_collected=stats.transitions,
            random_rollout_fraction=stats.random_rollouts / cfg.rollout_count,
            invalid_restart_count=stats.invalid_restarts,
            eval_return_mean=ret, eval_return_std=std,
            critic_loss=critic_loss, actor_loss=actor_loss,
            temperature=agent.temperature, mean_sim_weight=mean_w))
        if progress is not None:
            progress(reports[-1])
    return agent, reports
