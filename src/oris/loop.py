"""Interleaved collect-and-train loop mixing offline data with simulator rollouts.

Each epoch performs C rollouts of horizon H in the (possibly perturbed)
simulator, then a block of actor-critic updates on mixed minibatches: offline
rows at weight 1 next to simulator rows weighted by the frozen
discriminator. The discriminator is frozen, so each rollout's rows are scored
once, when they enter the replay buffer, and the updates read the stored
weights. Where the rollouts restart from, and whether the weights are live,
depends on the variant; see OrisConfig.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import envs, gan as gan_mod, sac
from .config import Config
from .data import Dataset, ReplayBuffer
from .errors import ConfigError, ContractError, InvalidStateError

VARIANTS = ("oris", "no_restart", "uniform_weight", "naive_mix",
            "sim_only_sac", "bc")

# which variants restart rollouts from the generator instead of rho_0
GAN_RESTART_VARIANTS = ("oris", "uniform_weight")

# which variants weight simulator rows by the discriminator; the rest keep weight 1
GAN_WEIGHT_VARIANTS = ("oris", "no_restart")

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
            raise ConfigError(f"unknown variant {self.variant!r}, know {VARIANTS}")
        for k in ("rollout_horizon", "rollout_count", "epochs",
                  "updates_per_epoch", "eval_episodes"):
            if getattr(self, k) < 1:
                raise ConfigError(f"{k} must be >= 1")
        if not 0.0 <= self.random_policy_prob <= 1.0:
            raise ConfigError("random_policy_prob must be in [0, 1]")
        if self.replay_capacity < 1:
            raise ConfigError("replay_capacity must be >= 1")

    def gan_restarts(self) -> bool:
        return self.variant in GAN_RESTART_VARIANTS

    def gan_weights(self) -> bool:
        return self.variant in GAN_WEIGHT_VARIANTS

    def needs_gan(self) -> bool:
        return self.gan_restarts() or self.gan_weights()


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
                raise ContractError(f"non-finite {k} in epoch report")


def hybrid_policy(policy, random_policy, p: float, rng):
    """Draw one rollout's action source: random_policy with probability p,
    else policy. Returns (the chosen policy, used_random)."""
    if not 0.0 <= p <= 1.0:
        raise ContractError("p must be in [0, 1]")
    if rng.random() < p:
        return random_policy, True
    return policy, False


@dataclass
class CollectStats:
    transitions: int = 0
    random_rollouts: int = 0
    rollouts: int = 0
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
    """C rollouts of horizon H in the simulator, appended to the buffer in
    rollout order.

    Each rollout first draws its action source (see hybrid_policy) and, in
    the restart variants, its generator start. Then the C rollouts step in
    lockstep (envs.rollout): per step, one actor forward over the pi rows and
    one uniform draw over the random rows. Variants with discriminator
    weights store each row with its weight w(s), scored one rollout per
    call: one call over all C * H rows would record the discriminator's
    activations for every row at once and raise the peak memory of a run by
    several MB. The others keep the buffer's default weight 1.
    """
    if cfg.needs_gan() and g is None:
        raise ConfigError(f"variant {cfg.variant!r} needs a pretrained gan")
    stats = CollectStats()
    pi = lambda obs, rng_: sac.act(agent, obs, "stochastic", rng_)
    random_policy = envs.uniform_random_policy(env)
    policies, starts = [], []
    for _ in range(cfg.rollout_count):
        policy, used_random = hybrid_policy(pi, random_policy,
                                            cfg.random_policy_prob, rng)
        policies.append(policy)
        stats.rollouts += 1
        stats.random_rollouts += int(used_random)
        if cfg.gan_restarts():
            starts.append(_draw_restart(env, g, stats, rng))
    episodes = envs.rollout(env, policies, np.array(starts) if starts else cfg.rollout_count,
                            cfg.rollout_horizon, rng)
    columns = tuple(np.concatenate(c) for c in zip(*episodes))
    weights = (np.concatenate([gan_mod.weight_of_batch(g, ep[0]) for ep in episodes])
               if cfg.gan_weights() else None)
    buffer.extend(columns, weights)
    stats.transitions = len(columns[2])
    return stats


def _update_block(agent, offline_rows, buffer, cfg, hp, rng):
    """One epoch's worth of critic/actor updates on mixed minibatches, each one
    block of rows: batch_off offline rows at weight 1, then batch_sim buffer
    rows at the weights collect_epoch stored (all from the buffer when there
    are no offline rows, as in sim_only_sac). One gather per source."""
    n = hp.batch_off + hp.batch_sim
    n_off = 0 if offline_rows is None else hp.batch_off
    critic_losses, actor_losses, sim_weights = [], [], []
    for _ in range(cfg.updates_per_epoch):
        rows = np.empty((n, buffer.width))
        if offline_rows is not None:
            offline_rows.sample_rows(n_off, rng, out=rows[:n_off])
        buffer.sample_rows(n - n_off, rng, out=rows[n_off:])
        batch, weights = buffer.columns_of(rows)
        sim_weights.append(float(np.add.reduce(weights[n_off:]) / (n - n_off)))
        critic_losses.append(sac.critic_update(agent, batch, weights, rng))
        actor_losses.append(sac.actor_update(agent, batch[0], rng))
    return (float(np.mean(critic_losses)), float(np.mean(actor_losses)),
            float(np.mean(sim_weights)))


def train(real_spec: envs.EnvSpec, sim_spec: envs.EnvSpec, offline: Dataset,
          cfg: OrisConfig, hp: sac.SacHparams, seed: int,
          g: gan_mod.GanPair | None = None,
          gan_hp: gan_mod.GanHparams | None = None,
          progress=None, gan_store=None) -> tuple[sac.SacAgent, list[EpochReport]]:
    """Run one variant to completion; returns the agent and per-epoch reports.

    A pretrained GanPair may be passed in; otherwise one is fit to the offline
    state marginal when the variant calls for it, or loaded from the
    gan_store directory (see gan.pretrain_or_load) when one is given. The GAN
    draws from its own RNG stream, so loading it moves no other draw. The
    real spec is touched only by evaluation.
    """
    env_id = offline.meta.get("env_id")
    if real_spec.env_id != env_id or sim_spec.env_id != env_id:
        raise ConfigError(
            f"dataset is {env_id!r} but specs are "
            f"{real_spec.env_id!r}/{sim_spec.env_id!r}")

    ss = np.random.SeedSequence(seed)
    rng_init, rng_gan, rng_collect, rng_update, rng_eval = \
        [np.random.default_rng(s) for s in ss.spawn(5)]

    obs_dim, act_dim = envs.env_dims(env_id)
    agent = sac.SacAgent.create(obs_dim, act_dim, envs.ACTION_SCALES[env_id],
                                hp, seed=int(rng_init.integers(2 ** 31)))
    if g is None and cfg.needs_gan():
        states, gan_hp = offline.arrays()[0], gan_hp or gan_mod.GanHparams()
        g = (gan_mod.pretrain(states, gan_hp, rng_gan)[0] if gan_store is None
             else gan_mod.pretrain_or_load(states, gan_hp, rng_gan, gan_store))

    sim_env = envs.make_env(sim_spec)
    # a run writes at most this many rows: a ring this size never wraps, so it
    # samples what a replay_capacity ring would, without allocating the rest
    max_rows = cfg.epochs * cfg.rollout_count * cfg.rollout_horizon
    buffer = ReplayBuffer(min(cfg.replay_capacity, max_rows), obs_dim, act_dim)
    # the offline rows packed once, at weight 1, for the variants that draw them
    offline_rows = None
    if cfg.variant != "sim_only_sac":
        offline_rows = ReplayBuffer(len(offline), obs_dim, act_dim)
        offline_rows.extend(offline.columns)
    bc = cfg.variant == "bc"
    env_steps = 0
    reports: list[EpochReport] = []
    for epoch in range(1, cfg.epochs + 1):
        if bc:
            stats = CollectStats()
            n = hp.batch_off + hp.batch_sim
            losses = [sac.bc_update(agent, *offline_rows.sample_arrays(n, rng_update)[:2])
                      for _ in range(cfg.updates_per_epoch)]
            critic_loss, actor_loss = 0.0, float(np.mean(losses))
            mean_w = 1.0
        else:
            stats = collect_epoch(sim_env, agent, cfg, buffer, rng_collect, g)
            env_steps += stats.transitions
            critic_loss, actor_loss, mean_w = _update_block(
                agent, offline_rows, buffer, cfg, hp, rng_update)

        det = lambda o, _r: sac.act(agent, o, "deterministic")
        ret, std, _ = envs.evaluate_policy(real_spec, det, cfg.eval_episodes,
                                           rng_eval)
        reports.append(EpochReport(
            epoch=epoch, env_steps=env_steps,
            transitions_collected=stats.transitions,
            random_rollout_fraction=(stats.random_rollouts / stats.rollouts
                                     if stats.rollouts else 0.0),
            invalid_restart_count=stats.invalid_restarts,
            eval_return_mean=ret, eval_return_std=std,
            critic_loss=critic_loss, actor_loss=actor_loss,
            temperature=agent.temperature, mean_sim_weight=mean_w))
        if progress is not None:
            progress(reports[-1])
    return agent, reports
