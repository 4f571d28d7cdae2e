"""Offline dataset tiers generated on the real environment.

Tiers mirror common offline-RL benchmarks: "random" from a uniform policy,
"expert" from a fully trained agent, "medium" from the first checkpoint whose
evaluation crosses halfway between random and expert, and "medium_replay" as
the collection history accumulated up to that checkpoint.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import envs, nets, sac
from .config import Config
from .data import Dataset, ReplayBuffer, TIERS, columns_from_rows
from .errors import ConfigError, ContractError


@dataclass(frozen=True)
class ReferenceHparams(Config):
    """Budget for the online reference run used by the non-random tiers."""

    total_steps: int = 16_000
    warmup_steps: int = 1_000
    update_every: int = 1
    eval_interval: int = 1_000
    eval_episodes: int = 10
    batch_size: int = 256
    replay_capacity: int = 300_000
    sac: sac.SacHparams = field(default_factory=sac.SacHparams)

    def __post_init__(self):
        if self.total_steps < self.eval_interval or self.eval_interval < 1:
            raise ContractError("total_steps must cover at least one eval_interval")
        if self.warmup_steps < 0 or self.update_every < 1:
            raise ContractError("bad warmup/update_every")
        for k in ("eval_episodes", "batch_size", "replay_capacity"):
            if getattr(self, k) < 1:
                raise ContractError(f"{k} must be >= 1")


@dataclass
class Checkpoint:
    step: int
    episodes_collected: int
    eval_return: float
    actor_params: np.ndarray


@dataclass
class ReferenceRun:
    env_id: str
    seed: int
    hparams: ReferenceHparams
    checkpoints: list[Checkpoint]
    episodes: list[tuple]  # full collection history, in order, as columns
    random_return: float
    agent: sac.SacAgent  # final agent

    @property
    def expert_return(self) -> float:
        return self.checkpoints[-1].eval_return

    def medium_checkpoint(self) -> Checkpoint:
        """First checkpoint at or past halfway from random to expert."""
        cut = self.random_return + 0.5 * (self.expert_return - self.random_return)
        for ck in self.checkpoints:
            if ck.eval_return >= cut:
                return ck
        raise ConfigError(
            f"no checkpoint reached the halfway return {cut:.1f} "
            f"(random {self.random_return:.1f}, expert {self.expert_return:.1f})")

    def policy_at(self, ck: Checkpoint, mode: str = "stochastic"):
        """Behavior policy replaying the actor stored in a checkpoint."""
        actor = nets.clone_net(self.agent.actor)
        nets.set_flat_params(actor, ck.actor_params)
        shadow = dataclasses.replace(self.agent, actor=actor)

        def policy(obs, rng):
            return sac.act(shadow, obs, mode, rng)

        return policy

    def refs(self) -> dict:
        return {"random_ref": self.random_return, "expert_ref": self.expert_return,
                "seed": self.seed, "medium_return": self.medium_checkpoint().eval_return}


# Budgets tuned so the reference reaches near-optimal behavior on a single
# CPU core in minutes; pendulum's is the default. Pointgoal's reward is
# sparse: random warmup has to be long enough to put a few goal hits in the
# replay before updates start.
REFERENCE_DEFAULTS = {
    "pendulum": ReferenceHparams(),
    "pointgoal": ReferenceHparams(
        total_steps=190_000, warmup_steps=150_000, eval_interval=2_500,
        replay_capacity=400_000),
}


def train_reference(env_id: str, hp: ReferenceHparams, seed: int,
                    progress=None) -> ReferenceRun:
    """Online SAC on the real environment, recording evals and the replay history."""
    spec = envs.EnvSpec.real(env_id)
    env = envs.make_env(spec)
    obs_dim, act_dim = envs.env_dims(env_id)
    ss = np.random.SeedSequence(seed)
    rng_collect, rng_update, rng_eval, rng_init = \
        [np.random.default_rng(s) for s in ss.spawn(4)]
    agent = sac.SacAgent.create(obs_dim, act_dim, env.action_scale, hp.sac,
                                seed=int(rng_init.integers(2 ** 31)))
    buffer = ReplayBuffer(hp.replay_capacity, obs_dim, act_dim)
    random_policy = envs.uniform_random_policy(env)

    # One episode per call, so each episode's reset and then its actions come
    # from rng_eval in turn: random_ref is the zero of every normalized score
    # and picks the medium checkpoint, and this order keeps it equal to the
    # refs already recorded.
    random_return = float(np.mean([
        envs.evaluate_policy(spec, random_policy, 1, rng_eval)[0]
        for _ in range(hp.eval_episodes)]))

    episodes: list[tuple] = []
    current: list[tuple] = []  # (s, a, r, s2, done) rows of the open episode
    checkpoints: list[Checkpoint] = []
    # one row, because the agent updates after every step
    obs = env.reset(rng_collect, 1)
    for step in range(1, hp.total_steps + 1):
        if step <= hp.warmup_steps:
            a = random_policy(obs, rng_collect)
        else:
            a = sac.act(agent, obs, "stochastic", rng_collect)
        obs2, r, done = env.step(a, rng_collect)
        row = (obs[0], a[0], r[0], obs2[0], done[0])
        buffer.add(*row)
        current.append(row)
        if done[0]:
            episodes.append(columns_from_rows(current))
            current = []
            obs = env.reset(rng_collect, 1)
        else:
            obs = obs2
        if step > hp.warmup_steps and step % hp.update_every == 0 \
                and len(buffer) >= hp.batch_size:
            batch = buffer.sample_arrays(hp.batch_size, rng_update)
            sac.critic_update(agent, batch, np.ones(hp.batch_size), rng_update)
            sac.actor_update(agent, batch[0], rng_update)
        if step % hp.eval_interval == 0:
            det = lambda o, _r: sac.act(agent, o, "deterministic")
            ret, _, _ = envs.evaluate_policy(spec, det, hp.eval_episodes, rng_eval)
            checkpoints.append(Checkpoint(step, len(episodes), ret,
                                          nets.get_flat_params(agent.actor)))
            if progress is not None:
                progress(step, ret)
    if current:
        episodes.append(columns_from_rows(current))
    return ReferenceRun(env_id, seed, hp, checkpoints, episodes, random_return, agent)


def generate_dataset(env_id: str, tier: str, episodes: int, seed: int,
                     reference: ReferenceRun | None = None) -> Dataset:
    """Roll out one tier's behavior policy on the real environment, all the
    tier's episodes in lockstep.

    Non-random tiers need a ReferenceRun for the same env. For medium_replay,
    `episodes` caps the history (most recent kept); pass a large value to keep
    all of it.
    """
    if tier not in TIERS:
        raise ContractError(f"unknown tier {tier!r}, know {TIERS}")
    if episodes < 1:
        raise ContractError("episodes must be positive")
    if tier != "random":
        if reference is None:
            raise ConfigError(f"tier {tier!r} needs a reference run")
        if reference.env_id != env_id:
            raise ConfigError(f"reference is for {reference.env_id!r}, not {env_id!r}")
    spec = envs.EnvSpec.real(env_id)
    meta = {"env_id": env_id, "tier": tier,
            "perturbation": spec.perturbation.to_json(),
            "behavior_policy_seed": seed}
    rng = np.random.default_rng(np.random.SeedSequence([seed, TIERS.index(tier)]))

    if tier == "medium_replay":
        ck = reference.medium_checkpoint()
        history = reference.episodes[:ck.episodes_collected]
        if not history:
            raise ConfigError("medium checkpoint precedes the first finished episode")
        meta["reference_seed"] = reference.seed
        meta["medium_eval_return"] = ck.eval_return
        return Dataset.from_episodes(meta, history[-episodes:])

    env = envs.make_env(spec)
    if tier == "random":
        policy = envs.uniform_random_policy(env)
    elif tier == "medium":
        ck = reference.medium_checkpoint()
        policy = reference.policy_at(ck)
        meta["reference_seed"] = reference.seed
        meta["behavior_eval_return"] = ck.eval_return
    else:  # expert
        policy = reference.policy_at(reference.checkpoints[-1])
        meta["reference_seed"] = reference.seed
        meta["behavior_eval_return"] = reference.expert_return
    eps = envs.rollout(env, policy, episodes, spec.max_episode_steps, rng)
    return Dataset.from_episodes(meta, eps)
