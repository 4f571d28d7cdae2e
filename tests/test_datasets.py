"""Tests for the reference-run trainer and dataset tier generation."""

import hashlib
import json

import numpy as np
import pytest

from oris import data, datasets, envs, nets, sac
from oris.data import as_columns
from oris.datasets import Checkpoint, ReferenceHparams, ReferenceRun
from oris.errors import ConfigError, ContractError

TINY = ReferenceHparams(
    total_steps=600, warmup_steps=200, eval_interval=200, eval_episodes=2,
    batch_size=64,
    sac=sac.SacHparams(hidden=(16, 16), critic_lr=3e-4, tau=0.005))


@pytest.fixture(scope="module")
def tiny_ref():
    return datasets.train_reference("pendulum", TINY, seed=5)


def _fake_episode(rng, length, obs_dim=3, act_dim=1):
    return as_columns(*zip(*[(rng.normal(size=obs_dim), rng.uniform(-1, 1, act_dim),
                              float(rng.normal()), rng.normal(size=obs_dim),
                              i == length - 1) for i in range(length)]))


def _synthetic_run(evals, episodes_at, agent, episodes, random_return=-100.0):
    cks = [Checkpoint(200 * (i + 1), episodes_at[i], evals[i],
                      agent.actor.params.copy())
           for i in range(len(evals))]
    return ReferenceRun("pendulum", 7, TINY, cks, episodes, random_return, agent)


def test_reference_run_structure(tiny_ref):
    assert len(tiny_ref.checkpoints) == 3
    assert [ck.step for ck in tiny_ref.checkpoints] == [200, 400, 600]
    counts = [ck.episodes_collected for ck in tiny_ref.checkpoints]
    assert counts == sorted(counts)
    # pendulum episodes are fixed-length 200, so 600 steps = 3 episodes
    assert len(tiny_ref.episodes) == 3
    assert all(len(c) == 200 for ep in tiny_ref.episodes for c in ep)
    assert all(ep[4][-1] == 1.0 and not ep[4][:-1].any() for ep in tiny_ref.episodes)
    assert tiny_ref.random_return < -800  # random pendulum is far from upright
    n = tiny_ref.agent.actor.params.size
    assert all(ck.actor_params.shape == (n,) for ck in tiny_ref.checkpoints)


def test_random_baseline_draws_each_episode_in_turn(tiny_ref):
    """random_ref comes from one episode at a time: each episode's reset and
    then its uniform actions, from the eval stream, as a serial loop draws
    them. Lockstep draws would give another value and move every score."""
    rng = np.random.default_rng(np.random.SeedSequence(5).spawn(4)[2])
    env = envs.make_env(envs.EnvSpec.real("pendulum"))
    returns = []
    for _ in range(TINY.eval_episodes):
        env.reset(rng, 1)
        total = 0.0
        for _ in range(200):
            _, (r,), _ = env.step(rng.uniform(-2.0, 2.0, size=(1, 1)), rng)
            total += r
        returns.append(total)
    assert tiny_ref.random_return == np.mean(returns)


def test_reference_run_partial_final_episode():
    hp = ReferenceHparams(
        total_steps=250, warmup_steps=250, eval_interval=250, eval_episodes=1,
        batch_size=64, sac=sac.SacHparams(hidden=(16, 16)))
    run = datasets.train_reference("pendulum", hp, seed=1)
    assert [len(ep[2]) for ep in run.episodes] == [200, 50]
    assert not run.episodes[1][4].any()


def test_medium_checkpoint_rule():
    agent = sac.SacAgent.create(3, 1, 2.0, sac.SacHparams(hidden=(8, 8)), 0)
    run = _synthetic_run([-90.0, -49.0, -51.0, -20.0], [1, 2, 3, 4], agent,
                         episodes=[], random_return=-100.0)
    # expert -20, halfway = -60: first crossing is the -49 checkpoint,
    # even though a later one dips back below
    assert run.medium_checkpoint().eval_return == -49.0
    assert run.expert_return == -20.0
    refs = run.refs()
    assert refs == {"random_ref": -100.0, "expert_ref": -20.0,
                    "seed": 7, "medium_return": -49.0}


def test_medium_checkpoint_unreachable():
    agent = sac.SacAgent.create(3, 1, 2.0, sac.SacHparams(hidden=(8, 8)), 0)
    # a run that only ever got worse than random: halfway between random
    # (-100) and the -130 "expert" is -115 and no eval reaches it
    run = _synthetic_run([-140.0, -160.0, -130.0], [1, 2, 3], agent, [],
                         random_return=-100.0)
    with pytest.raises(ConfigError):
        run.medium_checkpoint()


def test_policy_at_uses_stored_params_without_mutating_agent(tiny_ref):
    before = tiny_ref.agent.actor.params.copy()
    ck = tiny_ref.checkpoints[0]
    policy = tiny_ref.policy_at(ck, mode="deterministic")
    obs = np.array([[1.0, 0.0, 0.0]])
    a = policy(obs, None)

    shadow = nets.clone_net(tiny_ref.agent.actor)
    shadow.params[...] = ck.actor_params
    mu = nets.forward_batch(shadow, obs)[:, :1]
    np.testing.assert_allclose(a, 2.0 * np.tanh(mu), rtol=1e-12)
    np.testing.assert_array_equal(tiny_ref.agent.actor.params, before)


def test_generate_random_dataset():
    ds = datasets.generate_dataset("pendulum", "random", episodes=3, seed=9)
    assert ds.meta.env_id == "pendulum"
    assert ds.meta.tier == "random"
    assert ds.meta.seed == 9
    assert len(ds.trajectory_boundaries) == 3
    assert len(ds) == 600
    s, a, *_ = ds.columns
    assert np.all(np.abs(a) <= 2.0)
    # same seed regenerates identical data; tier index salts the stream
    again = datasets.generate_dataset("pendulum", "random", episodes=3, seed=9)
    np.testing.assert_array_equal(s, again.columns[0])


def test_generate_dataset_validation(tiny_ref):
    with pytest.raises(ContractError):
        datasets.generate_dataset("pendulum", "mediocre", 2, 0)
    with pytest.raises(ContractError):
        datasets.generate_dataset("pendulum", "random", 0, 0)
    with pytest.raises(ConfigError):
        datasets.generate_dataset("pendulum", "expert", 2, 0, reference=None)
    with pytest.raises(ConfigError):
        datasets.generate_dataset("pointgoal", "expert", 2, 0, reference=tiny_ref)


def test_generate_expert_and_medium(tiny_ref):
    ds = datasets.generate_dataset("pendulum", "expert", episodes=2, seed=3,
                                   reference=tiny_ref)
    assert ds.meta.behavior_eval_return == tiny_ref.expert_return
    assert ds.meta.reference_seed == tiny_ref.seed
    assert len(ds.trajectory_boundaries) == 2

    # tiny run never crosses halfway with certainty; synthesize one that does
    agent = tiny_ref.agent
    eps = [_fake_episode(np.random.default_rng(i), 5) for i in range(4)]
    run = _synthetic_run([-90.0, -10.0], [2, 4], agent, eps)
    med = datasets.generate_dataset("pendulum", "medium", episodes=2, seed=3,
                                    reference=run)
    assert med.meta.behavior_eval_return == -10.0
    assert len(med.trajectory_boundaries) == 2


def test_medium_replay_is_history_prefix():
    agent = sac.SacAgent.create(3, 1, 2.0, sac.SacHparams(hidden=(8, 8)), 0)
    rng = np.random.default_rng(0)
    eps = [_fake_episode(rng, 4) for _ in range(6)]
    # medium checkpoint sits after episode 4
    run = _synthetic_run([-90.0, -40.0, -10.0], [2, 4, 6], agent, eps)

    ds = datasets.generate_dataset("pendulum", "medium_replay", episodes=100,
                                   seed=0, reference=run)
    assert len(ds.trajectory_boundaries) == 4  # capped at the checkpoint
    first = next(iter(ds.trajectories()))
    for got, want in zip(first, run.episodes[0]):
        np.testing.assert_array_equal(got, want)

    capped = datasets.generate_dataset("pendulum", "medium_replay", episodes=3,
                                       seed=0, reference=run)
    assert len(capped.trajectory_boundaries) == 3
    # most recent episodes kept: 2, 3, 4 of the prefix
    np.testing.assert_array_equal(
        capped.columns[2], np.concatenate([ep[2] for ep in eps[1:4]]))
    assert capped.meta.medium_eval_return == -40.0


def test_reference_hparams_validation():
    with pytest.raises(ContractError):
        ReferenceHparams(total_steps=100, eval_interval=200)
    with pytest.raises(ContractError):
        ReferenceHparams(warmup_steps=-1)


def test_reference_budgets_are_pinned():
    """The studies' data and the benchmark's references are built at these
    budgets, which rest on the dataclass defaults: an edit to a default that
    moves them has to show here."""
    doc = {env: hp.to_json() for env, hp in datasets.REFERENCE_DEFAULTS.items()}
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest.startswith("b86a6819b6eb")


def test_reference_episodes_are_views_of_one_history_block(tiny_ref):
    """The reference run's history is one packed block at weight 1, one row
    per step, and each episode's columns are views of it, in order."""
    history = tiny_ref.episodes[0][0].base
    assert history.shape == (TINY.total_steps, data.row_width(3, 1))
    assert all(c.base is history for ep in tiny_ref.episodes for c in ep)
    columns, weights = data.columns_of(history, 3)
    for got, want in zip(zip(*tiny_ref.episodes), columns):
        np.testing.assert_array_equal(np.concatenate(got), want)
    assert np.all(weights == 1.0)
