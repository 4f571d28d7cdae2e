"""Tests for the collect-and-train loop and its variant dispatch."""

import dataclasses
import re

import numpy as np
import pytest

from oracles import binomial_3sigma, stored_columns

from oris import datasets, envs, gan, loop, nets, sac
from oris.data import Dataset, ReplayBuffer, columns_of
from oris.errors import ConfigError, ContractError, NumericsError
from oris.gan import GanMeta, GanPair
from oris.loop import EpochReport, OrisConfig

HP = sac.SacHparams(hidden=(16, 16), batch_off=16, batch_sim=16)


@pytest.fixture(scope="module")
def pend_random():
    return datasets.generate_dataset("pendulum", "random", episodes=2, seed=0)


def rigged_gan(target, sigma=0.0):
    """GanPair of float64 nets whose generator always emits `target` (before
    restart noise)."""
    target = np.asarray(target, dtype=np.float64)
    d = len(target)
    gen = nets.MlpNet.he_uniform([2, 4, d], seed=0, dtype=np.float64)
    disc = nets.MlpNet.he_uniform([d, 4, 1], seed=1, dtype=np.float64)
    for net in (gen, disc):
        for W in net.weights:
            W[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
    scale = 2.0 * np.max(np.abs(target)) + 1.0
    gen.biases[-1][:] = np.arctanh(target / scale)
    meta = GanMeta(z_dim=2, mean=(0.0,) * d, std=(1.0,) * d, out_scale=(scale,) * d,
                   restart_noise_sigma=sigma, w_min=0.1, w_max=1.0)
    return GanPair(gen, disc, meta)


def make_agent(env_id="pendulum", seed=3):
    env = envs.ENVS[env_id]
    return sac.SacAgent.create(env.obs_dim, env.action_dim, env.action_scale, HP, seed)


def test_config_validation():
    with pytest.raises(ConfigError):
        OrisConfig(variant="h2o")
    with pytest.raises(ConfigError):
        OrisConfig(random_policy_prob=1.5)
    with pytest.raises(ConfigError):
        OrisConfig(rollout_count=0)


def _random_rollouts(p, count, seed):
    """stats.random_rollouts of one collect_epoch of `count` one-step pendulum
    rollouts at random_policy_prob p."""
    cfg = OrisConfig(variant="naive_mix", rollout_count=count, rollout_horizon=1,
                     epochs=1, random_policy_prob=p)
    env = envs.make_env(envs.EnvSpec.real("pendulum"))
    stats = loop.collect_epoch(env, make_agent(), cfg, ReplayBuffer(count, 3, 1),
                               np.random.default_rng(seed))
    return stats.random_rollouts


def test_collect_epoch_random_rollouts_at_the_endpoints():
    assert _random_rollouts(0.0, 20, 0) == 0
    assert _random_rollouts(1.0, 20, 0) == 20


def test_collect_epoch_random_rollouts_binomial():
    n, p = 10_000, 0.3
    frac = _random_rollouts(p, n, 11) / n
    assert abs(frac - p) <= binomial_3sigma(p, n)


def test_collect_epoch_batches_pi_and_random_rows(monkeypatch):
    """Per step, one actor query over the pi rollouts still running and one
    uniform draw over the random ones."""
    agent = make_agent("pointgoal")
    env = envs.make_env(envs.EnvSpec.real("pointgoal"))
    act_rows, real_act = [], sac.act

    def act(agent_, S, *args):
        act_rows.append(len(S))
        return real_act(agent_, S, *args)

    monkeypatch.setattr(sac, "act", act)
    cfg = OrisConfig(variant="naive_mix", rollout_count=6, rollout_horizon=9,
                     epochs=1, random_policy_prob=0.5)
    buf = ReplayBuffer(100, 4, 2)
    stats = loop.collect_epoch(env, agent, cfg, buf, np.random.default_rng(5))
    assert 0 < stats.random_rollouts < 6
    assert act_rows == [6 - stats.random_rollouts] * 9


def test_collect_epoch_counts():
    agent = make_agent()
    env = envs.make_env(envs.EnvSpec.real("pendulum"))
    buf = ReplayBuffer(10_000, 3, 1)
    cfg = OrisConfig(variant="naive_mix", rollout_count=3, rollout_horizon=50,
                     epochs=1)
    stats = loop.collect_epoch(env, agent, cfg, buf, np.random.default_rng(0))
    assert stats.transitions == 150 and len(buf) == 150
    assert stats.invalid_restarts == 0 and stats.random_rollouts == 0


def test_collect_epoch_rho0_starts():
    agent = make_agent("pointgoal")
    env = envs.make_env(envs.EnvSpec.real("pointgoal"))
    buf = ReplayBuffer(10_000, 4, 2)
    cfg = OrisConfig(variant="no_restart", rollout_count=4, rollout_horizon=7,
                     epochs=1, random_policy_prob=1.0)
    stats = loop.collect_epoch(env, agent, cfg, buf, np.random.default_rng(1),
                               g=rigged_gan([0.5, 0.5, 0.0, 0.0]))
    assert stats.transitions == 28
    starts = stored_columns(buf)[0][0:28:7]
    np.testing.assert_array_equal(starts[:, 2:], np.zeros((4, 2)))  # velocity 0
    assert np.all(starts[:, :2] >= -1.0) and np.all(starts[:, :2] <= -0.6)


def test_collect_epoch_restarts_from_the_generator():
    agent = make_agent("pointgoal")
    env = envs.make_env(envs.EnvSpec.real("pointgoal"))
    buf = ReplayBuffer(10_000, 4, 2)
    target = np.array([0.5, 0.25, 0.0, 0.0])
    cfg = OrisConfig(variant="oris", rollout_count=3, rollout_horizon=5, epochs=1)
    loop.collect_epoch(env, agent, cfg, buf, np.random.default_rng(2),
                       g=rigged_gan(target))
    starts = stored_columns(buf)[0][0:15:5]
    np.testing.assert_allclose(starts, np.tile(target, (3, 1)), atol=1e-12)


def test_collect_epoch_invalid_restart_fallback():
    agent = make_agent("pendulum")
    env = envs.make_env(envs.EnvSpec.real("pendulum"))
    buf = ReplayBuffer(10_000, 3, 1)
    # (0, 0, 0) has zero norm on the circle components: always rejected
    bad = rigged_gan([0.0, 0.0, 0.0])
    cfg = OrisConfig(variant="oris", rollout_count=2, rollout_horizon=5, epochs=1)
    stats = loop.collect_epoch(env, agent, cfg, buf, np.random.default_rng(3), g=bad)
    assert stats.invalid_restarts == 2 * (loop.RESTART_MAX_RETRIES + 1)
    assert len(buf) == 10  # fell back to rho_0 and completed the rollouts


def test_collect_epoch_rejects_nonfinite_actions(monkeypatch):
    agent = make_agent()
    env = envs.make_env(envs.EnvSpec.real("pendulum"))
    buf = ReplayBuffer(100, 3, 1)
    monkeypatch.setattr(sac, "act", lambda _agent, S, *_: np.full((len(S), 1), np.nan))
    cfg = OrisConfig(variant="naive_mix", rollout_count=2, rollout_horizon=5, epochs=1)
    with pytest.raises(NumericsError, match="non-finite"):
        loop.collect_epoch(env, agent, cfg, buf, np.random.default_rng(0))
    assert len(buf) == 0


def test_buffer_weights_are_each_rollouts_weights(pend_random):
    """Rows are stored in rollout order, each rollout a chain from its own
    restart, and each row's weight is weight_of_batch of its state: bitwise
    that of one call over its rollout's rows, and to float32 rounding that of
    a call on the row alone."""
    gan_hp = gan.GanHparams(z_dim=4, hidden=(32, 32), iterations=60, batch_size=64,
                            w_min=0.0)
    g, _ = gan.pretrain(pend_random.columns[0], gan_hp, np.random.default_rng(3))
    g.discriminator.biases[-1][:] -= 2.0  # most D below 1/2: weights off the clip
    agent = make_agent()
    env = envs.make_env(envs.EnvSpec("pendulum", envs.DynamicsPerturbation(2.0)))
    buf = ReplayBuffer(100, 3, 1)
    cfg = OrisConfig(variant="oris", rollout_count=4, rollout_horizon=23, epochs=1)
    loop.collect_epoch(env, agent, cfg, buf, np.random.default_rng(4), g)
    assert len(buf) == 92  # pendulum rollouts run the whole horizon
    S, _, _, S2, _, w = (c[:92] for c in stored_columns(buf))
    for k in range(0, 92, 23):
        assert np.array_equal(w[k:k + 23], gan.weight_of_batch(g, S[k:k + 23]))
    alone = np.concatenate([gan.weight_of_batch(g, S[i:i + 1]) for i in range(92)])
    np.testing.assert_allclose(w, alone, rtol=1e-5, atol=1e-6)
    assert np.unique(w).size > 40  # live weights, not one clip value
    # replay the per-rollout draws (policy choice, then restart): rollout k
    # fills rows 23k to 23k + 22, starting from its restart
    rng, stats = np.random.default_rng(4), loop.CollectStats()
    for k in range(4):
        rng.random()
        start = loop._draw_restart(env, g, stats, rng)
        norm = np.hypot(start[0], start[1])
        np.testing.assert_allclose(S[23 * k], [start[0] / norm, start[1] / norm,
                                               np.clip(start[2], -8.0, 8.0)], atol=1e-12)
        block = slice(23 * k, 23 * (k + 1))
        np.testing.assert_array_equal(S2[block][:-1], S[block][1:])

    plain = ReplayBuffer(50, 3, 1)
    loop.collect_epoch(env, agent, OrisConfig(variant="naive_mix", rollout_count=2,
                                              rollout_horizon=23, epochs=1),
                       plain, np.random.default_rng(4), g)
    assert np.all(columns_of(plain.sample_rows(64, np.random.default_rng(5)), 3)[1] == 1.0)


def test_epoch_report_validation():
    kw = dict(epoch=1, env_steps=10, transitions_collected=10,
              invalid_restart_count=0, eval_return_mean=-100.0,
              eval_return_std=1.0, critic_loss=0.5, actor_loss=0.1,
              temperature=0.2, mean_sim_weight=1.0)
    EpochReport(random_rollout_fraction=0.5, **kw)
    with pytest.raises(ContractError):
        EpochReport(random_rollout_fraction=1.5, **kw)
    with pytest.raises(NumericsError, match="non-finite critic_loss"):
        EpochReport(random_rollout_fraction=0.5,
                    **{**kw, "critic_loss": float("nan")})


GAP = envs.DynamicsPerturbation(gravity_scale=2.0)
GAN_HP = gan.GanHparams()


def test_train_minimal(tmp_path, pend_random):
    cfg = OrisConfig(variant="naive_mix", rollout_horizon=1, rollout_count=1,
                     epochs=1, updates_per_epoch=1, eval_episodes=1)
    agent, reports = loop.train(pend_random, GAP, cfg, HP, seed=0,
                                gan_hp=GAN_HP, gan_store=tmp_path)
    assert len(reports) == 1
    r = reports[0]
    assert r.env_steps == 1 and r.transitions_collected == 1
    assert r.invalid_restart_count == 0
    assert np.isfinite(r.eval_return_mean)


def test_train_determinism(tmp_path, pend_random):
    cfg = OrisConfig(variant="naive_mix", rollout_horizon=10, rollout_count=2,
                     epochs=2, updates_per_epoch=3, eval_episodes=1)
    a1, r1 = loop.train(pend_random, GAP, cfg, HP, seed=42, gan_hp=GAN_HP, gan_store=tmp_path)
    a2, r2 = loop.train(pend_random, GAP, cfg, HP, seed=42, gan_hp=GAN_HP, gan_store=tmp_path)
    assert r1 == r2
    np.testing.assert_array_equal(a1.actor.params, a2.actor.params)
    np.testing.assert_array_equal(a1.critics.params, a2.critics.params)


def test_train_collects_under_the_gap_and_evaluates_in_the_real_env(
        tmp_path, monkeypatch, pend_random):
    """Every collection steps the env under the run's gap, every epoch
    evaluates the unperturbed env of the dataset."""
    gap = envs.DynamicsPerturbation(gravity_scale=3.0)
    evaluated, collected = [], []
    real_evaluate, real_collect = envs.evaluate_policy, loop.collect_epoch

    def evaluate_policy(spec, *args):
        evaluated.append(spec)
        return real_evaluate(spec, *args)

    def collect_epoch(env, *args):
        collected.append(env.spec)
        return real_collect(env, *args)

    monkeypatch.setattr(envs, "evaluate_policy", evaluate_policy)
    monkeypatch.setattr(loop, "collect_epoch", collect_epoch)
    cfg = OrisConfig(variant="naive_mix", rollout_horizon=3, rollout_count=1,
                     epochs=3, updates_per_epoch=1, eval_episodes=1)
    loop.train(pend_random, gap, cfg, HP, seed=0, gan_hp=GAN_HP, gan_store=tmp_path)
    assert evaluated == [envs.EnvSpec.real("pendulum")] * 3
    assert [spec.perturbation for spec in collected] == [gap] * 3
    assert {spec.env_id for spec in collected} == {"pendulum"}


def test_train_sim_only(tmp_path, pend_random):
    cfg = OrisConfig(variant="sim_only_sac", rollout_horizon=10, rollout_count=2,
                     epochs=2, updates_per_epoch=3, eval_episodes=1)
    _, reports = loop.train(pend_random, GAP, cfg, HP, seed=1, gan_hp=GAN_HP, gan_store=tmp_path)
    assert [r.mean_sim_weight for r in reports] == [1.0, 1.0]
    assert reports[-1].env_steps == 40


@pytest.mark.parametrize("variant", loop.VARIANTS)
def test_train_refuses_a_dataset_whose_rows_do_not_fit_its_env(tmp_path, variant):
    """A dataset labelled pendulum whose rows are pointgoal's is refused
    before any GAN fit or draw, with the message the harness prefixes with
    the dataset's path."""
    pointgoal = datasets.generate_dataset("pointgoal", "random", episodes=1, seed=0)
    wide = Dataset(dataclasses.replace(pointgoal.meta, env_id="pendulum"), pointgoal.rows,
                   pointgoal.trajectory_boundaries)
    cfg = OrisConfig(variant=variant, rollout_horizon=1, rollout_count=1, epochs=1,
                     updates_per_epoch=1, eval_episodes=1)
    with pytest.raises(ConfigError, match="^" + re.escape(
            "dataset has 4-d states and 2-d actions, but 'pendulum' has 3-d states "
            "and 1-d actions") + "$"):
        loop.train(wide, GAP, cfg, HP, seed=0, gan_hp=GAN_HP, gan_store=tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("variant", loop.VARIANTS)
def test_train_draws_offline_rows_from_the_dataset_block(tmp_path, monkeypatch, pend_random,
                                                         variant):
    """Every variant builds one ReplayBuffer, the simulator replay, and each
    variant that draws offline rows draws them from the dataset's own rows."""
    capacities, offline_draws = [], []

    class Recorded(ReplayBuffer):
        def __init__(self, capacity, obs_dim, action_dim):
            super().__init__(capacity, obs_dim, action_dim)
            capacities.append(capacity)

    sample_rows = pend_random.rows.sample_rows

    def recorded_sample_rows(n, rng, out=None):
        offline_draws.append(n)
        return sample_rows(n, rng, out)

    monkeypatch.setattr(loop, "ReplayBuffer", Recorded)
    monkeypatch.setattr(pend_random.rows, "sample_rows", recorded_sample_rows)
    cfg = OrisConfig(variant=variant, rollout_horizon=5, rollout_count=1, epochs=1,
                     updates_per_epoch=2, eval_episodes=1)
    loop.train(pend_random, GAP, cfg, HP, seed=0, gan_hp=GAN_HP, gan_store=tmp_path)
    assert capacities == [5]
    per_update = {"sim_only_sac": [], "bc": [HP.batch_off + HP.batch_sim]}
    assert offline_draws == 2 * per_update.get(variant, [HP.batch_off])


@pytest.mark.parametrize("variant", loop.VARIANTS)
def test_each_variant_runs_the_mechanisms_of_its_row(tmp_path, monkeypatch, pend_random,
                                                     variant):
    """A tiny run does what the variant's row of loop.VARIANTS says: it fits
    a GAN if the row needs one, restarts from the generator if its restart
    is "gan", stores simulator weights other than 1 if its weight is "disc",
    draws offline rows if it is offline, and collects nothing if its learner
    is "bc"."""
    row = loop.VARIANTS[variant]
    g = rigged_gan([1.0, 0.0, 0.0])
    g.discriminator.biases[-1][:] = np.log(0.2 / 0.8)  # D = 0.2: every weight 0.6
    fits, restarts, offline_draws, buffers = [], [], [], []
    real_sample_restart, sample_rows = gan.sample_restart, pend_random.rows.sample_rows

    def pretrain_or_load(*args):
        fits.append(args)
        return g

    def sample_restart(*args):
        restarts.append(args)
        return real_sample_restart(*args)

    def recorded_sample_rows(n, rng, out=None):
        offline_draws.append(n)
        return sample_rows(n, rng, out)

    class Recorded(ReplayBuffer):
        def __init__(self, *args):
            super().__init__(*args)
            buffers.append(self)

    monkeypatch.setattr(gan, "pretrain_or_load", pretrain_or_load)
    monkeypatch.setattr(gan, "sample_restart", sample_restart)
    monkeypatch.setattr(pend_random.rows, "sample_rows", recorded_sample_rows)
    monkeypatch.setattr(loop, "ReplayBuffer", Recorded)
    cfg = OrisConfig(variant=variant, rollout_horizon=5, rollout_count=2, epochs=1,
                     updates_per_epoch=2, eval_episodes=1)
    loop.train(pend_random, GAP, cfg, HP, seed=0, gan_hp=GAN_HP, gan_store=tmp_path)
    (buf,) = buffers
    sim_weights = stored_columns(buf)[-1][:len(buf)]
    assert len(fits) == row.needs_gan
    assert bool(restarts) == (row.restart == "gan")
    assert bool(np.any(sim_weights != 1.0)) == (row.weight == "disc")
    assert bool(offline_draws) == row.offline
    assert (len(buf) == 0) == (row.learner == "bc")


def test_train_oris_uses_discriminator_weights(tmp_path, monkeypatch, pend_random):
    """With a rigged discriminator at D = 0.2 every sim weight is 0.6."""
    g = rigged_gan([1.0, 0.0, 0.0])
    g.discriminator.biases[-1][:] = np.log(0.2 / 0.8)
    monkeypatch.setattr(gan, "pretrain_or_load", lambda states, hp, rng, store: g)
    cfg = OrisConfig(variant="oris", rollout_horizon=5, rollout_count=2,
                     epochs=1, updates_per_epoch=2, eval_episodes=1)
    _, reports = loop.train(pend_random, GAP, cfg, HP, seed=2, gan_hp=GAN_HP, gan_store=tmp_path)
    assert reports[0].mean_sim_weight == pytest.approx(0.6, abs=1e-12)


def test_train_bc_runs_without_simulator(tmp_path, pend_random):
    cfg = OrisConfig(variant="bc", epochs=2, updates_per_epoch=20,
                     eval_episodes=1)
    _, reports = loop.train(pend_random, GAP, cfg, HP, seed=0, gan_hp=GAN_HP, gan_store=tmp_path)
    assert [r.env_steps for r in reports] == [0, 0]
    assert reports[1].actor_loss < reports[0].actor_loss
