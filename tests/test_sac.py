import copy
import json
import math
from pathlib import Path
import warnings

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from oris import gan, nets, sac
from oris.errors import ContractError, NumericsError

import oracles

DATA = Path(__file__).parent / "data"


def tiny_agent(seed=0, obs_dim=3, action_dim=1, scale=2.0, dtype=np.float64, **hp_kw):
    """A float64 agent unless asked otherwise: the oracles' precision."""
    hp = sac.SacHparams(hidden=(8, 8), **hp_kw)
    return sac.SacAgent.create(obs_dim, action_dim, scale, hp, seed, dtype=dtype)


def random_batch(rng, n_off, n_sim, obs_dim=3, act_dim=1, weights=None):
    """Columns (S, A, R, S2, D) of n_off offline rows then n_sim simulator rows,
    and their weights: 1 for offline rows, `weights` (default 1) for sim rows."""
    def part(n):
        return (rng.normal(size=(n, obs_dim)), rng.uniform(-1, 1, size=(n, act_dim)),
                rng.normal(size=n), rng.normal(size=(n, obs_dim)),
                (rng.uniform(size=n) < 0.2).astype(np.float64))

    columns = tuple(np.concatenate(p) for p in zip(part(n_off), part(n_sim)))
    sim_w = np.ones(n_sim) if weights is None else np.asarray(weights, dtype=np.float64)
    return columns, np.concatenate([np.ones(n_off), sim_w])


def naive_log_prob(agent, S, noise):
    """Independent tanh-Gaussian log-density, naive formulas."""
    out = nets.forward_batch(agent.actor, S)
    A = agent.action_dim
    mu = out[:, :A]
    log_std = np.clip(out[:, A:], sac.LOG_STD_MIN, sac.LOG_STD_MAX)
    std = np.exp(log_std)
    u = mu + std * noise
    gauss = np.sum(-0.5 * ((u - mu) / std) ** 2 - np.log(std) - 0.5 * np.log(2 * np.pi), axis=1)
    jac = np.sum(np.log(agent.action_scale * (1.0 - np.tanh(u) ** 2)), axis=1)
    return gauss - jac


def test_log_prob_matches_naive_formula():
    agent = tiny_agent(seed=1)
    rng = np.random.default_rng(2)
    S = rng.normal(size=(32, 3))
    noise = rng.standard_normal((32, 1))
    sample = sac.sample_actions(agent, S, noise=noise)
    np.testing.assert_allclose(sample.log_prob, naive_log_prob(agent, S, noise),
                               rtol=1e-10, atol=1e-10)


def test_log_prob_is_a_normalized_density():
    # integrate exp(logp) over the 1-D action interval by quadrature
    agent = tiny_agent(seed=3)
    # shrink weights so sigma stays near 1 and mu near 0
    for w in agent.actor.weights:
        w *= 0.3
    rng = np.random.default_rng(4)
    s = rng.normal(size=3)
    out = nets.forward_batch(agent.actor, s[None, :])[0]
    mu, log_std = out[0], float(np.clip(out[1], sac.LOG_STD_MIN, sac.LOG_STD_MAX))
    std, scale = math.exp(log_std), agent.action_scale

    def density(a):
        u = np.arctanh(np.clip(a / scale, -1 + 1e-12, 1 - 1e-12))
        logn = -0.5 * ((u - mu) / std) ** 2 - math.log(std) - 0.5 * math.log(2 * math.pi)
        return np.exp(logn) / (scale * (1.0 - np.tanh(u) ** 2))

    total = oracles.gauss_legendre_integral(density, -scale + 1e-9, scale - 1e-9, n=400)
    assert total == pytest.approx(1.0, abs=1e-6)
    # and the packaged log_prob agrees with this density at sampled points
    noise = np.array([[0.3]])
    sample = sac.sample_actions(agent, s[None, :], noise=noise)
    assert sample.log_prob[0] == pytest.approx(
        float(np.log(density(sample.action[0, 0]))), abs=1e-8)


def test_act_modes_and_bounds():
    agent = tiny_agent(seed=5)
    rng = np.random.default_rng(6)
    s = rng.normal(size=(1, 3))
    det = sac.act(agent, s, "deterministic")
    out = nets.forward_batch(agent.actor, s)
    assert det.shape == (1, 1)
    assert det[0, 0] == pytest.approx(2.0 * np.tanh(out[0, 0]), abs=1e-12)
    a1 = sac.act(agent, s, "stochastic", np.random.default_rng(7))
    a2 = sac.act(agent, s, "stochastic", np.random.default_rng(7))
    a3 = sac.act(agent, s, "stochastic", np.random.default_rng(8))
    assert a1[0, 0] == a2[0, 0] and a1[0, 0] != a3[0, 0]
    for a in (det, a1, a3):
        assert abs(a[0, 0]) <= agent.action_scale
    batch = sac.act(agent, rng.normal(size=(5, 3)), "stochastic", rng)
    assert batch.shape == (5, 1) and np.all(np.abs(batch) <= agent.action_scale)
    with pytest.raises(ContractError):
        sac.act(agent, s, "greedy")
    with pytest.raises(ContractError):
        sac.act(agent, np.zeros((1, 4)), "deterministic")
    with pytest.raises(ContractError):
        sac.act(agent, np.zeros(3), "deterministic")  # a batch, not one state
    with pytest.raises(ContractError):
        sac.act(agent, s, "stochastic")


def test_actor_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    agent = tiny_agent(seed=10, obs_dim=2, action_dim=1)
    for w in agent.actor.weights:
        w *= 0.5
    S = rng.normal(size=(4, 2))
    noise = rng.standard_normal((4, 1))

    # make sure no sample sits on the twin-critic tie or the log-std clip
    sample = sac.sample_actions(agent, S, noise=noise)
    x = np.concatenate([S, sample.action], axis=1)
    q1, q2 = nets.forward_batch(agent.critics, x)[..., 0]
    assert np.min(np.abs(q1 - q2)) > 1e-4
    assert np.all(sample.clip_mask == 1.0)

    loss0, grads, _ = sac.actor_loss_and_grads(agent, S, noise)
    p0 = oracles.get_flat_params(agent.actor)

    def loss_of(flat):
        oracles.set_flat_params(agent.actor, flat)
        out = nets.forward_batch(agent.actor, S)
        mu = out[:, :1]
        log_std = np.clip(out[:, 1:], sac.LOG_STD_MIN, sac.LOG_STD_MAX)
        u = mu + np.exp(log_std) * noise
        a = agent.action_scale * np.tanh(u)
        xx = np.concatenate([S, a], axis=1)
        qa, qb = (nets.forward_batch(c, xx)[:, 0] for c in nets.unstack(agent.critics))
        lp = naive_log_prob(agent, S, noise)
        return float(np.mean(-np.minimum(qa, qb) + agent.temperature * lp))

    assert loss_of(p0) == pytest.approx(loss0, abs=1e-12)
    fd = oracles.fd_grad(loss_of, p0)
    oracles.set_flat_params(agent.actor, p0)
    assert oracles.max_rel_err(grads, fd) < 1e-4


def test_actor_gradients_with_override_critic():
    rng = np.random.default_rng(11)
    agent = tiny_agent(seed=12, obs_dim=2, action_dim=2, scale=1.5)
    for w in agent.actor.weights:
        w *= 0.5
    S = rng.normal(size=(3, 2))
    noise = rng.standard_normal((3, 2))
    a_star = np.array([0.4, -0.3])

    def bowl(_S, A):
        return -np.sum((A - a_star) ** 2, axis=1), -2.0 * (A - a_star)

    loss0, grads, _ = sac.actor_loss_and_grads(agent, S, noise, q_and_grad=bowl)
    p0 = oracles.get_flat_params(agent.actor)

    def loss_of(flat):
        oracles.set_flat_params(agent.actor, flat)
        out = nets.forward_batch(agent.actor, S)
        mu, ks = out[:, :2], out[:, 2:]
        log_std = np.clip(ks, sac.LOG_STD_MIN, sac.LOG_STD_MAX)
        u = mu + np.exp(log_std) * noise
        a = agent.action_scale * np.tanh(u)
        q = -np.sum((a - a_star) ** 2, axis=1)
        lp = naive_log_prob(agent, S, noise)
        return float(np.mean(-q + agent.temperature * lp))

    assert loss_of(p0) == pytest.approx(loss0, abs=1e-12)
    fd = oracles.fd_grad(loss_of, p0)
    oracles.set_flat_params(agent.actor, p0)
    assert oracles.max_rel_err(grads, fd) < 1e-4


def test_actor_update_converges_to_bowl_optimum():
    agent = tiny_agent(seed=13, obs_dim=2, action_dim=1, scale=2.0, actor_lr=1e-2)
    rng = np.random.default_rng(14)
    S = rng.normal(size=(16, 2))
    a_star = 0.8

    def bowl(_S, A):
        return -10.0 * (A[:, 0] - a_star) ** 2, -20.0 * (A - a_star)

    for _ in range(600):
        sac.actor_update(agent, S, rng, q_and_grad=bowl)
    acts = sac.act(agent, S, "deterministic")[:, 0]
    assert np.all(np.abs(acts - a_star) < 0.15)


def test_temperature_first_step_direction():
    # one dual step moves the temperature against the entropy gap
    def flat_q(_S, A):
        return np.zeros(A.shape[0]), np.zeros_like(A)

    for seed in (15, 16, 17):
        agent = tiny_agent(seed=seed)
        S = np.random.default_rng(seed + 100).normal(size=(32, 3))
        # mirror the update's noise draw to know the entropy it will see
        noise = np.random.default_rng(seed + 200).standard_normal((32, agent.action_dim))
        probe = sac.sample_actions(agent, S, noise)
        gap = float(np.mean(probe.log_prob)) + agent.target_entropy
        t0 = agent.temperature
        sac.actor_update(agent, S, np.random.default_rng(seed + 200), q_and_grad=flat_q)
        if gap > 0:  # entropy below target: temperature must rise
            assert agent.temperature > t0
        elif gap < 0:
            assert agent.temperature < t0


def test_bellman_targets_hand_cases():
    agent = tiny_agent(seed=17, obs_dim=2, action_dim=1)
    # rig targets to constants: Q_t1 = 1.5, Q_t2 = -0.5 for every input
    for w in agent.targets.weights:
        w[...] = 0.0
    agent.targets.biases[-1][:, 0] = (1.5, -0.5)
    rng = np.random.default_rng(18)
    S2, R = np.array([[0.4, 0.5]]), np.array([2.0])
    y_done = sac.bellman_targets(agent, S2, R, np.array([1.0]), rng)
    assert y_done[0] == pytest.approx(2.0, abs=1e-12)
    # mirror the draw to recover log pi(a'|s')
    probe = np.random.default_rng(19)
    y = sac.bellman_targets(agent, S2, R, np.array([0.0]), np.random.default_rng(19))
    sample = sac.sample_actions(agent, S2, probe.standard_normal((len(S2), agent.action_dim)))
    expect = 2.0 + agent.hparams.gamma * (-0.5 - agent.temperature * sample.log_prob[0])
    assert y[0] == pytest.approx(expect, abs=1e-12)


def test_critic_gradients_match_finite_differences():
    rng = np.random.default_rng(20)
    agent = tiny_agent(seed=21)
    (S, A, *_), w = random_batch(rng, 5, 4, weights=rng.uniform(0.1, 1.0, size=4))
    targets = rng.normal(size=9)
    loss0, grads, _ = sac.critic_loss_and_grads(agent, S, A, w, targets)
    x = np.concatenate([S, A], axis=1)
    for critic, g in zip(nets.unstack(agent.critics), grads):
        def loss_of(flat):
            oracles.set_flat_params(critic, flat)
            q = nets.forward_batch(critic, x)[:, 0]
            e = q - targets
            return float(np.sum(w * e * e) / len(w))

        fd = oracles.fd_grad(loss_of, oracles.get_flat_params(critic))
        assert oracles.max_rel_err(g, fd) < 1e-6


def test_weighted_loss_value_hand_case():
    agent = tiny_agent(seed=22)
    rng = np.random.default_rng(23)
    (S, A, *_), w = random_batch(rng, 2, 2, weights=np.array([0.5, 2.0]))
    targets = np.zeros(4)
    loss, _, errs = sac.critic_loss_and_grads(agent, S, A, w, targets)
    e1, e2 = errs
    expect = 0.5 * ((e1[0] ** 2 + e1[1] ** 2 + 0.5 * e1[2] ** 2 + 2.0 * e1[3] ** 2) / 4
                    + (e2[0] ** 2 + e2[1] ** 2 + 0.5 * e2[2] ** 2 + 2.0 * e2[3] ** 2) / 4)
    assert loss == pytest.approx(expect, rel=1e-12)


def test_zero_weight_rows_change_nothing_but_count():
    # duplicating a sim row at half weight, padded with a zero-weight row,
    # leaves the loss unchanged
    agent = tiny_agent(seed=24)
    rng = np.random.default_rng(25)
    row, _ = random_batch(rng, 0, 1)
    S, A = (np.concatenate([v, v]) for v in row[:2])
    targets2 = np.zeros(2)
    l1, _, _ = sac.critic_loss_and_grads(agent, S, A, np.array([0.5, 0.0]), targets2)
    l2, _, _ = sac.critic_loss_and_grads(agent, S, A, np.array([0.25, 0.25]), targets2)
    assert l1 == pytest.approx(l2, rel=1e-14)


def test_unit_weight_update_equals_pooled_unweighted_update():
    # the weighted path with w = 1 must match a from-scratch pooled MSE update
    agent = tiny_agent(seed=26)
    clone = copy.deepcopy(agent)
    rng = np.random.default_rng(27)
    batch, w = random_batch(rng, 6, 6)  # weights default to ones
    sac.critic_update(agent, batch, w, np.random.default_rng(28))

    # reference: every row, single mean-squared loss, each critic a net of its own
    S, A, R, S2, D = batch
    critics, targets = nets.unstack(clone.critics), nets.unstack(clone.targets)
    ref_rng = np.random.default_rng(28)
    sample = sac.sample_actions(clone, S2, ref_rng.standard_normal((len(S2), clone.action_dim)))
    x2 = np.concatenate([S2, sample.action], axis=1)
    qt = np.minimum(nets.forward_batch(targets[0], x2)[:, 0],
                    nets.forward_batch(targets[1], x2)[:, 0])
    y = R + (1.0 - D) * clone.hparams.gamma * (qt - clone.temperature * sample.log_prob)
    x = np.concatenate([S, A], axis=1)
    n = x.shape[0]
    for critic, target in zip(critics, targets):
        q = nets.forward_batch(critic, x)[:, 0]
        e = q - y
        g = nets.backward_batch(critic, (2.0 * e / n)[:, None])
        nets.adam_step(critic, g, nets.AdamState.for_net(critic, clone.hparams.critic_lr))
        nets.soft_update(target, critic, clone.hparams.tau)

    for stacked, members in ((agent.critics, critics), (agent.targets, targets)):
        for row, member in zip(stacked.params, members):
            assert np.max(np.abs(row - member.params)) < 1e-12


def test_update_pair_kernel_calls(monkeypatch):
    """The twin critics and their targets are stacks, so one critic_update and
    one actor_update make each critic-side kernel call once for both."""
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("forward_batch", "backward_batch", "backward_input", "adam_step",
                 "soft_update"):
        monkeypatch.setattr(nets, name, counted(name, getattr(nets, name)))
    _update_pair(tiny_agent(seed=52, dtype=np.float32), 0)
    assert calls == {"forward_batch": 5, "backward_batch": 2, "backward_input": 1,
                     "adam_step": 2, "soft_update": 1}


def test_critic_update_reports_nonfinite_target_row():
    agent = tiny_agent(seed=31)
    agent.targets.biases[-1][...] = 1e308
    rng = np.random.default_rng(32)
    batch, w = random_batch(rng, 2, 2)
    with pytest.raises(NumericsError) as exc:
        sac.critic_update(agent, batch, w, rng)
    assert "row" in str(exc.value)


def test_actor_update_reports_nonfinite_loss_row():
    # a critic value of inf at row 3 makes that row's -min Q + temp log pi
    # non-finite; the update raises before it changes anything
    agent = tiny_agent(seed=35)
    S = np.random.default_rng(36).normal(size=(5, 3))

    def q_and_grad(_S, A):
        q = np.zeros(len(A))
        q[3] = np.inf
        return q, np.zeros_like(A)

    before = oracles.get_flat_params(agent.actor), agent.log_temperature
    with pytest.raises(NumericsError, match="non-finite actor loss at batch row 3$"):
        sac.actor_update(agent, S, np.random.default_rng(37), q_and_grad=q_and_grad)
    np.testing.assert_array_equal(oracles.get_flat_params(agent.actor), before[0])
    assert agent.log_temperature == before[1]
    # finite rows whose sum overflows name no row
    huge = lambda _S, A: (np.full(len(A), 1e308), np.zeros_like(A))
    with np.errstate(over="ignore"), pytest.raises(NumericsError, match="sum overflows"):
        sac.actor_update(agent, S, np.random.default_rng(37), q_and_grad=huge)


def test_weighted_batch_validation():
    # critic_update takes one finite, non-negative weight per row and changes
    # nothing when it rejects them
    agent = tiny_agent(seed=33)
    rng = np.random.default_rng(34)
    batch, _ = random_batch(rng, 0, 3, obs_dim=3)
    before = {name: oracles.get_flat_params(getattr(agent, name))
              for name in ("critics", "targets")}
    state = rng.bit_generator.state
    empty = tuple(c[:0] for c in batch)
    for cols, w in ((batch, np.array([1.0, 1.0])),
                    (batch, np.ones((3, 1))),
                    (batch, np.array([1.0, -0.1, 1.0])),
                    (batch, np.array([1.0, np.nan, 1.0])),
                    (batch, np.array([1.0, np.inf, 1.0])),
                    (empty, np.zeros(0))):
        with pytest.raises(ContractError):
            sac.critic_update(agent, cols, w, rng)
    assert rng.bit_generator.state == state
    assert agent.update_count == 0
    for name, p in before.items():
        np.testing.assert_array_equal(oracles.get_flat_params(getattr(agent, name)), p)
    sac.critic_update(agent, batch, np.array([1.0, 0.7, 0.0]), rng)
    assert agent.update_count == 1


def test_bc_update_gradients_and_progress():
    rng = np.random.default_rng(34)
    agent = tiny_agent(seed=35, obs_dim=2, action_dim=1, actor_lr=3e-3)
    S = rng.normal(size=(12, 2))
    A_target = np.clip(0.9 * np.tanh(S[:, :1]), -1.9, 1.9)

    # finite-difference check of one step's gradient
    p0 = oracles.get_flat_params(agent.actor)
    out = nets.forward_batch(agent.actor, S)
    mu = out[:, :1]
    e = agent.action_scale * np.tanh(mu) - A_target
    g_mu = (2.0 / 12) * e * agent.action_scale * (1.0 - np.tanh(mu) ** 2)
    grads = nets.backward_batch(agent.actor, np.concatenate([g_mu, np.zeros_like(g_mu)], axis=1))

    def loss_of(flat):
        oracles.set_flat_params(agent.actor, flat)
        out = nets.forward_batch(agent.actor, S)
        a = agent.action_scale * np.tanh(out[:, :1])
        return float(np.sum((a - A_target) ** 2) / 12)

    fd = oracles.fd_grad(loss_of, p0)
    oracles.set_flat_params(agent.actor, p0)
    assert oracles.max_rel_err(grads, fd) < 1e-5

    losses = [sac.bc_update(agent, S, A_target) for _ in range(400)]
    assert losses[-1] < 0.05 * losses[0]


def test_agent_save_load_roundtrip(tmp_path):
    agent = tiny_agent(seed=36)
    rng = np.random.default_rng(37)
    batch, w = random_batch(rng, 4, 4)
    sac.critic_update(agent, batch, w, rng)
    sac.actor_update(agent, batch[0], rng)
    sac.save_agent(agent, tmp_path / "agent")
    loaded = sac.load_agent(tmp_path / "agent")
    for name in ("actor", "critics", "targets"):
        np.testing.assert_array_equal(oracles.get_flat_params(getattr(agent, name)),
                                      oracles.get_flat_params(getattr(loaded, name)))
    assert loaded.critics.init_seed == agent.critics.init_seed
    assert loaded.targets.init_seed == agent.targets.init_seed
    assert loaded.log_temperature == agent.log_temperature
    assert loaded.action_scale == agent.action_scale
    assert loaded.update_count == agent.update_count
    s = rng.normal(size=(1, 3))
    np.testing.assert_array_equal(sac.act(agent, s, "deterministic"),
                                  sac.act(loaded, s, "deterministic"))
    with pytest.raises((ContractError, FileNotFoundError)):
        sac.load_agent(tmp_path / "nope")


def _update_pair(agent, seed):
    rng = np.random.default_rng(seed)
    batch, w = random_batch(rng, 4, 4, weights=np.full(4, 0.5))
    sac.critic_update(agent, batch, w, rng)
    sac.actor_update(agent, batch[0], rng)


def _agent_bits(agent):
    return ([getattr(agent, n).params.tobytes() for n in ("actor", "critics", "targets")],
            repr(agent.log_temperature))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_saved_agent_keeps_its_optimizers(tmp_path, dtype):
    """A reloaded agent's next update pair gives the saved agent's bits: the
    three Adam states and the temperature optimizer come back with it."""
    agent = tiny_agent(seed=50, dtype=dtype)
    for seed in range(3):
        _update_pair(agent, seed)
    sac.save_agent(agent, tmp_path / "a")
    loaded = sac.load_agent(tmp_path / "a")
    for name in ("actor", "critics"):
        got, want = getattr(loaded, f"opt_{name}"), getattr(agent, f"opt_{name}")
        assert got.step_count == want.step_count == 3
        assert got.m.dtype == want.m.dtype == dtype
        assert got.m.tobytes() == want.m.tobytes() and got.v.tobytes() == want.v.tobytes()
        assert (got.learning_rate, got.beta1, got.beta2, got.epsilon) == \
            (want.learning_rate, want.beta1, want.beta2, want.epsilon)
    assert loaded.opt_temperature == agent.opt_temperature
    _update_pair(agent, 9)
    _update_pair(loaded, 9)
    assert _agent_bits(loaded) == _agent_bits(agent)


def test_optimizer_state_must_fit_its_net(tmp_path):
    agent = tiny_agent(seed=51)
    nets.save_adam(agent.opt_actor, tmp_path / "opt.adam")
    loaded = nets.load_adam(tmp_path / "opt.adam", agent.actor)
    assert loaded.m.tobytes() == agent.opt_actor.m.tobytes()
    with pytest.raises(ContractError):
        nets.load_adam(tmp_path / "opt.adam", nets.unstack(agent.critics)[0])  # other size
    with pytest.raises(ContractError):
        nets.load_adam(tmp_path / "opt.adam", nets.MlpNet.he_uniform(
            agent.actor.layer_sizes, dtype=np.float32))  # other dtype
    with pytest.raises(ContractError):
        nets.load_checkpoint(tmp_path / "opt.adam")  # not a net
    # the twin critics share one Adam state, so their files must agree
    _update_pair(agent, 0)
    sac.save_agent(agent, tmp_path / "a")
    saved = tmp_path / "a" / "opt_critic2.adam"
    header, blob = saved.read_bytes().split(b"\n", 1)
    saved.write_bytes(header.replace(b'"step_count": 1', b'"step_count": 2') + b"\n" + blob)
    with pytest.raises(ContractError, match="step counts"):
        sac.load_agent(tmp_path / "a")


@given(seed=st.integers(0, 2 ** 32 - 1), dtype=st.sampled_from([np.float32, np.float64]))
@settings(max_examples=40, deadline=None)
def test_min_max_clip_matches_np_clip_bitwise(seed, dtype):
    """sample_actions and act clip the log-std head with minimum(maximum(...)):
    np.clip's bits, NaN and infinities included."""
    rng = np.random.default_rng(seed)
    x = (rng.normal(size=64) * 10.0 ** rng.uniform(-3, 3, size=64)).astype(dtype)
    x[rng.integers(0, 64, size=3)] = [np.nan, np.inf, -np.inf]
    x[rng.integers(0, 64, size=2)] = [sac.LOG_STD_MIN, sac.LOG_STD_MAX]
    got = np.minimum(np.maximum(x, sac.LOG_STD_MIN), sac.LOG_STD_MAX)
    want = np.clip(x, sac.LOG_STD_MIN, sac.LOG_STD_MAX)
    assert got.dtype == want.dtype == dtype and got.tobytes() == want.tobytes()


def test_agent_create_defaults_and_validation():
    agent = tiny_agent(seed=38, obs_dim=4, action_dim=2)
    assert agent.target_entropy == -2.0
    np.testing.assert_array_equal(oracles.get_flat_params(agent.critics),
                                  oracles.get_flat_params(agent.targets))
    assert agent.critics.stack_size == 2
    assert agent.actor.out_dim == 4
    assert agent.critics.in_dim == 6
    with pytest.raises(ContractError):
        sac.SacAgent.create(0, 1, 1.0, sac.SacHparams(), 0)
    with pytest.raises(ContractError):
        sac.SacHparams(gamma=1.5)
    with pytest.raises(ContractError):
        sac.SacHparams(init_temperature=0.0)


def test_updates_are_deterministic_given_seed():
    def run():
        agent = tiny_agent(seed=39)
        rng = np.random.default_rng(40)
        for _ in range(5):
            batch, w = random_batch(rng, 4, 4, weights=np.full(4, 0.6))
            sac.critic_update(agent, batch, w, rng)
            sac.actor_update(agent, batch[0], rng)
        return np.concatenate([oracles.get_flat_params(agent.actor),
                               oracles.get_flat_params(agent.critics)[0],
                               [agent.log_temperature]])

    np.testing.assert_array_equal(run(), run())


def test_deepcopied_agent_keeps_flat_param_views():
    agent = tiny_agent(seed=30)
    clone = copy.deepcopy(agent)
    for name in ("actor", "critics", "targets"):
        a, c = getattr(agent, name), getattr(clone, name)
        assert all(np.shares_memory(c.params, x) for x in c.weights + c.biases)
        assert not np.shares_memory(a.params, c.params)
    before = oracles.get_flat_params(agent.actor)
    sac.actor_update(clone, np.random.default_rng(31).normal(size=(8, 3)),
                     np.random.default_rng(32))
    assert not np.array_equal(oracles.get_flat_params(clone.actor), before)
    np.testing.assert_array_equal(oracles.get_flat_params(agent.actor), before)


def test_float32_agent_save_load_roundtrip_is_bitwise(tmp_path):
    agent = tiny_agent(seed=41, dtype=np.float32)
    rng = np.random.default_rng(42)
    batch, w = random_batch(rng, 4, 4)
    sac.critic_update(agent, batch, w, rng)
    sac.actor_update(agent, batch[0], rng)
    sac.save_agent(agent, tmp_path / "a")
    loaded = sac.load_agent(tmp_path / "a")
    for name in ("actor", "critics", "targets"):
        net = getattr(loaded, name)
        assert net.dtype == np.float32 and net.params.dtype == np.float32
        assert np.array_equal(net.params, getattr(agent, name).params)
    for name in sac.AGENT_NETS:
        header = (tmp_path / "a" / f"{name}.mlp").read_bytes().split(b"\n", 1)[0]
        assert json.loads(header)["dtype"] == "<f4"
    for opt in (loaded.opt_actor, loaded.opt_critics):
        assert opt.m.dtype == opt.v.dtype == np.float32
    s = rng.normal(size=(1, 3))
    assert np.array_equal(sac.act(agent, s, "deterministic"),
                          sac.act(loaded, s, "deterministic"))
    assert np.array_equal(sac.act(agent, s, "stochastic", np.random.default_rng(1)),
                          sac.act(loaded, s, "stochastic", np.random.default_rng(1)))
    sac.save_agent(loaded, tmp_path / "b")
    for name in sac.AGENT_NETS:
        assert ((tmp_path / "a" / f"{name}.mlp").read_bytes()
                == (tmp_path / "b" / f"{name}.mlp").read_bytes())


def test_float64_agent_fixture_loads_unchanged(tmp_path):
    """tests/data/agent_f8 is a float64 agent directory whose Adam states are
    at step 0, with the actions that agent took next to it."""
    src = DATA / "agent_f8"
    want = json.loads((DATA / "agent_f8_actions.json").read_text())
    agent = sac.load_agent(src)
    for name in ("actor", "critics"):  # optimizers that have taken no step
        opt = getattr(agent, f"opt_{name}")
        assert opt.step_count == 0 and opt.m.shape == getattr(agent, name).params.shape
        assert opt.m.dtype == np.float64 and not opt.m.any() and not opt.v.any()
    assert agent.opt_temperature == nets.ScalarAdam(agent.hparams.temperature_lr)
    loaded = dict(zip(sac.AGENT_NETS, [agent.actor, *nets.unstack(agent.critics),
                                       *nets.unstack(agent.targets)]))
    for name, net in loaded.items():
        header, blob = (src / f"{name}.mlp").read_bytes().split(b"\n", 1)
        assert json.loads(header)["dtype"] == "<f8"
        assert net.init_seed == json.loads(header)["init_seed"]
        assert net.dtype == np.float64
        assert net.params.tobytes() == np.frombuffer(blob, dtype="<f8").tobytes()
    for s, det, sto in zip(want["states"], want["deterministic"], want["stochastic_seed7"]):
        assert sac.act(agent, np.array([s]), "deterministic")[0].tolist() == det
        assert sac.act(agent, np.array([s]), "stochastic",
                       np.random.default_rng(7))[0].tolist() == sto
    # saved again, it writes the fixture's bytes, file for file
    sac.save_agent(agent, tmp_path / "again")
    assert sorted(p.name for p in (tmp_path / "again").iterdir()) == sorted(
        p.name for p in src.iterdir())
    for p in src.iterdir():
        assert (tmp_path / "again" / p.name).read_bytes() == p.read_bytes()


def test_float32_critic_error_guard_raises_without_warnings():
    agent = tiny_agent(seed=43, dtype=np.float32)
    agent.targets.biases[-1][...] = 1e30  # finite in float32, far past the guard
    rng = np.random.default_rng(44)
    batch, w = random_batch(rng, 2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match="critic error at batch row"):
            sac.critic_update(agent, batch, w, rng)


def _record_dtypes(monkeypatch):
    """Wrap the nets entry points to record the dtype of every output,
    recorded activation, upstream gradient, gradient, Adam moment, Bellman
    target and discriminator probability that passes through them."""
    seen = set()
    forward_batch, backward_batch = nets.forward_batch, nets.backward_batch
    backward_input, adam_step = nets.backward_input, nets.adam_step
    bellman_targets, sigmoid = sac.bellman_targets, gan._sigmoid

    def fwd(net, x):
        out = forward_batch(net, x)
        seen.update(a.dtype for a in (out, *net._acts))
        return out

    def bwd(net, grad_out):
        g = backward_batch(net, grad_out)
        seen.update((grad_out.dtype, g.dtype))
        return g

    def bwd_input(net, grad_out):
        d = backward_input(net, grad_out)
        seen.update((grad_out.dtype, d.dtype))
        return d

    def adam(net, grads, opt):
        adam_step(net, grads, opt)
        seen.update(a.dtype for a in (net.params, grads, opt.m, opt.v))

    def targets(*args):
        y = bellman_targets(*args)
        seen.add(y.dtype)
        return y

    def probs(z):
        d = sigmoid(z)
        seen.add(d.dtype)
        return d

    for owner, name, fn in ((nets, "forward_batch", fwd), (nets, "backward_batch", bwd),
                            (nets, "backward_input", bwd_input), (nets, "adam_step", adam),
                            (sac, "bellman_targets", targets), (gan, "_sigmoid", probs)):
        monkeypatch.setattr(owner, name, fn)
    return seen


def test_float32_nets_stay_float32_through_updates_and_pretrain(monkeypatch):
    seen = _record_dtypes(monkeypatch)
    agent = tiny_agent(seed=45, dtype=np.float32)
    rng = np.random.default_rng(46)
    batch, w = random_batch(rng, 8, 8, weights=np.full(8, 0.4))
    sac.critic_update(agent, batch, w, rng)
    sac.actor_update(agent, batch[0], rng)
    sac.bc_update(agent, batch[0], batch[1])
    sac.act(agent, batch[0][:1], "stochastic", rng)
    states = rng.normal(size=(200, 2))
    pair, _ = gan.pretrain(states, gan.GanHparams(z_dim=2, hidden=(8,), iterations=3,
                                                  batch_size=16), rng)
    gan.weight_of_batch(pair, states[:5])
    assert seen == {np.dtype(np.float32)}
    for net in (agent.actor, agent.critics, agent.targets, pair.generator, pair.discriminator):
        assert net.params.dtype == np.float32
    for opt in (agent.opt_actor, agent.opt_critics):
        assert opt.m.dtype == opt.v.dtype == np.float32


def test_float32_and_float64_agents_draw_the_same_random_numbers():
    states = []
    for dtype in (np.float32, np.float64):
        agent = tiny_agent(seed=47, dtype=dtype)
        data_rng = np.random.default_rng(48)
        batch, w = random_batch(data_rng, 8, 8)
        rng = np.random.default_rng(49)
        sac.critic_update(agent, batch, w, rng)
        sac.actor_update(agent, batch[0], rng)
        states.append(rng.bit_generator.state)
    assert states[0] == states[1]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_act_is_sample_actions_action_bitwise(dtype):
    agent = tiny_agent(seed=50, obs_dim=3, action_dim=2, dtype=dtype)
    for n in (1, 20):
        S = np.random.default_rng(51).normal(size=(n, 3))
        r1, r2 = np.random.default_rng(52), np.random.default_rng(52)
        a = sac.act(agent, S, "stochastic", r1)
        b = sac.sample_actions(agent, S, r2.standard_normal((n, 2))).action
        assert a.shape == (n, 2) and a.dtype == dtype and np.array_equal(a, b)
        assert r1.bit_generator.state == r2.bit_generator.state
        det = sac.act(agent, S, "deterministic")
        out = nets.forward_batch(agent.actor, S)
        assert np.array_equal(det, agent.action_scale * np.tanh(out[:, :2]))
