import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oris import envs
from oris.errors import ContractError, InvalidStateError, NumericsError, UsageError


def pendulum(perturbation=envs.UNPERTURBED):
    return envs.make_env(envs.EnvSpec("pendulum", perturbation))


def pointgoal(perturbation=envs.UNPERTURBED):
    return envs.make_env(envs.EnvSpec("pointgoal", perturbation))


def _wrap_with_where(x):
    """wrap_angle as written with np.where, the reference for its bytes."""
    w = x - 2.0 * np.pi * np.floor((x + np.pi) / (2.0 * np.pi))
    return np.where(w <= -np.pi, np.pi, w)


def test_wrap_angle_range_and_boundaries():
    for x in (np.pi, -np.pi, 7.0, -0.0, 3.0 * np.pi, -1e-300):  # Python floats
        w = envs.wrap_angle(x)
        assert w.shape == () and w.tobytes() == _wrap_with_where(x).tobytes()
    assert envs.wrap_angle(np.pi) == pytest.approx(np.pi)
    assert envs.wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert envs.wrap_angle(np.pi + 0.1) == pytest.approx(-np.pi + 0.1)
    assert envs.wrap_angle(7.0 * np.pi) == pytest.approx(np.pi)
    for x in np.linspace(-20, 20, 401):
        w = envs.wrap_angle(x)
        assert -np.pi < w <= np.pi
        assert np.cos(w) == pytest.approx(np.cos(x), abs=1e-9)
        assert np.sin(w) == pytest.approx(np.sin(x), abs=1e-9)


_WRAP_EDGE = np.nextafter(envs.WRAP_SAFE, 0.0)


@given(x=st.floats(-envs.WRAP_SAFE, envs.WRAP_SAFE, exclude_min=True, exclude_max=True))
@example(x=0.0)
@example(x=-0.0)
@example(x=_WRAP_EDGE)
@example(x=-_WRAP_EDGE)
def test_wrap_angle_is_the_identity_below_wrap_safe(x):
    """The bound under which a step takes its stored angle as wrapped."""
    x = np.float64(x)
    assert envs.wrap_angle(x).tobytes() == x.tobytes()


def test_wrap_angle_moves_angles_just_below_pi():
    """Why WRAP_SAFE is not pi: just below pi, (x + pi) / (2 pi) rounds up
    to 1; at -pi the result lands on -pi and is moved to pi."""
    assert envs.wrap_angle(np.nextafter(np.pi, 0.0)) == np.pi
    assert envs.wrap_angle(-np.pi) == np.pi


def test_pendulum_step_matches_hand_computation():
    env = pendulum()
    rng = np.random.default_rng(0)
    theta, theta_dot, u = 1.0, 0.5, 1.5
    env.set_state([[np.cos(theta), np.sin(theta), theta_dot]])
    (obs2,), (r,), (done,) = env.step([[u]], rng)
    # independent arithmetic
    new_td = theta_dot + (1.5 * 10.0 * np.sin(theta) + 3.0 * u - 0.1 * theta_dot) * 0.05
    new_th = theta + new_td * 0.05
    assert obs2[2] == pytest.approx(new_td, abs=1e-12)
    assert np.arctan2(obs2[1], obs2[0]) == pytest.approx(envs.wrap_angle(new_th), abs=1e-12)
    assert r == pytest.approx(-(theta ** 2 + 0.1 * new_td ** 2 + 0.001 * u ** 2), abs=1e-12)
    assert not done


def test_pendulum_upright_is_a_fixed_point_with_zero_reward():
    env = pendulum()
    rng = np.random.default_rng(0)
    env.set_state([[1.0, 0.0, 0.0]])
    obs, r, done = env.step([[0.0]], rng)
    assert r[0] == 0.0
    np.testing.assert_allclose(obs, [[1.0, 0.0, 0.0]], atol=1e-15)


def test_pendulum_speed_clip_and_action_bounds():
    env = pendulum()
    rng = np.random.default_rng(0)
    env.set_state([[np.cos(np.pi / 2), np.sin(np.pi / 2), 7.9]])
    obs, _, _ = env.step([[2.0]], rng)
    assert obs[0, 2] <= 8.0
    with pytest.raises(ContractError):
        env.step([[2.01]], rng)
    with pytest.raises(ContractError):
        env.step([[1.0, 1.0]], rng)
    with pytest.raises(ContractError):
        env.step([1.0], rng)  # one row of actions is (1, action_dim)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluate_policy_rejects_nonfinite_actions(bad):
    with pytest.raises(NumericsError, match="non-finite action"):
        envs.evaluate_policy(envs.EnvSpec.real("pendulum"),
                             lambda obs, rng: np.full((len(obs), 1), bad), 1,
                             np.random.default_rng(0))


def test_pendulum_gravity_scale_changes_accel_linearly():
    # with theta_dot = 0 and u = 0 the whole update is the gravity term
    rng = np.random.default_rng(0)
    theta = 2.0
    obs0 = [np.cos(theta), np.sin(theta), 0.0]
    deltas = {}
    for gs in (1.0, 2.0):
        env = pendulum(envs.DynamicsPerturbation(gravity_scale=gs))
        env.set_state([obs0])
        obs, _, _ = env.step([[0.0]], rng)
        deltas[gs] = obs[0, 2]
    assert deltas[1.0] == pytest.approx(1.5 * 10.0 * np.sin(theta) * 0.05, abs=1e-12)
    assert deltas[2.0] == pytest.approx(2.0 * deltas[1.0], abs=1e-12)


def test_pendulum_friction_scale_damps_spin():
    rng = np.random.default_rng(0)
    final_speed = {}
    for fs in (1.0, 10.0):
        env = pendulum(envs.DynamicsPerturbation(friction_scale=fs))
        env.set_state([[1.0, 0.0, 6.0]])
        for _ in range(50):
            obs, _, _ = env.step([[0.0]], rng)
        final_speed[fs] = abs(obs[0, 2])
    assert final_speed[10.0] < final_speed[1.0]


def test_action_noise_perturbs_but_respects_bounds():
    rng = np.random.default_rng(5)
    noisy = pendulum(envs.DynamicsPerturbation(action_noise_std=100.0))
    noisy.set_state([[0.6, 0.8, 0.0]])
    obs, _, _ = noisy.step([[0.0]], rng)
    theta = np.arctan2(0.8, 0.6)
    drift = (obs[0, 2] - 1.5 * 10.0 * np.sin(theta) * 0.05)
    # effective torque stays within [-2, 2] even under huge noise
    assert abs(drift) <= 3.0 * 2.0 * 0.05 + 1e-9
    clean = pendulum()
    clean.set_state([[0.6, 0.8, 0.0]])
    obs_clean, _, _ = clean.step([[0.0]], np.random.default_rng(5))
    assert obs[0, 2] != obs_clean[0, 2]


def test_pendulum_episode_ends_at_step_limit_only():
    env = pendulum()
    rng = np.random.default_rng(1)
    env.reset(rng, 3)
    for i in range(200):
        _, _, done = env.step(np.zeros((3, 1)), rng)
        assert done.tolist() == [i == 199] * 3
    assert env.num_rows == 0
    with pytest.raises(UsageError):
        env.step(np.zeros((3, 1)), rng)


def test_set_state_renormalizes_and_rejects():
    env = pendulum()
    obs = env.set_state([[2.0 * np.cos(0.3), 2.0 * np.sin(0.3), 0.7]])
    np.testing.assert_allclose(obs, [[np.cos(0.3), np.sin(0.3), 0.7]], atol=1e-12)
    assert env.set_state([[1.0, 0.0, 100.0]])[0, 2] == 8.0
    with pytest.raises(InvalidStateError, match="row 1"):
        env.set_state([[1.0, 0.0, 0.0], [0.05, 0.05, 0.0]])
    with pytest.raises(InvalidStateError, match="row 0"):
        env.set_state([[np.nan, 1.0, 0.0]])
    with pytest.raises(ContractError):
        env.set_state([[1.0, 0.0]])
    with pytest.raises(ContractError):
        env.set_state([1.0, 0.0, 0.0])  # one row of states is (1, obs_dim)


def test_step_before_reset_raises():
    env = pendulum()
    with pytest.raises(UsageError):
        env.step([[0.0]], np.random.default_rng(0))


def test_reset_distributions():
    rng = np.random.default_rng(0)
    env = pendulum()
    obs = env.reset(rng, 500)
    thetas, speeds = np.arctan2(obs[:, 1], obs[:, 0]), obs[:, 2]
    assert -np.pi <= min(thetas) and max(thetas) <= np.pi
    assert min(speeds) >= -1.0 and max(speeds) <= 1.0
    assert abs(np.mean(thetas)) < 0.25 and abs(np.mean(speeds)) < 0.15
    obs = pointgoal().reset(rng, 100)
    assert obs.shape == (100, 4)
    assert np.all(obs[:, :2] >= -1.0) and np.all(obs[:, :2] <= -0.6)
    assert np.all(obs[:, 2:] == 0.0)


def test_pointgoal_reward_bands_and_termination():
    rng = np.random.default_rng(0)
    env = pointgoal()
    # lands inside the goal radius: both bonuses
    env.set_state([[0.7, 0.69, 0.0, 0.0]])
    obs, (r,), (done,) = env.step([[0.0, 0.0]], rng)
    assert r == pytest.approx(20.0)
    assert done
    # inside the near band only
    env.set_state([[0.5, 0.7, 0.0, 0.0]])
    _, (r,), (done,) = env.step([[0.0, 0.0]], rng)
    assert r == pytest.approx(0.0)
    assert not done
    # far away
    env.set_state([[-0.8, -0.8, 0.0, 0.0]])
    _, (r,), (done,) = env.step([[0.0, 0.0]], rng)
    assert r == pytest.approx(-0.1)
    assert not done


def test_pointgoal_step_matches_hand_computation():
    rng = np.random.default_rng(0)
    env = pointgoal()
    env.set_state([[0.2, -0.3, 0.4, -0.1]])
    (obs,), _, _ = env.step([[1.0, 0.5]], rng)
    v = np.array([0.4, -0.1]) + (1.0 * np.array([1.0, 0.5]) - 0.5 * np.array([0.4, -0.1])) * 0.1
    p = np.array([0.2, -0.3]) + v * 0.1
    np.testing.assert_allclose(obs, np.concatenate([p, v]), atol=1e-12)


def test_pointgoal_position_and_velocity_clipped():
    rng = np.random.default_rng(0)
    env = pointgoal()
    env.set_state([[0.99, 0.99, 1.0, 1.0]])
    for _ in range(30):
        obs, _, done = env.step([[1.0, 1.0]], rng)
        assert np.all(obs <= 1.0) and np.all(obs >= -1.0)
        if done[0]:
            break


def test_pointgoal_time_limit():
    rng = np.random.default_rng(0)
    env = pointgoal()
    env.set_state([[-1.0, -1.0, 0.0, 0.0]])
    for i in range(100):
        _, _, done = env.step([[-1.0, -1.0]], rng)
    assert done[0]


def test_pointgoal_reachable_by_proportional_controller():
    rng = np.random.default_rng(0)
    env = pointgoal()

    def controller(obs, _rng):
        p, v = obs[:, :2], obs[:, 2:]
        return np.clip(4.0 * (env.GOAL - p) - 2.0 * v, -1.0, 1.0)

    total, steps = 0.0, 0
    obs = env.set_state([[-0.8, -0.8, 0.0, 0.0]])
    done = False
    while not done:
        obs, (r,), (done,) = env.step(controller(obs, rng), rng)
        total += r
        steps += 1
    assert steps < 60
    assert total > 14.0


def test_rollout_chains_and_stops_on_done():
    spec = envs.EnvSpec("pointgoal")
    env = envs.make_env(spec)
    rng = np.random.default_rng(3)

    def controller(obs, _rng):
        return np.clip(4.0 * (env.GOAL - obs[:, :2]) - 2.0 * obs[:, 2:], -1.0, 1.0)

    [(S, A, R, S2, D)] = envs.rollout(env, controller, np.array([[-0.5, -0.5, 0.0, 0.0]]),
                                      100, rng)
    assert D[-1] == 1.0 and not D[:-1].any()
    assert len(R) < 100
    np.testing.assert_array_equal(S2[:-1], S[1:])
    short = envs.rollout(env, controller, 2, 5, rng)
    assert all(len(c) == 5 for ep in short for c in ep)
    with pytest.raises(ContractError):
        envs.rollout(env, controller, 1, 0, rng)
    with pytest.raises(ContractError):
        envs.rollout(env, controller, 0, 5, rng)


def test_rollout_is_deterministic_given_seed():
    spec = envs.EnvSpec("pendulum", envs.DynamicsPerturbation(action_noise_std=0.3))
    pol = lambda obs, rng: rng.uniform(-2, 2, size=(len(obs), 1))
    a = envs.rollout(envs.make_env(spec), pol, 3, 50, np.random.default_rng(42))
    b = envs.rollout(envs.make_env(spec), pol, 3, 50, np.random.default_rng(42))
    for ea, eb in zip(a, b):
        for ca, cb in zip(ea, eb):
            np.testing.assert_array_equal(ca, cb)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_pendulum_observation_invariants(seed):
    rng = np.random.default_rng(seed)
    env = pendulum(envs.DynamicsPerturbation(gravity_scale=rng.uniform(0.5, 5.0),
                                             friction_scale=rng.uniform(0.0, 3.0),
                                             action_noise_std=rng.uniform(0.0, 2.0)))
    env.reset(rng, 4)
    for _ in range(30):
        obs, r, _ = env.step(rng.uniform(-2, 2, size=(4, 1)), rng)
        np.testing.assert_allclose(np.hypot(obs[:, 0], obs[:, 1]), 1.0, atol=1e-12)
        assert np.all(np.abs(obs[:, 2]) <= 8.0)
        assert np.all(r <= 0.0)
        assert np.all(np.isfinite(obs))


def test_spec_validation_and_step_limits():
    with pytest.raises(ContractError):
        envs.EnvSpec("cartpole")
    with pytest.raises(ContractError):
        envs.DynamicsPerturbation(gravity_scale=0.0)
    spec = envs.EnvSpec("pointgoal", envs.DynamicsPerturbation(2.0, 0.3, 0.1))
    assert envs.ENVS[spec.env_id].max_episode_steps == 100
    assert envs.ENVS["pendulum"].max_episode_steps == 200


# each env's (obs_dim, action_dim, action_scale, max_episode_steps)
ENV_FACTS = {"pendulum": (3, 1, 2.0, 200), "pointgoal": (4, 2, 1.0, 100)}


def test_each_env_class_states_its_facts():
    """The env classes are the one source of each env's dims, action scale
    and step limit; a rollout with a longer horizon stops at the limit."""
    assert envs.ENV_IDS == tuple(envs.ENVS) == tuple(ENV_FACTS)
    for env_id, cls in envs.ENVS.items():
        names = ("obs_dim", "action_dim", "action_scale", "max_episode_steps")
        assert tuple(vars(cls)[k] for k in names) == ENV_FACTS[env_id]
        env = envs.make_env(envs.EnvSpec.real(env_id))
        # zero actions never reach the pointgoal goal, so only the limit ends it
        still = lambda obs, _rng: np.zeros((len(obs), cls.action_dim))
        [(S, _, _, _, D)] = envs.rollout(env, still, 1, cls.max_episode_steps + 7,
                                         np.random.default_rng(0))
        assert len(S) == cls.max_episode_steps and D[-1] == 1.0 and not D[:-1].any()


def test_transition_type_from_rollout():
    env = pendulum()
    rng = np.random.default_rng(0)
    [(S, A, R, S2, D)] = envs.rollout(env, lambda o, r: np.zeros((len(o), 1)), 1, 3, rng)
    assert [c.shape for c in (S, A, R, S2, D)] == [(3, 3), (3, 1), (3,), (3, 3), (3,)]
    assert all(c.dtype == np.float64 for c in (S, A, R, S2, D))


def _perturbation(rng):
    return envs.DynamicsPerturbation(gravity_scale=rng.uniform(0.5, 3.0),
                                     friction_scale=rng.uniform(0.0, 3.0),
                                     action_noise_std=rng.choice([0.0, rng.uniform(0.0, 1.0)]))


@given(seed=st.integers(0, 10_000), n=st.integers(1, 6),
       env_id=st.sampled_from(envs.ENV_IDS))
@settings(max_examples=30, deadline=None)
def test_lockstep_step_matches_one_row_envs(seed, n, env_id):
    """An n-row env steps each row as a one-row env would, bit for bit: the
    rows' noise draws come from one (n, A) draw, in row order."""
    rng = np.random.default_rng(seed)
    spec = envs.EnvSpec(env_id, _perturbation(rng))
    many = envs.make_env(spec)
    singles = [envs.make_env(spec) for _ in range(n)]
    S = many.reset(rng, n)
    if env_id == "pointgoal":  # start some rows next to the goal
        S[::2, :2] = rng.uniform(0.6, 0.8, size=S[::2, :2].shape)
    many.set_state(S)
    for env, s in zip(singles, S):
        env.set_state(s[None])
    scale = many.action_scale
    r_many, r_single = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    live = list(range(n))
    for _ in range(many.max_episode_steps):
        A = rng.uniform(-scale, scale, size=(len(live), many.action_dim))
        obs, r, done = many.step(A, r_many)
        for k, i in enumerate(live):
            (o1,), (r1,), (d1,) = singles[i].step(A[k:k + 1], r_single)
            assert np.array_equal(o1, obs[k]) and r1 == r[k] and d1 == done[k]
        live = [i for i, d in zip(live, done) if not d]
        assert many.num_rows == len(live)
        if not live:
            break
    assert r_many.bit_generator.state == r_single.bit_generator.state


def test_pointgoal_row_at_goal_is_neither_stepped_nor_queried():
    spec = envs.EnvSpec("pointgoal")
    starts = np.array([[-0.8, -0.8, 0.0, 0.0], [0.62, 0.62, 0.3, 0.3],
                       [0.2, -0.5, 0.0, 0.0]])
    goal, queried = envs.PointGoalEnv.GOAL, []

    def controller(obs, _rng):
        queried.append(len(obs))
        return np.clip(4.0 * (goal - obs[:, :2]) - 2.0 * obs[:, 2:], -1.0, 1.0)

    episodes = envs.rollout(envs.make_env(spec), controller, starts, 100,
                            np.random.default_rng(0))
    lengths = [len(ep[2]) for ep in episodes]
    assert len(set(lengths)) == 3 and max(lengths) < 100
    # one query per step, over exactly the rows still running
    assert queried == [sum(L > t for L in lengths) for t in range(max(lengths))]
    for start, (S, A, R, S2, D) in zip(starts, episodes):
        env = envs.make_env(spec)
        obs, total, steps, done = env.set_state(start[None]), 0.0, 0, False
        while not done:
            obs, (r,), (done,) = env.step(controller(obs, None), None)
            total += r
            steps += 1
        assert steps == len(R) and total == sum(R.tolist()) and D[-1] == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, 2.5])
def test_bad_action_names_its_row(bad):
    env = pendulum()
    env.reset(np.random.default_rng(0), 4)
    A = np.zeros((4, 1))
    A[2, 0] = bad
    # a finite action out of range is a caller's fault, a non-finite one divergence
    what, error = ("outside", ContractError) if np.isfinite(bad) \
        else ("non-finite action", NumericsError)
    with pytest.raises(error, match=f"{what}.*row 2|row 2.*{what}"):
        env.step(A, np.random.default_rng(0))


def test_evaluate_policy_steps_episodes_together():
    """Resets are drawn up front, then the policy sees all episodes at once."""
    spec = envs.EnvSpec.real("pendulum")
    shapes = []

    def policy(obs, _rng):
        shapes.append(obs.shape)
        return np.zeros((len(obs), 1))

    rng, resets = np.random.default_rng(3), np.random.default_rng(3)
    mean, std, returns = envs.evaluate_policy(spec, policy, 4, rng)
    assert shapes == [(4, 3)] * 200 and len(returns) == 4
    assert mean == np.mean(returns) and std == np.std(returns)
    starts = envs.make_env(spec).reset(resets, 4)
    assert rng.bit_generator.state == resets.bit_generator.state
    for obs, ret in zip(starts, returns):
        env = envs.make_env(spec)
        env.set_state(obs[None])  # the angle round trip costs the last bits
        total = 0.0
        for _ in range(200):
            _, (r,), _ = env.step([[0.0]], None)
            total += r
        assert total == pytest.approx(ret, rel=1e-9)


def _reference_step(env, A, rng):
    """One step from env's rows as written with numpy's Python-level wrappers
    (np.clip, np.stack, np.linalg.norm, np.full, np.where): the reference for
    the bytes of Env.step."""
    p, s = env.spec.perturbation, env.action_scale
    A = np.clip(np.asarray(A, dtype=np.float64), -s, s)
    if p.action_noise_std > 0.0:
        A = np.clip(A + rng.normal(0.0, p.action_noise_std, size=A.shape), -s, s)
    last = env._steps + 1 >= env.max_episode_steps
    if env.spec.env_id == "pendulum":
        th, thdot = env._rows
        u = A[:, 0]
        g, c = 10.0 * p.gravity_scale, 0.1 * p.friction_scale
        new_thdot = np.clip(thdot + (1.5 * g * np.sin(th) + 3.0 * u - c * thdot) * env.DT,
                            -8.0, 8.0)
        new_th = _wrap_with_where(th + new_thdot * env.DT)
        reward = -(_wrap_with_where(th) ** 2 + 0.1 * new_thdot ** 2 + 0.001 * u ** 2)
        obs = np.stack([np.cos(new_th), np.sin(new_th), new_thdot], axis=1)
        return obs, reward, np.full(len(u), last)
    pos, vel = env._rows
    f, d = 1.0 * p.gravity_scale, 0.5 * p.friction_scale
    new_vel = np.clip(vel + (f * A - d * vel) * env.DT, -1.0, 1.0)
    new_pos = np.clip(pos + new_vel * env.DT, -1.0, 1.0)
    dist = np.linalg.norm(new_pos - env.GOAL, axis=1)
    at_goal = dist < env.GOAL_RADIUS
    reward = -0.1 + 0.1 * (dist < env.NEAR_RADIUS) + 20.0 * at_goal
    return np.concatenate([new_pos, new_vel], axis=1), reward, at_goal | last


def _edge_actions(rng, n, dim, s):
    """Uniform actions with about a third of the entries at +-s, +-(s + 1e-9)
    (the widest the range check accepts), just above s, 0.0 or -0.0."""
    A = rng.uniform(-s, s, size=(n, dim))
    edge = rng.random((n, dim)) < 0.3
    A[edge] = rng.choice([s, -s, s + 1e-9, -s - 1e-9, 0.0, -0.0, np.nextafter(s, np.inf),
                          -np.nextafter(s, np.inf), s + 5e-10, -s - 5e-10],
                         size=int(edge.sum()))
    return A


def _assert_steps_match_reference(env, rng_seed):
    """Step env's loaded rows to the end of their episodes, each step's obs,
    reward and done byte for byte equal to _reference_step's."""
    act, r_env, r_ref = (np.random.default_rng(rng_seed + k) for k in (0, 1, 1))
    while env.num_rows:
        A = _edge_actions(act, env.num_rows, env.action_dim, env.action_scale)
        want = _reference_step(env, A, r_ref)
        got = env.step(A, r_env)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
    assert r_env.bit_generator.state == r_ref.bit_generator.state


def _floats(lo, hi, *edges):
    return st.one_of(st.sampled_from(edges), st.floats(lo, hi))


@given(th=st.lists(_floats(-4.0, 4.0, np.pi, -np.pi, 0.0, -0.0), min_size=1, max_size=6),
       thdot=st.lists(_floats(-8.0, 8.0, 8.0, -8.0, 0.0, -0.0), min_size=6, max_size=6),
       seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_pendulum_step_bytes_equal_the_wrapper_calls(th, thdot, seed):
    """Whole episodes, so the last step's done flags are covered too."""
    env = pendulum(_perturbation(np.random.default_rng(seed)))
    env.set_state(np.column_stack([np.cos(th), np.sin(th), thdot[:len(th)]]))
    _assert_steps_match_reference(env, seed)


@given(rows=st.lists(st.lists(_floats(-1.0, 1.0, 1.0, -1.0, 0.0, -0.0, 0.7, 0.69),
                              min_size=4, max_size=4), min_size=1, max_size=6),
       seed=st.integers(0, 10_000))
@example(rows=[[0.7, 0.7, 0.0, 0.0], [-1.0, 1.0, -0.0, 1.0], [0.69, 0.7, 0.0, -0.0]], seed=3)
@settings(max_examples=20, deadline=None)
def test_pointgoal_step_bytes_equal_the_wrapper_calls(rows, seed):
    """Rows at the goal end there and leave the env; the rest run on."""
    env = pointgoal(_perturbation(np.random.default_rng(seed)))
    env.set_state(np.array(rows))
    _assert_steps_match_reference(env, seed)


_EDGE_ANGLES = [envs.WRAP_SAFE, -envs.WRAP_SAFE, _WRAP_EDGE, -_WRAP_EDGE, np.pi, -np.pi,
                np.nextafter(np.pi, 0.0), -np.nextafter(np.pi, 0.0)]


@pytest.mark.parametrize("th", [[a] for a in _EDGE_ANGLES] + [_EDGE_ANGLES],
                         ids=[f"{a!r}" for a in _EDGE_ANGLES] + ["all"])
def test_pendulum_steps_from_angles_at_the_wrap_bound(th):
    """Stored angles on both sides of WRAP_SAFE and at +-pi, loaded as they
    are: a step re-wraps the reward's angle only where it must."""
    env = pendulum()
    env._load(np.array(th), np.linspace(-8.0, 8.0, len(th)))
    _assert_steps_match_reference(env, 11)


@pytest.mark.parametrize("env_id", envs.ENV_IDS)
@pytest.mark.parametrize("noise", [0.0, 0.5])
def test_a_step_leaves_the_callers_actions_unchanged(env_id, noise):
    """In range or just beyond it, the caller's array keeps its bytes."""
    env = envs.make_env(envs.EnvSpec(env_id, envs.DynamicsPerturbation(action_noise_std=noise)))
    s, rng = env.action_scale, np.random.default_rng(0)
    env.reset(rng, 3)
    for A in (np.full((3, env.action_dim), -s), np.full((3, env.action_dim), s + 1e-9)):
        before = A.tobytes()
        env.step(A, rng)
        assert A.tobytes() == before


def test_evaluate_policy_returns_are_each_episodes_sum_when_episodes_end_apart():
    """Once a pointgoal episode ends, only the rows still running add rewards."""
    spec = envs.EnvSpec.real("pointgoal")
    goal = envs.PointGoalEnv.GOAL

    def controller(obs, _rng):
        return np.clip(4.0 * (goal - obs[:, :2]) - 2.0 * obs[:, 2:], -1.0, 1.0)

    _, _, returns = envs.evaluate_policy(spec, controller, 5, np.random.default_rng(2))
    episodes = envs.rollout(envs.make_env(spec), controller, 5, 100, np.random.default_rng(2))
    assert len({len(R) for _, _, R, _, _ in episodes}) > 1
    assert returns == [sum(R.tolist()) for _, _, R, _, _ in episodes]
