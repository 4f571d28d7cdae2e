"""Analytic environments: torque-limited pendulum swing-up and a sparse point-goal task.

The real environment is the unperturbed dynamics; a simulator is the same
family with scaled gravity, scaled friction, or additive Gaussian action noise.
Both tasks are small enough that one transition is a handful of flops.

At the 10-24 rows an env steps at once, a time step costs its calls, not its
flops, so the step path calls ufuncs and C functions, never numpy's
Python-level wrappers. Each replacement runs the float operations of the
wrapper it replaces, so every output keeps its bytes. Per call at 24 rows
(numpy 2.4.6, 2 vCPU): np.clip 4.2 us against 2.2 us for
np.minimum(np.maximum(x, lo), hi); np.stack of three columns 5.9 us against
1.9 us for column copies into np.empty; np.linalg.norm(d, axis=1) 5.3 us
against 3.7 us for the np.sqrt(np.add.reduce(d * d, axis=1)) it runs; np.full
1.6 us against 0.4 us for np.zeros.

Work whose result is its input is skipped where one cheap test shows it.
The action bound is one np.abs and one np.maximum.reduce, 1.8 us against
4.1 us for abs, <=, all, maximum and minimum; the clip runs only when an
entry lies above the scale, and the caller's array passes through uncopied
otherwise. The reward's pre-step angle is the stored one when every |theta|
is below WRAP_SAFE, where wrap_angle is the identity bit for bit: that test
costs 1.9 us against 4.3 us for wrap_angle's calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Config
from .data import as_columns
from .errors import ContractError, InvalidStateError, NumericsError, UsageError


@dataclass(frozen=True)
class DynamicsPerturbation(Config):
    gravity_scale: float = 1.0
    friction_scale: float = 1.0
    action_noise_std: float = 0.0

    def __post_init__(self):
        if self.gravity_scale <= 0.0:
            raise ContractError(f"gravity_scale must be positive, got {self.gravity_scale}")
        if self.friction_scale < 0.0:
            raise ContractError(f"friction_scale must be non-negative, got {self.friction_scale}")
        if self.action_noise_std < 0.0:
            raise ContractError(f"action_noise_std must be non-negative, got {self.action_noise_std}")


UNPERTURBED = DynamicsPerturbation()


@dataclass(frozen=True)
class EnvSpec:
    env_id: str
    perturbation: DynamicsPerturbation = UNPERTURBED

    def __post_init__(self):
        if self.env_id not in ENV_IDS:
            raise ContractError(f"unknown env_id {self.env_id!r}, know {ENV_IDS}")

    @classmethod
    def real(cls, env_id: str) -> "EnvSpec":
        return cls(env_id, UNPERTURBED)


# Below this bound wrap_angle is the identity, bit for bit: x + pi lies in
# (2.6e-6, 2 pi), so the floor is 0.0 and x - 0.0 is x, -0.0 included. At pi
# itself it is not: nextafter(pi, 0) wraps to pi.
WRAP_SAFE = 3.14159


def wrap_angle(x):
    """Wrap to (-pi, pi], elementwise; a float gives a 0-d array. The float
    operations of x - 2 pi floor((x + pi) / (2 pi)), in place on one array."""
    w = np.asarray(np.add(x, np.pi))
    w /= 2.0 * np.pi
    np.floor(w, out=w)
    w *= 2.0 * np.pi
    np.subtract(x, w, out=w)
    w[w <= -np.pi] = np.pi
    return w


class Env:
    """The running episodes of one EnvSpec, one row each. Use make_env().

    reset(rng, n) or set_state(S) loads n rows, each starting its episode;
    step(A, rng) advances every row by one step and returns (n, obs_dim)
    observations, (n,) rewards and (n,) done flags. A row that reports done
    leaves the env, so the next step takes one action row per row still
    running. All rows are loaded together, so they share one step count.

    Each env class states its facts: obs_dim, action_dim, action_scale (the
    bound of every action entry, and the full scale that noise is quoted
    relative to) and max_episode_steps, after which every row is done.
    """

    obs_dim: int
    action_dim: int
    action_scale: float
    max_episode_steps: int

    def __init__(self, spec: EnvSpec):
        self.spec = spec
        self._rows: tuple = ()  # per-row state arrays, subclass-defined
        self._steps = 0

    @property
    def num_rows(self) -> int:
        return len(self._rows[0]) if self._rows else 0

    def reset(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def set_state(self, S: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _obs(self, rows: tuple) -> np.ndarray:
        """(n, obs_dim) observations of per-row state arrays."""
        raise NotImplementedError

    def step(self, actions, rng: np.random.Generator):
        raise NotImplementedError

    def _load(self, *rows) -> np.ndarray:
        self._rows = rows
        self._steps = 0
        return self._obs(rows)

    def _checked_states(self, S) -> np.ndarray:
        S = np.asarray(S, dtype=np.float64)
        if S.ndim != 2 or S.shape[1] != self.obs_dim:
            raise ContractError(f"states have shape {S.shape}, want (n, {self.obs_dim})")
        bad = np.flatnonzero(~np.isfinite(S).all(axis=1))
        if bad.size:
            raise InvalidStateError(f"non-finite observation {S[bad[0]]} in row {bad[0]}")
        return S

    def _effective_actions(self, actions, rng) -> np.ndarray:
        if not self.num_rows:
            raise UsageError("step called with no running rows: reset or set_state first")
        A = np.asarray(actions, dtype=np.float64)
        if A.shape != (self.num_rows, self.action_dim):
            raise ContractError(f"actions have shape {A.shape}, "
                                f"want ({self.num_rows}, {self.action_dim})")
        s = self.action_scale
        top = np.maximum.reduce(np.abs(A), axis=None)
        if not top <= s + 1e-9:  # NaN fails the comparison too
            i = int(np.flatnonzero(~(np.abs(A) <= s + 1e-9).all(axis=1))[0])
            if not np.isfinite(A[i]).all():
                raise NumericsError(f"non-finite action {A[i]} in row {i}")
            raise ContractError(f"action {A[i]} in row {i} outside [-{s}, {s}]")
        if top > s:  # else the clip is the identity, bit for bit
            A = np.minimum(np.maximum(A, -s), s)
        noise = self.spec.perturbation.action_noise_std
        if noise > 0.0:
            A = np.minimum(np.maximum(A + rng.normal(0.0, noise, size=A.shape), -s), s)
        return A

    def _advance(self, rows: tuple, done: np.ndarray):
        """Store the stepped rows, minus those that are done; returns the
        observations of all of them."""
        self._steps += 1
        self._rows = tuple(x[~done] for x in rows) if done.any() else rows
        return self._obs(rows)


class PendulumEnv(Env):
    """Swing-up: state (theta, theta_dot), observation (cos, sin, theta_dot).

    theta_dot' = clip(theta_dot + (1.5 g sin(theta) + 3 u - c theta_dot) dt, -8, 8)
    with dt = 0.05, g = 10 * gravity_scale, c = 0.1 * friction_scale. Reward is
    -(wrap(theta)^2 + 0.1 theta_dot'^2 + 0.001 u^2) with the pre-step angle.
    Every episode ends at the step limit, so all rows end together.
    """

    obs_dim = 3
    action_dim = 1
    action_scale = 2.0
    max_episode_steps = 200
    DT = 0.05
    MAX_SPEED = 8.0

    def reset(self, rng, n) -> np.ndarray:
        # row by row, theta then theta_dot: the order of n one-row resets
        x = rng.uniform([-np.pi, -1.0], [np.pi, 1.0], size=(n, 2))
        return self._load(x[:, 0], x[:, 1])

    def set_state(self, S) -> np.ndarray:
        S = self._checked_states(S)
        norm = np.hypot(S[:, 0], S[:, 1])
        bad = np.flatnonzero(norm < 0.1)
        if bad.size:
            i = bad[0]
            raise InvalidStateError(f"degenerate angle encoding in row {i}, "
                                    f"|({S[i, 0]}, {S[i, 1]})| = {norm[i]:.4f}")
        return self._load(np.arctan2(S[:, 1] / norm, S[:, 0] / norm),
                          np.clip(S[:, 2], -self.MAX_SPEED, self.MAX_SPEED))

    def _obs(self, rows) -> np.ndarray:
        th, thdot = rows
        obs = np.empty((len(th), 3))
        np.cos(th, out=obs[:, 0])
        np.sin(th, out=obs[:, 1])
        obs[:, 2] = thdot
        return obs

    def step(self, actions, rng):
        u = self._effective_actions(actions, rng)[:, 0]
        p = self.spec.perturbation
        g = 10.0 * p.gravity_scale
        c = 0.1 * p.friction_scale
        th, thdot = self._rows
        new_thdot = np.minimum(np.maximum(
            thdot + (1.5 * g * np.sin(th) + 3.0 * u - c * thdot) * self.DT,
            -self.MAX_SPEED), self.MAX_SPEED)
        new_th = wrap_angle(th + new_thdot * self.DT)
        if not np.maximum.reduce(np.abs(th)) < WRAP_SAFE:
            th = wrap_angle(th)
        reward = -(th ** 2 + 0.1 * new_thdot ** 2 + 0.001 * u ** 2)
        last = self._steps + 1 >= self.max_episode_steps
        done = np.ones(len(u), bool) if last else np.zeros(len(u), bool)
        return self._advance((new_th, new_thdot), done), reward, done


class PointGoalEnv(Env):
    """Velocity-integrator point mass on [-1, 1]^2 with a sparse goal bonus.

    v' = clip(v + (f u - d v) dt, -1, 1), p' = clip(p + v' dt, -1, 1) with
    dt = 0.1, f = 1.0 * gravity_scale, d = 0.5 * friction_scale. Reward is
    -0.1 + 0.1 [dist < 0.25] + 20 [dist < 0.05], dist from p' to (0.7, 0.7).
    A row ends at the goal or at the step limit.
    """

    obs_dim = 4
    action_dim = 2
    action_scale = 1.0
    max_episode_steps = 100
    DT = 0.1
    GOAL = np.array([0.7, 0.7])
    NEAR_RADIUS = 0.25
    GOAL_RADIUS = 0.05

    def reset(self, rng, n) -> np.ndarray:
        return self._load(rng.uniform(-1.0, -0.6, size=(n, 2)), np.zeros((n, 2)))

    def set_state(self, S) -> np.ndarray:
        S = self._checked_states(S)
        return self._load(np.clip(S[:, :2], -1.0, 1.0), np.clip(S[:, 2:], -1.0, 1.0))

    def _obs(self, rows) -> np.ndarray:
        return np.concatenate(rows, axis=1)

    def step(self, actions, rng):
        u = self._effective_actions(actions, rng)
        p = self.spec.perturbation
        f = 1.0 * p.gravity_scale
        d = 0.5 * p.friction_scale
        pos, vel = self._rows
        new_vel = np.minimum(np.maximum(vel + (f * u - d * vel) * self.DT, -1.0), 1.0)
        new_pos = np.minimum(np.maximum(pos + new_vel * self.DT, -1.0), 1.0)
        off = new_pos - self.GOAL
        dist = np.sqrt(np.add.reduce(off * off, axis=1))  # what np.linalg.norm runs
        at_goal = dist < self.GOAL_RADIUS
        reward = -0.1 + 0.1 * (dist < self.NEAR_RADIUS) + 20.0 * at_goal
        done = at_goal | (self._steps + 1 >= self.max_episode_steps)
        return self._advance((new_pos, new_vel), done), reward, done


ENVS = {"pendulum": PendulumEnv, "pointgoal": PointGoalEnv}
ENV_IDS = tuple(ENVS)


def make_env(spec: EnvSpec) -> Env:
    return ENVS[spec.env_id](spec)


def uniform_random_policy(env: Env):
    """Policy drawing each row's action uniformly in the action box: one
    uniform((n, action_dim)) per call."""
    s = env.action_scale
    dim = env.action_dim

    def policy(obs, rng):
        return rng.uniform(-s, s, size=(len(obs), dim))

    return policy


def _lockstep(env: Env, obs: np.ndarray, act, horizon: int, rng):
    """Step every row loaded in env under act(obs, rows) until it is done or
    `horizon` steps have run. rows holds the indices, in load order, of the
    rows stepped; a row that is done is neither stepped nor queried again.
    Yields (rows, obs, actions, rewards, next obs, done) per step."""
    rows = np.arange(len(obs))
    for _ in range(horizon):
        a = act(obs, rows)
        obs2, r, done = env.step(a, rng)
        yield rows, obs, a, r, obs2, done
        if env.num_rows < len(rows):  # some row is done
            rows, obs2 = rows[~done], obs2[~done]
            if not rows.size:
                return
        obs = obs2


def evaluate_policy(spec: EnvSpec, policy, episodes: int, rng) -> tuple[float, float, list[float]]:
    """Mean and std of undiscounted episode returns from the initial distribution.

    The episodes run in lockstep: all their resets are drawn first, then
    policy(obs, rng) maps the (n, obs_dim) observations of the n episodes
    still running to (n, action_dim) actions, once per time step.
    """
    if episodes < 1:
        raise ContractError("episodes must be positive")
    env = make_env(spec)
    obs = env.reset(rng, episodes)
    returns = np.zeros(episodes)
    for rows, _, _, r, _, _ in _lockstep(env, obs, lambda o, _rows: policy(o, rng),
                                          env.max_episode_steps, rng):
        if len(rows) == episodes:
            returns += r
        else:
            returns[rows] += r
    mean = float(np.mean(returns))
    std = float(np.std(returns))
    return mean, std, returns.tolist()


def _row_policy(policy, n: int, action_dim: int, rng):
    """act(obs, rows) for _lockstep from one policy, or from one per episode;
    each distinct policy is called once per step, on its episodes' rows, in
    the order of its first episode."""
    if not callable(policy) and len(policy) != n:
        raise ContractError(f"{len(policy)} policies for {n} episodes")
    distinct = [policy] if callable(policy) else list(dict.fromkeys(policy))
    if len(distinct) == 1:
        only = distinct[0]
        return lambda obs, _rows: np.asarray(only(obs, rng), dtype=np.float64)
    which = np.array([distinct.index(p) for p in policy])

    def act(obs, rows):
        a = np.empty((len(rows), action_dim))
        of_row = which[rows]
        for k, p in enumerate(distinct):
            m = of_row == k
            if m.any():
                a[m] = p(obs[m], rng)
        return a

    return act


def rollout(env: Env, policy, starts, horizon: int, rng) -> list[tuple]:
    """Run one episode per start for up to `horizon` steps, all in lockstep;
    returns each episode's steps as columns (S, A, R, S2, D), in start order.

    starts is an (n, obs_dim) array of states, loaded with set_state (which
    may raise InvalidStateError), or a count n of episodes reset from the
    env's initial distribution. policy is one policy for all episodes or a
    list with one per episode; a policy maps (obs, rng) for its running rows
    to their actions. An episode stops at done. A non-finite action raises
    NumericsError at its step, a non-finite state or reward ContractError
    once the rollout ends.
    """
    if horizon < 1:
        raise ContractError(f"horizon must be positive, got {horizon}")
    counted = isinstance(starts, (int, np.integer))
    n = int(starts) if counted else len(starts)
    if n < 1:
        raise ContractError("rollout needs at least one start")
    act = _row_policy(policy, n, env.action_dim, rng)
    obs = env.reset(rng, n) if counted else env.set_state(starts)
    steps = list(_lockstep(env, obs, act, horizon, rng))
    rows, *cols = (np.concatenate(c) for c in zip(*steps))
    order = np.argsort(rows, kind="stable")
    cols = as_columns(*(c[order] for c in cols))
    ends = np.cumsum(np.bincount(rows, minlength=n))[:-1]
    return list(zip(*(np.split(c, ends) for c in cols)))
