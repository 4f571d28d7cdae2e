"""Analytic environments: torque-limited pendulum swing-up and a sparse point-goal task.

The real environment is the unperturbed dynamics; a simulator is the same
family with scaled gravity, scaled friction, or additive Gaussian action noise.
Both tasks are small enough that one transition is a handful of flops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import columns_from_rows
from .errors import ContractError, InvalidStateError, UsageError

ENV_IDS = ("pendulum", "pointgoal")

# full-scale action magnitude per env, used when noise is quoted relative to it
ACTION_SCALES = {"pendulum": 2.0, "pointgoal": 1.0}
EPISODE_LIMITS = {"pendulum": 200, "pointgoal": 100}


@dataclass(frozen=True)
class DynamicsPerturbation:
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

    def to_json(self) -> dict:
        return {"gravity_scale": self.gravity_scale,
                "friction_scale": self.friction_scale,
                "action_noise_std": self.action_noise_std}

    @classmethod
    def from_json(cls, d: dict) -> "DynamicsPerturbation":
        return cls(float(d.get("gravity_scale", 1.0)),
                   float(d.get("friction_scale", 1.0)),
                   float(d.get("action_noise_std", 0.0)))


UNPERTURBED = DynamicsPerturbation()


@dataclass(frozen=True)
class EnvSpec:
    env_id: str
    perturbation: DynamicsPerturbation = UNPERTURBED

    def __post_init__(self):
        if self.env_id not in ENV_IDS:
            raise ContractError(f"unknown env_id {self.env_id!r}, know {ENV_IDS}")

    @property
    def max_episode_steps(self) -> int:
        return EPISODE_LIMITS[self.env_id]

    @classmethod
    def real(cls, env_id: str) -> "EnvSpec":
        return cls(env_id, UNPERTURBED)

    @classmethod
    def sim(cls, env_id: str, perturbation: DynamicsPerturbation) -> "EnvSpec":
        return cls(env_id, perturbation)


def wrap_angle(x: float) -> float:
    """Wrap to (-pi, pi]."""
    w = x - 2.0 * np.pi * np.floor((x + np.pi) / (2.0 * np.pi))
    if w <= -np.pi:
        w = np.pi
    return w


class Env:
    """Stateful instance of one EnvSpec. Use make_env()."""

    obs_dim: int
    action_dim: int

    def __init__(self, spec: EnvSpec):
        self.spec = spec
        self._steps = 0
        self._ready = False

    @property
    def action_scale(self) -> float:
        return ACTION_SCALES[self.spec.env_id]

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def set_state(self, obs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def observe(self) -> np.ndarray:
        raise NotImplementedError

    def step(self, action, rng: np.random.Generator):
        raise NotImplementedError

    def _effective_action(self, action, rng) -> np.ndarray:
        a = np.asarray(action, dtype=np.float64).reshape(-1)
        if a.shape != (self.action_dim,):
            raise ContractError(f"action has shape {a.shape}, want ({self.action_dim},)")
        s = self.action_scale
        if not (np.abs(a) <= s + 1e-9).all():  # NaN fails the comparison too
            if not np.isfinite(a).all():
                raise ContractError(f"non-finite action {a}")
            raise ContractError(f"action {a} outside [-{s}, {s}]")
        a = np.clip(a, -s, s)
        noise = self.spec.perturbation.action_noise_std
        if noise > 0.0:
            a = np.clip(a + rng.normal(0.0, noise, size=a.shape), -s, s)
        return a

    def _require_ready(self):
        if not self._ready:
            raise UsageError("step called before reset or set_state")


class PendulumEnv(Env):
    """Swing-up: state (theta, theta_dot), observation (cos, sin, theta_dot).

    theta_dot' = clip(theta_dot + (1.5 g sin(theta) + 3 u - c theta_dot) dt, -8, 8)
    with dt = 0.05, g = 10 * gravity_scale, c = 0.1 * friction_scale. Reward is
    -(wrap(theta)^2 + 0.1 theta_dot'^2 + 0.001 u^2) with the pre-step angle.
    """

    obs_dim = 3
    action_dim = 1
    DT = 0.05
    MAX_SPEED = 8.0

    def __init__(self, spec: EnvSpec):
        super().__init__(spec)
        self._theta = 0.0
        self._theta_dot = 0.0

    def reset(self, rng) -> np.ndarray:
        self._theta = rng.uniform(-np.pi, np.pi)
        self._theta_dot = rng.uniform(-1.0, 1.0)
        self._steps = 0
        self._ready = True
        return self.observe()

    def set_state(self, obs) -> np.ndarray:
        obs = np.asarray(obs, dtype=np.float64).reshape(-1)
        if obs.shape != (self.obs_dim,):
            raise ContractError(f"obs has shape {obs.shape}, want ({self.obs_dim},)")
        if not np.all(np.isfinite(obs)):
            raise InvalidStateError(f"non-finite observation {obs}")
        norm = float(np.hypot(obs[0], obs[1]))
        if norm < 0.1:
            raise InvalidStateError(f"degenerate angle encoding, |({obs[0]}, {obs[1]})| = {norm:.4f}")
        self._theta = float(np.arctan2(obs[1] / norm, obs[0] / norm))
        self._theta_dot = float(np.clip(obs[2], -self.MAX_SPEED, self.MAX_SPEED))
        self._steps = 0
        self._ready = True
        return self.observe()

    def observe(self) -> np.ndarray:
        return np.array([np.cos(self._theta), np.sin(self._theta), self._theta_dot])

    def step(self, action, rng):
        self._require_ready()
        u = float(self._effective_action(action, rng)[0])
        p = self.spec.perturbation
        g = 10.0 * p.gravity_scale
        c = 0.1 * p.friction_scale
        th, thdot = self._theta, self._theta_dot
        new_thdot = np.clip(thdot + (1.5 * g * np.sin(th) + 3.0 * u - c * thdot) * self.DT,
                            -self.MAX_SPEED, self.MAX_SPEED)
        new_th = wrap_angle(th + new_thdot * self.DT)
        reward = -(wrap_angle(th) ** 2 + 0.1 * new_thdot ** 2 + 0.001 * u ** 2)
        self._theta, self._theta_dot = float(new_th), float(new_thdot)
        self._steps += 1
        done = self._steps >= self.spec.max_episode_steps
        return self.observe(), float(reward), bool(done)


class PointGoalEnv(Env):
    """Velocity-integrator point mass on [-1, 1]^2 with a sparse goal bonus.

    v' = clip(v + (f u - d v) dt, -1, 1), p' = clip(p + v' dt, -1, 1) with
    dt = 0.1, f = 1.0 * gravity_scale, d = 0.5 * friction_scale. Reward is
    -0.1 + 0.1 [dist < 0.25] + 20 [dist < 0.05], dist from p' to (0.7, 0.7).
    """

    obs_dim = 4
    action_dim = 2
    DT = 0.1
    GOAL = np.array([0.7, 0.7])
    NEAR_RADIUS = 0.25
    GOAL_RADIUS = 0.05

    def __init__(self, spec: EnvSpec):
        super().__init__(spec)
        self._pos = np.zeros(2)
        self._vel = np.zeros(2)

    def reset(self, rng) -> np.ndarray:
        self._pos = rng.uniform(-1.0, -0.6, size=2)
        self._vel = np.zeros(2)
        self._steps = 0
        self._ready = True
        return self.observe()

    def set_state(self, obs) -> np.ndarray:
        obs = np.asarray(obs, dtype=np.float64).reshape(-1)
        if obs.shape != (self.obs_dim,):
            raise ContractError(f"obs has shape {obs.shape}, want ({self.obs_dim},)")
        if not np.all(np.isfinite(obs)):
            raise InvalidStateError(f"non-finite observation {obs}")
        self._pos = np.clip(obs[:2], -1.0, 1.0)
        self._vel = np.clip(obs[2:], -1.0, 1.0)
        self._steps = 0
        self._ready = True
        return self.observe()

    def observe(self) -> np.ndarray:
        return np.concatenate([self._pos, self._vel])

    def step(self, action, rng):
        self._require_ready()
        u = self._effective_action(action, rng)
        p = self.spec.perturbation
        f = 1.0 * p.gravity_scale
        d = 0.5 * p.friction_scale
        new_vel = np.clip(self._vel + (f * u - d * self._vel) * self.DT, -1.0, 1.0)
        new_pos = np.clip(self._pos + new_vel * self.DT, -1.0, 1.0)
        dist = float(np.linalg.norm(new_pos - self.GOAL))
        reward = -0.1
        if dist < self.NEAR_RADIUS:
            reward += 0.1
        if dist < self.GOAL_RADIUS:
            reward += 20.0
        self._pos, self._vel = new_pos, new_vel
        self._steps += 1
        done = dist < self.GOAL_RADIUS or self._steps >= self.spec.max_episode_steps
        return self.observe(), float(reward), bool(done)


_ENV_CLASSES = {"pendulum": PendulumEnv, "pointgoal": PointGoalEnv}


def make_env(spec: EnvSpec) -> Env:
    return _ENV_CLASSES[spec.env_id](spec)


def env_dims(env_id: str) -> tuple[int, int]:
    cls = _ENV_CLASSES[env_id]
    return cls.obs_dim, cls.action_dim


def uniform_random_policy(env: Env):
    s = env.action_scale
    dim = env.action_dim

    def policy(obs, rng):
        return rng.uniform(-s, s, size=dim)

    return policy


def evaluate_policy(spec: EnvSpec, policy, episodes: int, rng) -> tuple[float, float, list[float]]:
    """Mean and std of undiscounted episode returns from the initial distribution."""
    if episodes < 1:
        raise ContractError("episodes must be positive")
    env = make_env(spec)
    returns = []
    for _ in range(episodes):
        obs = env.reset(rng)
        total, done = 0.0, False
        while not done:
            obs, r, done = env.step(policy(obs, rng), rng)
            total += r
        returns.append(total)
    mean = float(np.mean(returns))
    std = float(np.std(returns))
    return mean, std, returns


def rollout(env: Env, policy, start, horizon: int, rng) -> tuple:
    """Run `policy(obs, rng)` for up to `horizon` steps from `start`; returns
    the steps as columns (S, A, R, S2, D).

    start=None resets from the env's initial distribution; otherwise the state
    is loaded with set_state (which may raise InvalidStateError). Stops early
    on done. A non-finite step raises ContractError once the rollout ends.
    """
    if horizon < 1:
        raise ContractError(f"horizon must be positive, got {horizon}")
    if start is None:
        obs = env.reset(rng)
    else:
        obs = env.set_state(start)
    rows = []
    for _ in range(horizon):
        a = np.asarray(policy(obs, rng), dtype=np.float64)
        obs2, r, done = env.step(a, rng)
        rows.append((obs, a, r, obs2, done))
        obs = obs2
        if done:
            break
    return columns_from_rows(rows)
