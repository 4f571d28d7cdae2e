"""Transitions, offline datasets, replay buffers, and the JSONL dataset format.

A dataset file is one JSON metadata line followed by one JSON object per
transition; floats round-trip exactly through repr, so save/load/save is
byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json
import math

import numpy as np

from .errors import ContractError

DATASET_FORMAT = "oris-dataset"
DATASET_VERSION = 1
TIERS = ("random", "medium", "medium_replay", "expert")

PROVENANCE_OFFLINE = "offline"
PROVENANCE_SIM = "sim"


@dataclass
class Transition:
    s: np.ndarray
    a: np.ndarray
    r: float
    s_next: np.ndarray
    done: bool

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=np.float64)
        self.a = np.asarray(self.a, dtype=np.float64)
        self.s_next = np.asarray(self.s_next, dtype=np.float64)
        self.r = float(self.r)
        self.done = bool(self.done)
        if self.s.shape != self.s_next.shape:
            raise ContractError("s and s_next have different shapes")
        for v in (self.s, self.a, self.s_next):
            if not np.all(np.isfinite(v)):
                raise ContractError(f"non-finite transition field {v}")
        if not math.isfinite(self.r):
            raise ContractError(f"non-finite reward {self.r}")


@dataclass
class Dataset:
    """Immutable-by-convention sequence of transitions plus trajectory structure.

    trajectory_boundaries[i] is one past the last index of trajectory i;
    the final entry equals len(transitions).
    """

    meta: dict
    transitions: list[Transition]
    trajectory_boundaries: list[int]
    _arrays: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.transitions:
            raise ContractError("dataset has no transitions")
        b = self.trajectory_boundaries
        if not b or b[-1] != len(self.transitions):
            raise ContractError("trajectory_boundaries must end at len(transitions)")
        if any(y <= x for x, y in zip(b, b[1:])) or b[0] <= 0:
            raise ContractError("trajectory_boundaries must be strictly increasing")
        for key in ("env_id", "tier"):
            if key not in self.meta:
                raise ContractError(f"dataset meta missing {key!r}")

    def __len__(self) -> int:
        return len(self.transitions)

    @property
    def num_trajectories(self) -> int:
        return len(self.trajectory_boundaries)

    def trajectories(self):
        start = 0
        for end in self.trajectory_boundaries:
            yield self.transitions[start:end]
            start = end

    def episode_returns(self) -> list[float]:
        return [sum(t.r for t in traj) for traj in self.trajectories()]

    @classmethod
    def from_episodes(cls, meta: dict, episodes: list[list[Transition]]) -> "Dataset":
        transitions, bounds = [], []
        for ep in episodes:
            if not ep:
                raise ContractError("empty episode")
            transitions.extend(ep)
            bounds.append(len(transitions))
        return cls(meta, transitions, bounds)

    def arrays(self):
        """Stacked (S, A, R, S2, DONE) views, cached after first call."""
        if self._arrays is None:
            S = np.stack([t.s for t in self.transitions])
            A = np.stack([t.a for t in self.transitions])
            R = np.array([t.r for t in self.transitions])
            S2 = np.stack([t.s_next for t in self.transitions])
            D = np.array([t.done for t in self.transitions], dtype=np.float64)
            self._arrays = (S, A, R, S2, D)
        return self._arrays

    def sample_arrays(self, n: int, rng) -> tuple:
        S, A, R, S2, D = self.arrays()
        idx = rng.integers(0, len(self.transitions), size=n)
        return S[idx], A[idx], R[idx], S2[idx], D[idx]

    provenance = PROVENANCE_OFFLINE


class ReplayBuffer:
    """Fixed-capacity FIFO ring, array-backed.

    Each row carries a critic weight next to the transition, 1 unless the
    caller gives one when appending.
    """

    def __init__(self, capacity: int, obs_dim: int, action_dim: int,
                 provenance: str = PROVENANCE_SIM):
        if capacity < 1:
            raise ContractError("capacity must be positive")
        self.capacity = capacity
        self.provenance = provenance
        self._s = np.zeros((capacity, obs_dim))
        self._a = np.zeros((capacity, action_dim))
        self._r = np.zeros(capacity)
        self._s2 = np.zeros((capacity, obs_dim))
        self._d = np.zeros(capacity)
        self._w = np.zeros(capacity)  # every row's weight is written by add
        self._n = 0
        self._cursor = 0

    def __len__(self) -> int:
        return self._n

    def add(self, t: Transition, weight: float = 1.0) -> None:
        i = self._cursor
        self._s[i] = t.s
        self._a[i] = t.a
        self._r[i] = t.r
        self._s2[i] = t.s_next
        self._d[i] = float(t.done)
        self._w[i] = weight
        self._cursor = (i + 1) % self.capacity
        self._n = min(self._n + 1, self.capacity)

    def extend(self, ts, weights=None) -> None:
        """Append transitions in order; weights[k], if given, is row k's weight."""
        if weights is None:
            for t in ts:
                self.add(t)
            return
        if len(weights) != len(ts):
            raise ContractError(f"{len(weights)} weights for {len(ts)} transitions")
        for t, w in zip(ts, weights):
            self.add(t, w)

    def sample_weighted(self, n: int, rng) -> tuple:
        """((S, A, R, S2, DONE), W) for n rows drawn uniformly with replacement."""
        if self._n == 0:
            raise ContractError("sampling from an empty buffer")
        idx = rng.integers(0, self._n, size=n)
        arrays = (self._s[idx], self._a[idx], self._r[idx], self._s2[idx], self._d[idx])
        return arrays, self._w[idx]

    def sample_arrays(self, n: int, rng) -> tuple:
        return self.sample_weighted(n, rng)[0]

    def get(self, i: int) -> Transition:
        if not 0 <= i < self._n:
            raise ContractError(f"index {i} out of range")
        return Transition(self._s[i].copy(), self._a[i].copy(), self._r[i],
                          self._s2[i].copy(), bool(self._d[i]))


def sample_minibatch(source, n: int, rng) -> list[Transition]:
    """Uniform with-replacement sample of n transitions from a Dataset or ReplayBuffer."""
    if n < 1:
        raise ContractError("minibatch size must be positive")
    size = len(source)
    if size == 0:
        raise ContractError("sampling from an empty source")
    idx = rng.integers(0, size, size=n)
    if isinstance(source, Dataset):
        return [source.transitions[i] for i in idx]
    return [source.get(int(i)) for i in idx]


def subsample_trajectories(d: Dataset, fraction: float, seed: int) -> Dataset:
    """Keep ceil(fraction * num_trajectories) whole trajectories, chosen uniformly.

    Selected trajectories keep their original relative order, so fraction=1.0
    returns an equal dataset.
    """
    if not 0.0 < fraction <= 1.0:
        raise ContractError(f"fraction must be in (0, 1], got {fraction}")
    k = math.ceil(fraction * d.num_trajectories)
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(d.num_trajectories, size=k, replace=False))
    episodes = list(d.trajectories())
    meta = dict(d.meta)
    meta["subsample_fraction"] = fraction
    meta["subsample_seed"] = seed
    return Dataset.from_episodes(meta, [episodes[i] for i in chosen])


def state_marginal(d: Dataset) -> list[np.ndarray]:
    """The s column of the dataset, as a list of state vectors."""
    S = d.arrays()[0]
    return [S[i] for i in range(S.shape[0])]


def _meta_to_disk(meta: dict) -> dict:
    out = {
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "env_id": meta["env_id"],
        "tier": meta["tier"],
        "perturbation": meta.get("perturbation",
                                 {"gravity_scale": 1.0, "friction_scale": 1.0,
                                  "action_noise_std": 0.0}),
        "seed": meta.get("behavior_policy_seed"),
    }
    for k, v in meta.items():
        if k not in ("env_id", "tier", "perturbation", "behavior_policy_seed"):
            out[k] = v
    return out


def save_dataset(d: Dataset, path) -> None:
    eot = set(b - 1 for b in d.trajectory_boundaries)
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(_meta_to_disk(d.meta)) + "\n")
        for i, t in enumerate(d.transitions):
            row = {"s": list(t.s), "a": list(t.a), "r": t.r,
                   "s2": list(t.s_next), "done": t.done, "eot": i in eot}
            f.write(json.dumps(row) + "\n")


def load_dataset(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as f:
        header_line = f.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as e:
            raise ContractError(f"bad dataset header in {path}: {e}") from e
        if header.get("format") != DATASET_FORMAT:
            raise ContractError(f"not a {DATASET_FORMAT} file: {path}")
        if header.get("version") != DATASET_VERSION:
            raise ContractError(f"unsupported dataset version {header.get('version')}")
        meta = {k: v for k, v in header.items() if k not in ("format", "version", "seed")}
        meta["behavior_policy_seed"] = header.get("seed")
        transitions, bounds = [], []
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                t = Transition(np.array(row["s"]), np.array(row["a"]), row["r"],
                               np.array(row["s2"]), row["done"])
            except (json.JSONDecodeError, KeyError, ContractError, TypeError) as e:
                raise ContractError(f"{path}:{lineno}: bad transition row: {e}") from e
            transitions.append(t)
            if row.get("eot", False):
                bounds.append(len(transitions))
    if not transitions:
        raise ContractError(f"{path}: dataset has no transitions")
    if not bounds or bounds[-1] != len(transitions):
        raise ContractError(f"{path}: final trajectory is unterminated (missing eot)")
    return Dataset(meta, transitions, bounds)
