"""Offline datasets, replay buffers and the dataset file format, all on packed transition rows.

In memory a set of transitions is one float64 block of rows laid out
S | A | R | S2 | D | W, W being the row's critic weight, and its columns
(S, A, R, S2, D) are views of that block (columns_of). A dataset file, version
2, is a binary record (files.write_record): a DatasetHeader line that holds
the widths of S and A, the trajectory boundaries and the dataset's meta, then
the rows S | A | R | S2 | D as one little-endian float64 block, so a save
writes the bits it holds and a load reads them back into one ReplayBuffer.
It is the one dataset file format: load_dataset refuses any other file,
version 1 (one JSON row per transition) included.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import math
from typing import ClassVar

import numpy as np

from .config import Config
from .errors import ContractError
from .files import read_record, write_record

DATASET_FORMAT = "oris-dataset"
TIERS = ("random", "medium", "medium_replay", "expert")

COLUMN_NAMES = ("S", "A", "R", "S2", "D")


def as_columns(S, A, R, S2, D) -> tuple:
    """Transitions as float64 columns (S, A, R, S2, D), checked.

    S and S2 are (n, obs_dim), A is (n, action_dim), R and D are (n,), and
    every value is finite. Arrays that already are float64 are not copied.
    """
    cols = tuple(np.asarray(c, dtype=np.float64) for c in (S, A, R, S2, D))
    S, A, R, S2, D = cols
    if S.ndim != 2 or A.ndim != 2 or R.ndim != 1 or D.ndim != 1:
        raise ContractError(
            f"column shapes {[c.shape for c in cols]}, want S, A, S2 2-d and R, D 1-d")
    if S.shape != S2.shape:
        raise ContractError(f"S and S2 have different shapes {S.shape}, {S2.shape}")
    if len({c.shape[0] for c in cols}) != 1:
        raise ContractError(f"columns have different row counts {[len(c) for c in cols]}")
    for name, c in zip(COLUMN_NAMES, cols):
        if not np.all(np.isfinite(c)):
            raise ContractError(f"non-finite value in column {name}")
    return cols


def row_width(obs_dim: int, action_dim: int) -> int:
    """Width of a packed transition row S | A | R | S2 | D | W."""
    return 2 * obs_dim + action_dim + 3


def columns_of(rows: np.ndarray, obs_dim: int) -> tuple:
    """((S, A, R, S2, D), W) of a block of packed rows, as views."""
    o, r = obs_dim, rows.shape[1] - obs_dim - 3
    return (rows[:, :o], rows[:, o:r], rows[:, r], rows[:, r + 1:r + 1 + o],
            rows[:, -2]), rows[:, -1]


class ReplayBuffer:
    """Fixed-capacity FIFO ring of transitions, as rows of one float64 block
    laid out S | A | R | S2 | D | W: a transition, then its critic weight, 1
    unless the caller gives one when appending. A draw gathers whole rows."""

    def __init__(self, capacity: int, obs_dim: int, action_dim: int):
        if capacity < 1:
            raise ContractError("capacity must be positive")
        self.capacity = capacity
        self.obs_dim, self.action_dim = obs_dim, action_dim
        self.width = row_width(obs_dim, action_dim)
        self.block = np.zeros((capacity, self.width))
        self._n = self._cursor = 0

    def __len__(self) -> int:
        return self._n

    def extend(self, columns, weights=None) -> None:
        """Append the rows of columns (S, A, R, S2, D) in order; weights[k], if
        given, is row k's weight. Nothing is written if any row is rejected."""
        cols = as_columns(*columns)
        n = len(cols[2])
        if cols[0].shape[1] != self.obs_dim or cols[1].shape[1] != self.action_dim:
            raise ContractError(f"rows of S {cols[0].shape} and A {cols[1].shape} do not "
                                f"fit this buffer's obs and action dims")
        w = None if weights is None else np.asarray(weights, dtype=np.float64)
        if w is not None and w.shape != (n,):
            raise ContractError(f"{len(w)} weights for {n} transitions")
        # rows that a later row of the same call would overwrite are skipped;
        # the rest fill at most two runs of slots, up to the wrap and after it
        skip = max(0, n - self.capacity)
        start = (self._cursor + skip) % self.capacity
        head = min(n - skip, self.capacity - start)
        for lo, k, m in ((start, skip, head), (0, skip + head, n - skip - head)):
            slots, slot_w = columns_of(self.block[lo:lo + m], self.obs_dim)
            for dst, c in zip(slots, cols):
                dst[...] = c[k:k + m]
            slot_w[...] = 1.0 if w is None else w[k:k + m]
        self._cursor = (self._cursor + n) % self.capacity
        self._n = min(self._n + n, self.capacity)

    def sample_rows(self, n: int, rng, out=None) -> np.ndarray:
        """n rows drawn uniformly with replacement, as one (n, width) block,
        written into out when it is given. Consumes one integers(0, len, n)."""
        if self._n == 0:
            raise ContractError("sampling from an empty buffer")
        idx = rng.integers(0, self._n, size=n)
        # "clip" never clips here; unlike "raise" it makes no copy of out
        return self.block.take(idx, axis=0, out=out, mode="clip")

    def sample_arrays(self, n: int, rng) -> tuple:
        return columns_of(self.sample_rows(n, rng), self.obs_dim)[0]


@dataclass(frozen=True, kw_only=True)
class DatasetMeta(Config):
    """A dataset's meta, as its file header writes it: env_id and tier, one
    of TIERS; what generate_dataset sets (perturbation, as JSON, seed and,
    by tier, reference_seed and an eval return); and the fraction and seed
    that subsample_trajectories adds."""

    env_id: str
    tier: str
    perturbation: dict[str, float] | None = None
    seed: int | None = None
    reference_seed: int | None = None
    medium_eval_return: float | None = None
    behavior_eval_return: float | None = None
    subsample_fraction: float | None = None
    subsample_seed: int | None = None

    def __post_init__(self):
        if self.tier not in TIERS:
            raise ContractError(f"unknown tier {self.tier!r}, know {TIERS}")


@dataclass(eq=False)
class Dataset:
    """Immutable-by-convention transitions plus trajectory structure.

    meta is the DatasetMeta its file header holds; a generated tier's seed
    is the behaviour policy's seed. rows is a full ReplayBuffer of the
    transitions in order, at weight 1: the one block that columns (S, A, R,
    S2, D) views and that loop.train draws offline rows from.
    trajectory_boundaries[i] is one past the last row of trajectory i; the
    final entry equals len(dataset).
    """

    meta: DatasetMeta
    rows: ReplayBuffer
    trajectory_boundaries: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) < self.rows.capacity:
            raise ContractError("a dataset's rows must fill their buffer")
        self.columns = columns_of(self.rows.block, self.rows.obs_dim)[0]
        b = self.trajectory_boundaries
        if not b or b[-1] != len(self):
            raise ContractError("trajectory_boundaries must end at len(dataset)")
        if any(y <= x for x, y in zip(b, b[1:])) or b[0] <= 0:
            raise ContractError("trajectory_boundaries must be strictly increasing")

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def num_trajectories(self) -> int:
        return len(self.trajectory_boundaries)

    def trajectories(self):
        """Each trajectory's columns, as views."""
        start = 0
        for end in self.trajectory_boundaries:
            yield tuple(c[start:end] for c in self.columns)
            start = end

    def episode_returns(self) -> list[float]:
        # Python's left-to-right sum, not np.sum's pairwise one
        return [sum(R.tolist()) for _, _, R, _, _ in self.trajectories()]

    @classmethod
    def from_episodes(cls, meta: DatasetMeta, episodes: list[tuple]) -> "Dataset":
        """One dataset from episodes given as column tuples, in order."""
        if not episodes:
            raise ContractError("dataset has no transitions")
        lengths = [len(ep[2]) for ep in episodes]
        rows = ReplayBuffer(sum(lengths), *(np.shape(c)[-1] for c in episodes[0][:2]))
        rows.extend(tuple(np.concatenate(c) for c in zip(*episodes)))
        # an empty episode leaves the boundaries not strictly increasing
        return cls(meta, rows, tuple(np.cumsum(lengths).tolist()))

    def arrays(self) -> tuple:
        """.columns, under the name perfbench/workloads.py calls."""
        return self.columns

    def sample_arrays(self, n: int, rng) -> tuple:
        return columns_of(self.rows.sample_rows(n, rng), self.rows.obs_dim)[0]


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
    meta = replace(d.meta, subsample_fraction=fraction, subsample_seed=seed)
    return Dataset.from_episodes(meta, [episodes[i] for i in chosen])


@dataclass(frozen=True, kw_only=True)
class DatasetHeader(Config):
    """The header line of a dataset file (save_dataset): the widths of S
    (and S2) and of A, one past the last row of each trajectory, and the
    dataset's meta."""

    format: str = DATASET_FORMAT
    version: int = 2
    obs_dim: int
    action_dim: int
    trajectory_boundaries: tuple[int, ...]
    meta: DatasetMeta
    dtype: ClassVar[str] = "<f8"

    def __post_init__(self):
        if min(self.obs_dim, self.action_dim) < 1:
            raise ContractError("obs_dim and action_dim must be positive")

    @property
    def shape(self) -> tuple:
        """One row S | A | R | S2 | D per transition."""
        n = self.trajectory_boundaries[-1] if self.trajectory_boundaries else 0
        return n, row_width(self.obs_dim, self.action_dim) - 1


def save_dataset(d: Dataset, path) -> None:
    """A version-2 dataset file: a DatasetHeader line, then the rows
    S | A | R | S2 | D of d.rows, as the bits they hold."""
    rows = d.rows
    write_record(path, DatasetHeader(
        obs_dim=rows.obs_dim, action_dim=rows.action_dim,
        trajectory_boundaries=d.trajectory_boundaries, meta=d.meta),
        rows.block[:, :-1])


def load_dataset(path) -> Dataset:
    """The dataset of a file that save_dataset wrote; any other file is
    refused as a ContractError naming path."""
    header, block = read_record(path, DatasetHeader)
    if not len(block):
        raise ContractError(f"{path}: dataset has no transitions")
    o, a = header.obs_dim, header.action_dim
    S, A, R, S2, D = np.split(block, np.cumsum([o, a, 1, o]), axis=1)
    rows = ReplayBuffer(len(block), o, a)
    rows.extend((S, A, R[:, 0], S2, D[:, 0]))
    try:
        return Dataset(header.meta, rows, header.trajectory_boundaries)
    except ContractError as e:
        raise ContractError(f"{path}: {e}") from None
