"""Offline datasets, replay buffers and the JSONL dataset format, all on packed transition rows.

In memory a set of transitions is one float64 block of rows laid out
S | A | R | S2 | D | W, W being the row's critic weight, and its columns
(S, A, R, S2, D) are views of that block (columns_of). A dataset
file is one JSON header line followed by one JSON row per transition. It is
written and read BLOCK_ROWS rows at a time, so memory beyond the columns stays
bounded by one block. Each state's text is formatted once: where a row's s2
has the bits of the next row's s, as inside an episode, it reuses that text.
Floats round-trip exactly through repr, so save/load/save is byte-stable, and
a bad row is named by its file line.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
import json
import math

import numpy as np

from .errors import ContractError
from .files import atomic_write

DATASET_FORMAT = "oris-dataset"
DATASET_VERSION = 1
TIERS = ("random", "medium", "medium_replay", "expert")

COLUMN_NAMES = ("S", "A", "R", "S2", "D")
# Rows per step when a dataset file is written or read. A loaded block's parsed
# rows (about 1 KB each) stay resident as heap after the load, so a block is
# kept small enough to fit the heap a run already holds; 1024 rows saved about
# 5% more time but left 1 MB more resident.
BLOCK_ROWS = 256


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
        w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
        if w.shape != (n,):
            raise ContractError(f"{len(w)} weights for {n} transitions")
        # rows that a later row of the same call would overwrite are skipped
        skip = max(0, n - self.capacity)
        slots = (self._cursor + np.arange(skip, n)) % self.capacity
        self.block[slots] = np.column_stack([c[skip:] for c in (*cols, w)])
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


@dataclass(eq=False)
class Dataset:
    """Immutable-by-convention transitions plus trajectory structure.

    meta is the dataset file's header line without its format and version;
    a generated tier's holds env_id, tier, perturbation and seed, the
    behaviour policy's seed. rows is a full ReplayBuffer of the transitions
    in order, at weight 1: the one block that columns (S, A, R, S2, D) views
    and that loop.train draws offline rows from.
    trajectory_boundaries[i] is one past the last row of trajectory i; the
    final entry equals len(dataset).
    """

    meta: dict
    rows: ReplayBuffer
    trajectory_boundaries: list[int]

    def __post_init__(self):
        if len(self.rows) < self.rows.capacity:
            raise ContractError("a dataset's rows must fill their buffer")
        self.columns = columns_of(self.rows.block, self.rows.obs_dim)[0]
        b = self.trajectory_boundaries
        if not b or b[-1] != len(self):
            raise ContractError("trajectory_boundaries must end at len(dataset)")
        if any(y <= x for x, y in zip(b, b[1:])) or b[0] <= 0:
            raise ContractError("trajectory_boundaries must be strictly increasing")
        for key in ("env_id", "tier"):
            if key not in self.meta:
                raise ContractError(f"dataset meta missing {key!r}")

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
    def from_episodes(cls, meta: dict, episodes: list[tuple]) -> "Dataset":
        """One dataset from episodes given as column tuples, in order."""
        if not episodes:
            raise ContractError("dataset has no transitions")
        lengths = [len(ep[2]) for ep in episodes]
        rows = ReplayBuffer(sum(lengths), *(np.shape(c)[-1] for c in episodes[0][:2]))
        rows.extend(tuple(np.concatenate(c) for c in zip(*episodes)))
        # an empty episode leaves the boundaries not strictly increasing
        return cls(meta, rows, np.cumsum(lengths).tolist())

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
    meta = {**d.meta, "subsample_fraction": fraction, "subsample_seed": seed}
    return Dataset.from_episodes(meta, [episodes[i] for i in chosen])


def _rows_text(column) -> list[str]:
    """Each row of a column as the JSON text that json.dumps gives it: one
    dumps of the whole column (the C encoder's float repr), split into rows.
    A 2-d column gives each row's items without the brackets."""
    text = json.dumps(column.tolist())
    if column.ndim == 2:
        return text[2:-2].split("], [")
    return text[1:-1].split(", ")


def save_dataset(d: Dataset, path) -> None:
    n = len(d)
    eot = np.zeros(n, dtype=bool)
    eot[np.asarray(d.trajectory_boundaries) - 1] = True
    S, A, R, S2, D = d.columns
    # Inside an episode a row's s2 is the next row's s, so its text is that
    # row's. Bits are compared, not values: -0.0 == 0.0 but prints otherwise.
    reuse = np.zeros(n, dtype=bool)
    reuse[:-1] = (S2[:-1].view(np.int64) == S[1:].view(np.int64)).all(axis=1)
    with atomic_write(path) as f:
        f.write(json.dumps({"format": DATASET_FORMAT, "version": DATASET_VERSION,
                            **d.meta}) + "\n")
        for i in range(0, n, BLOCK_ROWS):
            j = min(i + BLOCK_ROWS, n)
            # one row past the block, when there is one, gives its last s2;
            # the file's last s2 is never reused, so its "" is replaced
            s_text = _rows_text(S[i:j + 1])
            s2_text = s_text[1:] if j < n else s_text[1:] + [""]
            formatted = np.flatnonzero(~reuse[i:j])
            for k, text in zip(formatted.tolist(), _rows_text(S2[i + formatted])):
                s2_text[k] = text
            cols = (A[i:j], R[i:j], D[i:j] != 0, eot[i:j])
            f.write("".join(
                f'{{"s": [{s}], "a": [{a}], "r": {r}, "s2": [{s2}], "done": {done}, '
                f'"eot": {end}}}\n'
                for s, s2, a, r, done, end in zip(s_text, s2_text, *map(_rows_text, cols))))


_ROW_ERRORS = (json.JSONDecodeError, KeyError, TypeError, OverflowError, ContractError)


def _load_block(lines, flat, widths):
    """Append a block of rows to the columns with one json.loads; returns
    (widths, eot flags). Raises one of _ROW_ERRORS on any bad row, without
    naming it."""
    # a row split over two lines and two rows joined on a third would parse
    # to as many rows as lines
    if not all(line[0] == "{" and line.rstrip()[-1] == "}" for line in lines):
        raise ContractError("a line that is not one JSON object")
    rows = json.loads("[" + ",".join(lines) + "]")
    if len(rows) != len(lines):
        raise ContractError(f"{len(rows)} rows on {len(lines)} lines")
    S, A, S2 = ([row[k] for row in rows] for k in ("s", "a", "s2"))
    R = [row["r"] for row in rows]
    D = [row["done"] for row in rows]
    if widths is None:
        widths = [len(S[0]), len(A[0]), 1, len(S2[0]), 1]
    for col, w in zip((S, A, S2), (widths[0], widths[1], widths[3])):
        if set(map(len, col)) != {w}:
            raise ContractError("field lengths differ from the first row's")
    for column, x in zip(flat, (chain.from_iterable(S), chain.from_iterable(A), R,
                                chain.from_iterable(S2), D)):
        column.extend(x)
    return widths, [row.get("eot", False) for row in rows]


def _blocks(f):
    """(file line numbers, lines) of up to BLOCK_ROWS non-blank lines at a
    time, from a file read past its header line."""
    linenos, lines = [], []
    for lineno, line in enumerate(f, start=2):
        if line.strip():
            linenos.append(lineno)
            lines.append(line)
            if len(lines) == BLOCK_ROWS:
                yield linenos, lines
                linenos, lines = [], []
    if lines:
        yield linenos, lines


def load_dataset(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as f:
        header_line = f.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as e:
            raise ContractError(f"bad dataset header in {path}: {e}") from e
        if not isinstance(header, dict) or header.get("format") != DATASET_FORMAT:
            raise ContractError(f"not a {DATASET_FORMAT} file: {path}")
        if header.get("version") != DATASET_VERSION:
            raise ContractError(f"unsupported dataset version {header.get('version')}")
        meta = {k: v for k, v in header.items() if k not in ("format", "version")}
        # Columns are gathered as raw doubles: the Python objects of a block's
        # rows are dropped with the block, and keeping a whole file's would
        # fragment the heap for the whole run.
        flat = [array("d") for _ in COLUMN_NAMES]
        widths, linenos, bounds = None, array("l"), []
        for block_linenos, lines in _blocks(f):
            marks = [len(c) for c in flat]
            try:
                widths, eot = _load_block(lines, flat, widths)
            except _ROW_ERRORS:
                # load the block again one line at a time, to name the first bad line
                for column, m in zip(flat, marks):
                    del column[m:]
                eot = []
                for lineno, line in zip(block_linenos, lines):
                    try:
                        widths, end = _load_block([line], flat, widths)
                    except _ROW_ERRORS as e:
                        raise ContractError(f"{path}:{lineno}: bad transition row: {e}") from e
                    eot += end
            bounds.extend(len(linenos) + i for i, end in enumerate(eot, start=1) if end)
            linenos.extend(block_linenos)
    if not linenos:
        raise ContractError(f"{path}: dataset has no transitions")
    n = len(linenos)
    if not bounds or bounds[-1] != n:
        raise ContractError(f"{path}: final trajectory is unterminated (missing eot)")
    S, A, R, S2, D = cols = [np.frombuffer(c).reshape(n, -1) for c in flat]
    rows = ReplayBuffer(n, widths[0], widths[1])
    try:
        rows.extend((S, A, R[:, 0], S2, D[:, 0]))
        return Dataset(meta, rows, bounds)
    except ContractError as e:  # a non-finite value (the one scan) is named by its line
        bad = np.flatnonzero(~np.isfinite(np.column_stack(cols)).all(axis=1))
        where = f":{linenos[bad[0]]}: bad transition row" if len(bad) else ""
        raise ContractError(f"{path}{where}: {e}") from None
