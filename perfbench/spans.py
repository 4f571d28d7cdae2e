"""Spans around the public functions of each ``oris`` layer, from outside.

``instrument(tracer)`` replaces each wrapped function in every ``oris`` module
namespace that holds it (so ``from .data import load_dataset`` in harness is
caught too) and each wrapped method on its class, and puts the originals back
on exit. A span is (name, start, end, parent span, run id); spans stay in
memory and are written out once, at the end. Self time is a span's duration
minus the time its direct children cover; everything runs on one thread, so
children never overlap.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from oris import data, datasets, envs, gan, harness, loop, nets, sac

# (owner, attribute, span name); methods of two classes share one name.
WRAPPED = (
    (nets, "forward_batch", "nets.forward_batch"),
    (nets, "backward_batch", "nets.backward_batch"),
    (nets, "adam_step", "nets.adam_step"),
    (nets, "soft_update", "nets.soft_update"),
    (sac, "critic_update", "sac.critic_update"),
    (sac, "actor_update", "sac.actor_update"),
    (sac, "bellman_targets", "sac.bellman_targets"),
    (sac, "act", "sac.act"),
    (gan, "pretrain", "gan.pretrain"),
    (gan, "weight_of_batch", "gan.weight_of_batch"),
    (gan, "sample_restart", "gan.sample_restart"),
    (envs.PendulumEnv, "step", "envs.step"),
    (envs.PointGoalEnv, "step", "envs.step"),
    (envs, "rollout", "envs.rollout"),
    (envs, "evaluate_policy", "envs.evaluate_policy"),
    (data, "load_dataset", "data.load_dataset"),
    (data, "save_dataset", "data.save_dataset"),
    (data.Dataset, "sample_arrays", "data.sample_arrays"),
    (data.ReplayBuffer, "sample_arrays", "data.sample_arrays"),
    (data.ReplayBuffer, "extend", "data.ReplayBuffer.extend"),
    (datasets, "generate_dataset", "datasets.generate_dataset"),
    (loop, "train", "loop.train"),
    (loop, "collect_epoch", "loop.collect_epoch"),
    (harness, "run_experiment", "harness.run_experiment"),
    (harness, "write_metrics_csv", "harness.write_metrics_csv"),
    (harness, "score_table_from_csvs", "harness.score_table_from_csvs"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in WRAPPED))

# Derived metrics, besides <fn>.calls / <fn>.s / <fn>.self_s for SPAN_NAMES.
DERIVED = (("loop.gan_s", "s"), ("loop.collect_s", "s"), ("loop.eval_s", "s"),
           ("loop.update_s", "s"), ("gan.pretrain.redundant", "count"),
           ("gan.restart_accept_ratio", "ratio"), ("trace.overhead_s", "s"),
           ("trace.spans", "count"))


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = "count"
        out[f"{name}.s"] = "s"
        out[f"{name}.self_s"] = "s"
    out.update(DERIVED)
    return out


def _fit_key(states, hparams, rng) -> str:
    """What decides a GAN fit: the states, the hparams and the RNG state."""
    h = hashlib.sha256(np.ascontiguousarray(np.asarray(states, dtype=np.float64)).tobytes())
    h.update(json.dumps(hparams.to_json(), sort_keys=True).encode())
    h.update(repr(rng.bit_generator.state).encode())
    return h.hexdigest()


class Tracer:
    """In-memory span log for one process; not thread-safe (nothing here threads)."""

    def __init__(self):
        self._name = array("i")
        self._parent = array("i")
        self._run = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.run_labels: list[str] = []
        self.fit_keys: list[tuple[int, str]] = []  # (run id, fit key)
        self.invalid_restarts = 0

    def begin_run(self, label: str) -> None:
        """Spans opened from now on carry this run id."""
        self.run_labels.append(label)

    def traced(self, name: str, fn):
        name_id = SPAN_NAMES.index(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self._start)
            self._name.append(name_id)
            self._parent.append(stack[-1] if stack else -1)
            self._run.append(len(self.run_labels) - 1)
            self._end.append(0.0)
            stack.append(idx)
            self._start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self._end[idx] = clock()
                stack.pop()

        return wrapper

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self._name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
                "run": np.frombuffer(self._run, dtype=np.int32).copy(),
                "start": np.frombuffer(self._start).copy(),
                "end": np.frombuffer(self._end).copy()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(SPAN_NAMES),
                 run_labels=np.array(self.run_labels or [""]), **self.arrays())

    def metrics(self) -> dict:
        """Per-layer metrics, as the mean over the runs traced."""
        runs = max(1, len(self.run_labels))
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_s = dur - child
        # spans whose ancestor chain reaches loop.train (parents precede children)
        train_id = SPAN_NAMES.index("loop.train")
        in_train = np.zeros(len(dur), dtype=bool)
        for i in range(len(dur)):
            p = parent[i]
            in_train[i] = p >= 0 and (name[p] == train_id or in_train[p])

        out = {}
        for k, span in enumerate(SPAN_NAMES):
            m = name == k
            out[f"{span}.calls"] = int(m.sum()) / runs
            out[f"{span}.s"] = float(dur[m].sum()) / runs
            out[f"{span}.self_s"] = float(self_s[m].sum()) / runs

        def under_train(span):
            m = (name == SPAN_NAMES.index(span)) & in_train
            return float(dur[m].sum()) / runs

        out["loop.gan_s"] = under_train("gan.pretrain")
        out["loop.collect_s"] = under_train("loop.collect_epoch")
        out["loop.eval_s"] = under_train("envs.evaluate_policy")
        out["loop.update_s"] = (out["loop.train.s"] - out["loop.gan_s"]
                                - out["loop.collect_s"] - out["loop.eval_s"])
        out["gan.pretrain.redundant"] = (
            len(self.fit_keys) - len(set(self.fit_keys))) / runs
        draws = int(np.sum(name == SPAN_NAMES.index("gan.sample_restart")))
        out["gan.restart_accept_ratio"] = (
            (draws - self.invalid_restarts) / draws if draws else 0.0)
        out["trace.spans"] = len(dur) / runs
        return out


def _hooked(tracer: Tracer, name: str, fn):
    """The traced wrapper, plus the counters two derived metrics need."""
    inner = tracer.traced(name, fn)
    if name == "gan.pretrain":
        @functools.wraps(fn)
        def pretrain(states, hparams, rng):
            tracer.fit_keys.append((len(tracer.run_labels) - 1,
                                    _fit_key(states, hparams, rng)))
            return inner(states, hparams, rng)
        return pretrain
    if name == "loop.collect_epoch":
        @functools.wraps(fn)
        def collect_epoch(*args, **kwargs):
            stats = inner(*args, **kwargs)
            tracer.invalid_restarts += stats.invalid_restarts
            return stats
        return collect_epoch
    return inner


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Swap every wrapped function for its traced wrapper while in the block.

    A function the program no longer defines is skipped and reports zero
    calls, so a rename shows in the numbers instead of stopping the run.
    """
    modules = [m for n, m in sys.modules.items()
               if n == "oris" or n.startswith("oris.")]
    undo = []
    try:
        for owner, attr, name in WRAPPED:
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            wrapper = _hooked(tracer, name, original)
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if m.__dict__.get(attr) is original]
            for holder in holders:
                for key, value in list(holder.__dict__.items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        undo.append((holder, key, original))
        yield tracer
    finally:
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)
