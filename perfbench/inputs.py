"""Seeded, cached offline inputs for the benchmark workloads.

Everything is made through the public ``oris.datasets`` API. The two online
reference runs (pendulum and pointgoal, at ``REFERENCE_DEFAULTS``) are the
expensive part, so they are trained once per checkout from the fixed
``REFERENCE_SEED`` and kept under the work directory, in a directory named by
a digest of what decides them (env, seed, hparams). What depends on the
workload seed is cheap and cached per seed: the pointgoal ``medium`` tier is
rolled out from the cached reference with the workload seed as its behavior
seed, and the training and evaluation seeds of every cell are the workload
seed.

Each cache directory records the digest of its content when it is built, and
every use checks it (``InputsChanged`` if it no longer matches). The reference
digests the benchmark was defined with are kept in ``input_digests.json``;
a run reports whether its references still match them, which they do as long
as the program's numerics are unchanged.

A cached reference is rebuilt as an ``oris.datasets.ReferenceRun`` from its
saved agent (``sac.save_agent``), its checkpoint actors and its refs, which is
all that ``generate_dataset`` needs for the rolled-out tiers.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oris import datasets, sac
from oris.data import save_dataset

REFERENCE_SEED = 0
POINTGOAL_MEDIUM_EPISODES = 100  # as scripts/make_datasets.py
BUILD_FILE = "build.json"  # build time and content digest; left out of digests
DEFINED_DIGESTS = Path(__file__).resolve().parent / "input_digests.json"


class InputsChanged(Exception):
    """A cache directory's content differs from what was recorded at its build."""


@dataclass(frozen=True)
class InputSize:
    """Reference budgets; ``full`` is the library's REFERENCE_DEFAULTS."""

    references: dict
    # Tiny references learn nothing, so expert may not beat random; the refs
    # file then gets expert_ref = random_ref + min_ref_gap, which only keeps
    # normalized scores defined.
    min_ref_gap: float = 0.0


FULL = InputSize(datasets.REFERENCE_DEFAULTS)

# Seconds-long references for the self-check: enough to exercise every code
# path, far too short to learn anything.
TINY = InputSize({
    "pendulum": datasets.ReferenceHparams(
        total_steps=800, warmup_steps=400, eval_interval=200, eval_episodes=2,
        batch_size=32, sac=sac.SacHparams(hidden=(16, 16))),
    "pointgoal": datasets.ReferenceHparams(
        total_steps=1_200, warmup_steps=800, eval_interval=200, eval_episodes=2,
        batch_size=32, sac=sac.SacHparams(hidden=(16, 16))),
}, min_ref_gap=1.0)


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def tree_digest(root: Path) -> str:
    """One digest over every file under root, in sorted path order."""
    h = hashlib.sha256()
    for p in sorted(q for q in root.rglob("*") if q.is_file() and q.name != BUILD_FILE):
        h.update(str(p.relative_to(root)).encode())
        h.update(file_digest(p).encode())
    return h.hexdigest()[:16]


def _publish(tmp: Path, final: Path, seconds: float) -> None:
    """Record the build, then move the directory into place, so a cut run leaves no half cache."""
    (tmp / BUILD_FILE).write_text(json.dumps(
        {"seconds": seconds, "digest": tree_digest(tmp)}) + "\n")
    if final.exists():
        shutil.rmtree(tmp)
        return
    os.replace(tmp, final)


def _fresh_tmp(final: Path) -> Path:
    tmp = final.with_name(final.name + ".tmp")
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    return tmp


def _build_reference(env_id: str, size: InputSize, final: Path) -> None:
    tmp = _fresh_tmp(final)
    t0 = time.perf_counter()
    ref = datasets.train_reference(env_id, size.references[env_id], REFERENCE_SEED)
    seconds = time.perf_counter() - t0
    sac.save_agent(ref.agent, tmp / "agent")
    np.savez(tmp / "checkpoints.npz",
             step=np.array([c.step for c in ref.checkpoints]),
             episodes_collected=np.array([c.episodes_collected for c in ref.checkpoints]),
             eval_return=np.array([c.eval_return for c in ref.checkpoints]),
             actor_params=np.stack([c.actor_params for c in ref.checkpoints]))
    refs = {"env_id": env_id, **ref.refs()}
    if size.min_ref_gap:
        refs["expert_ref"] = max(refs["expert_ref"], refs["random_ref"] + size.min_ref_gap)
    (tmp / "refs.json").write_text(json.dumps(refs, indent=2) + "\n")
    if env_id == "pendulum":
        ds = datasets.generate_dataset(env_id, "medium_replay", 25,
                                       REFERENCE_SEED + 1, reference=ref)
        save_dataset(ds, tmp / "medium_replay.jsonl")
    (tmp / "reference.json").write_text(json.dumps(
        {"env_id": env_id, "reference_seed": REFERENCE_SEED,
         "hparams": size.references[env_id].to_json()}, indent=2) + "\n")
    _publish(tmp, final, seconds)


def load_reference(ref_dir: Path) -> datasets.ReferenceRun:
    """Rebuild the parts of a ReferenceRun that generate_dataset reads."""
    gen = json.loads((ref_dir / "reference.json").read_text())
    refs = json.loads((ref_dir / "refs.json").read_text())
    ck = np.load(ref_dir / "checkpoints.npz")
    checkpoints = [datasets.Checkpoint(int(s), int(e), float(r), p.copy())
                   for s, e, r, p in zip(ck["step"], ck["episodes_collected"],
                                         ck["eval_return"], ck["actor_params"])]
    return datasets.ReferenceRun(
        env_id=gen["env_id"], seed=int(gen["reference_seed"]),
        hparams=datasets.ReferenceHparams.from_json(gen["hparams"]),
        checkpoints=checkpoints, episodes=[],
        random_return=float(refs["random_ref"]),
        agent=sac.load_agent(ref_dir / "agent"))


def verified(d: Path) -> Path:
    """d, after checking its content against the digest recorded at its build."""
    recorded = json.loads((d / BUILD_FILE).read_text())["digest"]
    now = tree_digest(d)
    if now != recorded:
        raise InputsChanged(f"{d}: content digest {now}, built as {recorded}; "
                            f"delete the directory to rebuild it")
    return d


def reference_key(env_id: str, size: InputSize) -> str:
    """Cache name of a reference run: a digest of everything that decides it."""
    what = {"env_id": env_id, "reference_seed": REFERENCE_SEED,
            "hparams": size.references[env_id].to_json(),
            "min_ref_gap": size.min_ref_gap}
    h = hashlib.sha256(json.dumps(what, sort_keys=True).encode()).hexdigest()[:12]
    return f"{env_id}_reference_{h}"


class Inputs:
    """The cache of one input size under ``root``; builds what is missing.

    ``generated_s`` sums the one-time generation this process paid, so the
    caller can report it apart from set-up time. ``verify=False`` skips the
    content check, for callers that time the reads and run after one that
    checked.
    """

    def __init__(self, root: Path, size: InputSize = FULL, verify: bool = True):
        self.size = size
        self.root = Path(root)
        self.verify = verify
        self.generated_s = 0.0

    def _verified(self, d: Path) -> Path:
        return verified(d) if self.verify else d

    def reference_dir(self, env_id: str) -> Path:
        d = self.root / reference_key(env_id, self.size)
        if not d.exists():
            t0 = time.perf_counter()
            _build_reference(env_id, self.size, d)
            self.generated_s += time.perf_counter() - t0
        return self._verified(d)

    def pendulum(self) -> dict:
        d = self.reference_dir("pendulum")
        return {"dataset": d / "medium_replay.jsonl", "refs": d / "refs.json",
                "reference": d}

    def pointgoal(self, seed: int) -> dict:
        ref_dir = self.reference_dir("pointgoal")
        d = self.root / f"{ref_dir.name}_medium{POINTGOAL_MEDIUM_EPISODES}_seed{seed}"
        if not d.exists():
            t0 = time.perf_counter()
            tmp = _fresh_tmp(d)
            ds = datasets.generate_dataset("pointgoal", "medium",
                                           POINTGOAL_MEDIUM_EPISODES, seed,
                                           reference=load_reference(ref_dir))
            save_dataset(ds, tmp / "medium.jsonl")
            seconds = time.perf_counter() - t0
            _publish(tmp, d, seconds)
            self.generated_s += seconds
        self._verified(d)
        return {"dataset": d / "medium.jsonl", "refs": ref_dir / "refs.json",
                "reference": ref_dir}

    def reference_seconds(self) -> dict:
        """One-time reference training cost, as recorded when each was built."""
        out = {}
        for env_id in ("pendulum", "pointgoal"):
            p = self.root / reference_key(env_id, self.size) / BUILD_FILE
            if p.exists():
                out[env_id] = json.loads(p.read_text())["seconds"]
        return out

    def as_defined(self) -> bool | None:
        """Do the references match the digests the benchmark was defined with?

        None at a size that has no recorded digests.
        """
        defined = json.loads(DEFINED_DIGESTS.read_text())
        names = [reference_key(e, self.size) for e in ("pendulum", "pointgoal")]
        if not all(n in defined for n in names):
            return None
        return all(tree_digest(self.root / n) == defined[n] for n in names)


def digests(paths: dict) -> dict:
    """Content digests of a workload's inputs, for the run manifest."""
    out = {}
    for key, p in paths.items():
        p = Path(p)
        out[key] = tree_digest(p) if p.is_dir() else file_digest(p)
    return out
