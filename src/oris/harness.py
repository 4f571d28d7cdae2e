"""Experiment configs, metrics CSVs, normalized scores, and run_cell, the
one runner from a config, or a sweep of it, to its results.

One ExperimentConfig describes one (env, sim perturbation, dataset, variant)
cell run over a list of seeds. Every output file embeds a hash of the config
that produced it; aggregation refuses to merge files with different hashes.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import envs, gan as gan_mod, loop, sac
from .config import Config, load_json
from .data import load_dataset, subsample_trajectories
from .errors import ConfigError, NumericsError
from .files import atomic_write, write_json
from .loop import EpochReport, OrisConfig

CSV_COLUMNS = ("epoch", "env_steps", "eval_return_mean", "eval_return_std",
               "normalized_score", "critic_loss", "actor_loss", "temperature",
               "mean_sim_weight", "random_rollout_fraction",
               "invalid_restart_count")

SWEEP_AXES = ("gravity", "gap_type", "fraction", "ablation")


def normalized_score(raw: float, random_ref: float, expert_ref: float) -> float:
    """Return on the 0-100 scale anchored at the random and expert references."""
    if not expert_ref > random_ref:
        raise ConfigError(
            f"expert_ref ({expert_ref}) must exceed random_ref ({random_ref})")
    return 100.0 * (raw - random_ref) / (expert_ref - random_ref)


@dataclass(frozen=True, kw_only=True)
class Refs(Config):
    """The refs file `oris gen-dataset` writes: the returns a score is
    anchored at, which resolve_refs refuses unless expert_ref > random_ref."""

    env_id: str
    random_ref: float
    expert_ref: float
    seed: int | None = None
    medium_return: float | None = None


@dataclass(frozen=True)
class ExperimentConfig(Config):
    env_id: str
    dataset: str
    variant: str
    seeds: tuple[int, ...]
    refs_path: str
    perturbation: envs.DynamicsPerturbation = envs.UNPERTURBED
    dataset_fraction: float = 1.0
    subsample_seed: int = 0
    out_dir: str = "runs"
    oris: OrisConfig = field(default_factory=OrisConfig)
    sac: sac.SacHparams = field(default_factory=sac.SacHparams)
    gan: gan_mod.GanHparams = field(default_factory=gan_mod.GanHparams)

    def __post_init__(self):
        if self.env_id not in envs.ENV_IDS:
            raise ConfigError(f"unknown env_id {self.env_id!r}")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds) or any(
                isinstance(s, bool) or not isinstance(s, (int, np.integer)) or s < 0
                for s in self.seeds):
            raise ConfigError(f"seeds must be a non-empty list of distinct non-negative "
                              f"integers, got {list(self.seeds)}")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not 0.0 < self.dataset_fraction <= 1.0:
            raise ConfigError(
                f"dataset_fraction must be in (0, 1], got {self.dataset_fraction}")
        if self.subsample_seed < 0:
            raise ConfigError(f"subsample_seed must be >= 0, got {self.subsample_seed}")
        if self.variant != self.oris.variant:
            object.__setattr__(self, "oris",
                               dataclasses.replace(self.oris, variant=self.variant))

    def resolve_refs(self) -> tuple[float, float]:
        """(random_ref, expert_ref) from the refs file, which must be for
        this config's env and able to score."""
        refs = Refs.from_json(load_json(self.refs_path), self.refs_path)
        if refs.env_id != self.env_id:
            raise ConfigError(f"{self.refs_path}: refs for {refs.env_id!r}, but the "
                              f"config is for {self.env_id!r}")
        try:
            normalized_score(0.0, refs.random_ref, refs.expert_ref)
        except ConfigError as e:
            raise ConfigError(f"{self.refs_path}: {e}") from None
        return refs.random_ref, refs.expert_ref

    @classmethod
    def from_json(cls, d: dict, path: str = "config") -> "ExperimentConfig":
        """Config.from_json; the oris section may repeat the top-level
        variant, which __post_init__ carries into it, but not contradict it."""
        oris, variant = d.get("oris"), d.get("variant")
        if isinstance(oris, dict) and oris.get("variant", variant) != variant:
            raise ConfigError(f"{path}: variant in the oris section contradicts "
                              "the top-level variant")
        return super().from_json(d, path)

    def config_hash(self) -> str:
        """Hash of every key that decides a result: all of to_json() but
        out_dir, so a cell keeps its hash wherever its output goes."""
        d = self.to_json()
        del d["out_dir"]
        blob = json.dumps(d, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def with_overrides(self, **over) -> "ExperimentConfig":
        """This config with top-level keys replaced. A new variant is carried
        into the oris section unless that section is overridden too."""
        d = self.to_json()
        d.update(over)
        if "variant" in over and "oris" not in over:
            d["oris"] = {**d["oris"], "variant": over["variant"]}
        return ExperimentConfig.from_json(d)


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_metrics_csv(path, reports: list[EpochReport], refs: tuple[float, float],
                      config_hash: str, variant: str, seed: int) -> None:
    random_ref, expert_ref = refs
    buf = io.StringIO()
    buf.write(f"# config_hash={config_hash} variant={variant} seed={seed}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for r in reports:
        score = normalized_score(r.eval_return_mean, random_ref, expert_ref)
        w.writerow([_fmt(v) for v in (
            r.epoch, r.env_steps, r.eval_return_mean, r.eval_return_std,
            score, r.critic_loss, r.actor_loss, r.temperature,
            r.mean_sim_weight, r.random_rollout_fraction,
            r.invalid_restart_count)])
    with atomic_write(path) as f:
        f.write(buf.getvalue())


def read_metrics_csv(path) -> tuple[dict, list[dict]]:
    """-> (header tags, rows as dicts of parsed numbers)."""
    text = Path(path).read_text().splitlines()
    if not text or not text[0].startswith("# "):
        raise ConfigError(f"{path}: missing tag line")
    tags = dict(tok.split("=", 1) for tok in text[0][2:].split())
    rows = []
    for row in csv.DictReader(text[1:]):
        parsed = {}
        for k, v in row.items():
            parsed[k] = int(v) if k in ("epoch", "env_steps",
                                        "invalid_restart_count") else float(v)
        rows.append(parsed)
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    return tags, rows


@dataclass
class ScoreTable:
    config_hash: str
    rows: list[dict]  # variant, seed, final_return, final_score, returns

    def summary(self) -> dict:
        """{variant: stats}, or {} for no rows: one hash, so one variant."""
        if not self.rows:
            return {}
        scores = np.array([r["final_score"] for r in self.rows])
        rets = np.array([r["final_return"] for r in self.rows])
        return {self.rows[0]["variant"]: {
            "n": int(len(scores)),
            "score_mean": float(scores.mean()),
            "score_std": float(scores.std()),
            "return_mean": float(rets.mean()),
            "return_std": float(rets.std())}}

    def to_json(self) -> dict:
        return {"config_hash": self.config_hash, "rows": self.rows,
                "summary": self.summary()}


def score_table_from_csvs(paths) -> ScoreTable:
    """Rebuild the table purely from emitted CSVs; refuses mixed hashes."""
    rows = []
    hashes = set()
    for path in sorted(Path(p) for p in paths):
        tags, data = read_metrics_csv(path)
        hashes.add(tags["config_hash"])
        rows.append({
            "variant": tags["variant"], "seed": int(tags["seed"]),
            "final_return": data[-1]["eval_return_mean"],
            "final_score": data[-1]["normalized_score"],
            "returns": [r["eval_return_mean"] for r in data]})
    if len(hashes) > 1:
        raise ConfigError(f"refusing to merge mixed config hashes {sorted(hashes)}")
    if not rows:
        raise ConfigError("no CSVs to aggregate")
    return ScoreTable(hashes.pop(), rows)


def _load_offline(cfg: ExperimentConfig):
    p = Path(cfg.dataset)
    if not p.exists():
        raise ConfigError(f"dataset {cfg.dataset!r} does not exist")
    ds = load_dataset(p)
    if ds.meta.env_id != cfg.env_id:
        raise ConfigError(f"{p}: dataset is for {ds.meta.env_id!r}, "
                          f"config says {cfg.env_id!r}")
    try:
        loop.check_offline(ds)  # as train does, but before anything is written
    except ConfigError as e:
        raise ConfigError(f"{p}: {e}") from None
    if cfg.dataset_fraction < 1.0:
        ds = subsample_trajectories(ds, cfg.dataset_fraction, cfg.subsample_seed)
    if cfg.oris.needs_gan() and len(ds) < gan_mod.MIN_FIT_STATES:
        raise ConfigError(f"{p}: {len(ds)} rows at dataset_fraction {cfg.dataset_fraction:g}, "
                          f"but the {cfg.variant} GAN fit needs at least {gan_mod.MIN_FIT_STATES}")
    return ds


def run_experiment(cfg: ExperimentConfig, out_dir, progress=None):
    """Train every seed, write one CSV and one agent directory each (see
    sac.save_agent) plus a score table.

    Returns (ScoreTable, failures); a seed that diverges (NumericsError) is
    recorded in `failures` and the table aggregates the rest. Any other
    exception, such as a ContractError from a damaged input file, stops the
    run. GANs are shared through the store `<parent of out_dir>/gans/`:
    sibling cells of a study (sweep points, variants) load a GAN one of them
    fitted from the same offline states, GAN hparams and seed instead of
    fitting it again.
    """
    offline = _load_offline(cfg)
    refs = cfg.resolve_refs()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    chash = cfg.config_hash()

    failures = []
    csv_paths = []
    for seed in cfg.seeds:
        try:
            agent, reports = loop.train(offline, cfg.perturbation, cfg.oris,
                                        cfg.sac, int(seed), gan_hp=cfg.gan,
                                        progress=progress,
                                        gan_store=out.parent / "gans")
        except NumericsError as e:
            failures.append({"variant": cfg.variant, "seed": int(seed),
                             "error": f"{type(e).__name__}: {e}"})
            continue
        path = out / f"{cfg.variant}_seed{seed}.csv"
        write_metrics_csv(path, reports, refs, chash, cfg.variant, int(seed))
        sac.save_agent(agent, out / f"{cfg.variant}_seed{seed}_agent")
        csv_paths.append(path)

    table = score_table_from_csvs(csv_paths) if csv_paths else ScoreTable(chash, [])
    write_json(out / "score_table.json", table.to_json())
    if failures:
        write_json(out / "failures.json", failures)
    return table, failures


def sweep_points(cfg: ExperimentConfig, axis: str) -> list[tuple[str, dict]]:
    """Expand one axis into (label, config overrides) pairs."""
    if axis == "gravity":
        return [(f"gravity_{g:g}", {"perturbation": {"gravity_scale": float(g)}})
                for g in (2, 3, 4, 5)]
    if axis == "gap_type":
        noise = 1.0 * envs.ENVS[cfg.env_id].action_scale
        return [("gap_gravity", {"perturbation": {"gravity_scale": 2.0}}),
                ("gap_friction", {"perturbation": {"friction_scale": 0.3}}),
                ("gap_action_noise", {"perturbation": {"action_noise_std": noise}})]
    if axis == "fraction":
        return [(f"fraction_{f:g}", {"dataset_fraction": f})
                for f in (1.0, 0.25, 0.05)]
    if axis == "ablation":
        return [(v, {"variant": v})
                for v in ("oris", "no_restart", "uniform_weight", "naive_mix")]
    raise ConfigError(f"unknown sweep axis {axis!r}, know {SWEEP_AXES}")


def run_cell(cfg: ExperimentConfig, axis: str | None, out_dir,
             progress=None) -> tuple[dict, list[dict]]:
    """Run `cfg` in `out_dir`, or, given an axis, each of its sweep points
    in `<out_dir>/<label>` and then `sweep_table.json`.

    Returns (summary, failures): the score table's summary, or one per point
    label; and the failure records of run_experiment, each tagged with its
    sweep point's label as "point".
    """
    out = Path(out_dir)
    if axis is None:
        table, failures = run_experiment(cfg, out, progress=progress)
        return table.summary(), failures
    points, failures = [], []
    for label, overrides in sweep_points(cfg, axis):
        point_cfg = cfg.with_overrides(**overrides)
        table, point_failures = run_experiment(point_cfg, out / label,
                                               progress=progress)
        points.append({"label": label, "overrides": overrides,
                       "config_hash": point_cfg.config_hash(),
                       "summary": table.summary()})
        failures += [{"point": label, **f} for f in point_failures]
    write_json(out / "sweep_table.json",
               {"axis": axis, "base_config_hash": cfg.config_hash(),
                "points": points, "failures": failures})
    return {p["label"]: p["summary"] for p in points}, failures
