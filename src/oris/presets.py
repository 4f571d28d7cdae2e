"""The paper's studies: which env, offline tier, simulator gap and variants
each runs, and the offline tiers `oris gen-dataset` writes for them. Every
study runs at the desk-scale defaults of SacHparams, GanHparams and
OrisConfig, so results stay comparable across studies.
"""
from typing import NamedTuple

from . import gan, sac
from .envs import UNPERTURBED, DynamicsPerturbation
from .harness import ExperimentConfig
from .loop import OrisConfig

# Aliases for their one importer, perfbench/workloads.py; they go once it
# imports the classes.
desk_sac, desk_gan, desk_loop = sac.SacHparams, gan.GanHparams, OrisConfig


class Study(NamedTuple):
    env_id: str
    tier: str  # offline dataset tier
    perturbation: DynamicsPerturbation  # the simulator gap of the base config
    variants: tuple
    axis: str | None  # sweep axis, None for one plain run per variant


GRAVITY_X2 = DynamicsPerturbation(gravity_scale=2.0)
PENDULUM_MAIN = ("oris", "naive_mix", "sim_only_sac")

# Episodes per offline tier (D4RL's random/medium/medium_replay/expert) that
# `oris gen-dataset` writes for each env: every tier some study reads. For
# medium_replay the count caps the reference history, most recent kept.
TIER_EPISODES = {
    "pendulum": {"random": 25, "medium": 50, "medium_replay": 25, "expert": 25},
    "pointgoal": {"random": 100, "medium": 100},
}

STUDIES = {
    "main_comparison": Study("pendulum", "medium_replay", GRAVITY_X2,
                             PENDULUM_MAIN, None),
    "gap_grid": Study("pendulum", "medium_replay", UNPERTURBED,
                      PENDULUM_MAIN, "gap_type"),
    "gc_sweep": Study("pendulum", "medium_replay", UNPERTURBED,
                      ("oris", "sim_only_sac"), "gravity"),
    "small_data": Study("pendulum", "medium_replay", GRAVITY_X2,
                        ("oris", "bc"), "fraction"),
    "ablations": Study("pointgoal", "medium", GRAVITY_X2, ("oris",),
                       "ablation"),
}


def data_file(data, env_id: str, name: str) -> str:
    """The file `oris gen-dataset` writes in directory `data` for env_id:
    `<data>/<env>_<tier>.rows` for a tier, `<data>/<env>_refs.json` for "refs"."""
    return f"{data}/{env_id}_{name}" + (".json" if name == "refs" else ".rows")


def study_cells(name: str, data: str, out: str, seeds) -> list[ExperimentConfig]:
    """One config per variant of study `name`, at the desk defaults, reading
    the tier and refs files of `data` (data_file). A study of several
    variants writes each to `<out>/<variant>`, one of a single variant to
    `<out>` itself."""
    study = STUDIES[name]
    return [ExperimentConfig(
        env_id=study.env_id,
        dataset=data_file(data, study.env_id, study.tier),
        variant=variant,
        seeds=tuple(seeds),
        perturbation=study.perturbation,
        refs_path=data_file(data, study.env_id, "refs"),
        out_dir=f"{out}/{variant}" if len(study.variants) > 1 else out,
    ) for variant in study.variants]
