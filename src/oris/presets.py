"""Tuned desk-scale presets: one CPU core, minutes per run, and the paper's
studies built from them.

The library defaults on SacHparams / GanHparams / OrisConfig are the
conventional values; they need far more compute than a laptop budget.
Every study builds its configs from these presets instead so results stay
comparable across studies.
"""
from typing import NamedTuple

from . import gan, sac
from .envs import UNPERTURBED, DynamicsPerturbation
from .harness import ExperimentConfig
from .loop import OrisConfig

# Baselines collect with plain pi rollouts (random_policy_prob 0); the
# budget sits mid-convergence, where restart quality and data reuse still
# matter. Raising w_min to 0.3 compensates the discriminator's lack of
# spatial contrast on densely covered state spaces.
LOOP_DEFAULTS = dict(epochs=20, rollout_count=10, rollout_horizon=100,
                     updates_per_epoch=250, random_policy_prob=0.0,
                     eval_episodes=10)


def desk_sac(**over) -> sac.SacHparams:
    kw = dict(hidden=(64, 64), critic_lr=1e-3, tau=0.01)
    kw.update(over)
    return sac.SacHparams(**kw)


def desk_gan(**over) -> gan.GanHparams:
    kw = dict(iterations=2000, w_min=0.3)
    kw.update(over)
    return gan.GanHparams(**kw)


def desk_loop(variant: str, **over) -> OrisConfig:
    kw = dict(LOOP_DEFAULTS)
    kw.update(over)
    return OrisConfig(variant=variant, **kw)


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


def study_cells(name: str, data: str, out: str, seeds) -> list[ExperimentConfig]:
    """One desk-preset config per variant of study `name`, reading
    `<data>/<env>_<tier>.jsonl` and `<data>/<env>_refs.json`. A study of
    several variants writes each to `<out>/<variant>`, one of a single
    variant to `<out>` itself."""
    study = STUDIES[name]
    return [ExperimentConfig(
        env_id=study.env_id,
        dataset=f"{data}/{study.env_id}_{study.tier}.jsonl",
        variant=variant,
        seeds=tuple(seeds),
        perturbation=study.perturbation,
        refs_path=f"{data}/{study.env_id}_refs.json",
        out_dir=f"{out}/{variant}" if len(study.variants) > 1 else out,
        oris=desk_loop(variant),
        sac=desk_sac(),
        gan=desk_gan(),
    ) for variant in study.variants]
