"""Tests for the study table: the cells each study builds, and the README's
example config."""

import json
import re
from pathlib import Path

import pytest

from oris import cli, envs, harness, presets
from oris.data import TIERS
from oris.harness import ExperimentConfig, ScoreTable

# (out dir, sweep axis, base config hash, {sweep point: config hash}) per
# cell at default arguments. A change that moves them on purpose says so and
# records them here once; two cells that share a hash train the same run.
STUDY_CELLS = {
    "main_comparison": [
        ("runs/main_comparison/oris", None, "c27f32c5a406", None),
        ("runs/main_comparison/naive_mix", None, "3c6f6f422e41", None),
        ("runs/main_comparison/sim_only_sac", None, "817c674089c3", None),
    ],
    "gap_grid": [
        ("runs/gap_grid/oris", "gap_type", "a3e27b62ef19",
         {"gap_gravity": "c27f32c5a406", "gap_friction": "bb9cb5ffa65a",
          "gap_action_noise": "0915d07e0fea"}),
        ("runs/gap_grid/naive_mix", "gap_type", "0058c24b1c06",
         {"gap_gravity": "3c6f6f422e41", "gap_friction": "a925bd1b0e91",
          "gap_action_noise": "5567993c8836"}),
        ("runs/gap_grid/sim_only_sac", "gap_type", "090feb8e73de",
         {"gap_gravity": "817c674089c3", "gap_friction": "ce3cba0fe298",
          "gap_action_noise": "c0864af00a51"}),
    ],
    "gc_sweep": [
        ("runs/gc_sweep/oris", "gravity", "a3e27b62ef19",
         {"gravity_2": "c27f32c5a406", "gravity_3": "6be809292261",
          "gravity_4": "88bf7cca6e07", "gravity_5": "5c30bb6bab59"}),
        ("runs/gc_sweep/sim_only_sac", "gravity", "090feb8e73de",
         {"gravity_2": "817c674089c3", "gravity_3": "1fab98f19416",
          "gravity_4": "198fe48d88f0", "gravity_5": "b46c2ab2b611"}),
    ],
    "small_data": [
        ("runs/small_data/oris", "fraction", "c27f32c5a406",
         {"fraction_1": "c27f32c5a406", "fraction_0.25": "44c29da9f65a",
          "fraction_0.05": "2ff0076518ee"}),
        ("runs/small_data/bc", "fraction", "6f7286671544",
         {"fraction_1": "6f7286671544", "fraction_0.25": "a7c03848d65b",
          "fraction_0.05": "5bc0aed8b8a2"}),
    ],
    "ablations": [
        ("runs/ablations", "ablation", "18ecb865b339",
         {"oris": "18ecb865b339", "no_restart": "c86549e3501a",
          "uniform_weight": "9a77f8964a45", "naive_mix": "ce38d267e700"}),
    ],
}


@pytest.fixture
def recorded(monkeypatch) -> list:
    """Replace the harness's run and sweep with stubs that record each call
    as (config, out dir, axis, {point: hash}) and report success."""
    calls = []

    def run_experiment(cfg, out_dir=None, progress=None):
        calls.append((cfg, out_dir or cfg.out_dir, None, None))
        return ScoreTable(cfg.config_hash(), []), []

    def sweep(cfg, axis, out_dir=None, progress=None):
        points = {label: cfg.with_overrides(**over).config_hash()
                  for label, over in harness.sweep_points(cfg, axis)}
        calls.append((cfg, out_dir or cfg.out_dir, axis, points))
        return {"points": [], "failures": []}

    monkeypatch.setattr(harness, "run_experiment", run_experiment)
    monkeypatch.setattr(harness, "sweep", sweep)
    return calls


def test_study_table_names_every_study():
    assert set(presets.STUDIES) == set(STUDY_CELLS)


@pytest.mark.parametrize("name", sorted(presets.STUDIES))
def test_gen_dataset_writes_the_tier_each_study_reads(name):
    study = presets.STUDIES[name]
    assert study.tier in presets.TIER_EPISODES[study.env_id]


def test_tier_table_covers_every_env_with_known_tiers():
    assert set(presets.TIER_EPISODES) == set(envs.ENV_IDS)
    for tiers in presets.TIER_EPISODES.values():
        assert set(tiers) <= set(TIERS) and min(tiers.values()) >= 1


@pytest.mark.parametrize("name", sorted(STUDY_CELLS))
def test_study_builds_the_pinned_cells(name, recorded, capsys):
    assert cli.main(["study", name]) == 0
    got = [(out, axis, cfg.config_hash(), points)
           for cfg, out, axis, points in recorded]
    assert got == STUDY_CELLS[name]
    printed = json.loads(capsys.readouterr().out)
    assert list(printed) == sorted(presets.STUDIES[name].variants)


def test_readme_config_is_the_main_comparison_oris_cell():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    cfg = ExperimentConfig.from_json(json.loads(block))
    cell = presets.study_cells("main_comparison", "data", "runs/main", range(5))[0]
    assert cfg.config_hash() == cell.config_hash() == "c27f32c5a406"
