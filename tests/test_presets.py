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
# cell at default arguments, as the per-study run scripts built them before
# `oris study` replaced them.
STUDY_CELLS = {
    "main_comparison": [
        ("runs/main_comparison/oris", None, "92c197eb1859", None),
        ("runs/main_comparison/naive_mix", None, "33f455472e2d", None),
        ("runs/main_comparison/sim_only_sac", None, "f9e54d7a9c26", None),
    ],
    "gap_grid": [
        ("runs/gap_grid/oris", "gap_type", "f5587c5628de",
         {"gap_gravity": "92c197eb1859", "gap_friction": "067e355e5aee",
          "gap_action_noise": "9a621d0dfcab"}),
        ("runs/gap_grid/naive_mix", "gap_type", "bb5462ef3309",
         {"gap_gravity": "33f455472e2d", "gap_friction": "3a97f7f9c349",
          "gap_action_noise": "ffd926445fc9"}),
        ("runs/gap_grid/sim_only_sac", "gap_type", "b3aed562bf45",
         {"gap_gravity": "f9e54d7a9c26", "gap_friction": "bc4ef51e832e",
          "gap_action_noise": "98fff710fec2"}),
    ],
    "gc_sweep": [
        ("runs/gc_sweep/oris", "gravity", "f5587c5628de",
         {"gravity_2": "92c197eb1859", "gravity_3": "db83fa230cf3",
          "gravity_4": "7bc79c6d2bfd", "gravity_5": "373a8d5b266c"}),
        ("runs/gc_sweep/sim_only_sac", "gravity", "b3aed562bf45",
         {"gravity_2": "f9e54d7a9c26", "gravity_3": "09ea0c637d90",
          "gravity_4": "ce8dabd11f87", "gravity_5": "53a3c168a288"}),
    ],
    "small_data": [
        ("runs/small_data/oris", "fraction", "92c197eb1859",
         {"fraction_1": "92c197eb1859", "fraction_0.25": "85508806d4f3",
          "fraction_0.05": "4fa5fa55ac72"}),
        ("runs/small_data/bc", "fraction", "153054fce569",
         {"fraction_1": "153054fce569", "fraction_0.25": "f3a9efa5b069",
          "fraction_0.05": "cef91c7bd4c5"}),
    ],
    "ablations": [
        ("runs/ablations", "ablation", "3bb5a54ce768",
         {"oris": "3bb5a54ce768", "no_restart": "06f27cb8f681",
          "uniform_weight": "ff678967fd09", "naive_mix": "e6673710629f"}),
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
    assert cfg.config_hash() == cell.config_hash() == "92c197eb1859"
