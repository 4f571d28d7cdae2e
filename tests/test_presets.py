"""Tests for the study table: the cells each study builds, and the README's
example config."""

import json
import re
from pathlib import Path

import pytest

from oris import cli, harness, presets
from oris.harness import ExperimentConfig, ScoreTable

# (out dir, sweep axis, base config hash, {sweep point: config hash}) per
# cell at default arguments, as the per-study run scripts built them before
# `oris study` replaced them.
STUDY_CELLS = {
    "main_comparison": [
        ("runs/main_comparison/oris", None, "95a4016b4cf8", None),
        ("runs/main_comparison/naive_mix", None, "cf70a03f5df7", None),
        ("runs/main_comparison/sim_only_sac", None, "a3de6eb8e9a9", None),
    ],
    "gap_grid": [
        ("runs/gap_grid/oris", "gap_type", "27efd6db67b0",
         {"gap_gravity": "95a4016b4cf8", "gap_friction": "daba1e49f654",
          "gap_action_noise": "57f5f02013f3"}),
        ("runs/gap_grid/naive_mix", "gap_type", "92fcc62f4d18",
         {"gap_gravity": "cf70a03f5df7", "gap_friction": "a324081fdbfa",
          "gap_action_noise": "4d64d6830601"}),
        ("runs/gap_grid/sim_only_sac", "gap_type", "12d09981a2f2",
         {"gap_gravity": "a3de6eb8e9a9", "gap_friction": "aa8480696d9e",
          "gap_action_noise": "9ce2cf016bb8"}),
    ],
    "gc_sweep": [
        ("runs/gc_sweep/oris", "gravity", "27efd6db67b0",
         {"gravity_2": "95a4016b4cf8", "gravity_3": "21751d5fd841",
          "gravity_4": "79a69ee5da78", "gravity_5": "3db89a698dcc"}),
        ("runs/gc_sweep/sim_only_sac", "gravity", "12d09981a2f2",
         {"gravity_2": "a3de6eb8e9a9", "gravity_3": "fe49be9b32ee",
          "gravity_4": "7289a5bc81c3", "gravity_5": "c1a75d3c7280"}),
    ],
    "small_data": [
        ("runs/small_data/oris", "fraction", "95a4016b4cf8",
         {"fraction_1": "95a4016b4cf8", "fraction_0.25": "aa93fe3efdc2",
          "fraction_0.05": "44cb346b6edc"}),
        ("runs/small_data/bc", "fraction", "dd662ea64f8d",
         {"fraction_1": "dd662ea64f8d", "fraction_0.25": "d0267f48d075",
          "fraction_0.05": "718a1480ea3f"}),
    ],
    "ablations": [
        ("runs/ablations", "ablation", "f856e246b843",
         {"oris": "f856e246b843", "no_restart": "7ff7cb26c9b2",
          "uniform_weight": "2bebd53f5e45", "naive_mix": "b89bb85aff24"}),
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
    assert cfg.config_hash() == cell.config_hash() == "95a4016b4cf8"
