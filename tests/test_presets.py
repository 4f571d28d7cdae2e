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
        ("runs/main_comparison/oris", None, "da37c73222f1", None),
        ("runs/main_comparison/naive_mix", None, "a06e42d90ce6", None),
        ("runs/main_comparison/sim_only_sac", None, "6c6b4a0e9498", None),
    ],
    "gap_grid": [
        ("runs/gap_grid/oris", "gap_type", "ca7cf277c860",
         {"gap_gravity": "da37c73222f1", "gap_friction": "df0bd94abe1b",
          "gap_action_noise": "06118f5042b9"}),
        ("runs/gap_grid/naive_mix", "gap_type", "6908d509854a",
         {"gap_gravity": "a06e42d90ce6", "gap_friction": "2a67fa181b25",
          "gap_action_noise": "438508ff9d3f"}),
        ("runs/gap_grid/sim_only_sac", "gap_type", "c841bf63daa3",
         {"gap_gravity": "6c6b4a0e9498", "gap_friction": "871aeed02123",
          "gap_action_noise": "bb92e9ee4dbe"}),
    ],
    "gc_sweep": [
        ("runs/gc_sweep/oris", "gravity", "ca7cf277c860",
         {"gravity_2": "da37c73222f1", "gravity_3": "151241c28958",
          "gravity_4": "2965eeae209f", "gravity_5": "0c1dd446f9c6"}),
        ("runs/gc_sweep/sim_only_sac", "gravity", "c841bf63daa3",
         {"gravity_2": "6c6b4a0e9498", "gravity_3": "f15108748c7c",
          "gravity_4": "45aa557457ef", "gravity_5": "662af9ef2247"}),
    ],
    "small_data": [
        ("runs/small_data/oris", "fraction", "da37c73222f1",
         {"fraction_1": "da37c73222f1", "fraction_0.25": "864515fa716d",
          "fraction_0.05": "92924c35135e"}),
        ("runs/small_data/bc", "fraction", "7d9076c629ea",
         {"fraction_1": "7d9076c629ea", "fraction_0.25": "86e9b26bd1e5",
          "fraction_0.05": "e992a4e673d3"}),
    ],
    "ablations": [
        ("runs/ablations", "ablation", "cc61a8ad03b8",
         {"oris": "cc61a8ad03b8", "no_restart": "ad04c428f1ef",
          "uniform_weight": "f4477ccaefda", "naive_mix": "4c11d5b505c9"}),
    ],
}


@pytest.fixture
def recorded(monkeypatch, tmp_path) -> list:
    """Run from an empty directory with run_experiment replaced by a stub
    that records each call as (config, out dir), makes the directory as
    run_experiment does and reports success."""
    monkeypatch.chdir(tmp_path)
    calls = []

    def run_experiment(cfg, out_dir, progress=None):
        calls.append((cfg, Path(out_dir)))
        Path(out_dir).mkdir(parents=True)
        return ScoreTable(cfg.config_hash(), []), []

    monkeypatch.setattr(harness, "run_experiment", run_experiment)
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
    """Each cell, as (out dir, axis, base hash, {point: hash}): a run, or a
    sweep whose points ran in <out dir>/<label> and whose sweep_table.json
    names the same hashes."""
    assert cli.main(["study", name]) == 0
    cells = {}
    for cfg, out in recorded:
        table = out.parent / "sweep_table.json"
        if not table.exists():
            cells[str(out)] = (None, cfg.config_hash(), None)
            continue
        sweep = json.loads(table.read_text())
        assert {p["label"]: p["config_hash"] for p in sweep["points"]}[out.name] \
            == cfg.config_hash()
        _, _, points = cells.setdefault(
            str(out.parent), (sweep["axis"], sweep["base_config_hash"], {}))
        points[out.name] = cfg.config_hash()
    assert [(out, *cell) for out, cell in cells.items()] == STUDY_CELLS[name]
    printed = json.loads(capsys.readouterr().out)
    assert list(printed) == sorted(presets.STUDIES[name].variants)

def test_the_studies_share_cells():
    """At seeds 0-4 the five studies train 30 configs, of which 24 differ:
    a runner that skips a config it has trained does 20% less work."""
    studies_of = {}
    for name, study in presets.STUDIES.items():
        for cfg in presets.study_cells(name, "data", f"runs/{name}", range(5)):
            points = [cfg] if study.axis is None else [
                cfg.with_overrides(**over) for _, over in harness.sweep_points(cfg, study.axis)]
            for point in points:
                studies_of.setdefault(point.config_hash(), []).append(name)
    assert sum(len(names) for names in studies_of.values()) == 30
    assert len(studies_of) == 24
    assert studies_of["da37c73222f1"] == ["main_comparison", "gap_grid", "gc_sweep",
                                          "small_data"]

def test_readme_config_is_the_main_comparison_oris_cell():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    cfg = ExperimentConfig.from_json(json.loads(block))
    cell = presets.study_cells("main_comparison", "data", "runs/main", range(5))[0]
    assert cfg.config_hash() == cell.config_hash() == "da37c73222f1"
