"""End-to-end tests of the command-line interface (no subprocesses)."""

import json
from pathlib import Path
import re
import shlex

import numpy as np
import pytest

from oris import cli, datasets, harness, presets, sac
from oris.data import load_dataset, save_dataset
from test_datasets import TINY

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_data")
    ds = datasets.generate_dataset("pendulum", "random", episodes=2, seed=0)
    save_dataset(ds, d / "pendulum_random.jsonl")
    return d


@pytest.fixture(scope="module")
def tiny_reference(tmp_path_factory):
    """A `--reference-config` file: a reference run of well under a second."""
    path = tmp_path_factory.mktemp("reference") / "tiny.json"
    path.write_text(json.dumps(TINY.to_json()))
    return path


def write_config(path, data_dir, **over):
    d = {
        "env_id": "pendulum",
        "dataset": str(data_dir / "pendulum_random.jsonl"),
        "variant": "naive_mix",
        "seeds": [0],
        "perturbation": {"gravity_scale": 2.0},
        "refs": {"random_ref": -1500.0, "expert_ref": -100.0},
        "oris": {"rollout_horizon": 2, "rollout_count": 1, "epochs": 1,
                 "updates_per_epoch": 1, "eval_episodes": 1},
        "sac": {"hidden": [16, 16], "batch_off": 8, "batch_sim": 8},
    }
    d.update(over)
    path.write_text(json.dumps(d))
    return path


def test_gen_dataset_writes_the_env_tiers_and_refs(tmp_path, tiny_reference, capsys):
    rc = cli.main(["gen-dataset", "--env", "pointgoal", "--seed", "3",
                   "--out", str(tmp_path), "--reference-config", str(tiny_reference)])
    assert rc == 0
    tiers = presets.TIER_EPISODES["pointgoal"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["pointgoal_refs.json", *(f"pointgoal_{t}.jsonl" for t in tiers)])
    printed = capsys.readouterr().out
    for tier, episodes in tiers.items():
        ds = load_dataset(tmp_path / f"pointgoal_{tier}.jsonl")
        assert ds.meta["tier"] == tier and ds.meta["behavior_policy_seed"] == 4
        assert len(ds.trajectory_boundaries) == episodes
        assert f"pointgoal_{tier}.jsonl: {len(ds)} transitions, " \
            f"{episodes} trajectories" in printed
    text = (tmp_path / "pointgoal_refs.json").read_text()
    refs = json.loads(text)
    assert list(refs) == sorted(refs) and text.endswith("}\n")
    assert refs["env_id"] == "pointgoal" and refs["seed"] == 3


def test_train_minimal_config(tmp_path, data_dir, capsys):
    cfg = write_config(tmp_path / "c.json", data_dir)
    rc = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert rc == 0
    tags, rows = __import__("oris.harness", fromlist=["x"]).read_metrics_csv(
        tmp_path / "run" / "naive_mix_seed0.csv")
    assert len(rows) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["naive_mix"]["n"] == 1


def test_train_schema_violation_names_field(tmp_path, data_dir, capsys):
    cfg = write_config(tmp_path / "c.json", data_dir,
                       perturbation={"gravity_scale": -1.0})
    rc = cli.main(["train", "--config", str(cfg)])
    assert rc == 2
    assert "gravity_scale" in capsys.readouterr().err


def test_train_unknown_key_exits_2(tmp_path, data_dir, capsys):
    cfg = write_config(tmp_path / "c.json", data_dir, frobnicate=1)
    rc = cli.main(["train", "--config", str(cfg)])
    assert rc == 2
    assert "frobnicate" in capsys.readouterr().err


def test_train_missing_config_file(tmp_path, capsys):
    rc = cli.main(["train", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "no such file" in capsys.readouterr().err


@pytest.mark.parametrize("text, reason", [
    (None, "no such file"), ("{not json", "not valid JSON"),
    ("[-1500.0, -100.0]", "not a JSON object")])
def test_train_bad_refs_file_exits_2(tmp_path, data_dir, capsys, text, reason):
    refs = tmp_path / "refs.json"
    if text is not None:
        refs.write_text(text)
    cfg = write_config(tmp_path / "c.json", data_dir, refs=None,
                       refs_path=str(refs))
    rc = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and str(refs) in err and reason in err


@pytest.mark.parametrize("doc, where", [
    ({"total_steps": 800, "warmup": 10}, r"ReferenceHparams: unknown keys \['warmup'\]"),
    ({"sac": {"hiden": [8]}}, r"ReferenceHparams\.sac: unknown keys \['hiden'\]"),
    ({"sac": {"actor_lr": -0.001}}, r"ReferenceHparams\.sac: learning rates must be positive")])
def test_gen_dataset_reference_config_unknown_key_exits_2(tmp_path, capsys, doc, where):
    path = tmp_path / "ref.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["gen-dataset", "--env", "pendulum",
                   "--out", str(tmp_path / "data"), "--reference-config", str(path)])
    assert rc == 2
    assert re.search(where, capsys.readouterr().err)
    assert not (tmp_path / "data").exists()


def test_train_seed_override(tmp_path, data_dir):
    cfg = write_config(tmp_path / "c.json", data_dir, seeds=[0, 1])
    rc = cli.main(["train", "--config", str(cfg), "--seed", "5",
                   "--out", str(tmp_path / "run")])
    assert rc == 0
    assert sorted(p.name for p in (tmp_path / "run").glob("*.csv")) \
        == ["naive_mix_seed5.csv"]


def test_evaluate_saved_agent(tmp_path, capsys):
    agent = sac.SacAgent.create(3, 1, 2.0, sac.SacHparams(hidden=(16, 16)), 0)
    sac.save_agent(agent, tmp_path / "agent")
    rc = cli.main(["evaluate", "--agent", str(tmp_path / "agent"),
                   "--env", "pendulum", "--episodes", "2", "--seed", "0"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["episodes"] == 2
    assert len(out["returns"]) == 2
    assert out["return_mean"] == pytest.approx(np.mean(out["returns"]))


def test_gen_dataset_train_evaluate_chain(tmp_path, tiny_reference, capsys):
    """The CLI's own artifacts chain: the tiers of a tiny reference run, an
    oris run on the medium_replay tier that saves its agent, and an
    evaluation of that agent. The config keeps inline refs: a reference this
    small can evaluate below random."""
    data, run = tmp_path / "data", tmp_path / "run"
    assert cli.main(["gen-dataset", "--env", "pendulum", "--seed", "1",
                     "--out", str(data), "--reference-config", str(tiny_reference)]) == 0
    cfg = write_config(tmp_path / "c.json", data, variant="oris", seeds=[0, 1],
                       dataset=str(data / "pendulum_medium_replay.jsonl"),
                       gan={"z_dim": 2, "hidden": [8], "iterations": 10,
                            "batch_size": 16})
    assert cli.main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    capsys.readouterr()
    for seed in (0, 1):
        agent_dir = run / f"oris_seed{seed}_agent"
        assert sac.load_agent(agent_dir).update_count == 1
        assert cli.main(["evaluate", "--agent", str(agent_dir), "--env", "pendulum",
                         "--episodes", "2", "--seed", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["returns"]) == 2 and np.isfinite(out["return_mean"])
    assert sorted(p.name for p in run.iterdir()) == [
        "oris_seed0.csv", "oris_seed0_agent", "oris_seed1.csv", "oris_seed1_agent",
        "score_table.json"]


def test_sweep_cli(tmp_path, data_dir, capsys):
    cfg = write_config(tmp_path / "c.json", data_dir)
    rc = cli.main(["sweep", "--config", str(cfg), "--axis", "fraction",
                   "--out", str(tmp_path / "sw")])
    assert rc == 0
    table = json.loads((tmp_path / "sw" / "sweep_table.json").read_text())
    assert [p["label"] for p in table["points"]] \
        == ["fraction_1", "fraction_0.25", "fraction_0.05"]
    printed = json.loads(capsys.readouterr().out)
    assert set(printed) == {"fraction_1", "fraction_0.25", "fraction_0.05"}


def test_study_flags_summary_and_failures(tmp_path, monkeypatch, capsys):
    cells = []

    def run_experiment(cfg, out_dir=None, progress=None):
        cells.append(cfg)
        rows = [{"variant": cfg.variant, "seed": s, "final_score": 50.0,
                 "final_return": -500.0, "returns": [-500.0]} for s in cfg.seeds]
        failures = [{"variant": cfg.variant, "seed": 8,
                     "error": "NumericsError: synthetic"}] \
            if cfg.variant == "naive_mix" else []
        return harness.ScoreTable(cfg.config_hash(), rows), failures

    monkeypatch.setattr(harness, "run_experiment", run_experiment)
    out = str(tmp_path / "study")
    rc = cli.main(["study", "main_comparison", "--data", "mydata",
                   "--out", out, "--seeds", "7", "8"])
    assert rc == 1
    variants = ["oris", "naive_mix", "sim_only_sac"]
    assert [c.variant for c in cells] == variants
    assert [c.out_dir for c in cells] == [f"{out}/{v}" for v in variants]
    for c in cells:
        assert c.seeds == (7, 8)
        assert c.dataset == "mydata/pendulum_medium_replay.jsonl"
        assert c.refs_path == "mydata/pendulum_refs.json"
    printed, err = capsys.readouterr()
    summary = json.loads(printed)
    assert set(summary) == set(variants)
    assert summary["oris"]["oris"]["n"] == 2
    assert err.strip() == "naive_mix seed 8 failed: NumericsError: synthetic"


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])
    with pytest.raises(SystemExit):
        cli.main(["sweep", "--config", "x", "--axis", "bogus"])
    with pytest.raises(SystemExit):
        cli.main(["study", "no_such_study"])


def test_readme_commands_parse_and_name_existing_files():
    """Every `oris ...` / `python -m oris.cli ...` line of the README's sh
    blocks parses, and every *.py path those blocks name exists."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            while words and "=" in words[0]:  # VAR=value prefixes
                words.pop(0)
            for word in words:
                assert not word.endswith(".py") or (README.parent / word).exists(), line
            if words[:1] == ["oris"]:
                commands.append(words[1:])
            elif words[:3] == ["python", "-m", "oris.cli"]:
                commands.append(words[3:])
    assert any(argv[0] == "gen-dataset" for argv in commands)
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: oris {shlex.join(argv)}")
