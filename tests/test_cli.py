"""End-to-end tests of the command-line interface (no subprocesses)."""

import json
from pathlib import Path
import re
import shlex

import numpy as np
import pytest

from oris import cli, datasets, gan, harness, presets, sac
from oris.data import Dataset, load_dataset, save_dataset
from oris.errors import NumericsError
from test_datasets import TINY
import oracles

README = Path(__file__).resolve().parents[1] / "README.md"
REFS = {"env_id": "pendulum", "random_ref": -1500.0, "expert_ref": -100.0}
DROP = object()  # a value that stands for the key's removal


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """A dataset and a refs file, as `oris gen-dataset` names them."""
    d = tmp_path_factory.mktemp("cli_data")
    ds = datasets.generate_dataset("pendulum", "random", episodes=2, seed=0)
    save_dataset(ds, d / "pendulum_random.rows")
    (d / "pendulum_refs.json").write_text(json.dumps(REFS))
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
        "dataset": str(data_dir / "pendulum_random.rows"),
        "variant": "naive_mix",
        "seeds": [0],
        "perturbation": {"gravity_scale": 2.0},
        "refs_path": str(data_dir / "pendulum_refs.json"),
        "oris": {"rollout_horizon": 2, "rollout_count": 1, "epochs": 1,
                 "updates_per_epoch": 1, "eval_episodes": 1},
        "sac": {"hidden": [16, 16], "batch_off": 8, "batch_sim": 8},
    }
    d.update(over)
    path.write_text(json.dumps({k: v for k, v in d.items() if v is not DROP}))
    return path


def test_gen_dataset_writes_the_env_tiers_and_refs(tmp_path, tiny_reference, capsys):
    rc = cli.main(["gen-dataset", "--env", "pointgoal", "--seed", "3",
                   "--out", str(tmp_path), "--reference-config", str(tiny_reference)])
    assert rc == 0
    tiers = presets.TIER_EPISODES["pointgoal"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["pointgoal_refs.json", *(f"pointgoal_{t}.rows" for t in tiers)])
    printed = capsys.readouterr().out
    for tier, episodes in tiers.items():
        ds = load_dataset(tmp_path / f"pointgoal_{tier}.rows")
        assert ds.meta.tier == tier and ds.meta.seed == 4
        assert len(ds.trajectory_boundaries) == episodes
        assert f"pointgoal_{tier}.rows: {len(ds)} transitions, " \
            f"{episodes} trajectories" in printed
    text = (tmp_path / "pointgoal_refs.json").read_text()
    refs = json.loads(text)
    assert list(refs) == sorted(refs) and text.endswith("}\n")
    assert refs["env_id"] == "pointgoal" and refs["seed"] == 3


def test_gen_dataset_warns_when_its_refs_cannot_score(tmp_path, tiny_reference, capsys):
    """A reference this small ends below random: the refs file is written and
    named in a warning with both values, and every tier is still written."""
    rc = cli.main(["gen-dataset", "--env", "pendulum", "--seed", "0",
                   "--out", str(tmp_path), "--reference-config", str(tiny_reference)])
    assert rc == 0
    for tier in presets.TIER_EPISODES["pendulum"]:
        assert (tmp_path / f"pendulum_{tier}.rows").is_file()
    path = tmp_path / "pendulum_refs.json"
    refs = json.loads(path.read_text())
    assert refs["expert_ref"] <= refs["random_ref"]
    err = capsys.readouterr().err
    assert (f"warning: {path}: expert_ref ({refs['expert_ref']}) must exceed "
            f"random_ref ({refs['random_ref']}); oris train and oris study "
            "refuse this refs file") in err


def test_gen_dataset_usable_refs_print_no_warning(tmp_path, tiny_reference, capsys,
                                                  monkeypatch):
    refs = datasets.ReferenceRun.refs
    monkeypatch.setattr(datasets.ReferenceRun, "refs", lambda self: {
        **refs(self), "random_ref": -1500.0, "expert_ref": -100.0})
    rc = cli.main(["gen-dataset", "--env", "pendulum", "--seed", "0",
                   "--out", str(tmp_path), "--reference-config", str(tiny_reference)])
    assert rc == 0
    assert json.loads((tmp_path / "pendulum_refs.json").read_text())["expert_ref"] == -100.0
    err = capsys.readouterr().err
    assert "refs: random -1500.0, expert -100.0" in err and "warning" not in err


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


@pytest.mark.parametrize("over, where", [
    ({"oris": {"epochs": True}}, "config.oris.epochs: expected int, got True"),
    ({"sac": {"tau": True}}, "config.sac.tau: expected float, got True"),
    ({"perturbation": {"gravity_scale": True}},
     "config.perturbation.gravity_scale: expected float, got True"),
    ({"sac": {"hidden": [1.5]}}, "config.sac.hidden[0]: expected int, got 1.5"),
    ({"gan": {"hidden": [True, 4]}}, "config.gan.hidden[0]: expected int, got True"),
    # json.loads reads NaN and Infinity
    ({"sac": {"actor_lr": float("inf")}}, "config.sac.actor_lr: expected a finite float, got inf"),
    ({"gan": {"restart_noise_sigma": float("inf")}},
     "config.gan.restart_noise_sigma: expected a finite float, got inf"),
    ({"perturbation": {"gravity_scale": float("nan")}},
     "config.perturbation.gravity_scale: expected a finite float, got nan"),
    ({"dataset_fraction": 0.5, "subsample_seed": -1},
     "config: subsample_seed must be >= 0, got -1"),
])
def test_train_refuses_a_boolean_number_or_a_fractional_width(tmp_path, data_dir, capsys,
                                                              over, where):
    """A JSON boolean is not a number, NaN and Infinity are not finite, a
    layer width is an integer, and a seed is not negative: the config is
    refused, naming the value's path, before anything trains."""
    cfg = write_config(tmp_path / "c.json", data_dir, **over)
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert f"config error: {where}\n" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_unknown_key_exits_2(tmp_path, data_dir, capsys):
    cfg = write_config(tmp_path / "c.json", data_dir, frobnicate=1)
    rc = cli.main(["train", "--config", str(cfg)])
    assert rc == 2
    assert "frobnicate" in capsys.readouterr().err


def test_train_missing_config_file(tmp_path, capsys):
    rc = cli.main(["train", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "no such file" in capsys.readouterr().err


@pytest.mark.parametrize("over, reason", [
    ({"refs": {"random_ref": -1500.0, "expert_ref": -100.0}}, "unknown keys ['refs']"),
    ({"refs_path": DROP}, "'refs_path'")])
def test_train_refs_come_only_from_a_refs_file(tmp_path, data_dir, capsys, over, reason):
    cfg = write_config(tmp_path / "c.json", data_dir, **over)
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert reason in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("text, reason", [
    (None, "no such file"), ("{not json", "not valid JSON"),
    ("[-1500.0, -100.0]", "not a JSON object"),
    pytest.param(json.dumps({"env_id": "pendulum", "random_ref": -1500.0}), "'expert_ref'",
                 id="missing"),
    pytest.param(json.dumps({**REFS, "bogus": 1}), "unknown keys ['bogus']", id="unknown"),
    pytest.param(json.dumps({**REFS, "random_ref": "x"}), "random_ref: expected float",
                 id="mistyped"),
    pytest.param(json.dumps({**REFS, "expert_ref": -1600.0}), "expert_ref (-1600.0) must "
                 "exceed random_ref (-1500.0)", id="cannot_score"),
    # json.loads reads -Infinity, and every score against it would be NaN
    pytest.param(json.dumps({**REFS, "random_ref": -float("inf")}),
                 "random_ref: expected a finite float, got -inf", id="infinite"),
    pytest.param(json.dumps({**REFS, "env_id": "pointgoal"}),
                 "refs for 'pointgoal', but the config is for 'pendulum'", id="other_env"),
    pytest.param(b"\xff\xfe", "not valid JSON", id="not_utf8")])
def test_train_bad_refs_file_exits_2(tmp_path, data_dir, capsys, text, reason):
    refs = tmp_path / "refs.json"
    if isinstance(text, bytes):
        refs.write_bytes(text)
    elif text is not None:
        refs.write_text(text)
    cfg = write_config(tmp_path / "c.json", data_dir, refs_path=str(refs))
    rc = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and str(refs) in err and reason in err


@pytest.mark.parametrize("doc, where", [
    ({"total_steps": 800, "warmup": 10}, r"ReferenceHparams: unknown keys \['warmup'\]"),
    ({"sac": {"hiden": [8]}}, r"ReferenceHparams\.sac: unknown keys \['hiden'\]"),
    ({"sac": {"actor_lr": -0.001}}, r"ReferenceHparams\.sac: learning rates must be positive"),
    # the replay is the run's whole history, so it has no size to set
    ({"replay_capacity": 300_000}, r"ReferenceHparams: unknown keys \['replay_capacity'\]")])
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


def test_train_refuses_a_negative_seed_before_it_writes(tmp_path, data_dir, capsys):
    cfg = write_config(tmp_path / "c.json", data_dir, seeds=[-3])
    rc = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "config: seeds must be a non-empty list of distinct non-negative integers, got [-3]" \
        in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [
    ["gen-dataset", "--env", "pendulum", "--out", "{tmp}/data", "--seed", "-1"],
    ["train", "--config", "{tmp}/c.json", "--seed", "-1"],
    ["sweep", "--config", "{tmp}/c.json", "--axis", "gravity", "--seed", "-1"],
    ["study", "main_comparison", "--out", "{tmp}/runs", "--seeds", "0", "-1"],
    ["evaluate", "--agent", "{tmp}/agent", "--env", "pendulum", "--seed", "-1"]],
    ids=lambda argv: argv[0])
def test_a_negative_seed_flag_exits_2(tmp_path, capsys, argv):
    """np.random.SeedSequence refuses a negative seed, so argparse does."""
    with pytest.raises(SystemExit) as e:
        cli.main([a.format(tmp=tmp_path) for a in argv])
    assert e.value.code == 2
    assert "expected a non-negative integer, got '-1'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key, value, message", [
    pytest.param("env_id", DROP, "missing 1 required keyword-only argument: 'env_id'",
                 id="env_id"),
    pytest.param("tier", DROP, "missing 1 required keyword-only argument: 'tier'",
                 id="tier"),
    pytest.param("env_id", None, "env_id: expected str, got None", id="env_id_null"),
    pytest.param("tier", None, "tier: expected str, got None", id="tier_null"),
    pytest.param("tier", "replay", "unknown tier 'replay', know ('random', 'medium', "
                 "'medium_replay', 'expert')", id="tier_unknown")])
def test_train_on_a_dataset_header_without_a_key_exits_2_naming_the_file(
        tmp_path, data_dir, capsys, key, value, message):
    """A dataset's meta names its env_id and its tier, one of data.TIERS."""
    header, rows = (data_dir / "pendulum_random.rows").read_bytes().split(b"\n", 1)
    header = json.loads(header)
    if value is DROP:
        del header["meta"][key]
    else:
        header["meta"][key] = value
    bad = tmp_path / "bad.rows"
    bad.write_bytes(json.dumps(header).encode() + b"\n" + rows)
    cfg = write_config(tmp_path / "c.json", data_dir, dataset=str(bad))
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {bad}.meta") and message in err


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


def _saved_agent(path, obs_dim=3, action_dim=1, hidden=(4,)):
    agent = sac.SacAgent.create(obs_dim, action_dim, 2.0, sac.SacHparams(hidden=hidden), 0)
    sac.save_agent(agent, path)
    return path


def _evaluate(agent_dir, env="pendulum"):
    return cli.main(["evaluate", "--agent", str(agent_dir), "--env", env, "--episodes", "1"])


def test_evaluate_missing_agent_directory_exits_2(tmp_path, capsys):
    assert _evaluate(tmp_path / "no_agent") == 2
    assert f"not a oris-sac v1 directory: {tmp_path / 'no_agent'}" in capsys.readouterr().err


def _edit_header(path, key, value):
    """Remove (value DROP) or set one key of a saved file's JSON header: all
    of a .json file, the first line of a record file. A key of None replaces
    the whole header with value."""
    raw = path.read_bytes()
    header, sep, blob = (raw, b"", b"") if path.suffix == ".json" else raw.partition(b"\n")
    header = json.loads(header)
    if key is None:
        header = value
    elif value is DROP:
        del header[key]
    else:
        header[key] = value
    path.write_bytes(json.dumps(header).encode() + sep + blob)


AGENT_FILES = ("agent.json", "actor.mlp", "opt_actor.adam")


@pytest.mark.parametrize("name, key, value", [
    # a missing key
    pytest.param("actor.mlp", "param_count", DROP, id="actor.mlp-param_count"),
    pytest.param("opt_actor.adam", "step_count", DROP, id="opt_actor.adam-step_count"),
    pytest.param("agent.json", "action_scale", DROP, id="agent.json-action_scale"),
    # keys every writer writes, which an older form of the file lacked
    pytest.param("actor.mlp", "dtype", DROP, id="actor.mlp-dtype"),
    pytest.param("actor.mlp", "init_seed", DROP, id="actor.mlp-init_seed"),
    pytest.param("opt_actor.adam", "dtype", DROP, id="opt_actor.adam-dtype"),
    pytest.param("agent.json", "opt_temperature", DROP, id="agent.json-opt_temperature"),
    pytest.param("agent.json", "update_count", DROP, id="agent.json-update_count"),
    # an unknown key
    *(pytest.param(name, "bogus", 1, id=f"{name}-unknown") for name in AGENT_FILES),
    # a value of the wrong type
    pytest.param("agent.json", "action_scale", "x", id="agent.json-mistyped"),
    pytest.param("agent.json", "opt_temperature", {"learning_rate": "x"},
                 id="agent.json-mistyped_section"),
    pytest.param("actor.mlp", "layer_sizes", "abc", id="actor.mlp-mistyped"),
    pytest.param("actor.mlp", "layer_sizes", [3, "a", 2], id="actor.mlp-mistyped_entry"),
    pytest.param("opt_actor.adam", "learning_rate", "x", id="opt_actor.adam-mistyped"),
    # a header that is not an object
    *(pytest.param(name, None, [1, 2], id=f"{name}-not_an_object") for name in AGENT_FILES),
])
def test_evaluate_agent_missing_a_key_exits_2_naming_the_file(tmp_path, capsys, name, key,
                                                              value):
    """A saved agent file whose header lacks a key, has one it does not know,
    holds a value of the wrong type or is not an object at all: `oris
    evaluate` exits 2 and names the file and the key."""
    agent_dir = _saved_agent(tmp_path / "agent")
    path = agent_dir / name
    _edit_header(path, key, value)
    assert _evaluate(agent_dir) == 2
    err = capsys.readouterr().err
    assert str(path) in err and (key or "") in err


def test_evaluate_agent_on_another_env_exits_2_naming_both(tmp_path, capsys):
    agent_dir = _saved_agent(tmp_path / "agent")
    assert _evaluate(agent_dir, "pointgoal") == 2
    err = capsys.readouterr().err
    assert f"agent {agent_dir} has (obs, action) dims (3, 1); pointgoal has (4, 2)" in err


def test_evaluate_agent_with_unstackable_critics_exits_2_naming_it(tmp_path, capsys):
    agent_dir = _saved_agent(tmp_path / "agent")
    wider = _saved_agent(tmp_path / "wider", hidden=(8,))
    (agent_dir / "critic2.mlp").write_bytes((wider / "critic2.mlp").read_bytes())
    assert _evaluate(agent_dir) == 2
    err = capsys.readouterr().err
    assert f"bad agent directory {agent_dir}: a stack's members" in err


def test_evaluate_agent_with_nan_parameters_exits_2_naming_the_file(tmp_path, capsys):
    """A NaN in a saved net is refused when the net loads, by its file, not
    when the first action it computes is NaN."""
    agent_dir = _saved_agent(tmp_path / "agent")
    oracles.damage_record(agent_dir / "actor.mlp", np.nan)
    assert _evaluate(agent_dir) == 2
    assert (f"config error: non-finite value in oris-mlp data in {agent_dir / 'actor.mlp'}"
            in capsys.readouterr().err)


def test_gen_dataset_train_evaluate_chain(tmp_path, data_dir, tiny_reference, capsys):
    """The CLI's own artifacts chain: the tiers of a tiny reference run, an
    oris run on the medium_replay tier that saves its agent, and an
    evaluation of that agent. The config reads data_dir's refs file: a
    reference this small can evaluate below random, so its own refs cannot
    score."""
    data, run = tmp_path / "data", tmp_path / "run"
    assert cli.main(["gen-dataset", "--env", "pendulum", "--seed", "1",
                     "--out", str(data), "--reference-config", str(tiny_reference)]) == 0
    cfg = write_config(tmp_path / "c.json", data_dir, variant="oris", seeds=[0, 1],
                       dataset=str(data / "pendulum_medium_replay.rows"),
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



MISSING_DATASET_ARGV = {
    "train": ["train", "--config", "{tmp}/c.json", "--out", "{tmp}/out"],
    "sweep": ["sweep", "--config", "{tmp}/c.json", "--axis", "fraction", "--out", "{tmp}/out"],
    "main_comparison": ["study", "main_comparison", "--data", "{data}", "--out", "{tmp}/out"],
    "gap_grid": ["study", "gap_grid", "--data", "{data}", "--out", "{tmp}/out"]}


@pytest.mark.parametrize("argv, a_directory", [
    pytest.param(argv, a_directory, id=name + ("-a_directory" if a_directory else ""))
    for a_directory in (False, True) for name, argv in MISSING_DATASET_ARGV.items()])
def test_a_missing_dataset_exits_2_before_it_makes_a_directory(tmp_path, data_dir,
                                                               capsys, argv, a_directory):
    """A dataset path that names nothing, or a directory, exits 2 with one
    line naming it, and nothing is made."""
    data = tmp_path / ("a_directory" if a_directory else "missing")
    dataset = data / "pendulum_medium_replay.rows"
    if a_directory:
        dataset.mkdir(parents=True)
    write_config(tmp_path / "c.json", data_dir, dataset=str(dataset))
    before = sorted(tmp_path.rglob("*"))
    assert cli.main([a.format(tmp=tmp_path, data=data) for a in argv]) == 2
    says = (f"cannot read oris-dataset file {dataset}: Is a directory" if a_directory
            else f"dataset {str(dataset)!r} does not exist")
    assert f"config error: {says}\n" == capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("argv, lengths, fraction", [
    (MISSING_DATASET_ARGV["train"], [50], 1.0),
    (MISSING_DATASET_ARGV["train"], [40] * 4, 0.25),  # the fraction keeps one trajectory
    (MISSING_DATASET_ARGV["sweep"], [50], 1.0)],
    ids=["train", "train-after_fraction", "sweep"])
def test_a_dataset_too_small_for_the_gan_fit_exits_2_before_it_makes_a_directory(
        tmp_path, data_dir, capsys, argv, lengths, fraction):
    """A variant that fits a GAN, on fewer rows than the fit takes once
    dataset_fraction has cut the dataset, exits 2 with one line naming the
    dataset, and nothing is made."""
    full = load_dataset(data_dir / "pendulum_random.rows")
    bounds = np.cumsum([0, *lengths])
    dataset = tmp_path / "small.rows"
    save_dataset(Dataset.from_episodes(full.meta, [tuple(c[a:b] for c in full.columns)
                                                   for a, b in zip(bounds, bounds[1:])]),
                 dataset)
    write_config(tmp_path / "c.json", data_dir, dataset=str(dataset), variant="oris",
                 dataset_fraction=fraction)
    before = sorted(tmp_path.rglob("*"))
    assert cli.main([a.format(tmp=tmp_path) for a in argv]) == 2
    assert capsys.readouterr().err == (
        f"config error: {dataset}: {lengths[0]} rows at dataset_fraction {fraction:g}, but "
        f"the oris GAN fit needs at least {gan.MIN_FIT_STATES}\n")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("argv, path", [
    (["train", "--config", "{tmp}/a_dir", "--out", "{tmp}/out"], "{tmp}/a_dir"),
    (["train", "--config", "{tmp}/refs_dir.json", "--out", "{tmp}/out"], "{tmp}/a_dir"),
    (["train", "--config", "{tmp}/c.json", "--out", "{tmp}/a_file"], "{tmp}/a_file"),
    (["sweep", "--config", "{tmp}/c.json", "--axis", "fraction", "--out", "{tmp}/a_file"],
     "{tmp}/a_file/fraction_1"),
    (["gen-dataset", "--env", "pendulum", "--out", "{tmp}/a_file"], "{tmp}/a_file")],
    ids=["config_is_a_directory", "refs_is_a_directory", "train_out_is_a_file",
         "sweep_out_is_a_file", "gen_dataset_out_is_a_file"])
def test_a_path_the_os_refuses_exits_2_naming_it(tmp_path, data_dir, capsys, argv, path):
    """A directory where a file is read, or a file where --out goes, exits 2
    with one stderr line that names the path as the OS does, and nothing is
    made."""
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "a_file").write_text("")
    write_config(tmp_path / "c.json", data_dir)
    write_config(tmp_path / "refs_dir.json", data_dir, refs_path=str(tmp_path / "a_dir"))
    before = sorted(tmp_path.rglob("*"))
    assert cli.main([a.format(tmp=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.count("\n") == 1
    assert err.endswith(f": {path.format(tmp=tmp_path)!r}\n")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("argv, lines", [
    (["train", "--config", "{tmp}/c.json"], ["seed 0 failed"]),
    (["sweep", "--config", "{tmp}/c.json", "--axis", "fraction"],
     ["fraction_1 seed 0 failed", "fraction_0.25 seed 0 failed",
      "fraction_0.05 seed 0 failed"]),
    (["study", "small_data", "--data", "{tmp}", "--seeds", "0", "3"],
     [f"{variant} {point} seed {seed} failed" for variant in ("oris", "bc")
      for point in ("fraction_1", "fraction_0.25", "fraction_0.05")
      for seed in (0, 3)])],
    ids=["train", "sweep", "study"])
def test_each_failed_seed_is_one_stderr_line(tmp_path, data_dir, monkeypatch, capsys,
                                             argv, lines):
    """train, sweep and study print one line per failed seed, led by the
    study variant and the sweep point it ran under, and exit 1."""
    def train(*args, **kw):
        raise NumericsError("synthetic")

    monkeypatch.setattr(harness.loop, "train", train)
    save_dataset(load_dataset(data_dir / "pendulum_random.rows"),
                 tmp_path / "pendulum_medium_replay.rows")
    (tmp_path / "pendulum_refs.json").write_text(json.dumps(REFS))
    write_config(tmp_path / "c.json", data_dir)
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == "".join(f"{line}: NumericsError: synthetic\n" for line in lines)


def test_study_flags_summary_and_failures(tmp_path, monkeypatch, capsys):
    cells, dirs = [], []

    def run_experiment(cfg, out_dir, progress=None):
        cells.append(cfg)
        dirs.append(str(out_dir))
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
    assert dirs == [f"{out}/{v}" for v in variants]
    for c in cells:
        assert c.seeds == (7, 8)
        assert c.dataset == "mydata/pendulum_medium_replay.rows"
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


def test_readme_layout_and_package_docstring_name_every_module():
    """The README's Layout table has one row for each module of the oris
    package but __init__, and no other, and the package docstring's list
    names exactly those modules: a module added, renamed or deleted fails
    here until both follow."""
    import oris
    modules = sorted(p.stem for p in Path(oris.__file__).parent.glob("*.py")
                     if p.stem != "__init__")
    layout = README.read_text().split("## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `oris\.(\w+)` \|", layout, re.M)
    listed = re.sub(r"\([^)]*\)", "", oris.__doc__.split("Modules:", 1)[1])
    named = [name.strip(" .\n") for name in listed.split(",")]
    assert sorted(rows) == modules
    assert sorted(named) == modules
