"""Tests for experiment configs, metrics files, score tables, and the runner."""

import dataclasses
import json
import re

import numpy as np
import pytest

from oris import datasets, gan, harness, loop
from oris.data import Dataset, save_dataset
from oris.errors import ConfigError, ContractError, NumericsError
from oris.harness import ExperimentConfig, normalized_score
from oris.loop import EpochReport

REFS = {"random_ref": -1500.0, "expert_ref": -100.0}
# w_min 0 keeps the discriminator weights off the clip, so they reach the CSVs
TINY_GAN = {"z_dim": 4, "hidden": [16, 16], "iterations": 20, "batch_size": 32,
            "w_min": 0.0}


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    """A dataset with its refs file beside it, as `oris gen-dataset` writes them."""
    ds = datasets.generate_dataset("pendulum", "random", episodes=2, seed=0)
    path = tmp_path_factory.mktemp("data") / "pendulum_random.rows"
    save_dataset(ds, path)
    path.with_name("pendulum_refs.json").write_text(
        json.dumps({"env_id": "pendulum", **REFS}))
    return path


def tiny_config(dataset_path, **over):
    d = {
        "env_id": "pendulum",
        "dataset": str(dataset_path),
        "variant": "naive_mix",
        "seeds": [0, 1],
        "perturbation": {"gravity_scale": 2.0},
        "refs_path": str(dataset_path.with_name("pendulum_refs.json")),
        "oris": {"rollout_horizon": 5, "rollout_count": 1, "epochs": 2,
                 "updates_per_epoch": 2, "eval_episodes": 1},
        "sac": {"hidden": [16, 16], "batch_off": 8, "batch_sim": 8},
    }
    d.update(over)
    return ExperimentConfig.from_json(d)


def fake_reports(n=3):
    return [EpochReport(epoch=i + 1, env_steps=10 * (i + 1),
                        transitions_collected=10, random_rollout_fraction=0.2,
                        invalid_restart_count=i, eval_return_mean=-800.0 + i,
                        eval_return_std=5.0, critic_loss=1.5, actor_loss=-0.3,
                        temperature=0.2, mean_sim_weight=0.9)
            for i in range(n)]


def test_normalized_score_anchors():
    assert normalized_score(-1500.0, **{"random_ref": -1500.0,
                                        "expert_ref": -100.0}) == 0.0
    assert normalized_score(-100.0, -1500.0, -100.0) == 100.0
    assert normalized_score(-800.0, -1500.0, -100.0) == 50.0
    with pytest.raises(ConfigError):
        normalized_score(0.0, -100.0, -100.0)
    with pytest.raises(ConfigError):
        normalized_score(0.0, -100.0, -200.0)


def test_normalized_score_affine_invariance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        raw, lo = rng.normal(size=2)
        hi = lo + abs(rng.normal()) + 0.1
        a, b = rng.normal(), abs(rng.normal()) + 0.1
        s1 = normalized_score(raw, lo, hi)
        s2 = normalized_score(b * raw + a, b * lo + a, b * hi + a)
        assert s1 == pytest.approx(s2, rel=1e-9, abs=1e-9)


def test_config_rejects_unknown_keys(dataset_path):
    with pytest.raises(ConfigError, match="warmup"):
        tiny_config(dataset_path, warmup=3)
    with pytest.raises(ConfigError, match="oris"):
        tiny_config(dataset_path, oris={"epochs": 1, "horizon": 5})
    with pytest.raises(ConfigError, match="weight_mode"):
        tiny_config(dataset_path, oris={"epochs": 1, "weight_mode": "ones"})
    with pytest.raises(ConfigError, match="restart_fallback"):
        tiny_config(dataset_path, oris={"epochs": 1, "restart_fallback": False})
    with pytest.raises(ConfigError, match="restart_max_retries"):
        tiny_config(dataset_path, oris={"epochs": 1, "restart_max_retries": 3})
    # a misspelt gap must not train against the unperturbed simulator
    with pytest.raises(ConfigError, match=r"config\.perturbation: .*\['gravity'\]"):
        tiny_config(dataset_path, perturbation={"gravity": 2.0})
    with pytest.raises(ConfigError, match="missing"):
        ExperimentConfig.from_json({"env_id": "pendulum"})


def test_config_validation(dataset_path):
    with pytest.raises(ContractError, match="gravity_scale"):
        tiny_config(dataset_path, perturbation={"gravity_scale": -2.0})
    with pytest.raises(ConfigError):
        tiny_config(dataset_path, seeds=[])
    with pytest.raises(ConfigError):
        tiny_config(dataset_path, seeds=[1, 1])
    with pytest.raises(ConfigError):
        tiny_config(dataset_path, dataset_fraction=0.0)
    with pytest.raises(ConfigError, match="contradicts"):
        tiny_config(dataset_path, oris={"variant": "oris"})
    # with no top-level variant there is nothing to contradict: the key is missing
    no_variant = tiny_config(dataset_path).to_json()
    del no_variant["variant"]
    with pytest.raises(ConfigError, match="missing .*'variant'"):
        ExperimentConfig.from_json(no_variant)


def test_config_roundtrip_and_hash(dataset_path):
    cfg = tiny_config(dataset_path)
    again = ExperimentConfig.from_json(cfg.to_json())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()
    bumped = cfg.with_overrides(seeds=[0, 1, 2])
    assert bumped.config_hash() != cfg.config_hash()


def test_metrics_csv_roundtrip(tmp_path):
    path = tmp_path / "m.csv"
    reports = fake_reports(3)
    harness.write_metrics_csv(path, reports, (-1500.0, -100.0), "abc123",
                              "oris", 7)
    tags, rows = harness.read_metrics_csv(path)
    assert tags == {"config_hash": "abc123", "variant": "oris", "seed": "7"}
    assert [r["epoch"] for r in rows] == [1, 2, 3]
    assert rows[0]["eval_return_mean"] == -800.0
    assert rows[0]["normalized_score"] == 50.0
    assert rows[2]["invalid_restart_count"] == 2
    assert isinstance(rows[0]["env_steps"], int)


def test_score_table_from_csvs(tmp_path):
    for seed, final in ((0, -800.0), (1, -100.0)):
        reports = fake_reports(2)
        reports[-1].eval_return_mean = final
        harness.write_metrics_csv(tmp_path / f"oris_seed{seed}.csv", reports,
                                  (-1500.0, -100.0), "h1", "oris", seed)
    table = harness.score_table_from_csvs(tmp_path.glob("*.csv"))
    assert table.config_hash == "h1"
    assert sorted(r["final_score"] for r in table.rows) == [50.0, 100.0]
    s = table.summary()["oris"]
    assert s["n"] == 2
    assert s["score_mean"] == pytest.approx(75.0)
    assert s["score_std"] == pytest.approx(25.0)
    assert s["return_mean"] == pytest.approx((-800.0 - 100.0) / 2)


def test_config_hash_leaves_out_out_dir(dataset_path, tmp_path):
    a = tiny_config(dataset_path, out_dir=str(tmp_path / "a"))
    b = a.with_overrides(out_dir=str(tmp_path / "elsewhere" / "b"))
    assert a.to_json()["out_dir"] != b.to_json()["out_dir"]
    assert a.config_hash() == b.config_hash()
    # the paths of the inputs still count
    assert a.with_overrides(dataset=str(tmp_path / "x.jsonl")).config_hash() \
        != a.config_hash()
    for cfg in (a, b):
        _, failures = harness.run_experiment(cfg, cfg.out_dir)
        assert failures == []
    csvs = [*(tmp_path / "a").glob("*.csv"), *(tmp_path / "elsewhere" / "b").glob("*.csv")]
    assert len(csvs) == 4
    table = harness.score_table_from_csvs(csvs)
    assert table.config_hash == a.config_hash()
    assert sorted(r["seed"] for r in table.rows) == [0, 0, 1, 1]


def test_score_table_refuses_mixed_hashes(tmp_path):
    harness.write_metrics_csv(tmp_path / "a.csv", fake_reports(1),
                              (-1500.0, -100.0), "h1", "oris", 0)
    harness.write_metrics_csv(tmp_path / "b.csv", fake_reports(1),
                              (-1500.0, -100.0), "h2", "oris", 1)
    with pytest.raises(ConfigError, match="hash"):
        harness.score_table_from_csvs(tmp_path.glob("*.csv"))


def test_run_experiment_writes_reproducible_outputs(dataset_path, tmp_path):
    cfg = tiny_config(dataset_path)
    table, failures = harness.run_experiment(cfg, tmp_path / "a")
    assert failures == []
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == ["naive_mix_seed0.csv", "naive_mix_seed0_agent",
                     "naive_mix_seed1.csv", "naive_mix_seed1_agent",
                     "score_table.json"]
    assert {r["seed"] for r in table.rows} == {0, 1}
    assert all(len(r["returns"]) == 2 for r in table.rows)
    # scores in the table agree with the formula applied to raw returns
    for r in table.rows:
        assert r["final_score"] == pytest.approx(
            normalized_score(r["final_return"], **REFS))

    harness.run_experiment(cfg, tmp_path / "b")
    written = sorted(p.relative_to(tmp_path / "a")
                     for p in (tmp_path / "a").rglob("*") if p.is_file())
    # an agent is five nets, three Adam states and agent.json
    assert len(written) == 3 + 2 * 9
    for name in written:
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()


def test_run_experiment_records_per_seed_failures(dataset_path, tmp_path,
                                                  monkeypatch):
    real_train = loop.train

    def flaky(offline, perturbation, cfg, hp, seed, **kw):
        if seed == 1:
            raise NumericsError("synthetic failure")
        return real_train(offline, perturbation, cfg, hp, seed, **kw)

    monkeypatch.setattr(harness.loop, "train", flaky)
    table, failures = harness.run_experiment(tiny_config(dataset_path), tmp_path)
    assert [r["seed"] for r in table.rows] == [0]
    assert failures == [{"variant": "naive_mix", "seed": 1,
                         "error": "NumericsError: synthetic failure"}]
    manifest = json.loads((tmp_path / "failures.json").read_text())
    assert manifest == failures


def test_run_experiment_lets_program_faults_propagate(dataset_path, tmp_path,
                                                      monkeypatch):
    def broken(*args, **kw):
        raise TypeError("synthetic fault")

    monkeypatch.setattr(harness.loop, "train", broken)
    with pytest.raises(TypeError, match="synthetic fault"):
        harness.run_experiment(tiny_config(dataset_path), tmp_path)
    assert not (tmp_path / "failures.json").exists()


def test_run_experiment_rejects_wrong_dataset(dataset_path, tmp_path):
    cfg = tiny_config(dataset_path, env_id="pointgoal")
    with pytest.raises(ConfigError, match="dataset"):
        harness.run_experiment(cfg, tmp_path)
    cfg2 = tiny_config(tmp_path / "missing.jsonl")
    with pytest.raises(ConfigError, match="exist"):
        harness.run_experiment(cfg2, tmp_path)


def test_run_experiment_checks_inputs_before_making_out_dir(dataset_path, tmp_path):
    out = tmp_path / "runs" / "oris"
    with pytest.raises(ConfigError, match="exist"):
        harness.run_experiment(tiny_config(tmp_path / "missing.jsonl"), out)
    no_refs = tiny_config(dataset_path, refs_path=str(tmp_path / "missing_refs.json"))
    with pytest.raises(ConfigError, match="no such file"):
        harness.run_experiment(no_refs, out)
    # a pointgoal dataset, and one labelled pendulum whose rows are pointgoal's
    pointgoal = datasets.generate_dataset("pointgoal", "random", episodes=1, seed=0)
    other_env, wrong_widths = tmp_path / "pointgoal.rows", tmp_path / "wide.rows"
    save_dataset(pointgoal, other_env)
    save_dataset(Dataset(dataclasses.replace(pointgoal.meta, env_id="pendulum"), pointgoal.rows,
                         pointgoal.trajectory_boundaries), wrong_widths)
    for path, message in (
            (other_env, "dataset is for 'pointgoal', config says 'pendulum'"),
            (wrong_widths, "dataset has 4-d states and 2-d actions, but 'pendulum' has "
                           "3-d states and 1-d actions")):
        cfg = tiny_config(dataset_path, dataset=str(path), variant="oris")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
            harness.run_experiment(cfg, out)
    assert not (tmp_path / "runs").exists()


def test_sweep_points(dataset_path):
    cfg = tiny_config(dataset_path)
    assert [l for l, _ in harness.sweep_points(cfg, "gravity")] == \
        ["gravity_2", "gravity_3", "gravity_4", "gravity_5"]
    gaps = dict(harness.sweep_points(cfg, "gap_type"))
    assert gaps["gap_friction"] == {"perturbation": {"friction_scale": 0.3}}
    # pendulum torque range is +-2, so unit-relative noise has std 2
    assert gaps["gap_action_noise"] == {"perturbation": {"action_noise_std": 2.0}}
    assert [l for l, _ in harness.sweep_points(cfg, "fraction")] == \
        ["fraction_1", "fraction_0.25", "fraction_0.05"]
    assert [l for l, _ in harness.sweep_points(cfg, "ablation")] == \
        ["oris", "no_restart", "uniform_weight", "naive_mix"]
    with pytest.raises(ConfigError):
        harness.sweep_points(cfg, "entropy")


def test_sweep_ablation_expands_every_cell(dataset_path):
    cfg = tiny_config(dataset_path, variant="oris")
    for label, over in harness.sweep_points(cfg, "ablation"):
        point = cfg.with_overrides(**over)
        assert point.variant == point.oris.variant == label
        assert point.oris == loop.OrisConfig(**{**cfg.oris.to_json(), "variant": label})
    # an explicit oris section still has to agree with the variant
    with pytest.raises(ConfigError, match="contradicts"):
        cfg.with_overrides(variant="naive_mix", oris=cfg.oris.to_json())


def test_sweep_fraction_axis_end_to_end(dataset_path, tmp_path):
    cfg = tiny_config(dataset_path, seeds=[0],
                      oris={"rollout_horizon": 2, "rollout_count": 1,
                            "epochs": 1, "updates_per_epoch": 1,
                            "eval_episodes": 1})
    summary, failures = harness.run_cell(cfg, "fraction", tmp_path)
    assert failures == []
    assert list(summary) == ["fraction_1", "fraction_0.25", "fraction_0.05"]
    for label, point in summary.items():
        assert (tmp_path / label / "naive_mix_seed0.csv").exists()
        assert point["naive_mix"]["n"] == 1
    on_disk = json.loads((tmp_path / "sweep_table.json").read_text())
    assert on_disk["axis"] == "fraction"
    assert {p["label"]: p["summary"] for p in on_disk["points"]} == summary


def counted_fits(monkeypatch) -> list:
    fits = []
    real_pretrain = gan.pretrain
    gan.numerics_sha256()  # its own tiny fit, once per process, is not counted

    def pretrain(states, hparams, rng):
        fits.append(hparams)
        return real_pretrain(states, hparams, rng)

    monkeypatch.setattr(gan, "pretrain", pretrain)
    return fits


def gan_config(dataset_path, variant="oris", **over):
    return tiny_config(dataset_path, variant=variant, seeds=[0], gan=TINY_GAN, **over)


def run_cleanly(cfg, out):
    _, failures = harness.run_experiment(cfg, out)
    assert failures == []


def test_sibling_cells_fit_one_gan(dataset_path, tmp_path, monkeypatch):
    fits = counted_fits(monkeypatch)
    variants = ("oris", "no_restart", "uniform_weight")
    for v in variants:
        run_cleanly(gan_config(dataset_path, v), tmp_path / "study" / v)
    assert len(fits) == 1
    (entry,) = (tmp_path / "study" / "gans").iterdir()
    assert sorted(p.name for p in entry.iterdir()) == [
        "discriminator.mlp", "gan.json", "generator.mlp", "report.json"]

    for v in variants:  # each cell alone fits its own GAN
        run_cleanly(gan_config(dataset_path, v), tmp_path / f"alone_{v}" / v)
    assert len(fits) == 4
    for v in variants:
        shared = (tmp_path / "study" / v / f"{v}_seed0.csv").read_bytes()
        alone = (tmp_path / f"alone_{v}" / v / f"{v}_seed0.csv").read_bytes()
        assert shared == alone
    _, rows = harness.read_metrics_csv(tmp_path / "study" / "no_restart" /
                                       "no_restart_seed0.csv")
    assert any(0.0 < r["mean_sim_weight"] < 1.0 for r in rows)


def test_gan_store_keys_on_fit_inputs(dataset_path, tmp_path, monkeypatch):
    fits = counted_fits(monkeypatch)
    base = gan_config(dataset_path)
    cells = [base, base.with_overrides(gan={**TINY_GAN, "iterations": 21}),
             base.with_overrides(seeds=[1]),
             base.with_overrides(dataset_fraction=0.5)]
    for i, cfg in enumerate(cells):
        run_cleanly(cfg, tmp_path / f"cell{i}")
    assert len(fits) == 4
    assert len(list((tmp_path / "gans").iterdir())) == 4
    run_cleanly(base.with_overrides(variant="no_restart"), tmp_path / "again")
    assert len(fits) == 4


def test_gan_free_variant_writes_no_entry(dataset_path, tmp_path, monkeypatch):
    fits = counted_fits(monkeypatch)
    run_cleanly(gan_config(dataset_path, "naive_mix"), tmp_path / "naive_mix")
    assert fits == []
    assert not (tmp_path / "gans").exists()


def test_gan_store_ignores_leftover_tmp(dataset_path, tmp_path, monkeypatch):
    fits = counted_fits(monkeypatch)
    cfg = gan_config(dataset_path)
    run_cleanly(cfg, tmp_path / "a" / "oris")
    (entry,) = (tmp_path / "a" / "gans").iterdir()
    # a cut fit's leftover: the entry half written under its temporary name
    left = tmp_path / "b" / "gans" / f"{entry.name}.cut.tmp"
    left.mkdir(parents=True)
    (left / "gan.json").write_text("{}")
    run_cleanly(cfg, tmp_path / "b" / "oris")
    assert len(fits) == 2
    assert (tmp_path / "b" / "gans" / entry.name / "report.json").exists()
    assert (tmp_path / "a" / "oris" / "oris_seed0.csv").read_bytes() \
        == (tmp_path / "b" / "oris" / "oris_seed0.csv").read_bytes()


def test_damaged_gan_store_entry_stops_the_run(dataset_path, tmp_path):
    """A store entry's data is an input, not a divergence: a truncated net
    stops the run, naming its file, and no seed is filed as failed."""
    run_cleanly(gan_config(dataset_path), tmp_path / "a")
    (entry,) = (tmp_path / "gans").iterdir()
    mlp = entry / "generator.mlp"
    mlp.write_bytes(mlp.read_bytes()[:-1])
    with pytest.raises(ContractError, match=f"truncated .* in {re.escape(str(mlp))}"):
        harness.run_experiment(gan_config(dataset_path, "no_restart"), tmp_path / "b")
    assert not (tmp_path / "b" / "failures.json").exists()
