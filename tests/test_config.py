"""Tests for the JSON codec every config dataclass shares."""

import json

import pytest

from oris import datasets, envs, gan, harness, loop, sac
from oris.config import Config
from oris.errors import ConfigError, ContractError

PERTURBATION = envs.DynamicsPerturbation(gravity_scale=2.0, action_noise_std=0.5)
ORIS = loop.OrisConfig(variant="no_restart", epochs=7, rollout_horizon=42)
SAC = sac.SacHparams(hidden=(32, 32), critic_lr=1e-3, target_entropy=-1.0)

# one instance of each Config, with nested sections and non-default values
EXAMPLES = {
    envs.DynamicsPerturbation: PERTURBATION,
    loop.OrisConfig: ORIS,
    sac.SacHparams: SAC,
    gan.GanHparams: gan.GanHparams(hidden=(16,), w_min=0.0, iterations=30),
    datasets.ReferenceHparams: datasets.ReferenceHparams(
        total_steps=5000, eval_interval=1000, sac=SAC),
    harness.ExperimentConfig: harness.ExperimentConfig(
        env_id="pointgoal", dataset="d.jsonl", variant="no_restart", seeds=(0, 3),
        perturbation=PERTURBATION, refs={"random_ref": -1.0, "expert_ref": 1.0},
        oris=ORIS, sac=SAC),
}


def tiny_config(**over) -> harness.ExperimentConfig:
    d = {"env_id": "pendulum", "dataset": "d.jsonl", "variant": "oris",
         "seeds": [0], "refs_path": "refs.json", **over}
    return harness.ExperimentConfig.from_json(d)


def test_every_config_round_trips_through_json_and_rejects_unknown_keys():
    assert set(EXAMPLES) == set(Config.__subclasses__())
    for cls, x in EXAMPLES.items():
        text = json.dumps(x.to_json())
        assert cls.from_json(json.loads(text)) == x, cls.__name__
        with pytest.raises(ConfigError, match=r"unknown keys \['bogus'\]"):
            cls.from_json({**x.to_json(), "bogus": 1})


def test_integers_in_float_fields_read_as_floats():
    one, one_f = tiny_config(sac={"tau": 1}), tiny_config(sac={"tau": 1.0})
    assert isinstance(one.sac.tau, float)
    assert one.config_hash() == one_f.config_hash()
    assert tiny_config(perturbation={"gravity_scale": 2}).perturbation.gravity_scale == 2.0


def test_errors_name_the_section_path():
    with pytest.raises(ConfigError, match=r"config\.sac\.hidden: expected tuple"):
        tiny_config(sac={"hidden": 64})
    with pytest.raises(ConfigError, match=r"config\.oris\.epochs: expected int"):
        tiny_config(oris={"epochs": "5"})
    with pytest.raises(ConfigError, match=r"config\.gan: expected an object"):
        tiny_config(gan=[1, 2])
    with pytest.raises(ConfigError, match=r"config: invalid literal"):
        tiny_config(seeds=["a"])
    with pytest.raises(ConfigError, match=r"config: .*missing.*'seeds'"):
        harness.ExperimentConfig.from_json({"env_id": "pendulum", "dataset": "d",
                                            "variant": "oris", "refs_path": "r"})
    with pytest.raises(ContractError, match=r"config\.perturbation: gravity_scale"):
        tiny_config(perturbation={"gravity_scale": -1.0})
    with pytest.raises(ContractError, match=r"ReferenceHparams\.sac: bad gamma"):
        datasets.ReferenceHparams.from_json({"sac": {"gamma": 1.5}})


@pytest.mark.parametrize("cls, doc, where", [
    (datasets.ReferenceHparams, {"eval_episodes": 0},
     r"ReferenceHparams: eval_episodes must be >= 1"),
    (datasets.ReferenceHparams, {"batch_size": 0}, r"ReferenceHparams: batch_size must be >= 1"),
    (datasets.ReferenceHparams, {"replay_capacity": 0},
     r"ReferenceHparams: replay_capacity must be >= 1"),
    (datasets.ReferenceHparams, {"sac": {"actor_lr": -0.001}},
     r"ReferenceHparams\.sac: learning rates"),
    (datasets.ReferenceHparams, {"sac": {"critic_lr": 0}}, r"ReferenceHparams\.sac: learning rates"),
    (datasets.ReferenceHparams, {"sac": {"temperature_lr": 0}},
     r"ReferenceHparams\.sac: learning rates"),
    (datasets.ReferenceHparams, {"sac": {"hidden": [64, 0]}},
     r"ReferenceHparams\.sac: hidden widths"),
    (gan.GanHparams, {"learning_rate": 0}, r"GanHparams: learning_rate must be positive"),
    (gan.GanHparams, {"hidden": [0]}, r"GanHparams: hidden widths"),
])
def test_hparams_refuse_values_that_cannot_train(cls, doc, where):
    with pytest.raises(ContractError, match=where):
        cls.from_json(doc)


def test_empty_hidden_is_a_linear_net():
    cfg = tiny_config(sac={"hidden": []}, gan={"hidden": []})
    assert cfg.sac.hidden == cfg.gan.hidden == ()
