"""Tests for the JSON codec every config dataclass shares."""

import importlib
import json
import pkgutil
import types

import pytest

import oris
from oris import data, datasets, envs, gan, harness, loop, nets, sac
from oris.config import Config, _field_types
from oris.errors import ConfigError, ContractError

PERTURBATION = envs.DynamicsPerturbation(gravity_scale=2.0, action_noise_std=0.5)
ORIS = loop.OrisConfig(variant="no_restart", epochs=7, rollout_horizon=42)
SAC = sac.SacHparams(hidden=(32, 32), critic_lr=1e-3, target_entropy=-1.0)

DATASET_META = data.DatasetMeta(env_id="pointgoal", tier="medium",
                                perturbation=PERTURBATION.to_json(), seed=4, reference_seed=3,
                                behavior_eval_return=-9.5)

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
        perturbation=PERTURBATION, refs_path="data/pointgoal_refs.json",
        oris=ORIS, sac=SAC),
    # the headers of the files oris writes
    nets.MlpHeader: nets.MlpHeader(layer_sizes=(3, 8, 2), hidden_activation="relu",
                                   output_activation="identity", init_seed=5,
                                   param_count=50, dtype="<f4"),
    nets.AdamHeader: nets.AdamHeader(learning_rate=1e-3, beta1=0.9, beta2=0.999,
                                     epsilon=1e-8, step_count=4, param_count=50,
                                     dtype="<f8"),
    nets.ScalarAdam: nets.ScalarAdam(3e-4, step_count=2, m=0.5, v=0.25),
    sac.AgentMeta: sac.AgentMeta(log_temperature=-1.5, target_entropy=-1.0,
                                 action_scale=2.0, update_count=7, hparams=SAC,
                                 opt_temperature=nets.ScalarAdam(3e-4, step_count=7)),
    gan.GanMeta: gan.GanMeta(z_dim=2, mean=(0.5, -1.0), std=(1.0, 2.0), out_scale=(1.5, 1.25),
                             restart_noise_sigma=0.05, w_min=0.3, w_max=1.0),
    harness.Refs: harness.Refs(env_id="pointgoal", random_ref=-3.0, expert_ref=40.0, seed=2,
                               medium_return=20.0),
    data.DatasetMeta: DATASET_META,
    data.DatasetHeader: data.DatasetHeader(obs_dim=4, action_dim=2,
                                           trajectory_boundaries=(3, 7), meta=DATASET_META),
}


TINY = {"env_id": "pendulum", "dataset": "d.jsonl", "variant": "oris",
        "seeds": [0], "refs_path": "refs.json"}


def tiny_config(**over) -> harness.ExperimentConfig:
    return harness.ExperimentConfig.from_json({**TINY, **over})


def test_every_config_round_trips_through_json_and_rejects_unknown_keys():
    assert set(EXAMPLES) == set(Config.__subclasses__())
    for cls, x in EXAMPLES.items():
        text = json.dumps(x.to_json())
        assert cls.from_json(json.loads(text)) == x, cls.__name__
        with pytest.raises(ConfigError, match=r"unknown keys \['bogus'\]"):
            cls.from_json({**x.to_json(), "bogus": 1})


def _config_classes():
    """Every Config subclass the package defines, its modules all imported."""
    for m in pkgutil.iter_modules(oris.__path__):
        importlib.import_module(f"oris.{m.name}")
    todo, seen = [Config], []
    while todo:
        for sub in todo.pop().__subclasses__():
            seen.append(sub)
            todo.append(sub)
    return seen


def _decoded_entry_by_entry(tp) -> bool:
    """Whether the codec checks every value of a field of type tp: a scalar,
    a Config, `X | None`, or `tuple[X, ...]` or `dict[str, X]` of such a
    type, never a bare tuple, list or dict, whose entries it would take
    unchecked."""
    if isinstance(tp, types.UnionType):
        rest = [t for t in tp.__args__ if t is not type(None)]
        return len(rest) == 1 and _decoded_entry_by_entry(rest[0])
    if isinstance(tp, types.GenericAlias) and tp.__origin__ is dict:
        return tp.__args__[0] is str and _decoded_entry_by_entry(tp.__args__[1])
    if isinstance(tp, types.GenericAlias):
        return (tp.__origin__ is tuple and len(tp.__args__) == 2
                and tp.__args__[1] is Ellipsis and _decoded_entry_by_entry(tp.__args__[0]))
    return tp in (int, float, str) or (isinstance(tp, type) and issubclass(tp, Config))


def test_the_codec_checks_every_field_of_every_config():
    classes = _config_classes()
    assert set(EXAMPLES) <= set(classes)
    unchecked = [f"{cls.__name__}.{name}: {tp}" for cls in classes
                 for name, tp in _field_types(cls).items() if not _decoded_entry_by_entry(tp)]
    assert unchecked == []


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
    with pytest.raises(ConfigError, match=r"config\.seeds\[0\]: expected int, got 'a'"):
        tiny_config(seeds=["a"])
    with pytest.raises(ConfigError, match=r"config: .*missing.*'seeds'"):
        harness.ExperimentConfig.from_json({"env_id": "pendulum", "dataset": "d",
                                            "variant": "oris", "refs_path": "r"})
    with pytest.raises(ContractError, match=r"config\.perturbation: gravity_scale"):
        tiny_config(perturbation={"gravity_scale": -1.0})
    with pytest.raises(ContractError, match=r"ReferenceHparams\.sac: bad gamma"):
        datasets.ReferenceHparams.from_json({"sac": {"gamma": 1.5}})
    # each entry of a tuple[X, ...] field is decoded as X, and named by index
    header = EXAMPLES[nets.MlpHeader].to_json()
    with pytest.raises(ConfigError, match=r"actor\.mlp\.layer_sizes\[1\]: expected int"):
        nets.MlpHeader.from_json({**header, "layer_sizes": [3, "8", 2]}, "actor.mlp")
    mean = gan.GanMeta.from_json({**EXAMPLES[gan.GanMeta].to_json(), "mean": [1, 2]}).mean
    assert mean == (1.0, 2.0) and all(type(m) is float for m in mean)
    # and each value of a dict[str, X] field as X, named by its key
    with pytest.raises(ConfigError, match=r"meta\.perturbation\.gravity_scale: expected float"):
        data.DatasetMeta.from_json({"perturbation": {"gravity_scale": "2"}}, "meta")
    with pytest.raises(ConfigError, match=r"meta\.perturbation: expected an object"):
        data.DatasetMeta.from_json({"perturbation": [2.0]}, "meta")
    assert data.DatasetMeta.from_json({"env_id": "pendulum", "tier": "random",
                                       "perturbation": {"gravity_scale": 2}}).perturbation \
        == {"gravity_scale": 2.0}


@pytest.mark.parametrize("cls, text, where", [
    (sac.SacHparams, '{"actor_lr": Infinity}',
     r"SacHparams\.actor_lr: expected a finite float, got inf$"),
    (gan.GanHparams, '{"restart_noise_sigma": Infinity}',
     r"GanHparams\.restart_noise_sigma: expected a finite float, got inf$"),
    (harness.Refs, '{"env_id": "pendulum", "random_ref": -Infinity, "expert_ref": 1}',
     r"Refs\.random_ref: expected a finite float, got -inf$"),
    (gan.GanMeta, json.dumps({**EXAMPLES[gan.GanMeta].to_json(), "mean": [0.0, float("nan")]}),
     r"GanMeta\.mean\[1\]: expected a finite float, got nan$"),
    (data.DatasetMeta, '{"env_id": "pendulum", "tier": "random", '
                       '"perturbation": {"gravity_scale": NaN}}',
     r"DatasetMeta\.perturbation\.gravity_scale: expected a finite float, got nan$")])
def test_a_non_finite_float_is_refused_by_its_key_path(cls, text, where):
    """json.loads reads NaN, Infinity and -Infinity; no float field takes them."""
    with pytest.raises(ConfigError, match=where):
        cls.from_json(json.loads(text))


@pytest.mark.parametrize("cls, doc, where", [
    (datasets.ReferenceHparams, {"eval_episodes": 0},
     r"ReferenceHparams: eval_episodes must be >= 1"),
    (datasets.ReferenceHparams, {"batch_size": 0}, r"ReferenceHparams: batch_size must be >= 1"),
    (datasets.ReferenceHparams, {"warmup_steps": -1}, r"ReferenceHparams: bad warmup"),
    (datasets.ReferenceHparams, {"sac": {"actor_lr": -0.001}},
     r"ReferenceHparams\.sac: learning rates"),
    (datasets.ReferenceHparams, {"sac": {"critic_lr": 0}}, r"ReferenceHparams\.sac: learning rates"),
    (datasets.ReferenceHparams, {"sac": {"temperature_lr": 0}},
     r"ReferenceHparams\.sac: learning rates"),
    (datasets.ReferenceHparams, {"sac": {"hidden": [64, 0]}},
     r"ReferenceHparams\.sac: hidden widths"),
    (gan.GanHparams, {"learning_rate": 0}, r"GanHparams: learning_rate must be positive"),
    (gan.GanHparams, {"hidden": [0]}, r"GanHparams: hidden widths"),
    # beta 1 leaves Adam's bias correction 0/0 at the first step; a negative
    # beta1 trains without any error
    *((harness.ExperimentConfig, {**TINY, "gan": betas},
       r"config\.gan: beta1 and beta2 must be in \[0, 1\)")
      for betas in ({"beta1": 1.0}, {"beta2": 1.0}, {"beta1": -0.5})),
])
def test_hparams_refuse_values_that_cannot_train(cls, doc, where):
    with pytest.raises(ContractError, match=where):
        cls.from_json(doc)


@pytest.mark.parametrize("seeds, where", [
    ([True, 2], r"seeds\[0\]: expected int, got True"),
    ([-3], r"config: seeds must be .*, got \[-3\]"),
    ([0, 2.0], r"config\.seeds\[1\]: expected int, got 2\.0")])
def test_seeds_are_non_negative_integers(seeds, where):
    """A seed seeds np.random.SeedSequence: a bool or a float is not read as
    an int, and a negative seed is refused before a run starts."""
    with pytest.raises(ConfigError, match=where):
        tiny_config(seeds=seeds)


def test_empty_hidden_is_a_linear_net():
    cfg = tiny_config(sac={"hidden": []}, gan={"hidden": []})
    assert cfg.sac.hidden == cfg.gan.hidden == ()
