"""Golden fixed-seed runs: tiny training runs must reproduce recorded digests.

One digest per variant in `loop.VARIANTS` covers every per-epoch report and
the final parameters of all five agent nets (float32 since the nets compute
in float32, hashed as float64), so it changes with any change to
the RNG draw order or to the order of float operations anywhere in data, gan,
sac, nets or loop. One more digest covers a tiny online reference run
(`datasets.train_reference`): its final agent and every episode it collected.
One more covers the bytes `data.save_dataset` writes for a small generated tier,
and one per file the tier files `oris gen-dataset` writes at a tiny reference,
plus one per tier of what that file loads to: its rows, trajectory boundaries
and meta, which no change of the file format may move.
One digest per file of a tiny `oris sweep --axis fraction` run (its sweep
table, and each point's score table and CSV) and one of the summary it prints
cover the path from a config to its results.
Per-file digests cover the directory `sac.save_agent` writes for a tiny agent
after two update pairs, one digest covers tests/data/agent_f8 (a float64
agent directory whose Adam states are at step 0) loaded and updated twice,
one the key `gan.fit_key` gives a fixed fit, and one per file of the GAN store
entry that fit writes. The agent_f8 digest predates the
fixture's Adam files and dtype headers: it was rewritten once, as
save_agent(load_agent(it)), with the same parameters and optimizer states.
A change that alters them on purpose says so and records the new digests here
once.

Float results depend on the numpy and BLAS build, so the digests are only
compared on the build they were recorded with; elsewhere the tests skip and
say why. The compare itself is never loosened.
"""

import hashlib
import json
from pathlib import Path
import tempfile

import numpy as np
import pytest

from oris import cli, data, datasets, envs, gan, loop, sac
from oris.loop import OrisConfig
from test_cli import REFS, write_config
from test_datasets import TINY

RECORDED_ON = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0"}
GOLDEN_SHA256 = "b44c0a9ff0176ec0753fdf8f59763b8217ee82acc088d1389eb959511596532c"
VARIANT_SHA256 = {
    "no_restart": "78d61ecd465ae6f954945b61f255059fdaa3c95a8d16b5b78e179f99067df4a1",
    "uniform_weight": "425c46114a116a56a4ce781c2277366e126533c997a26c41838ec5f979fd9e0e",
    "naive_mix": "882853cc5bb17baedbb420c1a66381fdec10e6e1956318551dbfe24bba03feb3",
    "sim_only_sac": "19fb42bdb1171fdb8f15f02cdcc884e9a199de0743284561c1299aa8ce1a5617",
    "bc": "ba42bde62ee4d956a40ee034075bebf330364161acace73f65cbb46820c9c1f6",
}
REFERENCE_SHA256 = "ac23e283f799bb489cc6dab160d0783791133351c78a41782095e17410a27e7b"
DATASET_FILE_SHA256 = "e5a981a5e279e45c050318fdbde61a9b96fec7a2b5a7dc396dca514ebcfe9c4e"
# recorded when the twin critics were four single nets, which wrote the same files
AGENT_FILE_SHA256 = {
    "actor.mlp": "f2f4e665cd29231040356e3e3c2f825020b06664f99c9ec7da5d821748966bc9",
    "agent.json": "dcd636e0b8d284982e0a01068ff748f8a15c5cbf867f5483cef30209691e0c51",
    "critic1.mlp": "86bb37d3c430d1f16d36f8fb2fe29d81f1f6c369675791e4243e479edbfb0d12",
    "critic2.mlp": "14ddaa8accff7e9436333e7cc9fba6b711a3d7b9f65aa620c07b7394c36fc488",
    "opt_actor.adam": "dd2a5a23e691c33eacaf007a18717855e22761a04419a589f33da6dd38aca684",
    "opt_critic1.adam": "78a8e0b6f79b1c1de473f330dfd7780fd21fec6b8385892030e59d296c451dd2",
    "opt_critic2.adam": "834bd8180f4970acccd2b54a36ad68612b35258fffa3acc9edc02e3b34842abd",
    "target1.mlp": "0042f12d749a1a1981673e63b9a6422938f1ea26b93d1646e2fc043cdd009eb0",
    "target2.mlp": "49b1a68dbcec799e4a4f2cd1aa4e8d2bcd1e959cfb36e8672f61bb369a2d30e7",
}
AGENT_F8_UPDATED_SHA256 = "bc584e34c07bf7cc004da3a2cef8f892984c0f9d6fc5ed5c4848275f05ca6fc2"
# fit_inputs carries gan_version since GAN_VERSION 2, so the key moved with it
FIT_KEY = "2940af315fccfb3480d3285f246c075178b2993afacbfdbab55c547354243933"
# the files `gan.save_fit` writes for that fit, under <store>/FIT_KEY/
GAN_ENTRY_SHA256 = {
    "discriminator.mlp": "cf11834ecf6368b14a0b521ed4bd4c32b382d42e685a68a600560954397d0caa",
    "gan.json": "1e51cf4fdc590322bef9fd947c88e38439c2edfc3a257107c3d5513fb8f58a97",
    "generator.mlp": "e21a2ce2c0cecb99ba9316e4b1e6ebb173cb4f554749a6538f78868203a2cb3a",
    "report.json": "556b125778262660e015980e473e32c31773f3db3e5a6365348f863b98565679",
}
# the bytes of the version-2 files `oris gen-dataset` writes at test_datasets.TINY
# and seed 0; GEN_DATASET_CONTENT_SHA256 pins what each one loads to
GEN_DATASET_SHA256 = {
    "pendulum_expert.rows": "bdb0f8ced23259ea2aa16517e76704d285fc0f51ef6b33208943ad59972cb8fd",
    "pendulum_medium.rows": "2f073a8b598f143947b471a3b778a14277fa5a58b50931a27fac0f7302bf866f",
    "pendulum_medium_replay.rows":
        "22e940ed023acf72a778b5b06429202cdc89ac885022c96590b45c3c72737cdb",
    "pendulum_random.rows": "49ad40e88ee504133fd23c3d27bdb82cf3066a7f441d5af7820eae20e1dd9f3f",
    "pointgoal_medium.rows": "b269d77dfa2f7df9b5a78cd917f1bf383e3b4093c26da6602fecf3acd504a86a",
    "pointgoal_random.rows": "2cf82045c662f73ccf360f373fd328c12f62a04ff7ea9ae0f485c2b7c5e6f349",
}
# per tier, sha256 of the loaded rows.block bytes, then the JSON of
# trajectory_boundaries and of meta's non-null fields (sorted keys), as
# _content_digest takes it;
# recorded from the version-1 JSONL files gen-dataset wrote before version 2
GEN_DATASET_CONTENT_SHA256 = {
    "pendulum_expert": "d4d4495c3a73eabdd0bda431e1aec3d3e6145fecb5c4e221d961b88c59eeddb2",
    "pendulum_medium": "87c8287ea6f449e4fe9671f03ea023145f5cf33a5e6372a8300bbd73d269b53a",
    "pendulum_medium_replay": "65d37ee8dd39db98d68d2ff7898b4697fd44e736d872c1d6b06d0105d6f0232c",
    "pendulum_random": "265c248ebe3518d18b7c3ae5c5d81370a6b9e2853cf5794aaedb606f2808d6ed",
    "pointgoal_medium": "e018bf479eaaccb18793e0c8dc1642f40d8f4035d915c6972ffcf8bf824b8192",
    "pointgoal_random": "7ddaae2bbf23ec08bfd375f86628bdaef5667a3df03d789ea38459559183c246",
}
# recorded with the dataset script that `oris gen-dataset` replaced, run at
# test_datasets.TINY and seed 0; it wrote the same refs with unsorted keys
GEN_DATASET_REFS = {
    "pendulum": {"env_id": "pendulum", "random_ref": -1596.790258282737,
                 "expert_ref": -1743.625564667831, "seed": 0,
                 "medium_return": -1625.392139654523},
    "pointgoal": {"env_id": "pointgoal", "random_ref": -9.99999999999998,
                  "expert_ref": -9.99999999999998, "seed": 0,
                  "medium_return": -9.99999999999998},
}
# test_cli.test_sweep_cli's config at seed 0, its inputs at relative paths so
# that the config hashes in the files stay put; "stdout" is the printed summary
SWEEP_SHA256 = {
    "sweep_table.json": "e86350fbd9a8ca3e7fe597b0dfb37b64c4965b7949a6b7ddc296bf3908863982",
    "fraction_0.05/score_table.json":
        "01300852980221ebcf042a7434a620da84e2a2cda1c24994a456e00f90a49b8f",
    "fraction_0.25/score_table.json":
        "07df43d47da3eba2079236b9813187a1ec68874200d83d1d24949a78024af266",
    "fraction_1/score_table.json": "59cad02e064c30802f4c9da0fcc230db16e9e65547d6c7b6b4427aaf370d46f6",
    "fraction_0.05/naive_mix_seed0.csv":
        "a64f56d8f6ac62c0c834232c5b3217403b511375ef16e022c3552a840e5a6934",
    "fraction_0.25/naive_mix_seed0.csv":
        "ccb48481b2e15a5bd7995ea5b7d1951763962b9b3de2a351dda604a5111c58f8",
    "fraction_1/naive_mix_seed0.csv": "2b22b75aa59acee5062a94e141f754a842b70d1f8cd5fc777cb515b675d575cc",
    "stdout": "3819af30217ab7d29185349a566fb9074435f9f91110957d6831123ceb7d4c66",
}

# a stack's rows hash back to back, so the twin critics and their targets
# hash as they did as four single nets: critic1, critic2, target1, target2
AGENT_NETS = ("actor", "critics", "targets")


def _build() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def _require_recorded_build():
    build = _build()
    if build != RECORDED_ON:
        pytest.skip(f"digests recorded on {RECORDED_ON}, this is {build}")


def _content_digest(ds) -> str:
    h = hashlib.sha256(ds.rows.block.tobytes())
    h.update(json.dumps(ds.trajectory_boundaries).encode())
    meta = {k: v for k, v in ds.meta.to_json().items() if v is not None}
    h.update(json.dumps(meta, sort_keys=True).encode())
    return h.hexdigest()


def _hash_agent(h, agent):
    for name in AGENT_NETS:
        h.update(getattr(agent, name).params.astype("<f8").tobytes())
    h.update(repr(float(agent.log_temperature)).encode())


def golden_digest(variant: str = "oris") -> str:
    offline = datasets.generate_dataset("pendulum", "random", episodes=3, seed=0)
    cfg = OrisConfig(variant=variant, epochs=3, updates_per_epoch=20, rollout_count=3,
                     rollout_horizon=37, eval_episodes=2, random_policy_prob=0.2)
    hp = sac.SacHparams(hidden=(32, 32), critic_lr=1e-3, tau=0.01,
                        batch_off=32, batch_sim=32)
    # w_min 0 keeps the discriminator weights off the clip, so they reach the digest
    gan_hp = gan.GanHparams(z_dim=4, hidden=(32, 32), iterations=100, batch_size=64,
                            w_min=0.0)
    with tempfile.TemporaryDirectory() as store:
        agent, reports = loop.train(offline, envs.DynamicsPerturbation(gravity_scale=2.0), cfg,
                                    hp, seed=11, gan_hp=gan_hp, gan_store=store)
    h = hashlib.sha256()
    for r in reports:
        h.update(",".join(repr(float(getattr(r, k))) for k in r.__dataclass_fields__).encode())
    _hash_agent(h, agent)
    return h.hexdigest()


def reference_digest() -> str:
    hp = datasets.ReferenceHparams(
        total_steps=600, warmup_steps=200, eval_interval=300, eval_episodes=2,
        batch_size=32,
        sac=sac.SacHparams(hidden=(32, 32), critic_lr=1e-3, tau=0.01))
    run = datasets.train_reference("pendulum", hp, seed=5)
    h = hashlib.sha256()
    _hash_agent(h, run.agent)
    for episode in run.episodes:
        for column in episode:
            h.update(np.ascontiguousarray(column, dtype="<f8").tobytes())
    return h.hexdigest()


def test_golden_training_digest():
    _require_recorded_build()
    assert golden_digest() == GOLDEN_SHA256


@pytest.mark.parametrize("variant", [v for v in loop.VARIANTS if v != "oris"])
def test_variant_training_digest(variant):
    _require_recorded_build()
    assert golden_digest(variant) == VARIANT_SHA256[variant]


def test_reference_run_digest():
    _require_recorded_build()
    assert reference_digest() == REFERENCE_SHA256


def _update_pairs(agent, seed, pairs=2, n=6):
    rng = np.random.default_rng(seed)
    for _ in range(pairs):
        batch = (rng.normal(size=(n, agent.obs_dim)),
                 rng.uniform(-1.0, 1.0, size=(n, agent.action_dim)),
                 rng.normal(size=n), rng.normal(size=(n, agent.obs_dim)),
                 (rng.uniform(size=n) < 0.2).astype(np.float64))
        sac.critic_update(agent, batch, rng.uniform(0.1, 1.0, size=n), rng)
        sac.actor_update(agent, batch[0], rng)


def test_agent_directory_file_digests(tmp_path):
    _require_recorded_build()
    agent = sac.SacAgent.create(
        3, 1, 2.0, sac.SacHparams(hidden=(8, 8), critic_lr=3e-4, tau=0.005), seed=60)
    _update_pairs(agent, 61)
    sac.save_agent(agent, tmp_path / "agent")
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in (tmp_path / "agent").iterdir()}
    assert got == AGENT_FILE_SHA256


def test_agent_f8_loads_into_stacks_and_updates():
    _require_recorded_build()
    agent = sac.load_agent(Path(__file__).parent / "data" / "agent_f8")
    assert agent.critics.stack_size == agent.targets.stack_size == 2
    _update_pairs(agent, 62)
    h = hashlib.sha256()
    _hash_agent(h, agent)
    assert h.hexdigest() == AGENT_F8_UPDATED_SHA256


def _fixed_fit():
    """The states, hparams and RNG of the fit behind FIT_KEY."""
    states = np.random.default_rng(0).normal(size=(120, 3))
    hp = gan.GanHparams(z_dim=2, hidden=(8,), iterations=5, batch_size=16, w_min=0.1)
    return states, hp, np.random.default_rng(1)


def test_gan_fit_key_digest():
    _require_recorded_build()
    assert gan.fit_key(gan.fit_inputs(*_fixed_fit())) == FIT_KEY


def test_gan_store_entry_file_digests(tmp_path):
    _require_recorded_build()
    gan.pretrain_or_load(*_fixed_fit(), tmp_path)
    entry = tmp_path / FIT_KEY
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in entry.iterdir()}
    assert got == GAN_ENTRY_SHA256


def test_dataset_file_digest(tmp_path):
    _require_recorded_build()
    path = tmp_path / "random.rows"
    data.save_dataset(datasets.generate_dataset("pendulum", "random", episodes=3, seed=0),
                      path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DATASET_FILE_SHA256


@pytest.mark.parametrize("env_id", sorted(GEN_DATASET_REFS))
def test_gen_dataset_file_digests(tmp_path, env_id):
    _require_recorded_build()
    reference_config = tmp_path / "tiny.json"
    reference_config.write_text(json.dumps(TINY.to_json()))
    out = tmp_path / "data"
    assert cli.main(["gen-dataset", "--env", env_id, "--seed", "0", "--out", str(out),
                     "--reference-config", str(reference_config)]) == 0
    tiers = sorted(out.glob("*.rows"))
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tiers}
    assert got == {name: digest for name, digest in GEN_DATASET_SHA256.items()
                   if name.startswith(f"{env_id}_")}
    content = {p.stem: _content_digest(data.load_dataset(p)) for p in tiers}
    assert content == {name: digest for name, digest in GEN_DATASET_CONTENT_SHA256.items()
                       if name.startswith(f"{env_id}_")}
    assert json.loads((out / f"{env_id}_refs.json").read_text()) == GEN_DATASET_REFS[env_id]


def test_sweep_cli_digests(tmp_path, monkeypatch, capsys):
    _require_recorded_build()
    monkeypatch.chdir(tmp_path)
    data_dir, out = Path("data"), Path("sw")
    data_dir.mkdir()
    data.save_dataset(datasets.generate_dataset("pendulum", "random", episodes=2, seed=0),
                      data_dir / "pendulum_random.rows")
    (data_dir / "pendulum_refs.json").write_text(json.dumps(REFS))
    write_config(Path("c.json"), data_dir)
    assert cli.main(["sweep", "--config", "c.json", "--axis", "fraction",
                     "--out", str(out)]) == 0
    files = [out / "sweep_table.json", *sorted(out.glob("*/score_table.json")),
             *sorted(out.glob("*/*.csv"))]
    got = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in files}
    got["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == SWEEP_SHA256
