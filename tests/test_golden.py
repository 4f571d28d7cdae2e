"""Golden fixed-seed runs: tiny training runs must reproduce recorded digests.

One digest per variant in `loop.VARIANTS` covers every per-epoch report and
the final parameters of all five agent nets (float32 since the nets compute
in float32, hashed as float64), so it changes with any change to
the RNG draw order or to the order of float operations anywhere in data, gan,
sac, nets or loop. One more digest covers a tiny online reference run
(`datasets.train_reference`): its final agent and every episode it collected.
One more covers the bytes `data.save_dataset` writes for a small generated tier,
and one per file the tier files `oris gen-dataset` writes at a tiny reference.
Per-file digests cover the directory `sac.save_agent` writes for a tiny agent
after two update pairs, one digest covers tests/data/agent_f8 loaded and
updated twice, and one the key `gan.fit_key` gives a fixed fit.
A change that alters them on purpose says so and records the new digests here
once.

Float results depend on the numpy and BLAS build, so the digests are only
compared on the build they were recorded with; elsewhere the tests skip and
say why. The compare itself is never loosened.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from oris import cli, data, datasets, envs, gan, loop, nets, sac
from oris.loop import OrisConfig
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
DATASET_FILE_SHA256 = "a4633e6ce5091ed6b60f32649b91dc63f44689ef725b4b74c1469f8a65d1ac8c"
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
FIT_KEY = "ca762d80e926c5ce097c4178f14681092faa5086ac26f3f86599563a9ad1727f"
# recorded with the dataset script that `oris gen-dataset` replaced, run at
# test_datasets.TINY and seed 0; it wrote the same refs with unsorted keys
GEN_DATASET_SHA256 = {
    "pendulum_expert.jsonl": "b82169e76af8ac5591c2195d9f2206c73cb2eb2533f41432ab1904b5853031b6",
    "pendulum_medium.jsonl": "3929551276dc2a501f393e92146b21818581fcbed2451235c42ba2f76bf69fb9",
    "pendulum_medium_replay.jsonl":
        "818b455cecceb981f43049613cef2e2df86b882e81e811985cc6618ef79c7202",
    "pendulum_random.jsonl": "9082252094d3950889416e8c8cd1f5a768409c0a508408047d68886080b40a0f",
    "pointgoal_medium.jsonl": "de02f5de7e1de69edec82b422a874001129975c261664ec62d3cba53242eb502",
    "pointgoal_random.jsonl": "38c04d6ba4e0ef343446779069c3706c1497b3bc1bd446796032488c0f403b49",
}
GEN_DATASET_REFS = {
    "pendulum": {"env_id": "pendulum", "random_ref": -1596.790258282737,
                 "expert_ref": -1743.625564667831, "seed": 0,
                 "medium_return": -1625.392139654523},
    "pointgoal": {"env_id": "pointgoal", "random_ref": -9.99999999999998,
                  "expert_ref": -9.99999999999998, "seed": 0,
                  "medium_return": -9.99999999999998},
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


def _hash_agent(h, agent):
    for name in AGENT_NETS:
        h.update(nets.get_flat_params(getattr(agent, name)).astype("<f8").tobytes())
    h.update(repr(float(agent.log_temperature)).encode())


def golden_digest(variant: str = "oris") -> str:
    offline = datasets.generate_dataset("pendulum", "random", episodes=3, seed=0)
    real = envs.EnvSpec.real("pendulum")
    sim = envs.EnvSpec.sim("pendulum", envs.DynamicsPerturbation(gravity_scale=2.0))
    cfg = OrisConfig(variant=variant, epochs=3, updates_per_epoch=20, rollout_count=3,
                     rollout_horizon=37, eval_episodes=2, random_policy_prob=0.2)
    hp = sac.SacHparams(hidden=(32, 32), critic_lr=1e-3, tau=0.01,
                        batch_off=32, batch_sim=32)
    # w_min 0 keeps the discriminator weights off the clip, so they reach the digest
    gan_hp = gan.GanHparams(z_dim=4, hidden=(32, 32), iterations=100, batch_size=64,
                            w_min=0.0)
    agent, reports = loop.train(real, sim, offline, cfg, hp, seed=11, gan_hp=gan_hp)
    h = hashlib.sha256()
    for r in reports:
        h.update(",".join(repr(float(getattr(r, k))) for k in r.__dataclass_fields__).encode())
    _hash_agent(h, agent)
    return h.hexdigest()


def reference_digest() -> str:
    hp = datasets.ReferenceHparams(
        total_steps=600, warmup_steps=200, eval_interval=300, eval_episodes=2,
        batch_size=32, replay_capacity=1_000,
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


def test_gan_fit_key_digest():
    _require_recorded_build()
    states = np.random.default_rng(0).normal(size=(120, 3))
    hp = gan.GanHparams(z_dim=2, hidden=(8,), iterations=5, batch_size=16, w_min=0.1)
    assert gan.fit_key(gan.fit_inputs(states, hp, np.random.default_rng(1))) == FIT_KEY


def test_dataset_file_digest(tmp_path):
    _require_recorded_build()
    path = tmp_path / "random.jsonl"
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
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("*.jsonl")}
    assert got == {name: digest for name, digest in GEN_DATASET_SHA256.items()
                   if name.startswith(f"{env_id}_")}
    assert json.loads((out / f"{env_id}_refs.json").read_text()) == GEN_DATASET_REFS[env_id]
