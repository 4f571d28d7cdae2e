"""Golden fixed-seed runs: tiny training runs must reproduce recorded digests.

One digest per variant in `loop.VARIANTS` covers every per-epoch report and
the final parameters of all five agent nets (float32 since the nets compute
in float32, hashed as float64), so it changes with any change to
the RNG draw order or to the order of float operations anywhere in data, gan,
sac, nets or loop. One more digest covers a tiny online reference run
(`datasets.train_reference`): its final agent and every episode it collected.
One more covers the bytes `data.save_dataset` writes for a small generated tier.
A change that alters them on purpose says so and records the new digests here
once.

Float results depend on the numpy and BLAS build, so the digests are only
compared on the build they were recorded with; elsewhere the tests skip and
say why. The compare itself is never loosened.
"""

import hashlib

import numpy as np
import pytest

from oris import data, datasets, envs, gan, loop, nets, sac
from oris.loop import OrisConfig

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

AGENT_NETS = ("actor", "critic1", "critic2", "target1", "target2")


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


def test_dataset_file_digest(tmp_path):
    _require_recorded_build()
    path = tmp_path / "random.jsonl"
    data.save_dataset(datasets.generate_dataset("pendulum", "random", episodes=3, seed=0),
                      path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DATASET_FILE_SHA256
