"""Golden fixed-seed runs: tiny training runs must reproduce recorded digests.

One digest per variant in `loop.VARIANTS` covers every per-epoch report and
the final parameters of all five agent nets (float32 since the nets compute
in float32, hashed as float64), so it changes with any change to
the RNG draw order or to the order of float operations anywhere in data, gan,
sac, nets or loop. One more digest covers a tiny online reference run
(`datasets.train_reference`): its final agent and every episode it collected.
A change that alters them on purpose says so and records the new digests here
once.

Float results depend on the numpy and BLAS build, so the digests are only
compared on the build they were recorded with; elsewhere the tests skip and
say why. The compare itself is never loosened.
"""

import hashlib

import numpy as np
import pytest

from oris import datasets, envs, gan, loop, nets, sac
from oris.loop import OrisConfig

RECORDED_ON = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0"}
GOLDEN_SHA256 = "9d2580be01842760524b98a9e1486560d2cfdd7c1574b95e0fac9ee4ed0b537c"
VARIANT_SHA256 = {
    "no_restart": "69fe26812f12fe38b62c64b9eef3083f85cd29c9dfcffa204ac913280d7f11f1",
    "uniform_weight": "7dc024fdb455db8c56d21a255865539f4248729a1e26dd7cceb128205e2cd056",
    "naive_mix": "9fd194c189009ab5e70aecddc9999ff1798cb73ddde68439f2d27c3a08a3c0a0",
    "sim_only_sac": "a27a9be345b58f2e9d44ddc7365d36c84b84c112b9fcc611d94a9d8514df75ca",
    "bc": "2272d0786a2f9cb0759dbc032e7aa208620e8e87e2dae2bfa01ad875b7a7b587",
}
REFERENCE_SHA256 = "cd373c0df3eea68bdddeb1a2bed5756976bea94cac01c9bdc0559ddd124fc2b6"

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
