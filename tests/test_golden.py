"""Golden fixed-seed run: a tiny oris training run must reproduce a recorded digest.

The digest covers every per-epoch report and the final parameters of all five
agent nets, so it changes with any change to the RNG draw order or to the
order of float operations anywhere in data, gan, sac, nets or loop. A change
that alters them on purpose says so and records the new digest here once.

Float results depend on the numpy and BLAS build, so the digest is only
compared on the build it was recorded with; elsewhere the test skips and says
why. The compare itself is never loosened.
"""

import hashlib

import numpy as np
import pytest

from oris import datasets, envs, gan, loop, nets, sac
from oris.loop import OrisConfig

RECORDED_ON = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0"}
GOLDEN_SHA256 = "410fc301a79009aa109568830aa9a238c8190d4e05b3efd14c67a6d61b6102ec"

AGENT_NETS = ("actor", "critic1", "critic2", "target1", "target2")


def _build() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def golden_digest() -> str:
    offline = datasets.generate_dataset("pendulum", "random", episodes=3, seed=0)
    real = envs.EnvSpec.real("pendulum")
    sim = envs.EnvSpec.sim("pendulum", envs.DynamicsPerturbation(gravity_scale=2.0))
    cfg = OrisConfig(variant="oris", epochs=3, updates_per_epoch=20, rollout_count=3,
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
    for name in AGENT_NETS:
        h.update(nets.get_flat_params(getattr(agent, name)).astype("<f8").tobytes())
    h.update(repr(float(agent.log_temperature)).encode())
    return h.hexdigest()


def test_golden_training_digest():
    build = _build()
    if build != RECORDED_ON:
        pytest.skip(f"digest recorded on {RECORDED_ON}, this is {build}")
    assert golden_digest() == GOLDEN_SHA256
