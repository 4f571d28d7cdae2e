"""The three workload bodies and the checks on their outputs.

Each body is one pass of closed-loop batch work from a single client: the
benchmark calls into ``oris`` and waits for the result before the next call.
A pass returns its operation counts, the per-unit times (training epochs, or
episodes), the outputs the checks and the traced run compare, and the checks
that the caller runs once the pass has been timed. Unit times come from the
marks a body sets on its ``speed.Clock``, so they are at the reference host
speed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oris import data, datasets, envs, harness, sac
from oris.errors import ConfigError
from oris.presets import desk_gan, desk_loop, desk_sac

import inputs as inputs_mod
import speed

# The checks read outputs back through references taken here, so the traced
# run counts only the workload's own calls into these functions.
_read_metrics_csv = harness.read_metrics_csv
_score_table_from_csvs = harness.score_table_from_csvs

MAIN_VARIANTS = ("oris", "naive_mix", "sim_only_sac")
ROLLOUT_TIERS = (("random", 12), ("medium", 24), ("expert", 12))


@dataclass(frozen=True)
class Size:
    """Budget overrides on top of the desk presets, per workload."""

    main: dict            # OrisConfig overrides for pendulum_main
    ablation: dict        # OrisConfig overrides for pointgoal_ablation
    gan: dict             # GanHparams overrides for both
    rollout_tiers: tuple  # (tier, episodes) for pendulum_rollouts
    eval_episodes: int    # deterministic eval episodes in pendulum_rollouts
    score_floor: float    # least final score of oris and naive_mix on pendulum_main


# The desk epoch (250 updates, 10 rollouts, 10 eval episodes) with fewer
# epochs per cell and a shorter GAN fit, so one pass fits one run. The score
# floor is the uniformly random policy's score, 0 by definition. At seeds 0
# and 1000-1019 oris scored 12.5-43.8 and naive_mix 15.2-59.3 at this size;
# an untrained agent scored -13.6 to 1.4 at four seeds.
BENCH = Size(main=dict(epochs=4), ablation=dict(epochs=3),
             gan=dict(iterations=150), rollout_tiers=ROLLOUT_TIERS,
             eval_episodes=10, score_floor=0.0)

# Seconds for all three workloads; scores at this size mean nothing.
TINY = Size(main=dict(epochs=3, updates_per_epoch=4, eval_episodes=1,
                      rollout_count=2, rollout_horizon=20),
            ablation=dict(epochs=3, updates_per_epoch=4, eval_episodes=1,
                          rollout_count=2, rollout_horizon=20),
            gan=dict(iterations=20, batch_size=32),
            rollout_tiers=(("random", 2), ("medium", 2), ("expert", 2)),
            eval_episodes=2, score_floor=-math.inf)


class CheckFailed(Exception):
    """An output of the program is wrong; the run must fail."""


@dataclass
class Pass:
    attempted: int = 0
    failed: int = 0
    unit_s: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)   # name -> number, compared across runs
    notes: dict = field(default_factory=dict)      # reported, not compared
    checks: list = field(default_factory=list)     # callables, run after the timing

    def expect_units(self, n: int) -> None:
        """A unit that goes missing or appears must fail the run, not shift the metric."""
        got = len(self.unit_s)
        self.checks.append(lambda: _expect(got == n, f"{got} unit samples, expected {n}"))


def _expect(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


def _finite(name: str, x: float) -> float:
    if not math.isfinite(x):
        raise CheckFailed(f"{name} is not finite: {x}")
    return x


def _epoch_timer(unit_s: list, clock: speed.Clock):
    """progress callback: the work between successive epoch reports.

    The first report of a cell has no start mark (the GAN fit precedes it),
    so a cell of E epochs yields E - 1 samples.
    """
    last = [None]

    def progress(_report):
        now = clock.mark()
        if last[0] is not None:
            unit_s.append(clock.scaled(last[0], now))
        last[0] = now

    return progress


def _check_cell_outputs(cfg: harness.ExperimentConfig, out: Path, table) -> None:
    """Re-read every CSV, rebuild the table under the config hash, check finiteness."""
    csvs = sorted(out.glob("*.csv"))
    if len(csvs) != len(cfg.seeds):
        raise CheckFailed(f"{cfg.variant}: {len(csvs)} CSVs for {len(cfg.seeds)} seeds")
    for p in csvs:
        tags, rows = _read_metrics_csv(p)
        if tags["config_hash"] != cfg.config_hash():
            raise CheckFailed(f"{p.name}: hash {tags['config_hash']} != {cfg.config_hash()}")
        for row in rows:
            for k, v in row.items():
                _finite(f"{p.name}:{k}", float(v))
    rebuilt = _score_table_from_csvs(csvs)
    if rebuilt.config_hash != cfg.config_hash() or rebuilt.rows != table.rows:
        raise CheckFailed(f"{cfg.variant}: table rebuilt from CSVs differs from the run's")
    row = rebuilt.rows[0]
    _finite(f"{cfg.variant} score", row["final_score"])
    _finite(f"{cfg.variant} return", row["final_return"])


def _run_cell(cfg: harness.ExperimentConfig, out: Path, p: Pass,
              clock: speed.Clock) -> None:
    progress = _epoch_timer(p.unit_s, clock)
    p.attempted += 1
    clock.mark()
    table, failures = harness.run_experiment(cfg, out, progress=progress)
    if failures:
        p.failed += 1
        p.notes.setdefault("failures", []).extend(failures)
        return
    p.outputs[f"final_score.{cfg.variant}"] = float(table.rows[0]["final_score"])
    p.outputs[f"final_return.{cfg.variant}"] = float(table.rows[0]["final_return"])
    p.checks.append(lambda: _check_cell_outputs(cfg, out, table))


def _cell_config(env_id, dataset, refs, variant, seed, out, size) -> harness.ExperimentConfig:
    loop_over = size.main if env_id == "pendulum" else size.ablation
    return harness.ExperimentConfig(
        env_id=env_id, dataset=str(dataset), variant=variant, seeds=(seed,),
        perturbation=envs.DynamicsPerturbation(gravity_scale=2.0),
        refs_path=str(refs), out_dir=str(out),
        oris=desk_loop(variant, **loop_over), sac=desk_sac(),
        gan=desk_gan(**size.gan))


def pendulum_main(inp: dict, seed: int, work: Path, size: Size,
                  clock: speed.Clock) -> Pass:
    """scripts/run_main_comparison.py at one seed: three cells, one GAN fit."""
    p = Pass()
    for variant in MAIN_VARIANTS:
        cfg = _cell_config("pendulum", inp["dataset"], inp["refs"], variant,
                           seed, work / variant, size)
        _run_cell(cfg, work / variant, p, clock)
    p.expect_units(len(MAIN_VARIANTS) * (cfg.oris.epochs - 1))
    p.checks.append(lambda: _learned(p, size.score_floor))
    return p


def _learned(p: Pass, floor: float) -> None:
    """The variants that train on offline data must learn, at every seed."""
    for variant in ("oris", "naive_mix"):
        score = p.outputs.get(f"final_score.{variant}", math.nan)
        _expect(score >= floor, f"{variant} scored {score:.2f}, below the floor {floor}")


def ablation_expansion_defect(base: harness.ExperimentConfig) -> list[str]:
    """Cells that harness.sweep cannot build from sweep_points(cfg, "ablation").

    At the time of writing, with_overrides(variant=v) keeps the base config's
    oris.variant, so from_json raises ConfigError for every v but the base's.
    """
    broken = []
    for label, overrides in harness.sweep_points(base, "ablation"):
        try:
            base.with_overrides(**overrides)
        except ConfigError:
            broken.append(label)
    return broken


def pointgoal_ablation(inp: dict, seed: int, work: Path, size: Size,
                       clock: speed.Clock) -> Pass:
    """scripts/run_ablations.py at one seed: four cells, three identical GAN fits.

    Cells are expanded as harness.sweep does; any cell the expansion rejects
    is built directly instead, so its time is still measured.
    """
    p = Pass()
    base = _cell_config("pointgoal", inp["dataset"], inp["refs"], "oris", seed,
                        work, size)
    broken = ablation_expansion_defect(base)
    p.notes["sweep_expansion_rejected"] = broken
    points = harness.sweep_points(base, "ablation")
    for label, overrides in points:
        variant = overrides["variant"]
        if label in broken:
            cfg = _cell_config("pointgoal", inp["dataset"], inp["refs"], variant,
                               seed, work / label, size)
        else:
            cfg = base.with_overrides(**overrides, out_dir=str(work / label))
        _run_cell(cfg, work / label, p, clock)
    p.expect_units(len(points) * (cfg.oris.epochs - 1))
    return p


def _check_round_trip(tier: str, episodes: int, a, b) -> None:
    sa, sb = a.arrays(), b.arrays()
    _expect(a.meta == b.meta and a.trajectory_boundaries == b.trajectory_boundaries
            and all(np.array_equal(x, y) for x, y in zip(sa, sb)),
            f"{tier} tier changed in a save/load round trip")
    _expect(b.num_trajectories == episodes,
            f"{tier} tier has {b.num_trajectories} episodes, asked for {episodes}")
    _finite(f"{tier} return", float(np.mean(b.episode_returns())))


def _check_eval(returns: list, episodes: int) -> None:
    _expect(len(returns) == episodes, f"{len(returns)} eval returns for {episodes} episodes")
    for r in returns:
        _finite("eval return", r)


def pendulum_rollouts(inp: dict, seed: int, work: Path, size: Size,
                      clock: speed.Clock) -> Pass:
    """gen-dataset after its reference run, then evaluate: no gradient updates.

    The unit is one episode that queries the agent: a pass gives one sample,
    the time of the medium and expert tier calls and the evaluation call over
    their episode count. Uniform-random episodes cost about half as much and
    are left out; the fixed mix of the rest keeps the samples comparable.
    Every call sits between two clock marks, so each is scaled by the host's
    speed right next to it.
    """
    p = Pass()
    ref = inputs_mod.load_reference(inp["reference"])
    work.mkdir(parents=True, exist_ok=True)
    agent_s, agent_episodes = 0.0, 0
    for tier, episodes in size.rollout_tiers:
        p.attempted += 1
        m0 = clock.mark()
        ds = datasets.generate_dataset("pendulum", tier, episodes, seed,
                                       reference=ref)
        m1 = clock.mark()
        if tier != "random":
            agent_s += clock.scaled(m0, m1)
            agent_episodes += episodes
        path = work / f"pendulum_{tier}.jsonl"
        data.save_dataset(ds, path)
        clock.mark()
        back = data.load_dataset(path)
        p.outputs[f"tier_return.{tier}"] = float(np.mean(back.episode_returns()))
        p.checks.append(lambda tier=tier, episodes=episodes, ds=ds, back=back:
                        _check_round_trip(tier, episodes, ds, back))

    p.attempted += 1
    agent = ref.agent
    rng = np.random.default_rng(np.random.SeedSequence([seed, 99]))
    m0 = clock.mark()
    _, _, returns = envs.evaluate_policy(
        envs.EnvSpec.real("pendulum"),
        lambda o, _r: sac.act(agent, o, "deterministic"), size.eval_episodes, rng)
    agent_s += clock.scaled(m0, clock.mark())
    agent_episodes += size.eval_episodes
    p.unit_s.append(agent_s / agent_episodes)
    p.outputs["eval_return"] = float(np.mean(returns))
    p.checks.append(lambda: _check_eval(returns, size.eval_episodes))
    return p


WORKLOADS = {
    "pendulum_main": pendulum_main,
    "pointgoal_ablation": pointgoal_ablation,
    "pendulum_rollouts": pendulum_rollouts,
}


def workload_inputs(name: str, store: inputs_mod.Inputs, seed: int) -> dict:
    """Input paths of one workload; builds the cache entries it lacks."""
    if name == "pointgoal_ablation":
        return store.pointgoal(seed)
    return store.pendulum()
