"""Command-line entry points: dataset generation, training, sweeps, the
paper's studies and evaluation. One JSON config document drives train/sweep;
a study builds its configs from the table in `oris.presets`."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import datasets, envs, harness, presets, sac
from .config import load_json
from .data import save_dataset
from .errors import ConfigError, ContractError, NumericsError
from .files import atomic_write


def _eprint(*a):
    print(*a, file=sys.stderr)


def cmd_gen_dataset(args) -> int:
    """Train the env's reference at --seed, write its refs, then roll out
    every tier of `presets.TIER_EPISODES[env]` at --seed + 1."""
    hp = datasets.REFERENCE_DEFAULTS[args.env]
    if args.reference_config is not None:
        hp = datasets.ReferenceHparams.from_json(load_json(args.reference_config))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    _eprint(f"training reference agent on {args.env} "
            f"({hp.total_steps} steps) ...")
    reference = datasets.train_reference(
        args.env, hp, args.seed,
        progress=lambda step, ret: _eprint(f"  step {step}: eval {ret:.1f}"))
    refs = {"env_id": args.env, **reference.refs()}
    with atomic_write(out / f"{args.env}_refs.json") as f:
        f.write(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    _eprint(f"refs: random {refs['random_ref']:.1f}, "
            f"expert {refs['expert_ref']:.1f}")

    for tier, episodes in presets.TIER_EPISODES[args.env].items():
        ds = datasets.generate_dataset(args.env, tier, episodes, args.seed + 1,
                                       reference)
        path = out / f"{args.env}_{tier}.jsonl"
        save_dataset(ds, path)
        print(f"{path}: {len(ds)} transitions, "
              f"{len(ds.trajectory_boundaries)} trajectories")
    return 0


def _load_config(args) -> harness.ExperimentConfig:
    cfg = harness.ExperimentConfig.from_json(load_json(args.config))
    if args.seed is not None:
        cfg = cfg.with_overrides(seeds=[args.seed])
    return cfg


def _progress(args):
    if not args.verbose:
        return None
    return lambda r: _eprint(f"  epoch {r.epoch}: eval {r.eval_return_mean:.1f} "
                             f"critic {r.critic_loss:.3f}")


def _run_cell(cfg, axis, out_dir=None, progress=None) -> tuple[dict, list]:
    """Run one config, or sweep it over `axis` if that is given.

    -> (its summary as `train` or `sweep` prints it, failure lines)."""
    if axis is None:
        table, failures = harness.run_experiment(cfg, out_dir, progress=progress)
        return table.summary(), [f"seed {f['seed']} failed: {f['error']}"
                                 for f in failures]
    result = harness.sweep(cfg, axis, out_dir, progress=progress)
    return ({p["label"]: p["summary"] for p in result["points"]},
            [f"{f['point']} seed {f['seed']} failed: {f['error']}"
             for f in result["failures"]])


def _report(summary: dict, failures: list) -> int:
    print(json.dumps(summary, indent=2, sort_keys=True))
    for line in failures:
        _eprint(line)
    return 1 if failures else 0


def cmd_train_or_sweep(args) -> int:
    return _report(*_run_cell(_load_config(args), args.axis, args.out,
                              _progress(args)))


def cmd_study(args) -> int:
    axis = presets.STUDIES[args.name].axis
    out = args.out if args.out is not None else f"runs/{args.name}"
    summary, failures = {}, []
    for cfg in presets.study_cells(args.name, args.data, out, args.seeds):
        summary[cfg.variant], failed = _run_cell(cfg, axis)
        failures += [f"{cfg.variant} {line}" for line in failed]
    return _report(summary, failures)


def cmd_evaluate(args) -> int:
    agent = sac.load_agent(args.agent)
    spec = envs.EnvSpec.real(args.env)
    policy = lambda obs, _rng: sac.act(agent, obs, "deterministic")
    mean, std, returns = envs.evaluate_policy(
        spec, policy, args.episodes, np.random.default_rng(args.seed))
    print(json.dumps({"env_id": args.env, "episodes": args.episodes,
                      "return_mean": mean, "return_std": std,
                      "returns": [float(r) for r in returns]},
                     indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="oris",
        description="offline RL with an inaccurate simulator: data generation, "
                    "training, sweeps, studies, evaluation")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-dataset", help="train a reference agent and write "
                       "the offline tiers the studies read, plus its refs")
    g.add_argument("--env", required=True, choices=envs.ENV_IDS)
    g.add_argument("--seed", type=int, default=0,
                   help="seed of the reference run; the tiers use seed + 1")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--reference-config", default=None,
                   help="JSON file of reference-run hyperparameters")
    g.set_defaults(func=cmd_gen_dataset)

    t = sub.add_parser("train", help="run one experiment config over its seeds")
    t.add_argument("--config", required=True)
    t.add_argument("--seed", type=int, default=None, help="override config seeds")
    t.add_argument("--out", default=None, help="override output directory")
    t.add_argument("--verbose", action="store_true")
    t.set_defaults(func=cmd_train_or_sweep, axis=None)

    s = sub.add_parser("sweep", help="expand one axis of an experiment config")
    s.add_argument("--config", required=True)
    s.add_argument("--axis", required=True, choices=harness.SWEEP_AXES)
    s.add_argument("--seed", type=int, default=None, help="override config seeds")
    s.add_argument("--out", default=None, help="override output directory")
    s.add_argument("--verbose", action="store_true")
    s.set_defaults(func=cmd_train_or_sweep)

    st = sub.add_parser("study", help="run one of the paper's studies at "
                        "the desk defaults")
    st.add_argument("name", choices=sorted(presets.STUDIES))
    st.add_argument("--data", default="data",
                    help="directory of `oris gen-dataset` output")
    st.add_argument("--out", default=None, help="output directory "
                    "(default runs/NAME)")
    st.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    st.set_defaults(func=cmd_study)

    e = sub.add_parser("evaluate", help="evaluate a saved agent on the real env")
    e.add_argument("--agent", required=True, help="agent checkpoint directory")
    e.add_argument("--env", required=True, choices=envs.ENV_IDS)
    e.add_argument("--episodes", type=int, default=10)
    e.add_argument("--seed", type=int, default=0)
    e.set_defaults(func=cmd_evaluate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ContractError) as e:
        _eprint(f"config error: {e}")
        return 2
    except NumericsError as e:
        _eprint(f"numerics failure: {e}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
