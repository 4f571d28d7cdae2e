"""Command-line entry points: dataset generation, training, sweeps, the
paper's studies and evaluation. One JSON config document drives train/sweep;
a study builds its configs from the table in `oris.presets`. All three run
each config through `harness.run_cell`, print its summary as JSON on stdout
and one line per failed seed on stderr, and exit 1 if a seed failed."""

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
from .files import write_json


def _eprint(*a):
    print(*a, file=sys.stderr)


def cmd_gen_dataset(args) -> int:
    """Train the env's reference at --seed, write its refs, then roll out
    every tier of `presets.TIER_EPISODES[env]` at --seed + 1. Refs that
    cannot score (expert not above random) are written with a warning."""
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
    refs = harness.Refs(env_id=args.env, **reference.refs())
    refs_path = presets.data_file(out, args.env, "refs")
    write_json(refs_path, refs.to_json())
    _eprint(f"refs: random {refs.random_ref:.1f}, expert {refs.expert_ref:.1f}")
    try:
        harness.normalized_score(0.0, refs.random_ref, refs.expert_ref)
    except ConfigError as e:
        _eprint(f"warning: {refs_path}: {e}; oris train and oris study refuse this refs file")

    for tier, episodes in presets.TIER_EPISODES[args.env].items():
        ds = datasets.generate_dataset(args.env, tier, episodes, args.seed + 1,
                                       reference)
        path = presets.data_file(out, args.env, tier)
        save_dataset(ds, path)
        print(f"{path}: {len(ds)} transitions, "
              f"{len(ds.trajectory_boundaries)} trajectories")
    return 0


def _progress(args):
    if not args.verbose:
        return None
    return lambda r: _eprint(f"  epoch {r.epoch}: eval {r.eval_return_mean:.1f} "
                             f"critic {r.critic_loss:.3f}")


def _report(summary: dict, failures: list) -> int:
    """Print the summary, and one stderr line per failed seed, led by the
    study variant and the sweep point it ran under, where it has them."""
    print(json.dumps(summary, indent=2, sort_keys=True))
    for f in failures:
        where = "".join(f"{f[k]} " for k in ("study_variant", "point") if k in f)
        _eprint(f"{where}seed {f['seed']} failed: {f['error']}")
    return 1 if failures else 0


def cmd_train_or_sweep(args) -> int:
    cfg = harness.ExperimentConfig.from_json(load_json(args.config))
    if args.seed is not None:
        cfg = cfg.with_overrides(seeds=[args.seed])
    out = args.out if args.out is not None else cfg.out_dir
    return _report(*harness.run_cell(cfg, args.axis, out, _progress(args)))


def cmd_study(args) -> int:
    axis = presets.STUDIES[args.name].axis
    out = args.out if args.out is not None else f"runs/{args.name}"
    summary, failures = {}, []
    for cfg in presets.study_cells(args.name, args.data, out, args.seeds):
        summary[cfg.variant], failed = harness.run_cell(cfg, axis, cfg.out_dir)
        failures += [{"study_variant": cfg.variant, **f} for f in failed]
    return _report(summary, failures)


def cmd_evaluate(args) -> int:
    agent = sac.load_agent(args.agent)
    env = envs.ENVS[args.env]
    if (agent.obs_dim, agent.action_dim) != (env.obs_dim, env.action_dim):
        raise ContractError(f"agent {args.agent} has (obs, action) dims "
                            f"{agent.obs_dim, agent.action_dim}; {args.env} has "
                            f"{env.obs_dim, env.action_dim}")
    spec = envs.EnvSpec.real(args.env)
    policy = lambda obs, _rng: sac.act(agent, obs, "deterministic")
    mean, std, returns = envs.evaluate_policy(
        spec, policy, args.episodes, np.random.default_rng(args.seed))
    print(json.dumps({"env_id": args.env, "episodes": args.episodes,
                      "return_mean": mean, "return_std": std,
                      "returns": [float(r) for r in returns]},
                     indent=2, sort_keys=True))
    return 0


def _seed(text: str) -> int:
    """A --seed value: np.random.SeedSequence takes only a non-negative int."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="oris",
        description="offline RL with an inaccurate simulator: data generation, "
                    "training, sweeps, studies, evaluation")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-dataset", help="train a reference agent and write "
                       "the offline tiers the studies read, plus its refs")
    g.add_argument("--env", required=True, choices=envs.ENV_IDS)
    g.add_argument("--seed", type=_seed, default=0,
                   help="seed of the reference run; the tiers use seed + 1")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--reference-config", default=None,
                   help="JSON file of reference-run hyperparameters")
    g.set_defaults(func=cmd_gen_dataset)

    t = sub.add_parser("train", help="run one experiment config over its seeds")
    t.add_argument("--config", required=True)
    t.add_argument("--seed", type=_seed, default=None, help="override config seeds")
    t.add_argument("--out", default=None, help="override output directory")
    t.add_argument("--verbose", action="store_true")
    t.set_defaults(func=cmd_train_or_sweep, axis=None)

    s = sub.add_parser("sweep", help="expand one axis of an experiment config")
    s.add_argument("--config", required=True)
    s.add_argument("--axis", required=True, choices=harness.SWEEP_AXES)
    s.add_argument("--seed", type=_seed, default=None, help="override config seeds")
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
    st.add_argument("--seeds", type=_seed, nargs="+", default=[0, 1, 2, 3, 4])
    st.set_defaults(func=cmd_study)

    e = sub.add_parser("evaluate", help="evaluate a saved agent on the real env")
    e.add_argument("--agent", required=True, help="agent checkpoint directory")
    e.add_argument("--env", required=True, choices=envs.ENV_IDS)
    e.add_argument("--episodes", type=int, default=10)
    e.add_argument("--seed", type=_seed, default=0)
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
    except OSError as e:  # a path the OS refuses, e.g. a directory where a file goes
        _eprint(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
