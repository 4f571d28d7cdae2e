"""The oris benchmark: one command per workload run.

    python3 perfbench/run.py --workload pendulum_main --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --selfcheck

Run it from the root of a checkout. It builds missing inputs into
``.perfbench/`` (once per checkout, in a child process), times the set-up in
child processes, repeats the workload body until ``--seconds`` have passed,
checks every output and prints one JSON result as its last line: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Untraced times are at the reference host speed (speed.py).
It exits non-zero if a check fails. See perfbench/README.md.
"""
import os

# BLAS threads are fixed before numpy loads, here and in every child.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
# Half before the body and half after, so a run samples the host at both ends.
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 60
PREPARE_TIMEOUT_S = 1200

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "unit_s.p50": "s", "unit_s.p80": "s"}


def _die(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _import_program():
    if not (ROOT / "src" / "oris" / "__init__.py").is_file():
        _die(f"no oris sources under {ROOT / 'src'}; run from the root of a checkout")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run this script in a child with the same thread settings; wait for it."""
    env = {**os.environ, **THREAD_ENV}
    return subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)


def _sizes(name: str):
    import inputs
    import workloads
    return {"bench": (inputs.FULL, workloads.BENCH),
            "tiny": (inputs.TINY, workloads.TINY)}[name]


def prepare(workload: str, seed: int, size: str) -> dict:
    """Build every reference and this seed's inputs; -> input paths."""
    import inputs
    import workloads
    input_size, _ = _sizes(size)
    store = inputs.Inputs(WORK / "cache", input_size)
    for env_id in ("pendulum", "pointgoal"):
        store.reference_dir(env_id)
    paths = workloads.workload_inputs(workload, store, seed)
    return {"paths": {k: str(v) for k, v in paths.items()},
            "generated_s": store.generated_s,
            "reference_s": store.reference_seconds(),
            "as_defined": store.as_defined()}


def probe(workload: str, seed: int, size: str) -> None:
    """What a user pays before the first unit of work: imports and input reads."""
    from oris import data, datasets, envs, gan, harness, loop, nets, sac  # noqa: F401
    import inputs
    import workloads
    input_size, _ = _sizes(size)
    store = inputs.Inputs(WORK / "cache", input_size, verify=False)
    paths = workloads.workload_inputs(workload, store, seed)
    json.loads(Path(paths["refs"]).read_text())
    if workload == "pendulum_rollouts":
        inputs.load_reference(paths["reference"])
    else:
        data.load_dataset(paths["dataset"])


def measure_setup(workload: str, seed: int, size: str, clock) -> list[float]:
    """Probe children, each between two clock marks; -> their scaled times."""
    times = []
    for _ in range(1 if size == "tiny" else SETUP_PROBES // 2):
        m0 = clock.mark()
        r = _child(["--probe", "--workload", workload, "--seed", str(seed),
                    "--size", size], PROBE_TIMEOUT_S)
        times.append(clock.scaled(m0, clock.mark()))
        if r.returncode != 0:
            _die(f"set-up probe failed:\n{r.stderr}", 1)
    return times


def _git_sha() -> str:
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10,
                           env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def manifest(workload: str, seed: int, size: str, prepared: dict) -> dict:
    import numpy as np
    import inputs
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "workload": workload, "seed": seed, "size": size,
        "git_sha": _git_sha(),
        "source_digest": inputs.tree_digest(ROOT / "src" / "oris"),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "input_digests": inputs.digests(prepared["paths"]),
        "inputs_as_defined": prepared["as_defined"],
    }


def _quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a sample (numpy's default method)."""
    import numpy as np
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def run_body(workload: str, seed: int, seconds: float, size_name: str,
             paths: dict, clock, traced: bool):
    """Repeat whole passes while the next one should end within `seconds`.

    -> (passes, untraced pass times, traced pass times, tracer, raw wall
    seconds of the untraced passes). A traced run alternates untraced and
    traced passes, starting untraced, for the overhead and the equal-results
    check; it makes at least one of each.
    """
    import spans
    import workloads
    _, size = _sizes(size_name)
    body = workloads.WORKLOADS[workload]
    run_dir = WORK / "runs" / f"{workload}_seed{seed}_trace{int(traced)}"
    inp = {k: Path(v) for k, v in paths.items()}
    passes, times, traced_times, raw_times = [], [], [], []
    tracer = spans.Tracer() if traced else None
    t_start = time.perf_counter()
    while True:
        shutil.rmtree(run_dir, ignore_errors=True)
        trace_this = traced and len(passes) % 2 == 1
        ctx = spans.instrument(tracer) if trace_this else contextlib.nullcontext()
        if trace_this:
            tracer.begin_run(f"pass{len(passes)}")
        with ctx:
            m0 = clock.mark()
            p = body(inp, seed, run_dir, size, clock)
            m1 = clock.mark()
        dt = clock.raw(m0, m1)
        for check in p.checks:
            check()
        p.checks = []
        if trace_this:
            traced_times.append(dt)
        else:
            times.append(clock.scaled(m0, m1))
            raw_times.append(dt)
        passes.append(p)
        if passes[0].outputs != p.outputs:
            raise workloads.CheckFailed(
                f"pass {len(passes) - 1} outputs differ from pass 0 "
                f"({'traced' if trace_this else 'untraced'}): "
                f"{p.outputs} vs {passes[0].outputs}")
        if traced and not traced_times:
            continue
        if time.perf_counter() - t_start + dt > seconds:
            break
    shutil.rmtree(run_dir, ignore_errors=True)
    return passes, times, traced_times, tracer, raw_times


def run(args) -> int:
    import workloads
    prep = _child(["--prepare", "--workload", args.workload, "--seed", str(args.seed),
                   "--size", args.size], PREPARE_TIMEOUT_S)
    if prep.returncode != 0:
        _die(f"input generation failed:\n{prep.stderr}", 1)
    prepared = json.loads(prep.stdout.strip().splitlines()[-1])
    paths = prepared["paths"]
    print(f"inputs: one-time generation {prepared['generated_s']:.1f} s in this run; "
          f"reference training {json.dumps(prepared['reference_s'])}")
    if prepared["as_defined"] is False:
        print("inputs: the references DIFFER from perfbench/input_digests.json, so this "
              "program's numerics differ from the ones the benchmark was defined with, "
              "and another checkout may train on other bytes")

    import speed
    # A traced run reports raw wall times, so its marks time no kernel.
    clock = speed.Clock(calibrate=not args.trace)
    setup = measure_setup(args.workload, args.seed, args.size, clock)
    man = manifest(args.workload, args.seed, args.size, prepared)
    print("manifest: " + json.dumps(man, sort_keys=True))

    correct = True
    try:
        passes, times, traced_times, tracer, raw_times = run_body(
            args.workload, args.seed, args.seconds, args.size, paths, clock, args.trace)
    except workloads.CheckFailed as e:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
        print(f"check failed: {e}")
        correct = False
        passes, times, traced_times, tracer, raw_times = [], [], [], None, []
    if correct:
        setup += measure_setup(args.workload, args.seed, args.size, clock)

    first = passes[0] if passes else workloads.Pass()
    for p in passes:
        if p.failed:
            correct = False
    attempted = max(1, sum(p.attempted for p in passes))
    failed = sum(p.failed for p in passes)
    for key, value in sorted(first.outputs.items()):
        print(f"output {key} = {value!r}")
    for key, value in sorted(first.notes.items()):
        print(f"note {key} = {json.dumps(value)}")

    metrics = {}
    if correct and not args.trace:
        units = [u for p in passes for u in p.unit_s]
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit_s.p50": _quantile(units, 0.5),
            "unit_s.p80": _quantile(units, 0.8),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        kernel = clock.kernel_times()
        print(f"samples: {len(times)} passes, {len(units)} units, {len(setup)} set-up probes; "
              f"pass times {[round(t, 3) for t in times]} at the reference speed, "
              f"{[round(t, 3) for t in raw_times]} raw; {len(kernel)} clock marks, "
              f"kernel median {statistics.median(kernel) / speed.REF_KERNEL_S:.3f}x "
              f"its reference time")
    elif correct:
        import spans
        values = tracer.metrics()
        values["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(times)
        units = spans.per_layer_units()
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        trace_path = WORK / "traces" / f"{args.workload}.npz"
        tracer.write(trace_path)
        print(f"trace: {len(traced_times)} traced passes, spans in {trace_path}")
    for k, m in metrics.items():
        print(f"metric {k} = {m['value']!r} {m['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = WORK / "results" / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({
        "manifest": man, "result": result, "setup_probe_s": setup,
        "pass_s": times, "raw_pass_s": raw_times, "traced_pass_s": traced_times,
        "kernel_s": clock.kernel_times(),
        "unit_s": [p.unit_s for p in passes], "outputs": first.outputs,
        "notes": first.notes}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def selfcheck() -> int:
    """Every workload, traced and untraced, at the tiny size: seconds, not minutes."""
    import workloads
    status = 0
    for workload in workloads.WORKLOADS:
        for trace_flag in ("0", "1"):
            r = _child(["--workload", workload, "--seed", "0", "--seconds", "0",
                        "--trace", trace_flag, "--size", "tiny"], PREPARE_TIMEOUT_S)
            last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else ""
            ok = r.returncode == 0 and json.loads(last or "{}").get("correct") is True
            print(f"{'ok  ' if ok else 'FAIL'} {workload} --trace {trace_flag}")
            if not ok:
                print(r.stdout[-2000:] + r.stderr[-2000:])
                status = 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("bench", "tiny"), default="bench")
    ap.add_argument("--selfcheck", action="store_true",
                    help="run every workload and check at a tiny size")
    ap.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _import_program()
    if args.selfcheck:
        return selfcheck()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        _die(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.prepare:
        print(json.dumps(prepare(args.workload, args.seed, args.size)))
        return 0
    if args.probe:
        probe(args.workload, args.seed, args.size)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
