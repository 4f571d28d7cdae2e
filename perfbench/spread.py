"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload pendulum_main --seeds 0 1 2 3 4

Runs the benchmark once per seed (untraced), then prints, for each metric,
the median of the runs and the distance between the first and third
quartiles as a share of that median (``statistics.quantiles(values, n=4)``),
next to the metric's bound from BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        r = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                           capture_output=True, text=True, timeout=900)
        result = json.loads(r.stdout.strip().splitlines()[-1])
        if r.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed\n{r.stderr[-2000:]}")
            return 1
        row = {k: m["value"] for k, m in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)

    worst = 0.0
    for k, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med
        print(f"{args.workload} {k}: median {med:.4g}, iqr/median {spread:.3f}, "
              f"bound {bounds.get(k)}")
        if k != "setup_s":
            worst = max(worst, spread / bounds[k])
    print(f"worst spread as a share of its bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
