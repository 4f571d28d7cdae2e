"""End-to-end score gate: the paper's headline ordering on pendulum.

Regenerates the pendulum datasets with `oris gen-dataset`, runs the
desk-preset `main_comparison` study (gravity x2 simulator, medium_replay
offline data) at seeds 0-4 through `oris study`, and asserts that the mean
final normalized scores order oris > naive_mix > sim_only_sac. It prints
every seed's score.

It takes about two and a half minutes on 2 vCPU, the pendulum reference run
about 25 s of it, so it runs only when ORIS_ACCEPTANCE=1:

    ORIS_ACCEPTANCE=1 PYTHONPATH=src python -m pytest -s tests/test_acceptance.py

Run it before and after any change that alters numerics on purpose.
"""

import json
import os

import pytest

from oris import cli

SEEDS = ("0", "1", "2", "3", "4")
ORDER = ("oris", "naive_mix", "sim_only_sac")

pytestmark = pytest.mark.skipif(os.environ.get("ORIS_ACCEPTANCE") != "1",
                                reason="end-to-end gate; set ORIS_ACCEPTANCE=1")


def test_main_comparison_orders_oris_naive_mix_sim_only(tmp_path):
    data, out = tmp_path / "data", tmp_path / "runs"
    assert cli.main(["gen-dataset", "--env", "pendulum", "--out", str(data)]) == 0
    assert cli.main(["study", "main_comparison", "--data", str(data),
                     "--out", str(out), "--seeds", *SEEDS]) == 0

    means = {}
    for variant in ORDER:
        table = json.loads((out / variant / "score_table.json").read_text())
        scores = {row["seed"]: row["final_score"] for row in table["rows"]}
        assert sorted(scores) == [int(s) for s in SEEDS]
        means[variant] = sum(scores.values()) / len(scores)
        print(f"{variant}: mean {means[variant]:.2f}, per seed "
              + ", ".join(f"{s}: {scores[s]:.2f}" for s in sorted(scores)))
    assert means["oris"] > means["naive_mix"] > means["sim_only_sac"], means
