"""Atomic output files: a failed write leaves the old file and no temp file."""

import json

import pytest

from oris import data, datasets
from oris.files import atomic_write


def test_atomic_write_replaces_on_success(tmp_path):
    p = tmp_path / "out.json"
    p.write_text("old\n")
    with atomic_write(p) as f:
        f.write("new\n")
    assert p.read_text() == "new\n"
    with atomic_write(tmp_path / "blob", binary=True) as f:
        f.write(b"\x00\x01")
    assert (tmp_path / "blob").read_bytes() == b"\x00\x01"
    assert sorted(q.name for q in tmp_path.iterdir()) == ["blob", "out.json"]


def test_atomic_write_that_raises_leaves_old_file_and_no_temp(tmp_path):
    p = tmp_path / "out.csv"
    p.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_write(p) as f:
            f.write("half of the new")
            raise RuntimeError("cut")
    assert p.read_text() == "old\n"
    assert [q.name for q in tmp_path.iterdir()] == ["out.csv"]
    with pytest.raises(RuntimeError):  # no old file: none appears
        with atomic_write(tmp_path / "fresh.csv") as f:
            raise RuntimeError("cut")
    assert [q.name for q in tmp_path.iterdir()] == ["out.csv"]


def test_save_dataset_cut_part_way_keeps_old_file(tmp_path, monkeypatch):
    p = tmp_path / "d.jsonl"
    old = datasets.generate_dataset("pendulum", "random", episodes=1, seed=0)
    data.save_dataset(old, p)
    before = p.read_bytes()
    calls = []

    def dumps(obj):
        calls.append(obj)
        if len(calls) == 50:
            raise OSError("disk full")
        return json.dumps(obj)

    monkeypatch.setattr(data.json, "dumps", dumps)
    new = datasets.generate_dataset("pendulum", "random", episodes=1, seed=1)
    with pytest.raises(OSError):
        data.save_dataset(new, p)
    assert p.read_bytes() == before and len(calls) == 50
    assert [q.name for q in tmp_path.iterdir()] == ["d.jsonl"]

