"""Atomic output files: a failed write leaves the old file and no temp file."""

import contextlib
import json

import numpy as np
import pytest

from oris import data, datasets, files, gan
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
    p = tmp_path / "d.rows"
    old = datasets.generate_dataset("pendulum", "random", episodes=1, seed=0)
    data.save_dataset(old, p)
    before = p.read_bytes()
    new = datasets.generate_dataset("pendulum", "random", episodes=6, seed=1)

    class FullAfterTheHeader:
        """Takes the header line, then is full part way into the rows."""

        def __init__(self, f):
            self.f = f
            self.writes = 0

        def write(self, b):
            self.writes += 1
            if self.writes > 2:  # the header's JSON, its newline, then the rows
                self.f.write(b[:len(b) // 2])
                raise OSError("disk full")
            return self.f.write(b)

    opened = []

    @contextlib.contextmanager
    def cut_write(path, binary=False):
        with atomic_write(path, binary) as f:
            opened.append(FullAfterTheHeader(f))
            yield opened[-1]

    monkeypatch.setattr(files, "atomic_write", cut_write)
    with pytest.raises(OSError):
        data.save_dataset(new, p)
    assert opened[0].writes == 3  # the cut came mid-file, in the rows
    assert p.read_bytes() == before
    assert [q.name for q in tmp_path.iterdir()] == ["d.rows"]


def test_gan_files_cut_part_way_keep_old_files(tmp_path, monkeypatch):
    """save_fit writes gan.json and report.json through atomic_write."""
    states = np.random.default_rng(0).normal(size=(100, 2))
    hp = gan.GanHparams(z_dim=2, hidden=(4,), iterations=2, batch_size=8)
    pair, report = gan.pretrain(states, hp, np.random.default_rng(1))
    inputs = gan.fit_inputs(states, hp, np.random.default_rng(1))
    gan.save_fit(pair, report, inputs, tmp_path)
    names = sorted(q.name for q in tmp_path.iterdir())
    before = {n: (tmp_path / n).read_bytes() for n in ("gan.json", gan.REPORT_FILE)}
    dump = json.dump

    def cut(obj, f, **kw):
        f.write("{half")
        raise OSError("disk full")

    monkeypatch.setattr(gan.json, "dump", cut)
    with pytest.raises(OSError):
        gan.save_gan(pair, tmp_path)
    def cut_report(obj, f, **kw):
        if "format" not in obj:  # gan.json is written whole, report.json is cut
            cut(obj, f)
        dump(obj, f, **kw)

    monkeypatch.setattr(gan.json, "dump", cut_report)
    with pytest.raises(OSError):
        gan.save_fit(pair, report, inputs, tmp_path)
    assert sorted(q.name for q in tmp_path.iterdir()) == names
    for n, content in before.items():
        assert (tmp_path / n).read_bytes() == content
