import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oris import data, gan
from oris.errors import ContractError

import oracles


def make_episode(rng, length, obs_dim=3, act_dim=1):
    rows = []
    s = rng.normal(size=obs_dim)
    for i in range(length):
        s2 = rng.normal(size=obs_dim)
        rows.append((s, rng.uniform(-1, 1, size=act_dim), float(rng.normal()), s2,
                     i == length - 1))
        s = s2
    return data.as_columns(*zip(*rows))


def packed(columns):
    """A full buffer of exactly the transitions of columns (S, A, R, S2, D)."""
    buf = data.ReplayBuffer(len(columns[2]), np.shape(columns[0])[-1], np.shape(columns[1])[-1])
    buf.extend(columns)
    return buf


def make_dataset(rng, episode_lengths, tier="random"):
    eps = [make_episode(rng, n) for n in episode_lengths]
    meta = data.DatasetMeta(env_id="pendulum", tier=tier,
                            perturbation={"gravity_scale": 1.0, "friction_scale": 1.0,
                                          "action_noise_std": 0.0},
                            seed=7)
    return data.Dataset.from_episodes(meta, eps)


def test_transition_validation():
    d = make_dataset(np.random.default_rng(0), [2, 3])
    for k in range(5):
        for bad in (np.nan, np.inf, -np.inf):
            cols = [c.copy() for c in d.columns]
            cols[k].flat[-1] = bad
            with pytest.raises(ContractError, match=f"column {data.COLUMN_NAMES[k]}$"):
                packed(cols)
    S, A, R, S2, D = d.columns
    with pytest.raises(ContractError):
        packed((S, A, R, S2[:, :2], D))
    with pytest.raises(ContractError):
        packed((S, A, R[:-1], S2, D))
    with pytest.raises(ContractError):
        packed((S, A[:, 0], R, S2, D))
    # a dataset's rows are a full buffer
    part = data.ReplayBuffer(len(d) + 1, 3, 1)
    part.extend(d.columns)
    with pytest.raises(ContractError, match="fill"):
        data.Dataset(d.meta, part, [len(d)])


def test_dataset_structure():
    rng = np.random.default_rng(0)
    d = make_dataset(rng, [4, 2, 5])
    assert len(d) == 11
    assert d.num_trajectories == 3
    assert d.trajectory_boundaries == (4, 6, 11)
    lengths = [len(tr[2]) for tr in d.trajectories()]
    assert lengths == [4, 2, 5]
    R = d.columns[2]
    assert d.episode_returns() == [sum(R[:4].tolist()), sum(R[4:6].tolist()),
                                   sum(R[6:].tolist())]
    assert all(tr[4][-1] == 1.0 for tr in d.trajectories())
    with pytest.raises(ContractError):
        data.Dataset(d.meta, d.rows, [4, 4, 11])
    with pytest.raises(ContractError):
        data.Dataset(d.meta, d.rows, [4, 6])
    with pytest.raises(TypeError, match="'tier'"):
        data.DatasetMeta(env_id="pendulum")
    with pytest.raises(ContractError, match="unknown tier 'replay'"):
        data.DatasetMeta(env_id="pendulum", tier="replay")


def test_dataset_columns_are_views_of_one_block(tmp_path):
    """A generated, a loaded and a subsampled dataset each hold one packed
    block, at weight 1, and their five columns are views of it."""
    from oris.datasets import generate_dataset
    generated = generate_dataset("pendulum", "random", 3, 0)
    data.save_dataset(generated, tmp_path / "d.rows")
    loaded = data.load_dataset(tmp_path / "d.rows")
    for d in (generated, loaded, data.subsample_trajectories(generated, 0.5, 0)):
        block = d.rows.block
        assert block.shape == (len(d), data.row_width(3, 1))
        assert all(c.base is block for c in d.columns)
        assert np.all(data.columns_of(block, 3)[1] == 1.0)


def test_datasets_compare_by_identity():
    from oris.datasets import generate_dataset
    a = generate_dataset("pendulum", "random", 1, 0)
    b = generate_dataset("pendulum", "random", 1, 0)
    assert a == a and a != b


def test_save_load_roundtrip_exact_and_byte_stable(tmp_path):
    rng = np.random.default_rng(1)
    d = make_dataset(rng, [3, 7, 1])
    p1, p2 = tmp_path / "a.rows", tmp_path / "b.rows"
    data.save_dataset(d, p1)
    loaded = data.load_dataset(p1)
    assert len(loaded) == len(d)
    assert loaded.trajectory_boundaries == d.trajectory_boundaries
    assert loaded.meta == d.meta
    for a, b in zip(loaded.columns, d.columns):
        np.testing.assert_array_equal(a, b)
        assert a.dtype == np.float64
    data.save_dataset(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("header", ["[1, 2]", "3", "null"])
def test_load_refuses_a_header_that_is_not_an_object(tmp_path, header):
    p = tmp_path / "x.rows"
    p.write_text(header + "\n")
    with pytest.raises(ContractError, match=f"not a {data.DATASET_FORMAT} v2 file: {p}"):
        data.load_dataset(p)


def test_load_rejects_malformed(tmp_path):
    p = tmp_path / "x.rows"
    p.write_text("not json\n")
    with pytest.raises(ContractError, match=f"bad oris-dataset header in {p}"):
        data.load_dataset(p)
    p.write_text(json.dumps({"format": "something-else", "version": 2}) + "\n")
    with pytest.raises(ContractError, match=f"not a oris-dataset v2 file: {p}"):
        data.load_dataset(p)
    header = {"format": data.DATASET_FORMAT, "version": 99, "env_id": "pendulum",
              "tier": "random", "perturbation": {}, "seed": 0}
    p.write_text(json.dumps(header) + "\n")
    with pytest.raises(ContractError, match=f"not a oris-dataset v2 file: {p}"):
        data.load_dataset(p)
    header = {"format": data.DATASET_FORMAT, "version": 2, "obs_dim": 3, "action_dim": 1,
              "trajectory_boundaries": [], "meta": {"env_id": "pendulum", "tier": "random"}}
    p.write_text(json.dumps(header) + "\n")
    with pytest.raises(ContractError, match=f"{p}: dataset has no transitions"):
        data.load_dataset(p)


def test_load_refuses_a_damaged_v2_file_naming_it(tmp_path):
    """A truncated file, a block of another length than its header states, an
    unknown version, a width below 1, a non-finite value, named by its row, a
    version-1 JSONL file and a directory are each refused with the file's
    name."""
    good = tmp_path / "good.rows"
    data.save_dataset(make_dataset(np.random.default_rng(3), [2, 3]), good)
    header_line, block = good.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    row_bytes = 8 * data.row_width(3, 1) - 8
    assert len(block) == 5 * row_bytes
    nan_in_row_3 = bytearray(block)
    nan_in_row_3[3 * row_bytes + 16:3 * row_bytes + 24] = np.array([np.nan]).tobytes()
    one_row_fewer = json.dumps({**header, "trajectory_boundaries": [2, 4]}).encode()
    # the header line and first row of a version-1 file, as written before version 2
    v1 = (json.dumps({"format": "oris-dataset", "version": 1, "env_id": "pendulum",
                      "tier": "random"}) + "\n"
          + json.dumps({"s": [0.0, 1.0, 0.0], "a": [0.5], "r": -1.0, "s2": [1.0, 0.0, 0.0],
                        "done": False, "eot": True}) + "\n").encode()
    cases = {
        "cut_in_header": (header_line[:-5], r"bad oris-dataset header in {p}"),
        "cut_in_block": (header_line + b"\n" + block[:-3],
                         rf"truncated oris-dataset data in {{p}}: {len(block) - 3} bytes where "
                         rf"its header states {len(block)}"),
        "cut_at_a_row": (header_line + b"\n" + block[:-row_bytes],
                         r"truncated oris-dataset data in {p}"),
        "one_row_more": (one_row_fewer + b"\n" + block,
                         rf"overlong oris-dataset data in {{p}}: {len(block)} bytes where its "
                         rf"header states {len(block) - row_bytes}"),
        "version_3": (json.dumps({**header, "version": 3}).encode() + b"\n" + block,
                      r"not a oris-dataset v2 file: {p}$"),
        "no_state": (json.dumps({**header, "obs_dim": -1, "action_dim": 3}).encode() + b"\n"
                     + block, r"{p}: obs_dim and action_dim must be positive$"),
        "nan": (header_line + b"\n" + bytes(nan_in_row_3),
                r"non-finite value in oris-dataset data in {p}, row 3$"),
        "version_1": (v1, r"not a oris-dataset v2 file: {p}$"),
        "a_directory": (None, r"cannot read oris-dataset file {p}: Is a directory$"),
    }
    for name, (content, message) in cases.items():
        p = tmp_path / f"{name}.rows"
        if content is None:
            p.mkdir()
        else:
            p.write_bytes(content)
        with pytest.raises(ContractError, match=message.format(p=re.escape(str(p)))):
            data.load_dataset(p)


SPECIAL_FLOATS = (-0.0, 5e-324, 1e-07, 1e16, 3.0, 1.7976931348623157e308,
                  -1.7976931348623157e308)


@given(seed=st.integers(0, 2 ** 32 - 1), obs_dim=st.integers(1, 4),
       act_dim=st.integers(1, 2), n=st.sampled_from([1, 256, 257]),
       floats=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8),
       cuts=st.sets(st.sampled_from([1, 2, 255, 256])))
@settings(max_examples=25, deadline=None)
def test_a_save_loads_the_bits_it_wrote(tmp_path_factory, seed, obs_dim, act_dim, n,
                                        floats, cuts):
    """A load gives back every bit a save wrote, -0.0, extreme and subnormal
    floats and a done of 0.5 included, with its trajectory boundaries and
    meta, and a save of that load writes the same bytes."""
    rng = np.random.default_rng(seed)
    pool = np.array(SPECIAL_FLOATS + tuple(floats))
    S, A, S2 = (rng.choice(pool, size=(n, k)) for k in (obs_dim, act_dim, obs_dim))
    R = rng.choice(pool, size=n)
    D = rng.choice([0.0, 1.0, -0.0, 0.5], size=n)
    # trajectory ends on both sides of row 256 when n allows
    bounds = tuple(sorted({c for c in cuts if c < n} | {n}))
    meta = data.DatasetMeta(env_id="pendulum", tier="random")
    d = data.Dataset(meta, packed((S, A, R, S2, D)), bounds)
    p = tmp_path_factory.getbasetemp() / "d.rows"
    data.save_dataset(d, p)
    want = p.read_bytes()
    loaded = data.load_dataset(p)
    assert loaded.rows.block.tobytes() == d.rows.block.tobytes()
    assert (loaded.trajectory_boundaries, loaded.meta) == (bounds, meta)
    data.save_dataset(loaded, p)
    assert p.read_bytes() == want


def test_save_and_load_peak_memory_is_bounded_by_blocks(tmp_path):
    """A file of 768 rows saves and loads within a fixed multiple of its
    columns' bytes: the rows go from the file's bytes into one block."""
    n = 768
    rng = np.random.default_rng(0)
    cols = (rng.normal(size=(n, 3)), rng.normal(size=(n, 1)), rng.normal(size=n),
            rng.normal(size=(n, 3)), np.zeros(n))
    d = data.Dataset(data.DatasetMeta(env_id="pendulum", tier="random"), packed(cols),
                     (n // 2, n))
    column_bytes = sum(c.nbytes for c in cols)
    p = tmp_path / "d.rows"
    tracemalloc.start()
    try:
        data.save_dataset(d, p)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        data.load_dataset(p)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert save_peak < 5 * column_bytes
    assert load_peak < 10 * column_bytes


def test_subsample_whole_trajectories():
    rng = np.random.default_rng(2)
    d = make_dataset(rng, [3, 4, 5, 6, 7, 8, 9, 10])
    sub = data.subsample_trajectories(d, 0.25, seed=11)
    assert sub.num_trajectories == 2
    original = {tuple(tr[0].ravel().tolist()) for tr in d.trajectories()}
    for tr in sub.trajectories():
        assert tuple(tr[0].ravel().tolist()) in original  # whole trajectory, order intact
    assert (sub.meta.subsample_fraction, sub.meta.subsample_seed) == (0.25, 11)

    full = data.subsample_trajectories(d, 1.0, seed=3)
    assert len(full) == len(d)
    for a, b in zip(full.columns, d.columns):
        np.testing.assert_array_equal(a, b)
    assert full.trajectory_boundaries == d.trajectory_boundaries

    tiny = data.subsample_trajectories(d, 0.05, seed=3)
    assert tiny.num_trajectories == 1  # ceil(0.4)

    with pytest.raises(ContractError):
        data.subsample_trajectories(d, 0.0, seed=0)
    with pytest.raises(ContractError):
        data.subsample_trajectories(d, 1.2, seed=0)


def test_subsample_deterministic_per_seed():
    rng = np.random.default_rng(4)
    d = make_dataset(rng, [2] * 20)
    a = data.subsample_trajectories(d, 0.25, seed=5)
    b = data.subsample_trajectories(d, 0.25, seed=5)
    c = data.subsample_trajectories(d, 0.25, seed=6)
    assert a.columns[2].tolist() == b.columns[2].tolist()
    assert a.columns[2].tolist() != c.columns[2].tolist()


def test_state_marginal_matches_two_pass_oracle():
    """The GAN fits the dataset's S column; the mean and std it records
    match the oracle."""
    rng = np.random.default_rng(5)
    n = gan.MIN_FIT_STATES // 2
    d = make_dataset(rng, [n, n])
    states = d.columns[0]
    assert states.shape == (2 * n, 3)
    hp = gan.GanHparams(z_dim=1, hidden=(2,), iterations=1, batch_size=2)
    meta = gan.pretrain(states, hp, np.random.default_rng(6))[0].meta
    rows = list(states)
    np.testing.assert_allclose(meta.mean, oracles.two_pass_mean(rows), rtol=1e-12)
    np.testing.assert_allclose(meta.std, oracles.two_pass_std(rows), rtol=1e-12)
    np.testing.assert_array_equal(states[n], list(d.trajectories())[1][0][0])


def test_sample_arrays_uniform_with_replacement():
    rng = np.random.default_rng(0)
    d = make_dataset(rng, [10])
    rewards = d.columns[2].tolist()
    S, A, R, S2, D = d.sample_arrays(20_000, np.random.default_rng(123))
    counts = {r: 0 for r in rewards}
    for r in R.tolist():
        counts[r] += 1
    expect = 2000.0
    sigma = np.sqrt(20_000 * 0.1 * 0.9)
    for r in rewards:
        assert abs(counts[r] - expect) < 4.0 * sigma
    # each draw is one whole row
    row_of = {r: k for k, r in enumerate(rewards)}
    rows = [row_of[r] for r in R.tolist()]
    for got, col in zip((S, A, S2, D), (d.columns[k] for k in (0, 1, 3, 4))):
        np.testing.assert_array_equal(got, col[rows])


def _one_row(s, r, s2=(0.0, 0.0)):
    """Columns of one transition of a buffer with obs_dim 2 and action_dim 1."""
    return ([s], [[0.0]], [r], [s2], [0.0])


def test_replay_buffer_fifo_and_sampling():
    buf = data.ReplayBuffer(3, obs_dim=2, action_dim=1)
    assert len(buf) == 0
    with pytest.raises(ContractError):
        buf.sample_arrays(4, np.random.default_rng(0))
    for i in range(5):
        buf.extend(_one_row([float(i), 0.0], float(i)))
    assert len(buf) == 3
    # row k of the stream sits in slot k % capacity
    assert oracles.stored_columns(buf)[2].tolist() == [3.0, 4.0, 2.0]
    S, A, R, S2, D = buf.sample_arrays(100, np.random.default_rng(1))
    assert S.shape == (100, 2) and A.shape == (100, 1)
    assert set(R.tolist()) == {2.0, 3.0, 4.0}
    np.testing.assert_array_equal(S[:, 0], R)


@given(capacity=st.integers(1, 7),
       chunks=st.lists(st.integers(0, 12), min_size=1, max_size=6),
       weighted=st.booleans())
@settings(max_examples=60, deadline=None)
def test_replay_buffer_extend_keeps_fifo_order_across_the_wrap(capacity, chunks, weighted):
    buf = data.ReplayBuffer(capacity, obs_dim=2, action_dim=1)
    slots_r = np.zeros(capacity)
    slots_w = np.zeros(capacity)
    k = 0
    for n in chunks:
        r = np.arange(k, k + n, dtype=np.float64)
        cols = (np.stack([r, -r], axis=1), r[:, None], r, np.stack([r, r], axis=1),
                np.zeros(n))
        w = r / 100.0 if weighted else None
        buf.extend(cols, w)
        for j in range(k, k + n):
            slots_r[j % capacity] = j
            slots_w[j % capacity] = j / 100.0 if weighted else 1.0
        k += n
        assert len(buf) == min(k, capacity)
        S, A, R, S2, D, W = oracles.stored_columns(buf)
        np.testing.assert_array_equal(R, slots_r)
        np.testing.assert_array_equal(W, slots_w)
        np.testing.assert_array_equal(S, np.stack([slots_r, -slots_r], axis=1))
        np.testing.assert_array_equal(A[:, 0], slots_r)


def test_replay_buffer_extend_writes_in_place():
    """extend copies each column into its slots of the block, before the wrap
    and after it, with no row block of its own: its peak is a small part of
    the block's bytes."""
    n = 10_000
    rng = np.random.default_rng(0)
    cols = (rng.normal(size=(n, 3)), rng.normal(size=(n, 1)), rng.normal(size=n),
            rng.normal(size=(n, 3)), np.zeros(n))
    w = rng.uniform(size=n)
    buf = data.ReplayBuffer(n, 3, 1)
    buf.extend(tuple(c[:n // 3] for c in cols))  # so that the next extend wraps
    tracemalloc.start()
    try:
        buf.extend(cols, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < buf.block.nbytes / 8
    assert oracles.stored_columns(buf)[-1][n // 3] == w[0]


def test_replay_buffer_rejects_nonfinite_rows():
    buf = data.ReplayBuffer(4, obs_dim=2, action_dim=1)
    buf.extend(_one_row([0.0, 0.0], 1.0))
    before = [c.copy() for c in oracles.stored_columns(buf)]
    for bad in (np.nan, np.inf):
        for k in range(5):
            cols = [np.zeros((3, 2)), np.zeros((3, 1)), np.zeros(3), np.zeros((3, 2)),
                    np.zeros(3)]
            cols[k].flat[-1] = bad  # last row
            with pytest.raises(ContractError, match=f"column {data.COLUMN_NAMES[k]}$"):
                buf.extend(cols)
    with pytest.raises(ContractError):
        buf.extend([np.zeros((3, 3)), np.zeros((3, 1)), np.zeros(3), np.zeros((3, 3)),
                    np.zeros(3)])  # rows shaped for another env
    with pytest.raises(ContractError):
        buf.extend([np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(3), np.zeros((3, 2)),
                    np.zeros(3)])  # actions of another env
    with pytest.raises(ContractError):
        buf.extend([np.zeros((3, 2)), np.zeros((3, 1)), np.zeros(3), np.zeros((3, 2)),
                    np.zeros(3)], np.ones(2))
    assert len(buf) == 1
    for a, b in zip(oracles.stored_columns(buf), before):
        np.testing.assert_array_equal(a, b)


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


@given(obs_dim=st.integers(1, 4), action_dim=st.integers(1, 4), capacity=st.integers(1, 9),
       ops=st.lists(st.tuples(st.integers(0, 20), st.booleans()), min_size=1, max_size=6),
       n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
@example(obs_dim=4, action_dim=4, capacity=3, ops=[(0, False), (7, True), (0, False)],
         n=5, seed=0)
@settings(max_examples=80, deadline=None)
def test_packed_buffer_samples_what_the_column_oracle_samples(obs_dim, action_dim, capacity,
                                                               ops, n, seed):
    """After each op, k rows by extend, weighted or not (k may be 0 or pass
    the capacity), both samplers give the bits of a ring of parallel columns
    written row by row, and take one integers(0, len, n)."""
    rng = np.random.default_rng(seed)
    buf = data.ReplayBuffer(capacity, obs_dim, action_dim)
    ref = oracles.ColumnReplayBuffer(capacity, obs_dim, action_dim)
    for k, weighted in ops:
        cols = (rng.normal(size=(k, obs_dim)), rng.normal(size=(k, action_dim)),
                rng.normal(size=k), rng.normal(size=(k, obs_dim)),
                rng.integers(0, 2, size=k).astype(np.float64))
        w = rng.uniform(0.0, 2.0, size=k) if weighted else None
        buf.extend(cols, w)
        ref.extend(cols, w)
        assert len(buf) == ref.n
        if ref.n == 0:
            continue
        want_rng = np.random.default_rng(seed + 1)
        want_cols, want_w = ref.sample_weighted(n, want_rng)
        for name in ("sample_rows", "sample_arrays"):
            got_rng = np.random.default_rng(seed + 1)
            got = getattr(buf, name)(n, got_rng)
            got_cols, got_w = (data.columns_of(got, obs_dim) if name == "sample_rows"
                               else (got, want_w))
            assert [_bits(c) for c in got_cols] == [_bits(c) for c in want_cols]
            assert _bits(got_w) == _bits(want_w)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


@given(obs_dim=st.integers(1, 4), action_dim=st.integers(1, 4),
       lengths=st.lists(st.integers(1, 6), min_size=1, max_size=4),
       n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_packed_offline_rows_sample_what_the_dataset_samples(obs_dim, action_dim, lengths,
                                                             n, seed):
    """A dataset's own rows, which loop.train draws offline rows from, and
    sample_arrays both give bit for bit what one integers(0, len, n) draw
    gathers from each of the episodes' columns, and the rows weigh 1."""
    rng = np.random.default_rng(seed)
    episodes = [make_episode(rng, k, obs_dim, action_dim) for k in lengths]
    d = data.Dataset.from_episodes(data.DatasetMeta(env_id="pendulum", tier="random"),
                                   episodes)
    want_rng = np.random.default_rng(seed)
    idx = want_rng.integers(0, len(d), size=n)
    want = [np.concatenate(c)[idx] for c in zip(*episodes)]
    rows_rng, arrays_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got, w = data.columns_of(d.rows.sample_rows(n, rows_rng), obs_dim)
    assert _bits(w) == _bits(np.ones(n))
    for got_cols, got_rng in ((got, rows_rng), (d.sample_arrays(n, arrays_rng), arrays_rng)):
        assert [_bits(c) for c in got_cols] == [_bits(c) for c in want]
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@given(lengths=st.lists(st.integers(1, 6), min_size=1, max_size=6),
       fraction=st.floats(0.01, 1.0))
@settings(max_examples=40, deadline=None)
def test_subsample_count_property(lengths, fraction):
    rng = np.random.default_rng(9)
    d = make_dataset(rng, lengths)
    sub = data.subsample_trajectories(d, fraction, seed=0)
    expect = int(np.ceil(fraction * d.num_trajectories))
    assert sub.num_trajectories == expect
    assert sub.trajectory_boundaries[-1] == len(sub)
