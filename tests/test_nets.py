import copy
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from oris import nets
from oris.errors import ConfigError, ContractError, NumericsError, UsageError

import oracles

FLOATS = st.sampled_from([np.float32, np.float64])


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


@pytest.mark.parametrize("role, width, seed, rng_seed, draws", [
    *(pytest.param(role, 16, 100, 7, 10, id=role) for role in sorted(oracles.ROLE_ARCHS)),
    # a gradient entry of about 1e-6, whose finite difference is mostly
    # rounding noise: measured against its own size it read 3.2e-4
    pytest.param("critic", 8, 204, 79, 1, id="critic-width8-seed204"),
])
def test_gradcheck_each_role_quick(role, width, seed, rng_seed, draws):
    rng = np.random.default_rng(rng_seed)
    worst = 0.0
    for draw in range(draws):
        net = oracles.make_role_net(role, width=width, seed=seed + draw)
        worst = max(worst, oracles.gradcheck_once(net, rng))
    assert worst < oracles.GRADCHECK_RTOL


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("role", sorted(oracles.ROLE_ARCHS))
def test_gradcheck_each_role_stacked(role, shared):
    # the loss sums both members' outputs, so its finite differences carry
    # more rounding noise; the second critic stack with a shared batch has an
    # entry that read 2.4e-4 when measured against its own size
    rng = np.random.default_rng(8)
    worst = 0.0
    for draw in range(4):
        net = nets.stack([oracles.make_role_net(role, width=16, seed=200 + 3 * draw + j)
                          for j in range(2)])
        worst = max(worst, oracles.gradcheck_once(net, rng, shared=shared))
    assert worst < oracles.GRADCHECK_RTOL


def _ordinary_entry(g):
    """The index of the nonzero entry of median size."""
    nonzero = np.flatnonzero(g)
    return nonzero[np.argsort(np.abs(g[nonzero]))[len(nonzero) // 2]]


@pytest.mark.parametrize("edit", ["scaled", "flipped"])
@pytest.mark.parametrize("case", ["critic-width8", "critic-stack-width16"])
def test_gradcheck_fails_a_corrupted_gradient(case, edit):
    def corrupt(g):
        g[_ordinary_entry(g)] *= 1.001 if edit == "scaled" else -1.0

    if case == "critic-width8":
        net, rng = oracles.make_role_net("critic", width=8, seed=204), np.random.default_rng(79)
    else:
        net = nets.stack([oracles.make_role_net("critic", width=16, seed=203 + j)
                          for j in range(2)])
        rng = np.random.default_rng(8)
    assert oracles.gradcheck_once(net, copy.deepcopy(rng)) < oracles.GRADCHECK_RTOL
    assert oracles.gradcheck_once(net, rng, corrupt=corrupt) >= oracles.GRADCHECK_RTOL


@given(seed=st.integers(0, 2 ** 32 - 1), k=st.sampled_from([1, 2, 3]), dtype=FLOATS,
       sizes=st.sampled_from([(4, 16, 16, 1), (4, 16, 16, 3), (5, 1, 8, 2)]),
       n=st.sampled_from([1, 256]), shared=st.booleans())
@settings(max_examples=80, deadline=None)
def test_stack_kernels_match_their_members_bitwise(seed, k, dtype, sizes, n, shared):
    """A stack of k nets gives, row for row, the bits of k separate nets:
    forward (from one shared batch or a batch per member), both backwards,
    two Adam steps and a soft update."""
    rng = np.random.default_rng(seed)
    members = [nets.MlpNet.he_uniform(list(sizes), seed=int(s), dtype=dtype)
               for s in rng.integers(2 ** 31, size=k)]
    for m in members:
        for b in m.biases:
            b[...] = rng.normal(size=b.shape)
    stacked = nets.stack(members)
    assert stacked.stack_size == k and stacked.init_seed == tuple(m.init_seed for m in members)
    x = rng.normal(size=(n, sizes[0]) if shared else (k, n, sizes[0]))
    up = rng.normal(size=(k, n, sizes[-1]))
    opt = nets.AdamState.for_net(stacked, 1e-2)
    opts = [nets.AdamState.for_net(m, 1e-2) for m in members]
    for _ in range(2):
        out = nets.forward_batch(stacked, x)
        g = nets.backward_batch(stacked, up)
        g_in = nets.backward_input(stacked, up)
        assert out.shape == (k, n, sizes[-1]) and g_in.shape == (k, n, sizes[0])
        for j, m in enumerate(members):
            assert _bits(nets.forward_batch(m, x if shared else x[j])) == _bits(out[j])
            g_m = nets.backward_batch(m, up[j])
            assert _bits(g_m) == _bits(g[j])
            assert _bits(nets.backward_input(m, up[j])) == _bits(g_in[j])
            nets.adam_step(m, g_m, opts[j])
        nets.adam_step(stacked, g, opt)
        for j, m in enumerate(members):
            assert _bits(m.params) == _bits(stacked.params[j])
            assert _bits(opts[j].m) == _bits(opt.m[j]) and _bits(opts[j].v) == _bits(opt.v[j])
    targets = [nets.MlpNet.he_uniform(list(sizes), seed=j, dtype=dtype)
               for j in range(k)]
    stacked_targets = nets.stack(targets)
    nets.soft_update(stacked_targets, stacked, 0.3)
    for t, m, row in zip(targets, members, stacked_targets.params):
        nets.soft_update(t, m, 0.3)
        assert _bits(t.params) == _bits(row)
    for m, copy_ in zip(members, nets.unstack(stacked)):
        assert _bits(m.params) == _bits(copy_.params) and m.init_seed == copy_.init_seed


def test_stack_contract():
    a = nets.MlpNet.he_uniform([3, 4, 1], seed=1)
    b = nets.MlpNet.he_uniform([3, 4, 1], seed=2)
    pair = nets.stack([a, b])
    assert pair.params.shape == (2, a.params.size)
    assert pair.weights[0].shape == (2, 4, 3) and pair.biases[0].shape == (2, 4)
    for bad in ([a, nets.MlpNet.he_uniform([3, 5, 1], seed=3)],
                [a, nets.MlpNet.he_uniform([3, 4, 1], seed=3, dtype=np.float64)],
                [a, pair]):
        with pytest.raises(ContractError):
            nets.stack(bad)
    with pytest.raises(ContractError):
        nets.unstack(a)
    assert nets.MlpNet([3, 1], np.zeros((2, 4)), init_seed=(0, 1)).stack_size == 2
    for block, seeds in ((np.zeros((2, 4)), 0), (np.zeros((2, 4)), (0,)),
                         (np.zeros((2, 4)), (0, 1, 2)), (np.zeros(4), (0,))):
        with pytest.raises(ContractError, match="init seeds"):
            nets.MlpNet([3, 1], block, init_seed=seeds)
    for x in (np.zeros((3, 5, 3)), np.zeros((2, 5, 4)), np.zeros(3)):
        with pytest.raises(ContractError):
            nets.forward_batch(pair, x)
    with pytest.raises(ContractError):
        nets.forward_batch(a, np.zeros((2, 5, 3)))  # a single net takes no stack
    nets.forward_batch(pair, np.zeros((5, 3)))
    with pytest.raises(ContractError):
        nets.backward_batch(pair, np.zeros((5, 1)))  # one upstream row block per member
    with pytest.raises(ContractError):
        nets.soft_update(pair, a, 0.5)  # would broadcast a over both rows
    with pytest.raises(ContractError):
        nets.save_checkpoint(pair, "unused.mlp")


def test_forward_vector_matches_batch_row():
    net = oracles.make_role_net("actor", seed=1)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, net.in_dim))
    batch_out = nets.forward_batch(net, x).copy()
    for i in range(5):
        np.testing.assert_allclose(nets.forward_batch(net, x[i:i + 1])[0], batch_out[i],
                                   rtol=1e-13, atol=1e-15)


def test_forward_rejects_wrong_width():
    net = oracles.make_role_net("actor")
    with pytest.raises(ContractError):
        nets.forward_batch(net, np.zeros((4, net.in_dim + 1)))
    with pytest.raises(ContractError):
        nets.forward_batch(net, np.zeros(net.in_dim))  # one row is (1, in_dim)


def test_backward_before_forward_raises():
    net = oracles.make_role_net("critic")
    with pytest.raises(UsageError):
        nets.backward_batch(net, np.zeros((1, 1)))
    with pytest.raises(UsageError):
        nets.backward_input(net, np.zeros((1, 1)))


def test_adam_matches_reference_implementation():
    rng = np.random.default_rng(11)
    net = nets.MlpNet.he_uniform([3, 4, 2], seed=2, dtype=np.float64)
    opt = nets.AdamState.for_net(net, learning_rate=1e-2)
    ref = oracles.ReferenceAdam(net.params.size, lr=1e-2)
    p_ref = oracles.get_flat_params(net)
    for _ in range(7):
        gflat = rng.normal(size=p_ref.size)
        nets.adam_step(net, gflat, opt)
        p_ref = ref.step(p_ref, gflat)
        np.testing.assert_allclose(oracles.get_flat_params(net), p_ref, rtol=1e-13, atol=1e-15)


def test_adam_first_step_constant_gradient():
    # with constant gradient g, step 1 moves each param by ~lr * sign(g)
    net = nets.MlpNet([1, 1], np.array([2.0, 0.5]), dtype=np.float64)
    opt = nets.AdamState.for_net(net, learning_rate=0.1)
    g = np.array([3.0, -3.0])  # W then b
    nets.adam_step(net, g, opt)
    expected_w = 2.0 - 0.1 * 3.0 / (3.0 + 1e-8)
    expected_b = 0.5 + 0.1 * 3.0 / (3.0 + 1e-8)
    assert net.weights[0][0, 0] == pytest.approx(expected_w, abs=1e-12)
    assert net.biases[0][0] == pytest.approx(expected_b, abs=1e-12)


def test_adam_rejects_nonfinite_gradient():
    net = nets.MlpNet.he_uniform([2, 2], seed=0, dtype=np.float64)
    opt = nets.AdamState.for_net(net, 1e-3)
    g = np.concatenate([np.full(4, np.nan), np.zeros(2)])  # W then b
    with pytest.raises(NumericsError):
        nets.adam_step(net, g, opt)


def _stepped_net(rng, steps=3):
    """A [3, 8, 8, 2] net and its optimizer after a few ordinary steps."""
    net = nets.MlpNet.he_uniform([3, 8, 8, 2], seed=8)
    opt = nets.AdamState.for_net(net, learning_rate=1e-2)
    for _ in range(steps):
        nets.forward_batch(net, rng.normal(size=(5, 3)))
        nets.adam_step(net, nets.backward_batch(net, rng.normal(size=(5, 2))), opt)
    return net, opt


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["weights", "biases"])
@pytest.mark.parametrize("layer", [0, -1])
def test_adam_step_rejects_one_nonfinite_gradient_element(layer, part, bad):
    rng = np.random.default_rng(13)
    net, opt = _stepped_net(rng)
    nets.forward_batch(net, rng.normal(size=(5, 3)))
    g = nets.backward_batch(net, rng.normal(size=(5, 2)))
    views = dict(zip(("weights", "biases"), nets._views(g, net.layer_sizes)))
    views[part][layer].flat[-1] = bad
    before = (net.params.copy(), opt.m.copy(), opt.v.copy(), opt.step_count)
    with pytest.raises(NumericsError, match="gradient"):
        nets.adam_step(net, g, opt)
    # raised before anything moved
    np.testing.assert_array_equal(net.params, before[0])
    np.testing.assert_array_equal(opt.m, before[1])
    np.testing.assert_array_equal(opt.v, before[2])
    assert opt.step_count == before[3]


def test_adam_step_raises_when_params_turn_nonfinite():
    net = nets.MlpNet.he_uniform([2, 3, 1], seed=0, dtype=np.float64)
    net.biases[-1][0] = 1.7e308
    opt = nets.AdamState.for_net(net, learning_rate=1e308)
    g = -np.ones_like(net.params)
    with pytest.raises(NumericsError, match="parameters"), np.errstate(over="ignore"):
        nets.adam_step(net, g, opt)


def test_flat_adam_matches_per_tensor_reference_bitwise():
    rng = np.random.default_rng(12)
    net = nets.MlpNet.he_uniform([3, 16, 16, 2], seed=4)
    opt = nets.AdamState.for_net(net, learning_rate=3e-3)
    ref_tensors = [a.copy() for a in net.weights + net.biases]
    ref = oracles.PerTensorAdam(ref_tensors, lr=3e-3)
    for _ in range(6):
        nets.forward_batch(net, rng.normal(size=(8, 3)))
        g = nets.backward_batch(net, rng.normal(size=(8, 2)))
        g_w, g_b = nets._views(g, net.layer_sizes)
        ref.step(ref_tensors, [a.copy() for a in g_w + g_b])
        nets.adam_step(net, g, opt)
        for got, want in zip(net.weights + net.biases, ref_tensors):
            assert np.array_equal(got, want)


def test_backward_input_equals_backward_batch_input():
    """backward_batch stops at layer 0, but for one row its layer-0 bias
    gradient is d(loss)/d(layer-0 pre-activation), so the input gradient it
    implies is that row times W0. backward_input gives those bits row by row,
    and matches central differences over the whole batch."""
    rng = np.random.default_rng(14)
    net = nets.MlpNet.he_uniform([4, 16, 16, 3], seed=6, dtype=np.float64)
    x = rng.normal(size=(9, 4))
    while not oracles.far_from_relu_kinks(net, x):
        x = rng.normal(size=(9, 4))
    upstream = rng.normal(size=(9, 3))
    for i in range(9):
        nets.forward_batch(net, x[i:i + 1])
        g = nets.backward_batch(net, upstream[i:i + 1])
        implied = nets._views(g, net.layer_sizes)[1][0][None] @ net.weights[0]
        assert np.array_equal(nets.backward_input(net, upstream[i:i + 1]), implied)

    nets.forward_batch(net, x)
    alone = nets.backward_input(net, upstream)

    def loss(xv):
        return float(np.sum(upstream * nets.forward_batch(net, xv.reshape(x.shape))))

    assert oracles.max_rel_err(alone.ravel(), oracles.fd_grad(loss, x.ravel())) < 1e-4


def _guard_values(rng, shape, dtype, zero_frac):
    """Normal draws over many magnitudes, some of them zeros of either sign."""
    x = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
    zeros = rng.uniform(size=shape) < zero_frac
    x[zeros] = np.copysign(0.0, rng.normal(size=shape))[zeros]
    return x.astype(dtype)


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 300), k=st.integers(1, 70),
       dtype=FLOATS, zero_frac=st.sampled_from([0.0, 0.3]))
@settings(max_examples=60, deadline=None)
def test_one_output_broadcast_product_matches_matmul(seed, n, k, dtype, zero_frac):
    """The backward through a one-output layer: delta * W for delta @ W gives
    equal values, with the same bits on every nonzero entry (a zero may differ
    in sign)."""
    rng = np.random.default_rng(seed)
    delta = _guard_values(rng, (n, 1), dtype, zero_frac)
    w = _guard_values(rng, (1, k), dtype, zero_frac)
    product, matmul = delta * w, delta @ w
    assert product.dtype == matmul.dtype == dtype
    assert np.array_equal(product, matmul)
    nonzero = matmul != 0
    assert product[nonzero].tobytes() == matmul[nonzero].tobytes()


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 300),
       k=st.sampled_from([1, 2, 3, 64]), dtype=FLOATS)
@settings(max_examples=60, deadline=None)
def test_add_reduce_matches_sum_and_mean_bitwise(seed, n, k, dtype):
    """np.add.reduce, alone or divided by the row count, gives np.sum's and
    np.mean's bits on the update's shapes: losses and means over a batch
    vector, bias gradients over the rows of a (n, k) delta, log-densities
    over the action columns, and the behavior-cloning loss over all of it."""
    rng = np.random.default_rng(seed)
    vec = _guard_values(rng, (n,), dtype, 0.1)
    mat = _guard_values(rng, (n, k), dtype, 0.1)
    assert _bits(np.add.reduce(vec)) == _bits(np.sum(vec))
    assert _bits(np.add.reduce(vec) / n) == _bits(np.mean(vec))
    assert _bits(np.add.reduce(mat, axis=0)) == _bits(np.sum(mat, axis=0))
    assert _bits(np.add.reduce(mat, axis=1)) == _bits(np.sum(mat, axis=1))
    assert _bits(np.add.reduce(mat, axis=None) / n) == _bits(np.sum(mat) / n)


@given(seed=st.integers(0, 2 ** 32 - 1), dtype=FLOATS)
@settings(max_examples=30, deadline=None)
def test_relu_mask_from_activation_matches_preactivation(seed, dtype):
    """Backward masks a relu layer by its activation, which forward wrote over
    the pre-activation: max(z, 0) > 0 exactly where z > 0, NaN included."""
    rng = np.random.default_rng(seed)
    z = _guard_values(rng, (40, 8), dtype, 0.3)
    z.flat[rng.integers(0, z.size, size=4)] = [np.nan, np.inf, -np.inf, -np.nan]
    with np.errstate(invalid="ignore"):
        assert np.array_equal(np.maximum(z, dtype(0.0)) > 0, z > 0)


@given(z=FLOATS.flatmap(lambda dtype: hnp.arrays(
    dtype, hnp.array_shapes(min_dims=1, max_dims=3, max_side=70),
    elements=st.one_of(st.sampled_from([-0.0, 0.0, np.inf, -np.inf, np.nan,
                                        float(np.finfo(dtype).smallest_subnormal),
                                        -float(np.finfo(dtype).smallest_subnormal)]),
                       st.floats(width=np.finfo(dtype).bits)))))
@settings(max_examples=80, deadline=None)
def test_relu_against_zeros_matches_the_scalar_zero_bitwise(z):
    """On a large array relu runs np.maximum against a zeros array from a
    shared read-only buffer; it gives the bits of np.maximum against a scalar
    zero, on signed zeros, subnormals, infinities and NaN too, and leaves the
    buffer zero."""
    for x in (z, np.resize(z, (2, nets._ZEROS_FROM))):
        want = np.maximum(x, x.dtype.type(0.0))
        got = nets._relu(x.copy())
        assert _bits(got) == _bits(want)
    buf = nets._ZEROS[z.dtype]
    assert buf.size >= 2 * nets._ZEROS_FROM and not buf.flags.writeable
    assert not buf.view(np.uint8).any()


def _aliased(net):
    operands = [a for wb in net._forward_operands for a in wb]
    return all(np.shares_memory(net.params, a) for a in net.weights + net.biases + operands)


def test_param_views_stay_aliased_through_copies(tmp_path):
    net = nets.MlpNet.he_uniform([3, 5, 2], seed=1)
    assert _aliased(net)
    nets.save_checkpoint(net, tmp_path / "n.mlp")
    copies = [nets.clone_net(net), copy.deepcopy(net),
              nets.load_checkpoint(tmp_path / "n.mlp")]
    for c in copies:
        assert _aliased(c) and not np.shares_memory(c.params, net.params)
        np.testing.assert_array_equal(c.params, net.params)
        c.weights[1][0, 0] = 7.0  # W1 starts after W0 (15) and b0 (5)
        assert c.params[20] == 7.0 and net.params[20] != 7.0
    oracles.set_flat_params(net, np.arange(32.0))
    assert _aliased(net) and net.biases[-1].tolist() == [30.0, 31.0]
    flat = oracles.get_flat_params(net)
    assert not np.shares_memory(flat, net.params)
    pair = nets.stack([net, nets.clone_net(net)])
    for c in (pair, nets.clone_net(pair), copy.deepcopy(pair)):
        assert _aliased(c) and c.init_seed == (1, 1)
        c.weights[1][1, 0, 0] = 9.0  # member 1's W1, at the same place in row 1
        assert c.params[1, 20] == 9.0 and c.params[0, 20] != 9.0


@given(tau=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=30, deadline=None)
def test_soft_update_interpolates(tau):
    target = nets.MlpNet.he_uniform([3, 4, 1], seed=1)
    source = nets.MlpNet.he_uniform([3, 4, 1], seed=2)
    lo = np.minimum(oracles.get_flat_params(target), oracles.get_flat_params(source))
    hi = np.maximum(oracles.get_flat_params(target), oracles.get_flat_params(source))
    expect = (1 - tau) * oracles.get_flat_params(target) + tau * oracles.get_flat_params(source)
    nets.soft_update(target, source, tau)
    got = oracles.get_flat_params(target)
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-15)
    assert np.all(got >= lo - 1e-12) and np.all(got <= hi + 1e-12)


def test_soft_update_endpoints_and_mismatch():
    a = nets.MlpNet.he_uniform([2, 3, 1], seed=3)
    b = nets.MlpNet.he_uniform([2, 3, 1], seed=4)
    a0 = oracles.get_flat_params(a).copy()
    nets.soft_update(a, b, 0.0)
    np.testing.assert_array_equal(oracles.get_flat_params(a), a0)
    nets.soft_update(a, b, 1.0)
    np.testing.assert_array_equal(oracles.get_flat_params(a), oracles.get_flat_params(b))
    c = nets.MlpNet.he_uniform([2, 4, 1], seed=5)
    with pytest.raises(ContractError):
        nets.soft_update(a, c, 0.5)
    with pytest.raises(ContractError):
        nets.soft_update(a, b, 1.5)


def test_he_uniform_bounds_and_determinism():
    n1 = nets.MlpNet.he_uniform([5, 7, 2], seed=42)
    n2 = nets.MlpNet.he_uniform([5, 7, 2], seed=42)
    n3 = nets.MlpNet.he_uniform([5, 7, 2], seed=43)
    np.testing.assert_array_equal(oracles.get_flat_params(n1), oracles.get_flat_params(n2))
    assert not np.array_equal(oracles.get_flat_params(n1), oracles.get_flat_params(n3))
    assert n1.init_seed == 42
    for l, w in enumerate(n1.weights):
        fan_in = n1.layer_sizes[l]
        assert np.all(np.abs(w) <= np.sqrt(6.0 / fan_in))
    for b in n1.biases:
        assert np.all(b == 0.0)


def test_num_params_and_flat_roundtrip():
    net = nets.MlpNet.he_uniform([3, 16, 16, 2], seed=9)
    assert net.params.size == (3 * 16 + 16) + (16 * 16 + 16) + (16 * 2 + 2)
    p = oracles.get_flat_params(net)
    q = np.arange(p.size, dtype=np.float64)
    oracles.set_flat_params(net, q)
    np.testing.assert_array_equal(oracles.get_flat_params(net), q)
    with pytest.raises(ContractError):
        oracles.set_flat_params(net, q[:-1])


def test_checkpoint_roundtrip_exact(tmp_path):
    net = oracles.make_role_net("generator", seed=17)
    path = tmp_path / "gen.mlp"
    nets.save_checkpoint(net, path)
    loaded = nets.load_checkpoint(path)
    np.testing.assert_array_equal(oracles.get_flat_params(loaded), oracles.get_flat_params(net))
    assert loaded.layer_sizes == net.layer_sizes
    assert loaded.init_seed == net.init_seed
    # a second save of the loaded net is byte-identical
    path2 = tmp_path / "gen2.mlp"
    nets.save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "junk.mlp"
    p.write_bytes(b"\x00\x01\x02 not a checkpoint\n\xff")
    with pytest.raises(ContractError):
        nets.load_checkpoint(p)
    q = tmp_path / "truncated.mlp"
    net = oracles.make_role_net("critic")
    nets.save_checkpoint(net, q)
    q.write_bytes(q.read_bytes()[:-16])
    with pytest.raises(ContractError):
        nets.load_checkpoint(q)
    # param_count agrees with the data, but layer_sizes lay out another count
    r = tmp_path / "resized.mlp"
    nets.save_checkpoint(net, r)
    header, blob = r.read_bytes().split(b"\n", 1)
    header = json.loads(header)
    header["layer_sizes"][1] += 1
    r.write_bytes(json.dumps(header).encode() + b"\n" + blob)
    with pytest.raises(ContractError, match="resized.mlp"):
        nets.load_checkpoint(r)


def test_invalid_construction_rejected():
    with pytest.raises(ContractError):
        nets.MlpNet.he_uniform([3], seed=0)
    with pytest.raises(ContractError):
        nets.MlpNet.he_uniform([3, 0, 1], seed=0)
    for params in (np.zeros(5), np.zeros(7), np.zeros((1, 1, 6)), np.float64(0.0)):
        with pytest.raises(ContractError, match="params for layer_sizes"):
            nets.MlpNet([2, 2], params)
    with pytest.raises(ContractError):
        nets.MlpNet.he_uniform([3, 4, 1], seed=0, dtype=np.float16)


def test_float32_is_the_default_and_rounds_the_float64_draws():
    n32 = nets.MlpNet.he_uniform([3, 16, 2], seed=10)
    n64 = nets.MlpNet.he_uniform([3, 16, 2], seed=10, dtype=np.float64)
    assert n32.dtype == np.float32 and n32.params.dtype == np.float32
    assert all(a.dtype == np.float32 for a in n32.weights + n32.biases)
    assert np.array_equal(n32.params, n64.params.astype(np.float32))
    assert nets.clone_net(n32).dtype == np.float32
    assert nets.AdamState.for_net(n32, 1e-3).m.dtype == np.float32
    x = np.random.default_rng(0).normal(size=(4, 3))  # float64 in, float32 out
    assert nets.forward_batch(n32, x).dtype == np.float32
    g = nets.backward_batch(n32, np.ones((4, 2)))
    assert g.dtype == nets.backward_input(n32, np.ones((4, 2))).dtype == np.float32


def test_adam_step_rejects_gradients_of_another_dtype():
    net = nets.MlpNet.he_uniform([2, 3, 1], seed=0)
    opt = nets.AdamState.for_net(net, 1e-3)
    with pytest.raises(ContractError):
        nets.adam_step(net, np.ones(net.params.size), opt)  # float64 against float32


@pytest.mark.parametrize("dtype, tag", [(np.float32, "<f4"), (np.float64, "<f8")])
def test_checkpoint_records_its_dtype(tmp_path, dtype, tag):
    net = nets.MlpNet.he_uniform([3, 8, 2], seed=12, dtype=dtype)
    nets.soft_update(net, nets.MlpNet.he_uniform([3, 8, 2], seed=13, dtype=dtype), 0.3)
    nets.save_checkpoint(net, tmp_path / "n.mlp")
    header, blob = (tmp_path / "n.mlp").read_bytes().split(b"\n", 1)
    assert json.loads(header)["dtype"] == tag
    assert len(blob) == net.params.nbytes
    loaded = nets.load_checkpoint(tmp_path / "n.mlp")
    assert loaded.dtype == dtype and np.array_equal(loaded.params, net.params)
    x = np.random.default_rng(1).normal(size=(5, 3))
    assert np.array_equal(nets.forward_batch(loaded, x), nets.forward_batch(net, x))


def test_checkpoint_without_dtype_is_refused_naming_it(tmp_path):
    """A float64 checkpoint whose header lacks its dtype is refused, naming
    the file and the key."""
    net = nets.MlpNet.he_uniform([2, 4, 1], seed=14, dtype=np.float64)
    nets.save_checkpoint(net, tmp_path / "n.mlp")
    header, blob = (tmp_path / "n.mlp").read_bytes().split(b"\n", 1)
    old = json.loads(header)
    del old["dtype"]
    (tmp_path / "old.mlp").write_bytes(json.dumps(old).encode() + b"\n" + blob)
    with pytest.raises(ConfigError, match=re.escape(str(tmp_path / "old.mlp")) + ".*'dtype'"):
        nets.load_checkpoint(tmp_path / "old.mlp")
    old["dtype"] = "<f2"
    (tmp_path / "bad.mlp").write_bytes(json.dumps(old).encode() + b"\n" + blob)
    with pytest.raises(ContractError):
        nets.load_checkpoint(tmp_path / "bad.mlp")


def _with_header(src, dest, edit):
    """Copy the record file src to dest with edit(header dict) applied to its
    header line."""
    header, blob = src.read_bytes().split(b"\n", 1)
    header = json.loads(header)
    edit(header)
    dest.write_bytes(json.dumps(header).encode() + b"\n" + blob)
    return dest


@pytest.mark.parametrize("hidden, output", [("relu", "tanh"), ("relu", "sigmoid"),
                                            ("tanh", "identity")])
def test_checkpoint_refuses_activations_other_than_relu_and_identity(tmp_path, hidden,
                                                                     output):
    """Every net is relu layers and an affine output, and its checkpoint says
    so. A header naming a squashed output, as the GAN's files did before it
    squashed its nets' outputs itself, or tanh hidden layers, is refused by
    name: those parameters compute another function here."""
    net = nets.MlpNet.he_uniform([3, 4, 1], seed=0)
    nets.save_checkpoint(net, tmp_path / "n.mlp")
    header = json.loads((tmp_path / "n.mlp").read_bytes().split(b"\n", 1)[0])
    assert (header["hidden_activation"], header["output_activation"]) == ("relu", "identity")
    old = _with_header(tmp_path / "n.mlp", tmp_path / "old.mlp", lambda h: h.update(
        hidden_activation=hidden, output_activation=output))
    with pytest.raises(ContractError, match=f"old.mlp: holds {hidden} layers and {output}"):
        nets.load_checkpoint(old)


@pytest.mark.parametrize("kind, key", [("mlp", "layer_sizes"), ("mlp", "param_count"),
                                       ("mlp", "output_activation"), ("adam", "step_count"),
                                       ("adam", "learning_rate"), ("adam", "param_count")])
def test_loaders_name_the_file_a_header_key_is_missing_from(tmp_path, kind, key):
    net = nets.MlpNet.he_uniform([3, 4, 1], seed=0)
    nets.save_checkpoint(net, tmp_path / "n.mlp")
    nets.save_adam(nets.AdamState.for_net(net, 1e-3), tmp_path / "n.adam")
    bad = _with_header(tmp_path / f"n.{kind}", tmp_path / f"bad.{kind}", lambda h: h.pop(key))
    with pytest.raises(ConfigError, match=rf"bad\.{kind}: .*missing .*'{key}'"):
        if kind == "mlp":
            nets.load_checkpoint(bad)
        else:
            nets.load_adam(bad, net)


@pytest.mark.parametrize("kind", ["mlp", "adam"])
@pytest.mark.parametrize("key, value", [("version", 2), ("format", "oris-other")])
def test_loaders_refuse_a_header_of_another_format_or_version(tmp_path, kind, key, value):
    net = nets.MlpNet.he_uniform([3, 4, 1], seed=0)
    nets.save_checkpoint(net, tmp_path / "n.mlp")
    nets.save_adam(nets.AdamState.for_net(net, 1e-3), tmp_path / "n.adam")
    bad = _with_header(tmp_path / f"n.{kind}", tmp_path / f"bad.{kind}",
                       lambda h: h.update({key: value}))
    with pytest.raises(ContractError, match=re.escape(f"not a oris-{kind} v1 file: {bad}")):
        if kind == "mlp":
            nets.load_checkpoint(bad)
        else:
            nets.load_adam(bad, net)


def test_loaders_name_a_missing_file(tmp_path):
    with pytest.raises(ContractError, match="cannot read oris-mlp file .*absent.mlp"):
        nets.load_checkpoint(tmp_path / "absent.mlp")
    with pytest.raises(ContractError, match="cannot read oris-adam file .*absent.adam"):
        nets.load_adam(tmp_path / "absent.adam", nets.MlpNet.he_uniform([3, 4, 1], seed=0))


@pytest.mark.parametrize("kind", ["mlp", "adam"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_loaders_refuse_non_finite_data_naming_the_file(tmp_path, kind, bad):
    net = nets.MlpNet.he_uniform([3, 4, 1], seed=0)
    path = tmp_path / f"n.{kind}"
    if kind == "mlp":
        nets.save_checkpoint(net, path)
        load = lambda: nets.load_checkpoint(path)
    else:
        nets.save_adam(nets.AdamState.for_net(net, 1e-3), path)
        load = lambda: nets.load_adam(path, net)
    oracles.damage_record(path, bad)
    with pytest.raises(ContractError,
                       match=re.escape(f"non-finite value in oris-{kind} data in {path}")):
        load()


@pytest.mark.parametrize("kind", ["mlp", "adam"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_savers_refuse_non_finite_data_naming_the_file(tmp_path, kind, bad):
    """A saver writes no file the loader would refuse: it raises first, and
    leaves neither the file nor a temporary one."""
    net = nets.MlpNet.he_uniform([3, 4, 1], seed=0)
    path = tmp_path / f"n.{kind}"
    if kind == "mlp":
        net.params[-1] = bad
        save = lambda: nets.save_checkpoint(net, path)
    else:
        opt = nets.AdamState.for_net(net, 1e-3)
        opt.v[-1] = bad
        save = lambda: nets.save_adam(opt, path)
    with pytest.raises(NumericsError,
                       match=re.escape(f"non-finite value in oris-{kind} data for {path}")):
        save()
    assert list(tmp_path.iterdir()) == []
