import json
import re

import numpy as np
import pytest

from oris import gan, nets
from oris.errors import ConfigError, ContractError, NumericsError

import oracles


def rigged_pair(bias, state_dim=2, w_min=0.1, w_max=1.0):
    """GanPair of float64 nets whose discriminator outputs the logit `bias`,
    so D = sigmoid(bias), for every state."""
    disc = nets.MlpNet([state_dim, 1], np.append(np.zeros(state_dim), float(bias)),
                       dtype=np.float64)
    gen = nets.MlpNet.he_uniform([3, 8, state_dim], seed=0, dtype=np.float64)
    ones = (1.0,) * state_dim
    meta = gan.GanMeta(z_dim=3, mean=(0.0,) * state_dim, std=ones, out_scale=ones,
                       restart_noise_sigma=0.05, w_min=w_min, w_max=w_max)
    return gan.GanPair(gen, disc, meta)


def mixture_states(n, rng):
    comp = rng.integers(0, 2, size=n)
    centers = np.array([[-2.0, 1.0], [2.0, -1.0]])
    return centers[comp] + 0.4 * rng.standard_normal((n, 2))


def test_weight_matches_clipped_linear_rule_exactly():
    for d_target in np.linspace(0.001, 0.999, 41):
        pair = rigged_pair(np.log(d_target / (1.0 - d_target)), w_min=0.1, w_max=1.0)
        s = np.array([[0.3, -0.7]])
        d = gan.discriminator_prob_batch(pair, s)[0]
        assert d == pytest.approx(d_target, abs=1e-12)
        assert gan.weight_of_batch(pair, s)[0] == float(np.clip(1.0 - 2.0 * d, 0.1, 1.0))
    # a batch agrees with its rows scored one at a time
    pair = rigged_pair(0.37, w_min=0.05, w_max=0.9)
    S = np.random.default_rng(0).normal(size=(16, 2))
    ws = gan.weight_of_batch(pair, S)
    for i in range(16):
        assert ws[i] == gan.weight_of_batch(pair, S[i:i + 1])[0]


def test_weight_endpoints():
    # D -> 0 (far from data) gives w_max, D -> 1/2+ gives w_min
    pair = rigged_pair(-50.0, w_min=0.1, w_max=1.0)
    assert gan.weight_of_batch(pair, np.zeros((1, 2)))[0] == 1.0
    pair = rigged_pair(0.0, w_min=0.1, w_max=1.0)
    assert gan.weight_of_batch(pair, np.zeros((1, 2)))[0] == 0.1
    pair = rigged_pair(50.0, w_min=0.1, w_max=1.0)
    assert gan.weight_of_batch(pair, np.zeros((1, 2)))[0] == 0.1


def test_uninformative_discriminator_objective_value():
    pair = rigged_pair(0.0)
    S = np.random.default_rng(1).normal(size=(64, 2))
    d = gan.discriminator_prob_batch(pair, S)
    objective = float(np.mean(np.log(d)) + np.mean(np.log(1.0 - d)))
    assert objective == pytest.approx(-2.0 * np.log(2.0), abs=1e-12)


def test_discriminator_step_gradients_match_finite_differences():
    # pretrain's one pass over real and fake rows, checked against FD of the objective
    rng = np.random.default_rng(2)
    disc = nets.MlpNet.he_uniform([2, 8, 1], seed=3, dtype=np.float64)
    real = rng.normal(size=(6, 2))
    fake = rng.normal(size=(6, 2))

    def d_loss(flat):
        oracles.set_flat_params(disc, flat)
        l_r = nets.forward_batch(disc, real)[:, 0]
        l_f = nets.forward_batch(disc, fake)[:, 0]
        # minimized loss = -objective
        return float(np.mean(np.logaddexp(0.0, -l_r)) + np.mean(np.logaddexp(0.0, l_f)))

    p0 = oracles.get_flat_params(disc)
    grads, d_real, d_fake, objective = gan.discriminator_step_grads(disc, real, fake)
    fd = oracles.fd_grad(d_loss, p0)
    assert oracles.max_rel_err(grads, fd) < 1e-6
    oracles.set_flat_params(disc, p0)
    assert objective == pytest.approx(-d_loss(p0), abs=1e-12)
    for d, rows in ((d_real, real), (d_fake, fake)):
        logit = nets.forward_batch(disc, rows)[:, 0]
        np.testing.assert_allclose(d, 1.0 / (1.0 + np.exp(-logit)), rtol=1e-12)


def test_generator_step_gradients_match_finite_differences():
    """pretrain's generator step, checked against FD of its loss
    E[log(1 - D(G(z)))] with G(z) = out_scale * tanh(generator(z))."""
    rng = np.random.default_rng(4)
    gen = nets.MlpNet.he_uniform([3, 8, 2], seed=5, dtype=np.float64)
    disc = nets.MlpNet.he_uniform([2, 8, 1], seed=6, dtype=np.float64)
    out_scale = np.array([1.5, 0.8])
    Z = rng.normal(size=(5, 3))

    def g_loss(flat):
        oracles.set_flat_params(gen, flat)
        fake = np.tanh(nets.forward_batch(gen, Z)) * out_scale
        d = 1.0 / (1.0 + np.exp(-nets.forward_batch(disc, fake)[:, 0]))
        return float(np.mean(np.log(1.0 - d)))

    p0 = oracles.get_flat_params(gen)
    disc_params = oracles.get_flat_params(disc)
    analytic, loss = gan.generator_step_grads(gen, disc, Z, out_scale)
    np.testing.assert_array_equal(oracles.get_flat_params(disc), disc_params)
    fd = oracles.fd_grad(g_loss, p0)
    assert oracles.max_rel_err(analytic, fd) < 1e-6
    assert loss == pytest.approx(g_loss(p0), abs=1e-12)


def test_pretrain_raises_on_a_non_finite_generator_loss(monkeypatch):
    """pretrain checks the loss generator_step_grads returns before it steps."""
    step = gan.generator_step_grads
    monkeypatch.setattr(gan, "generator_step_grads",
                        lambda *a: (step(*a)[0], float("nan")))
    S = mixture_states(200, np.random.default_rng(30))
    hp = gan.GanHparams(z_dim=2, hidden=(8,), iterations=5, batch_size=16)
    with pytest.raises(NumericsError, match="non-finite generator loss at GAN iteration 0"):
        gan.pretrain(S, hp, np.random.default_rng(31))


def test_pretrain_fits_mixture_means():
    rng = np.random.default_rng(7)
    S = mixture_states(3000, rng)
    hp = gan.GanHparams(z_dim=4, hidden=(48, 48), iterations=2500, batch_size=128)
    pair, report = gan.pretrain(S, hp, np.random.default_rng(8))
    samples = gan.generate_states(pair, np.random.default_rng(9).standard_normal((4000, 4)))
    data_mean, data_std = S.mean(axis=0), S.std(axis=0)
    assert np.all(np.abs(samples.mean(axis=0) - data_mean) < 0.5 * data_std)
    assert len(report.d_objective) == 2500
    for curve in (report.d_objective, report.g_loss, report.d_real_mean, report.d_fake_mean):
        assert np.all(np.isfinite(curve))
    assert np.all(report.d_real_mean >= 0.0) and np.all(report.d_real_mean <= 1.0)
    s = report.summary()
    assert s["iterations"] == 2500


def test_generated_states_respect_out_scale():
    rng = np.random.default_rng(10)
    S = mixture_states(500, rng)
    hp = gan.GanHparams(z_dim=3, hidden=(16,), iterations=50, batch_size=64)
    pair, _ = gan.pretrain(S, hp, np.random.default_rng(11))
    samples = gan.generate_states(pair, rng.standard_normal((1000, 3)))
    m = pair.meta
    assert np.all(np.abs((samples - m.mean) / m.std) <= np.array(m.out_scale) + 1e-9)
    # out_scale covers the data with the documented margin
    np.testing.assert_allclose(m.out_scale, 1.25 * np.max(np.abs((S - m.mean) / m.std), axis=0))


def test_sample_restart_sigma_zero_is_deterministic():
    rng = np.random.default_rng(12)
    S = mixture_states(300, rng)
    hp = gan.GanHparams(z_dim=3, hidden=(16,), iterations=30, batch_size=64,
                        restart_noise_sigma=0.0)
    pair, _ = gan.pretrain(S, hp, np.random.default_rng(13))
    z_rng = np.random.default_rng(99)
    a = gan.sample_restart(pair, np.random.default_rng(99))
    z = z_rng.standard_normal(pair.generator.in_dim)
    b = gan.generate_states(pair, z[None, :])[0]
    np.testing.assert_array_equal(a, b)


def test_sample_restart_noise_is_additive_in_state_units():
    rng = np.random.default_rng(14)
    S = 100.0 * mixture_states(300, rng)  # large scale to expose unit errors
    hp = gan.GanHparams(z_dim=3, hidden=(16,), iterations=30, batch_size=64,
                        restart_noise_sigma=0.5)
    pair, _ = gan.pretrain(S, hp, np.random.default_rng(15))
    diffs = []
    for seed in range(200):
        r1 = np.random.default_rng(seed)
        z = r1.standard_normal(pair.generator.in_dim)
        base = gan.generate_states(pair, z[None, :])[0]
        noisy = gan.sample_restart(pair, np.random.default_rng(seed))
        diffs.append(noisy - base)
    diffs = np.stack(diffs)
    # additive noise with std 0.5 regardless of the data's scale
    assert np.all(np.abs(diffs.std(axis=0) - 0.5) < 0.2)
    assert np.all(np.abs(diffs.mean(axis=0)) < 0.2)


def test_pretrain_input_validation():
    hp = gan.GanHparams(iterations=5)
    with pytest.raises(ContractError):
        gan.pretrain(np.zeros((99, 2)), hp, np.random.default_rng(0))
    bad = np.zeros((200, 2))
    bad[3, 1] = np.nan
    with pytest.raises(ContractError):
        gan.pretrain(bad, hp, np.random.default_rng(0))
    with pytest.raises(ContractError):
        gan.GanHparams(w_min=0.5, w_max=0.2)
    with pytest.raises(ContractError):
        gan.GanHparams(restart_noise_sigma=-0.1)


def test_pretrain_accepts_list_of_vectors():
    rng = np.random.default_rng(16)
    states = [rng.normal(size=2) for _ in range(150)]
    hp = gan.GanHparams(z_dim=2, hidden=(8,), iterations=10, batch_size=32)
    pair, report = gan.pretrain(states, hp, np.random.default_rng(17))
    assert pair.generator.out_dim == 2
    assert len(report.g_loss) == 10


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(18)
    S = mixture_states(300, rng)
    hp = gan.GanHparams(z_dim=3, hidden=(16,), iterations=20, batch_size=64)
    pair, _ = gan.pretrain(S, hp, np.random.default_rng(19))
    gan.save_gan(pair, tmp_path / "g")
    loaded = gan.load_gan(tmp_path / "g")
    np.testing.assert_array_equal(oracles.get_flat_params(loaded.generator),
                                  oracles.get_flat_params(pair.generator))
    np.testing.assert_array_equal(oracles.get_flat_params(loaded.discriminator),
                                  oracles.get_flat_params(pair.discriminator))
    assert loaded.meta == pair.meta
    probe = rng.normal(size=(32, 2))
    np.testing.assert_array_equal(gan.weight_of_batch(loaded, probe),
                                  gan.weight_of_batch(pair, probe))
    Z = rng.normal(size=(8, 3))
    np.testing.assert_array_equal(gan.generate_states(loaded, Z),
                                  gan.generate_states(pair, Z))


def test_load_gan_refuses_a_latent_width_its_generator_lacks(tmp_path):
    S = mixture_states(100, np.random.default_rng(22))
    hp = gan.GanHparams(z_dim=3, hidden=(8,), iterations=2, batch_size=16)
    pair, _ = gan.pretrain(S, hp, np.random.default_rng(23))
    gan.save_gan(pair, tmp_path / "g")
    meta_path = tmp_path / "g" / "gan.json"
    meta = json.loads(meta_path.read_text())
    assert meta["z_dim"] == 3
    meta_path.write_text(json.dumps({**meta, "z_dim": 4}))
    with pytest.raises(ContractError, match=r"(?s)z_dim 4.*3 inputs") as e:
        gan.load_gan(tmp_path / "g")
    assert str(tmp_path / "g") in str(e.value)


@pytest.mark.parametrize("edit, says", [
    pytest.param({"mean": [0.0, 0.0, 0.0]},
                 "/gan.json: mean, std and out_scale have widths 3, 2 and 2", id="mean"),
    pytest.param({"std": [1.0]}, "/gan.json: mean, std and out_scale have widths 2, 1 and 2",
                 id="std"),
    pytest.param({"out_scale": [1.0, 1.0, 1.0]},
                 "/gan.json: mean, std and out_scale have widths 2, 2 and 3", id="out_scale"),
    pytest.param({"mean": [0.0] * 3, "std": [1.0] * 3, "out_scale": [1.0] * 3},
                 ": gan.json has width 3, but the generator gives 2 state dims", id="all"),
    pytest.param(None, ": the discriminator's input has width 3, but the generator gives "
                 "2 state dims", id="discriminator")])
def test_load_gan_refuses_a_state_width_its_generator_lacks(tmp_path, edit, says):
    """gan.json's per-dim vectors share one width, and it and the
    discriminator's input have the generator's output width; otherwise the
    first weight_of_batch would fail without naming the file."""
    S = mixture_states(100, np.random.default_rng(22))
    hp = gan.GanHparams(z_dim=3, hidden=(8,), iterations=2, batch_size=16)
    gan.save_gan(gan.pretrain(S, hp, np.random.default_rng(23))[0], tmp_path / "g")
    if edit is None:
        nets.save_checkpoint(nets.MlpNet.he_uniform([3, 8, 1]),
                             tmp_path / "g" / "discriminator.mlp")
    else:
        meta_path = tmp_path / "g" / "gan.json"
        meta_path.write_text(json.dumps({**json.loads(meta_path.read_text()), **edit}))
    with pytest.raises(ContractError, match=re.escape(f"{tmp_path / 'g'}{says}")):
        gan.load_gan(tmp_path / "g")


def test_pretrain_deterministic_given_rng():
    rng = np.random.default_rng(20)
    S = mixture_states(200, rng)
    hp = gan.GanHparams(z_dim=2, hidden=(8,), iterations=15, batch_size=32)
    p1, r1 = gan.pretrain(S, hp, np.random.default_rng(21))
    p2, r2 = gan.pretrain(S, hp, np.random.default_rng(21))
    np.testing.assert_array_equal(oracles.get_flat_params(p1.generator),
                                  oracles.get_flat_params(p2.generator))
    np.testing.assert_array_equal(r1.d_objective, r2.d_objective)


def test_fit_key_follows_the_numerics_not_the_source(monkeypatch):
    """The key names the code that fits by what a tiny fit computes: another
    Adam epsilon is another key, and the key comes back with the numbers."""
    states = np.random.default_rng(25).normal(size=(120, 2))
    hp = gan.GanHparams(z_dim=2, hidden=(8,), iterations=5, batch_size=16)

    def key():
        return gan.fit_key(gan.fit_inputs(states, hp, np.random.default_rng(26)))

    before = key()
    assert "code_sha256" not in gan.fit_inputs(states, hp, np.random.default_rng(26))
    for_net = nets.AdamState.for_net
    monkeypatch.setattr(nets.AdamState, "for_net", classmethod(
        lambda cls, net, lr, beta1=0.9, beta2=0.999, epsilon=1e-8:
        for_net(net, lr, beta1, beta2, 1e-7)))
    try:
        assert key() == before  # computed once per process
        gan.numerics_sha256.cache_clear()
        assert key() != before
    finally:
        monkeypatch.undo()
        gan.numerics_sha256.cache_clear()
    assert key() == before


def test_pretrain_or_load_reuses_the_entry_bitwise(tmp_path):
    rng = np.random.default_rng(22)
    S = mixture_states(300, rng)
    hp = gan.GanHparams(z_dim=3, hidden=(16,), iterations=20, batch_size=64,
                        w_min=0.0)
    fitted = gan.pretrain_or_load(S, hp, np.random.default_rng(23), tmp_path)
    (entry,) = tmp_path.iterdir()
    report = json.loads((entry / gan.REPORT_FILE).read_text())
    assert report["key"] == entry.name
    assert report["train"]["iterations"] == 20
    assert report["inputs"]["hparams"] == hp.to_json()

    rng_hit = np.random.default_rng(23)
    loaded = gan.pretrain_or_load(S, hp, rng_hit, tmp_path)
    assert rng_hit.bit_generator.state == np.random.default_rng(23).bit_generator.state
    for net in ("generator", "discriminator"):
        np.testing.assert_array_equal(oracles.get_flat_params(getattr(loaded, net)),
                                      oracles.get_flat_params(getattr(fitted, net)))
    assert loaded.meta == fitted.meta
    probe = rng.normal(size=(32, 2))
    np.testing.assert_array_equal(gan.weight_of_batch(loaded, probe),
                                  gan.weight_of_batch(fitted, probe))
    np.testing.assert_array_equal(gan.sample_restart(loaded, np.random.default_rng(1)),
                                  gan.sample_restart(fitted, np.random.default_rng(1)))
    # another RNG state is another fit
    gan.pretrain_or_load(S, hp, np.random.default_rng(24), tmp_path)
    assert len(list(tmp_path.iterdir())) == 2


def test_load_gan_refuses_a_version_1_directory(tmp_path):
    """A version 1 directory's nets squashed their own outputs; its
    discriminator's output would be read here as a logit."""
    S = mixture_states(100, np.random.default_rng(32))
    hp = gan.GanHparams(z_dim=2, hidden=(8,), iterations=2, batch_size=16)
    pair, _ = gan.pretrain(S, hp, np.random.default_rng(33))
    gan.save_gan(pair, tmp_path / "g")
    meta_path = tmp_path / "g" / "gan.json"
    meta = json.loads(meta_path.read_text())
    assert meta["version"] == gan.GAN_VERSION == 2
    meta_path.write_text(json.dumps({**meta, "version": 1}))
    with pytest.raises(ContractError,
                       match=re.escape(f"not a oris-gan v2 directory: {tmp_path / 'g'}")):
        gan.load_gan(tmp_path / "g")


@pytest.mark.parametrize("fault, says", [
    pytest.param("gan.json", None, id="gan.json"),
    pytest.param("out_scale", r": .*missing .*'out_scale'", id="out_scale"),
    pytest.param("w_max", r": .*missing .*'w_max'", id="w_max"),
    pytest.param({"bogus": 1}, r": unknown keys \['bogus'\]", id="unknown"),
    pytest.param({"w_min": "x"}, r"\.w_min: expected float", id="mistyped"),
    pytest.param({"mean": [0.0, "a"]}, r"\.mean\[1\]: expected float", id="mistyped_entry"),
    pytest.param([1, 2], ": not a JSON object", id="not_an_object")])
def test_load_gan_names_what_is_missing(tmp_path, fault, says):
    """A store entry without its gan.json is not a GAN directory. A gan.json
    that lacks a key, has one it does not know, holds a value of the wrong
    type or is not an object is refused by file and key."""
    S = mixture_states(100, np.random.default_rng(34))
    hp = gan.GanHparams(z_dim=2, hidden=(8,), iterations=2, batch_size=16)
    gan.save_gan(gan.pretrain(S, hp, np.random.default_rng(35))[0], tmp_path / "g")
    meta_path = tmp_path / "g" / "gan.json"
    if fault == "gan.json":
        meta_path.unlink()
        with pytest.raises(ContractError, match=re.escape(f"directory: {tmp_path / 'g'}")):
            gan.load_gan(tmp_path / "g")
        return
    meta = json.loads(meta_path.read_text())
    if isinstance(fault, str):
        del meta[fault]
    elif isinstance(fault, dict):
        meta.update(fault)
    else:
        meta = fault
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ConfigError, match=re.escape(str(meta_path)) + says):
        gan.load_gan(tmp_path / "g")


@pytest.mark.parametrize("edit, says", [
    pytest.param({"w_min": 0.9, "w_max": 0.3}, "need 0 <= w_min <= w_max, got 0.9, 0.3",
                 id="w_min_above_w_max"),
    pytest.param({"w_min": -0.1}, "need 0 <= w_min <= w_max, got -0.1, 1.0", id="negative_w_min"),
    pytest.param({"restart_noise_sigma": -0.5}, "restart_noise_sigma must be >= 0",
                 id="negative_sigma"),
    pytest.param({"std": [0.0, -1.0]}, "std entries must be > 0, got [0.0, -1.0]",
                 id="std_not_positive"),
    pytest.param({"z_dim": 0}, "z_dim must be >= 1, got 0", id="z_dim")])
def test_load_gan_refuses_a_value_pretrain_never_writes(tmp_path, edit, says):
    """gan.json is refused, by file, for a value that pretrain never writes:
    a weight clip or restart noise that GanHparams refuses, a std that is
    not positive, or no latent dims. weight_of_batch would give NaN for the
    first two."""
    S = mixture_states(100, np.random.default_rng(38))
    hp = gan.GanHparams(z_dim=2, hidden=(8,), iterations=2, batch_size=16)
    gan.save_gan(gan.pretrain(S, hp, np.random.default_rng(39))[0], tmp_path / "g")
    meta_path = tmp_path / "g" / "gan.json"
    meta_path.write_text(json.dumps({**json.loads(meta_path.read_text()), **edit}))
    with pytest.raises(ContractError, match=re.escape(f"{meta_path}: {says}")):
        gan.load_gan(tmp_path / "g")


def test_fit_key_changes_with_the_entry_format(monkeypatch):
    """A store entry is keyed on GAN_VERSION too, so entries of another format
    sit under keys that are not looked up."""
    states = np.random.default_rng(36).normal(size=(120, 2))
    hp = gan.GanHparams(z_dim=2, hidden=(8,), iterations=5, batch_size=16)

    def key():
        return gan.fit_key(gan.fit_inputs(states, hp, np.random.default_rng(37)))

    before = key()
    monkeypatch.setattr(gan, "GAN_VERSION", 1)
    assert gan.fit_inputs(states, hp, np.random.default_rng(37))["gan_version"] == 1
    assert key() != before
    monkeypatch.undo()
    assert key() == before
