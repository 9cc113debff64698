import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onsetkit.errors import ConfigError, ModelFormatError, OnsetKitError, ShapeError
from onsetkit.layers import (BLOCK_FRAMES, WHOLE_PATCH_BYTES, Conv2d, DilatedConv1d, Layer, elu,
                             pool_freq3)
from onsetkit.models import (
    FREEZABLE,
    LAYER_NAMES,
    N_BANDS,
    VARIANTS,
    ConvStage,
    FreezeConfig,
    Model,
    TcnLevel,
    apply_freeze,
    build_model,
    canonical_freeze_ids,
    clone_model,
    count_params,
    load_model,
    receptive_field,
    save_model,
)
from onsetkit.training import train


def test_layer_names_shared_skeleton():
    assert len(LAYER_NAMES) == 15
    assert LAYER_NAMES[0] == "Conv1"
    assert LAYER_NAMES[-1] == "Out"
    for variant in ("tcn_v1", "tcn_v2"):
        m = build_model(variant, seed=0)
        assert tuple(nl.name for nl in m.layers) == LAYER_NAMES
        dils = [nl.block.conv1.dilation for nl in m.layers if nl.name.startswith("Tcn")]
        assert dils == [2**i for i in range(11)]


def test_frontend_band_chains():
    # tcn_v1: 81 ->(3x3) 79 ->(pool) 26 ->(3x3) 24 ->(pool) 8 ->(1x8) 1
    m1 = build_model("tcn_v1", seed=0)
    chain = [81]
    for nl in m1.layers[:3]:
        chain.append(chain[-1] - nl.block.conv.kf + 1)
        if nl.block.pool:
            chain.append(chain[-1] // 3)
    assert chain == [81, 79, 26, 24, 8, 1]

    # tcn_v2: 81 -> 79 -> 26 ->(1x10) 17 ->(pool) 5 ->(3x3) 3 ->(pool) 1
    m2 = build_model("tcn_v2", seed=0)
    chain = [81]
    for nl in m2.layers[:3]:
        chain.append(chain[-1] - nl.block.conv.kf + 1)
        if nl.block.pool:
            chain.append(chain[-1] // 3)
    assert chain == [81, 79, 26, 17, 5, 3, 1]


def test_build_rejects_other_band_counts():
    with pytest.raises(ConfigError):
        build_model("tcn_v3", seed=0)


def test_count_params_v1():
    total, by_layer = count_params(build_model("tcn_v1", seed=0))
    assert by_layer["Conv1"] == 3 * 3 * 1 * 16 + 16  # 160
    assert by_layer["Conv2"] == 3 * 3 * 16 * 16 + 16  # 2320
    assert by_layer["Conv3"] == 1 * 8 * 16 * 16 + 16  # 2064
    for d in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
        # dilated conv 5x16x16+16 plus 1x1 mix 16x16+16
        assert by_layer[f"Tcn{d}"] == 1296 + 272
    assert by_layer["Out"] == 17
    assert total == 21809
    # within 1% of the published 21,890
    assert abs(total - 21890) / 21890 < 0.01


def test_count_params_v2():
    total, by_layer = count_params(build_model("tcn_v2", seed=0))
    assert by_layer["Conv1"] == 3 * 3 * 1 * 20 + 20  # 200
    assert by_layer["Conv2"] == 1 * 10 * 20 * 20 + 20  # 4020
    assert by_layer["Conv3"] == 3 * 3 * 20 * 20 + 20  # 3620
    # Tcn1 carries the 20->16 adapter (336) plus two dilated convs and mix
    assert by_layer["Tcn1"] == 336 + 1296 + 1296 + 272
    for d in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
        assert by_layer[f"Tcn{d}"] == 1296 + 1296 + 272
    assert by_layer["Out"] == 17
    assert total == 39697


def test_receptive_field_anchors():
    m1 = build_model("tcn_v1", seed=0)
    m2 = build_model("tcn_v2", seed=0)
    assert receptive_field(m1, "Conv3") == (5, 50.0)
    assert receptive_field(m2, "Conv3") == (5, 50.0)
    assert receptive_field(m1, "Tcn2") == (17, 170.0)
    assert receptive_field(m2, "Tcn2") == (41, 410.0)
    with pytest.raises(KeyError):
        receptive_field(m1, "Tcn3")


def test_zero_features_give_half():
    # biases init to zero, so zero input propagates to logit 0 -> 0.5
    for variant in ("tcn_v1", "tcn_v2"):
        m = build_model(variant, seed=3)
        act = m.forward(np.zeros((40, 81)))
        assert act.shape == (40,)
        assert np.all(act == 0.5)


def test_forward_range_length_determinism():
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 2, (500, 81))
    for variant in ("tcn_v1", "tcn_v2"):
        m = build_model(variant, seed=7)
        a = m.forward(x)
        b = m.forward(x)
        assert a.shape == (500,)
        assert np.all((a > 0) & (a < 1))
        assert np.array_equal(a, b)


def test_forward_training_mode_seeded():
    x = np.random.default_rng(6).uniform(0, 1, (64, 81))
    m = build_model("tcn_v1", seed=1)
    a = m.forward(x, training=True, rng=np.random.default_rng(42))
    b = m.forward(x, training=True, rng=np.random.default_rng(42))
    c = m.forward(x, training=True, rng=np.random.default_rng(43))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_forward_band_mismatch():
    m = build_model("tcn_v1", seed=0)
    with pytest.raises(ShapeError):
        m.forward(np.zeros((10, 80)))


def test_freeze_parsing():
    assert FreezeConfig.from_id("ft").frozen == ()
    assert FreezeConfig.from_id("ft_Conv3").frozen == ("Conv1", "Conv2", "Conv3")
    assert FreezeConfig.from_id("ft_Tcn1024").frozen == FREEZABLE
    assert FreezeConfig.from_id("ft_Tcn4-Tcn16").frozen == ("Tcn4", "Tcn8", "Tcn16")
    for bad in ("ft_Out", "ft_Conv9", "ft_Tcn16-Tcn4", "Conv1", "ft_Tcn1024-Out"):
        with pytest.raises(ConfigError):
            FreezeConfig.from_id(bad)
    for frozen in (("Out",), ("Conv1", "Conv9")):  # checked where a config is made
        with pytest.raises(ConfigError):
            FreezeConfig("custom", frozen)


def test_canonical_freeze_ids():
    ids = canonical_freeze_ids()
    assert len(ids) == 15
    assert ids[0] == "ft"
    assert ids[1] == "ft_Conv1"
    assert ids[-1] == "ft_Tcn1024"
    assert len(set(ids)) == 15


def test_apply_freeze_flags_and_idempotence():
    m = build_model("tcn_v1", seed=0)
    cfg = FreezeConfig.from_id("ft_Conv3")
    apply_freeze(m, cfg)
    apply_freeze(m, cfg)
    flags = {nl.name: nl.trainable for nl in m.layers}
    assert not flags["Conv1"] and not flags["Conv2"] and not flags["Conv3"]
    assert all(flags[n] for n in LAYER_NAMES[3:])
    # ft returns everything to trainable
    apply_freeze(m, FreezeConfig.from_id("ft"))
    assert all(nl.trainable for nl in m.layers)
    # frozen-through-Tcn1024 leaves only Out trainable
    apply_freeze(m, FreezeConfig.from_id("ft_Tcn1024"))
    trainable = [nl.name for nl in m.layers if nl.trainable]
    assert trainable == ["Out"]
    keys = m.param_dict(trainable_only=True)
    assert set(keys) == {"Out.dense.w", "Out.dense.b"}


def test_freeze_never_changes_forward():
    x = np.random.default_rng(8).uniform(0, 1, (50, 81))
    m = build_model("tcn_v2", seed=9)
    base = m.forward(x)
    for fid in canonical_freeze_ids():
        apply_freeze(m, FreezeConfig.from_id(fid))
        assert np.array_equal(m.forward(x), base)


@pytest.mark.parametrize("variant", VARIANTS)
def test_backward_stops_at_lowest_trainable_block(variant):
    x = np.random.default_rng(14).uniform(0, 1, (64, 81))
    g = np.random.default_rng(15).standard_normal(64)
    full = build_model(variant, seed=16)
    act = full.forward(x, training=True, rng=np.random.default_rng(17))
    full_gx = full.backward(g)
    assert full_gx.shape == (64, 81, 1)
    want = full.grad_dict()
    for fid in canonical_freeze_ids() + ["ft_Tcn4-Tcn64"]:
        m = clone_model(full)
        apply_freeze(m, FreezeConfig.from_id(fid))
        called, returned = [], {}
        for nl in m.layers:
            def spy(gy, input_grad=True, param_grads=True, name=nl.name,
                    inner=nl.block.backward):
                called.append((name, input_grad, param_grads))
                returned[name] = inner(gy, input_grad=input_grad, param_grads=param_grads)
                return returned[name]
            nl.block.backward = spy
        lowest = next(i for i, nl in enumerate(m.layers) if nl.trainable)
        # same forward and dropout draws as the unfrozen run
        assert np.array_equal(m.forward(x, training=True, rng=np.random.default_rng(17)), act)
        gx = m.backward(g)
        # only the lowest trainable block skips its input gradient, unless it
        # is Conv1; only trainable blocks form weight gradients
        assert called == [(nl.name, nl is not m.layers[lowest] or lowest == 0, nl.trainable)
                          for nl in reversed(m.layers[lowest:])], fid
        for nl in m.layers[:lowest]:
            assert nl.block.grads == {}, (fid, nl.name)
        grads = m.grad_dict(trainable_only=True)
        assert set(grads) == set(m.param_dict(trainable_only=True))
        for key, value in grads.items():
            assert value.tobytes() == want[key].tobytes(), (fid, key)
        if m.layers[0].trainable:
            assert gx.tobytes() == full_gx.tobytes(), fid
        else:
            assert gx is None, fid
            assert returned[m.layers[lowest].name] is None, fid


def test_backward_needs_training_forward():
    x = np.random.default_rng(18).uniform(0, 1, (20, 81))
    m = build_model("tcn_v1", seed=19)
    with pytest.raises(ConfigError):
        m.backward(np.ones(20))
    m.forward(x, training=True, rng=np.random.default_rng(0))
    m.forward(x)  # the training caches left behind must not be reused
    with pytest.raises(ConfigError):
        m.backward(np.ones(20))
    m.forward(x, training=True, rng=np.random.default_rng(0))
    assert m.backward(np.ones(20)).shape == (20, 81, 1)


@pytest.mark.parametrize("variant", VARIANTS)
def test_frozen_prefix_runs_cache_free_with_the_same_draws(variant):
    # one time block; several in Conv2; several in every conv stage
    for frames in (48, 500, 1000):
        _check_frozen_prefix_draws(variant, frames)


def _check_frozen_prefix_draws(variant, frames):
    x = np.random.default_rng(60).normal(0.0, 2.0, (frames, 81))
    full = build_model(variant, seed=61, dropout_rate=0.3)
    full_rng = np.random.default_rng(62)
    want = full.forward(x, training=True, rng=full_rng)
    after_full = full_rng.random()
    for fid in ("ft_Conv1", "ft_Conv3", "ft_Tcn16", "ft_Tcn1024", "ft_Tcn4-Tcn64"):
        m = apply_freeze(clone_model(full), FreezeConfig.from_id(fid))
        lowest = m.lowest_trainable
        fresh = _layer_state(m)
        rng = np.random.default_rng(62)
        got = m.forward(x, training=True, rng=rng)
        assert got.tobytes() == want.tobytes(), (fid, frames)
        assert rng.random() == after_full, (fid, frames)  # every mask drawn, none extra
        # train's step, from the item's training prefix: past a frozen
        # Conv1, its pad + conv + ELU output
        prefix = m.prefix(x, training=True)
        assert (prefix.start, prefix.activated) == (0, lowest > 0), fid
        assert not prefix.x.flags.writeable, fid
        rng = np.random.default_rng(62)
        got = m.forward(prefix, training=True, rng=rng)
        assert got.tobytes() == want.tobytes(), (fid, frames)
        assert rng.random() == after_full, (fid, frames)
        after = _layer_state(m)
        for key, attrs in fresh.items():
            name = key if isinstance(key, str) else key[0]
            if LAYER_NAMES.index(name) < lowest:  # no attribute added or replaced
                assert after[key].keys() == attrs.keys(), (fid, key)
                assert all(after[key][a] is v for a, v in attrs.items()), (fid, key)
        for nl in m.layers[lowest:]:  # the rest keep what backward reads, and only that
            if isinstance(nl.block, ConvStage):
                cache = {"_d", "_mask", "_arg"} if nl.block.pool else {"_d", "_mask"}
            else:
                cache = {"_d", "_mask"} if isinstance(nl.block, TcnLevel) else {"_y"}
            assert after[nl.name].keys() - fresh[nl.name].keys() == cache, (fid, nl.name)


@pytest.mark.parametrize("variant", VARIANTS)
def test_training_forwards_reuse_the_conv_stage_caches(variant):
    # at 400 frames Conv2's patch matrix fills in spans, and Conv1's and
    # Conv3's in one; every conv stage keeps its arrays across steps, and
    # the gradients are those of a model whose caches are dropped first
    frames = 400
    xs = np.random.default_rng(80).normal(0.0, 2.0, (3, frames, 81))
    gs = np.random.default_rng(81).standard_normal((3, frames))
    m = build_model(variant, seed=82)
    fresh = clone_model(m)
    rng, fresh_rng = np.random.default_rng(83), np.random.default_rng(83)
    kept = None
    for x, g in zip(xs, gs):
        m.forward(x, training=True, rng=rng)
        m.backward(g)
        fresh.drop_caches()
        fresh.forward(x, training=True, rng=fresh_rng)
        fresh.backward(g)
        stages = [nl.block for nl in m.layers[:3]]
        assert stages[1].conv._x_col.nbytes > WHOLE_PATCH_BYTES
        buffers = [a for st in stages
                   for a in [st.conv._x_col, st._d, st._mask] + ([st._arg] if st.pool else [])]
        if kept is not None:
            assert all(a is b for a, b in zip(buffers, kept, strict=True))
        kept = buffers
        want = fresh.grad_dict()
        for key, value in m.grad_dict().items():
            assert value.tobytes() == want[key].tobytes(), key


@pytest.mark.parametrize("variant", VARIANTS)
def test_training_caches_hold_only_what_backward_reads(variant):
    # at 400 frames Conv2 runs in spans: a pooling stage keeps ELU's
    # derivative and the survivors at its pool winners alone, and every
    # dilated conv keeps its input, not the tap matrix
    frames = 400
    x = np.random.default_rng(86).normal(0.0, 2.0, (frames, 81))
    m = build_model(variant, seed=87)
    m.forward(x, training=True, rng=np.random.default_rng(88))
    stages = [nl.block for nl in m.layers[:3]]
    assert stages[1].conv._x_col.nbytes > WHOLE_PATCH_BYTES
    for nl, st in zip(m.layers, stages):
        if st.pool:
            assert st._d.shape == st._mask.shape == st._arg.shape, nl.name
            assert st._arg.shape[1] == (st.conv._in_shape[1] - st.conv.kf + 1) // 3, nl.name
    for nl in m.layers[3:-1]:
        convs = [p for p in nl.block.parts.values() if isinstance(p, DilatedConv1d)]
        assert len(convs) == (2 if variant == "tcn_v2" else 1), nl.name
        for conv in convs:
            held = {k: v.shape for k, v in vars(conv).items() if isinstance(v, np.ndarray)}
            assert held == {"_x": (frames, conv.cin)}, nl.name


@pytest.mark.parametrize("variant", VARIANTS)
def test_backward_refuses_blocks_the_forward_kept_no_caches_for(variant):
    x = np.random.default_rng(63).uniform(0, 1, (30, 81))
    g = np.random.default_rng(64).standard_normal(30)
    m = apply_freeze(build_model(variant, seed=65), FreezeConfig.from_id("ft_Tcn16"))
    lowest = m.lowest_trainable
    assert lowest == LAYER_NAMES.index("Tcn32")
    m.forward(x, training=True, rng=np.random.default_rng(0))  # cache-free below Tcn32
    assert m.backward(g) is None
    for fid in ("ft_Tcn8", "ft_Tcn4-Tcn64", "ft"):
        apply_freeze(m, FreezeConfig.from_id(fid))  # unfreezes a cache-free block
        with pytest.raises(ConfigError, match="no caches"):
            m.backward(g)
    # the same after a forward from a training prefix past the frozen Conv1
    apply_freeze(m, FreezeConfig.from_id("ft_Tcn16"))
    m.forward(m.prefix(x, training=True), training=True, rng=np.random.default_rng(0))
    assert m.backward(g) is None
    for fid in ("ft_Conv1", "ft"):
        apply_freeze(m, FreezeConfig.from_id(fid))
        with pytest.raises(ConfigError, match="no caches"):
            m.backward(g)


@pytest.mark.parametrize("variant", VARIANTS)
def test_forward_from_a_boundary_is_the_full_forward(variant):
    x = np.random.default_rng(66).normal(0.0, 2.0, (300, 81))
    base = build_model(variant, seed=67)
    for fid in canonical_freeze_ids():
        # an adapted model: the blocks from its lowest trainable one up
        # differ from the base
        adapted = apply_freeze(clone_model(base), FreezeConfig.from_id(fid))
        start = adapted.lowest_trainable
        for key, value in adapted.param_dict().items():
            if LAYER_NAMES.index(key.split(".")[0]) >= start:
                value += 0.01
        boundary = base.prefix(x, upto=start)
        assert (boundary.start, boundary.activated) == (start, False), fid
        assert not boundary.x.flags.writeable, fid
        own = adapted.prefix(x)  # upto defaults to the lowest trainable block
        assert own.start == start and own.x.tobytes() == boundary.x.tobytes(), fid
        want = adapted.forward(x)
        assert adapted.forward(boundary).tobytes() == want.tobytes(), fid
        assert base.forward(boundary).tobytes() == base.forward(x).tobytes(), fid


@pytest.mark.parametrize("variant", VARIANTS)
def test_forward_refuses_a_prefix_of_the_other_mode(variant):
    x = np.random.default_rng(68).uniform(0, 1, (30, 81))
    m = apply_freeze(build_model(variant, seed=69), FreezeConfig.from_id("ft_Tcn16"))
    # Conv1's activation before dropout serves only a training forward, and
    # an activation above Conv1 only an inference forward: neither gives the
    # floats or the draws of the whole forward in the other mode
    for prefix, training in ((m.prefix(x, training=True), False), (m.prefix(x), True)):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError, match="prefix"):
            m.forward(prefix, training=training, rng=rng)
        assert rng.random() == np.random.default_rng(0).random()  # nothing drawn
    # a prefix from Conv1 (upto=0) serves both
    for prefix in (m.prefix(x, upto=0), m.prefix(x, training=True, upto=0)):
        assert prefix.start == 0 and not prefix.activated
        assert m.forward(prefix).tobytes() == m.forward(x).tobytes()
        got = m.forward(prefix, training=True, rng=np.random.default_rng(1))
        assert got.tobytes() == m.forward(x, training=True, rng=np.random.default_rng(1)).tobytes()


@pytest.mark.parametrize("variant", VARIANTS)
def test_frozen_blocks_above_a_trainable_one_form_no_weight_gradients(variant):
    x = np.random.default_rng(23).uniform(0, 1, (64, 81))
    g = np.random.default_rng(24).standard_normal(64)
    full = build_model(variant, seed=25)
    full.forward(x, training=True, rng=np.random.default_rng(26))
    full_gx = full.backward(g)
    want = full.grad_dict()
    for fid in ("ft_Tcn4-Tcn64", "ft_Conv2-Conv3", "ft_Conv3-Tcn1", "ft_Tcn1024"):
        m = clone_model(full)
        apply_freeze(m, FreezeConfig.from_id(fid))
        frozen = [nl for nl in m.layers if not nl.trainable]
        # every frozen weight holds a gradient of its own that must survive
        for nl in frozen:
            for part in vars(nl.block).values():
                if isinstance(part, Layer):
                    for k, v in part.params.items():
                        part.grads[k] = np.full(v.shape, 7.0)
        held = {k: (v, v.tobytes()) for k, v in m.grad_dict().items()}
        m.forward(x, training=True, rng=np.random.default_rng(26))
        gx = m.backward(g)
        grads = m.grad_dict()
        for nl in m.layers:
            for k in nl.block.params:
                key = f"{nl.name}.{k}"
                if nl.trainable:
                    assert grads[key].tobytes() == want[key].tobytes(), (fid, key)
                else:
                    assert grads[key] is held[key][0], (fid, key)
                    assert grads[key].tobytes() == held[key][1], (fid, key)
        if m.layers[0].trainable:
            assert gx.tobytes() == full_gx.tobytes(), fid


@pytest.mark.parametrize("variant", VARIANTS)
def test_inference_matches_dropout_free_training_forward(variant):
    m = build_model(variant, seed=20)
    twin = clone_model(m, dropout_rate=0.0)
    neg_share = {}
    for nl in twin.layers[:3]:
        def conv_forward(x, *, inner=nl.block.conv.forward, name=nl.name, **kwargs):
            y = inner(x, **kwargs)
            neg_share[name] = float((y < 0).mean())
            return y
        nl.block.conv.forward = conv_forward
    for frames in (7, 300):
        # centred features drive about half of every conv stage's outputs
        # below zero, so the pool-before-ELU order is exercised
        x = np.random.default_rng(frames).normal(0.0, 2.0, (frames, 81))
        neg_share.clear()
        want = twin.forward(x, training=True, rng=np.random.default_rng(0))
        assert set(neg_share) == {"Conv1", "Conv2", "Conv3"}
        for name, share in neg_share.items():
            assert 0.1 < share < 0.9, (frames, name)
        assert m.forward(x).tobytes() == want.tobytes(), frames


def _whole_length_stage(stage, x):
    """The inference conv stage as one call over the whole length."""
    p = stage.pad_t
    y = stage.conv.forward(np.pad(x, ((p, p), (0, 0), (0, 0))))
    y = pool_freq3(y)[0] if stage.pool else y
    return elu(y, out=y)[0]


B = BLOCK_FRAMES
BLOCK_PROBE_FRAMES = (1, 2, 7, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 500, 3000, 3001, 6007)


@pytest.mark.parametrize("variant", VARIANTS)
def test_blocked_conv_stages_match_the_whole_length_stage(variant):
    m = build_model(variant, seed=23)
    rng = np.random.default_rng(24)
    for frames in BLOCK_PROBE_FRAMES:
        bands = N_BANDS
        for nl in m.layers[:3]:
            stage = nl.block
            # centred inputs put about half the conv outputs below zero
            x = rng.normal(0.0, 1.0, (frames, bands, stage.conv.cin))
            want = _whole_length_stage(stage, x)
            got = stage.forward(x)
            assert got.tobytes() == want.tobytes(), (nl.name, frames)
            bands = stage.out_bands(bands)


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).data).hexdigest()


@pytest.mark.parametrize("variant", VARIANTS)
def test_context_fed_training_conv_matches_the_padded_conv(variant):
    # a stage's conv fed block by block with only the rows each block reads
    # keeps the patch matrix, input shape and gradients of a training conv
    # of the whole zero-padded input (compared by digest, so that the two
    # patch matrices never live at once)
    m = build_model(variant, seed=27)
    rng = np.random.default_rng(28)
    for frames in BLOCK_PROBE_FRAMES:
        bands = N_BANDS
        for nl in m.layers[:3]:
            stage, p = nl.block, nl.block.pad_t
            x = rng.normal(0.0, 1.0, (frames, bands, stage.conv.cin))
            gy = rng.normal(0.0, 1.0, (frames, bands - stage.conv.kf + 1, stage.conv.cout))
            spans = stage._spans(*gy.shape[:2])
            padded = Conv2d(stage.conv.kt, stage.conv.kf, stage.conv.cin, stage.conv.cout)
            padded.params = stage.conv.params
            y = padded.forward(np.pad(x, ((p, p), (0, 0), (0, 0))), keep=True)
            gx = padded.backward(gy, spans=spans)
            want = [_digest(a) for a in (y, padded._x_col, gx, *padded.grads.values())]
            want_shape = padded._in_shape
            del padded, y, gx
            y = hashlib.sha256()  # the output's bytes, block after block
            for s, e in spans:
                y.update(stage._conv(x, s, e, keep=True))
            gx = stage.conv.backward(gy, spans=spans)
            got = [y.hexdigest()] + [_digest(a) for a in (stage.conv._x_col, gx,
                                                          *stage.conv.grads.values())]
            assert got == want, (nl.name, frames)
            assert stage.conv._in_shape == want_shape, (nl.name, frames)
            m.drop_caches()
            bands = stage.out_bands(bands)


@pytest.mark.parametrize("variant", VARIANTS)
def test_blocked_inference_forward_matches_the_whole_length_forward(variant):
    m = build_model(variant, seed=25)
    for frames in (500, 3000):
        x = np.random.default_rng(frames).normal(0.0, 2.0, (frames, N_BANDS))
        h = x[:, :, None]
        for nl in m.layers[:3]:
            h = _whole_length_stage(nl.block, h)
        for nl in m.layers[3:]:
            h = nl.block.forward(h)
        assert m.forward(x).tobytes() == h.tobytes(), frames


def _layer_state(model):
    """Every attribute of every block and of the layers inside it."""
    state = {}
    for nl in model.layers:
        state[nl.name] = dict(vars(nl.block))
        for attr, part in vars(nl.block).items():
            if isinstance(part, Layer):
                state[nl.name, attr] = dict(vars(part))
                state[nl.name, attr, "params"] = dict(part.params)
                state[nl.name, attr, "grads"] = dict(part.grads)
    return state


@pytest.mark.parametrize("variant", VARIANTS)
def test_inference_forward_writes_no_layer_state(variant):
    x = np.random.default_rng(21).normal(0.0, 1.0, (40, 81))
    m = build_model(variant, seed=22)
    for trained in (False, True):
        if trained:
            train(m, [(x, np.zeros(40))], epochs=1)
        before = _layer_state(m)
        m.forward(x)
        after = _layer_state(m)
        assert after.keys() == before.keys(), trained
        for key, attrs in before.items():
            assert attrs.keys() == after[key].keys(), (trained, key)
            for attr, value in attrs.items():
                assert after[key][attr] is value, (trained, key, attr)


def test_save_load_roundtrip(tmp_path):
    x = np.random.default_rng(10).uniform(0, 1, (30, 81))
    for variant in ("tcn_v1", "tcn_v2"):
        m = build_model(variant, seed=11)
        p = tmp_path / f"{variant}.model"
        save_model(m, p)
        back = load_model(p)
        assert back.variant == variant
        assert back.seed == 11
        assert np.array_equal(back.forward(x), m.forward(x))
        for k, v in m.param_dict().items():
            assert v.dtype == np.float32
            assert np.array_equal(back.param_dict()[k], v)


def test_load_errors(tmp_path):
    m = build_model("tcn_v1", seed=0)
    p = tmp_path / "m.model"
    save_model(m, p)
    raw = p.read_bytes()

    trunc = tmp_path / "trunc.model"
    trunc.write_bytes(raw[:-4])
    with pytest.raises(ModelFormatError):
        load_model(trunc)

    # header claims the other variant but carries this blob
    swapped = tmp_path / "swapped.model"
    swapped.write_bytes(raw.replace(b"variant tcn_v1", b"variant tcn_v2", 1))
    with pytest.raises(ModelFormatError):
        load_model(swapped)

    vers = tmp_path / "vers.model"
    vers.write_bytes(raw.replace(b"onsetkit-model 1", b"onsetkit-model 9", 1))
    with pytest.raises(ModelFormatError):
        load_model(vers)

    for old, new in [(b"variant tcn_v1\n", b""), (b"seed 0\n", b""),
                     (b"dropout 0.1\n", b""), (b"onsetkit-model 1", b"onsetkit-model x"),
                     (b"seed 0", b"seed zero"), (b"dropout 0.1", b"dropout lots"),
                     (b"variant tcn_v1", b"variant tcn_v9"), (b"seed 0\n", b"seed\n"),
                     (b"seed 0\n", b"seed -1\n"), (b"dropout 0.1", b"dropout nan"),
                     (b"dropout 0.1", b"dropout 2.0"), (b"dropout 0.1", b"dropout -0.5")]:
        broken = tmp_path / "broken.model"
        broken.write_bytes(raw.replace(old, new, 1))
        with pytest.raises(ModelFormatError):
            load_model(broken)

    junk = tmp_path / "junk.model"
    junk.write_bytes(b"not a model at all\n")
    with pytest.raises(ModelFormatError):
        load_model(junk)


@pytest.mark.parametrize("variant", VARIANTS)
def test_save_load_save_is_byte_identical(variant, tmp_path):
    p = tmp_path / "m.model"
    for seed in (0, 5, 123):
        for rate in (0.0, 0.1, 0.25, 1 / 3):
            save_model(build_model(variant, seed, dropout_rate=rate), p)
            raw = p.read_bytes()
            save_model(load_model(p), p)
            assert p.read_bytes() == raw, (seed, rate)


@pytest.mark.parametrize("variant", VARIANTS)
def test_numpy_scalar_seed_and_rate_round_trip(variant, tmp_path):
    # a sweep over np.linspace rates hands build_model numpy scalars
    plain, p = tmp_path / "plain.model", tmp_path / "np.model"
    for rate in np.linspace(0.0, 0.3, 4)[1:]:
        save_model(build_model(variant, 7, dropout_rate=float(rate)), plain)
        save_model(build_model(variant, np.int64(7), dropout_rate=rate), p)
        save_model(load_model(p), p)
        assert p.read_bytes() == plain.read_bytes(), rate


@pytest.mark.parametrize("variant", VARIANTS)
def test_benchmark_base_models_resave_identically(variant, tmp_path):
    committed = Path(__file__).resolve().parents[1] / "perfbench" / "models" / f"{variant}.model"
    p = tmp_path / "m.model"
    save_model(load_model(committed), p)
    assert p.read_bytes() == committed.read_bytes()


@pytest.mark.parametrize("old, new", [
    (b"variant tcn_v1\nseed 7\n", b"seed 7\nvariant tcn_v1\n"),
    (b"seed 7\n", b"seed 7\nseed 7\n"),
    (b"dropout 0.1\n", b"dropout 0.1\nnote x\n"),
    (b"seed 7\n", b"seed 07\n"),
    (b"dropout 0.1\n", b"dropout 1e-1\n"),
    (b"\n", b"\r\n"),
], ids=["reordered", "repeated", "unknown-line", "seed-spelling", "dropout-spelling", "crlf"])
def test_headers_save_model_never_writes_are_rejected(old, new, tmp_path):
    p = tmp_path / "m.model"
    save_model(build_model("tcn_v1", seed=7), p)
    raw = p.read_bytes()
    end = raw.index(b"\n", raw.index(b"\nblob ") + 1) + 1
    p.write_bytes(raw[:end].replace(old, new) + raw[end:])
    with pytest.raises(ModelFormatError):
        load_model(p)


def test_clone_is_independent():
    m = build_model("tcn_v1", seed=12)
    c = clone_model(m)
    x = np.random.default_rng(13).uniform(0, 1, (20, 81))
    assert np.array_equal(c.forward(x), m.forward(x))
    m.param_dict()["Out.dense.b"][...] = 5.0
    assert not np.array_equal(c.forward(x), m.forward(x))


# sha256 of save_model(build_model(variant, 0)): parameter names, their
# order (each block's parts order, not its attribute order), glorot draws
# and the header, all at once
MODEL_FILE_SHA256 = {
    "tcn_v1": "a2da9f7c6bc1d57ffcae48216d548dedf1da2573ee9c8757febc1ab7bf760ecf",
    "tcn_v2": "cb860f6a2baefb64fad07937459e0304cce323f30debd61299b60599ed0289c6",
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_model_file_bytes_are_pinned(variant, tmp_path):
    p = tmp_path / "m.model"
    save_model(build_model(variant, 0), p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == MODEL_FILE_SHA256[variant]


def _shadow_blocks(model, calls):
    """Shadow every block's forward/backward with instance attributes that
    log the call, the way an outside tracer hooks a built model."""
    for nl in model.layers:
        def hook(kind, inner, name=nl.name):
            def call(*args, **kwargs):
                calls.append((kind, name))
                return inner(*args, **kwargs)
            return call
        nl.block.forward = hook("fwd", nl.block.forward)
        nl.block.backward = hook("bwd", nl.block.backward)


@pytest.mark.parametrize("variant", VARIANTS)
def test_block_hooks_see_every_call(variant):
    x = np.random.default_rng(70).uniform(0, 1, (40, 81))
    m = build_model(variant, seed=71)
    calls = []
    _shadow_blocks(m, calls)
    m.forward(x)
    assert calls == [("fwd", name) for name in LAYER_NAMES]
    calls.clear()
    apply_freeze(m, FreezeConfig.from_id("ft_Tcn16"))
    act = m.forward(x, training=True, rng=np.random.default_rng(72))
    assert m.backward(np.ones_like(act), input_grad=False) is None
    lowest = LAYER_NAMES.index("Tcn32")
    assert calls == ([("fwd", name) for name in LAYER_NAMES]
                     + [("bwd", name) for name in reversed(LAYER_NAMES[lowest:])])


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_training_forward_without_an_rng_is_refused_before_any_block_runs(variant):
    # the refusal comes from Model.forward, not from Conv1's dropout after its conv ran
    x = np.random.default_rng(73).uniform(0, 1, (40, 81))
    m = build_model(variant, seed=74, dropout_rate=0.1)
    calls = []
    _shadow_blocks(m, calls)
    with pytest.raises(ConfigError, match="needs an rng"):
        m.forward(x, training=True)
    assert calls == []
    with pytest.raises(ConfigError, match="training-mode forward first"):
        m.backward(np.ones(40))
    assert calls == []


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_keeping_block_forward_without_an_rng_draws_no_dropout(variant):
    # keep without an rng is a dropout-free training forward at any rate:
    # every block gives the outputs and gradients of its rate-0 twin's
    m = build_model(variant, seed=76, dropout_rate=0.1)
    twin = clone_model(m, dropout_rate=0.0)
    x = np.random.default_rng(75).uniform(0, 1, (40, 81, 1))
    for nl, tl in zip(m.layers, twin.layers):
        y = nl.block.forward(x, keep=True)
        assert y.tobytes() == tl.block.forward(x, keep=True).tobytes(), nl.name
        gy = np.random.default_rng(77).standard_normal(y.shape)
        gx, want = nl.block.backward(gy), tl.block.backward(gy)
        assert gx.tobytes() == want.tobytes(), nl.name
        for k, v in tl.block.grads.items():
            assert nl.block.grads[k].tobytes() == v.tobytes(), (nl.name, k)
        x = y


_V1_SHAPES = [(k, v.shape) for k, v in build_model("tcn_v1", seed=0).param_dict().items()]
_V1_SIZE = sum(int(np.prod(shape)) for _, shape in _V1_SHAPES)
header_values = st.one_of(
    st.sampled_from(["tcn_v1", "tcn_v2", "-1", "0", "3", "0.5", "1.0", "nan", "1e999", "x"]),
    st.text(max_size=6),
)


@st.composite
def model_files(draw):
    """Model files, mostly well-formed, with a few header lines dropped,
    repeated or given other values, and the blob size off by a little."""
    lines = ["onsetkit-model 1", "variant tcn_v1", "seed 3", "dropout 0.1"]
    lines += [f"tensor {name} {' '.join(map(str, shape))}" for name, shape in _V1_SHAPES]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "repeat", "value", "dimension"]))
        if edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif edit == "value":
            lines[i] = lines[i].split(" ")[0] + " " + draw(header_values)
        else:
            lines[i] += " " + draw(header_values)
        if not lines:
            break
    declared = draw(st.sampled_from([str(_V1_SIZE)] * 3 + [str(_V1_SIZE + 1), "0", "-4", "x"]))
    lines.append(f"blob {declared}")
    blob = bytes(4 * _V1_SIZE + draw(st.sampled_from([0, 0, 0, 4, -4, -1])))
    data = ("\n".join(lines) + "\n").encode("utf-8", "surrogatepass") + blob
    return data[: draw(st.integers(0, len(data)))] if draw(st.booleans()) else data


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("property")


@settings(max_examples=200, deadline=None)
@given(data=st.one_of(st.binary(max_size=80), model_files()))
def test_load_model_returns_or_raises_typed_error(scratch, data):
    p = scratch / "any.model"
    p.write_bytes(data)
    try:
        model = load_model(p)
    except OnsetKitError:
        return
    assert isinstance(model, Model) and model.variant in VARIANTS
