import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from emr.errors import DimensionMismatch, InvalidMask, InvalidParams
from emr.layering import (
    GmmParams,
    _dilate,
    _erode,
    layer_init,
    layer_update_classify,
    mask_postprocess,
)
from emr.raster import Frame


def gray_frame(values, index=0):
    return Frame.from_array(np.asarray(values, dtype=np.uint8), index=index)


def brute_force_opening(mask):
    """Independent 3x3 opening: plain nested loops, zero-padded erosion."""
    h, w = mask.shape
    eroded = np.zeros_like(mask, dtype=bool)
    for y in range(h):
        for x in range(w):
            ok = True
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    yy, xx = y + dy, x + dx
                    if not (0 <= yy < h and 0 <= xx < w) or not mask[yy, xx]:
                        ok = False
            eroded[y, x] = ok
    dilated = np.zeros_like(mask, dtype=bool)
    for y in range(h):
        for x in range(w):
            hit = False
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < h and 0 <= xx < w and eroded[yy, xx]:
                        hit = True
            dilated[y, x] = hit
    return dilated


def brute_force_window(mask, radius, erode, pad_mode):
    """Square-window AND (erode) or OR (dilate) by plain loops.

    Outside the mask a window reads the nearest pixel ("edge") or False
    ("constant").
    """
    h, w = mask.shape
    out = np.zeros_like(mask, dtype=bool)
    for y in range(h):
        for x in range(w):
            acc = erode
            for yy in range(y - radius, y + radius + 1):
                for xx in range(x - radius, x + radius + 1):
                    if pad_mode == "edge":
                        v = mask[min(max(yy, 0), h - 1), min(max(xx, 0), w - 1)]
                    else:
                        v = 0 <= yy < h and 0 <= xx < w and mask[yy, xx]
                    acc = (acc and v) if erode else (acc or v)
            out[y, x] = acc
    return out


class TestMorphology:
    @given(
        arrays(np.bool_, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12)),
        st.integers(0, 4),
        st.sampled_from(["edge", "constant"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_separable_matches_square_window(self, mask, radius, pad_mode):
        assert np.array_equal(
            _erode(mask, radius, pad_mode), brute_force_window(mask, radius, True, pad_mode)
        )
        assert np.array_equal(
            _dilate(mask, radius, pad_mode), brute_force_window(mask, radius, False, pad_mode)
        )


class TestParams:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(k=0),
            dict(lam=0.0),
            dict(alpha_lr=1.5),
            dict(alpha_lr=-0.1),
            dict(t_bg=0.0),
            dict(t_bg=1.1),
            dict(var_min=0.0),
            dict(var_init=1.0, var_min=4.0),
        ],
    )
    def test_invalid_params_rejected(self, kw):
        with pytest.raises(InvalidParams):
            GmmParams(**kw)


class TestInitAndClassify:
    def test_init_then_classify_same_frame_is_all_background(self):
        f = gray_frame(np.full((8, 8), 100))
        model = layer_init(f)
        mask, _ = layer_update_classify(model, f)
        assert np.count_nonzero(mask.to_array()) == 0

    def test_init_state(self):
        f = gray_frame([[50, 60]])
        model = layer_init(f, GmmParams(var_init=225.0))
        pg = model.pixel(1, 0)
        assert len(pg.components) == 1
        assert pg.components[0].weight == 1.0
        assert pg.components[0].mean == (60.0,)
        assert pg.components[0].variance == 225.0

    def test_shifted_pixel_is_sole_foreground(self):
        # shift of 100 exceeds lam * sqrt(var_init) = 2.5 * 15 = 37.5
        base = np.full((6, 6), 100, dtype=np.uint8)
        model = layer_init(gray_frame(base), GmmParams(lam=2.5, var_init=225.0))
        shifted = base.copy()
        shifted[2, 3] = 200
        mask, _ = layer_update_classify(model, gray_frame(shifted))
        arr = mask.to_array()[:, :, 0]
        assert arr[2, 3] == 255
        assert np.count_nonzero(arr) == 1

    def test_dimension_mismatch(self):
        model = layer_init(gray_frame(np.zeros((4, 4))))
        with pytest.raises(DimensionMismatch):
            layer_update_classify(model, gray_frame(np.zeros((4, 5))))


class TestUpdateRules:
    def test_matched_update_hand_computed(self):
        prm = GmmParams(alpha_lr=0.02, var_init=225.0, var_min=4.0)
        model = layer_init(gray_frame([[50]]), prm)
        mask, updated = layer_update_classify(model, gray_frame([[50]]))
        comp = updated.pixel(0, 0).components[0]
        assert comp.weight == pytest.approx(1.0, abs=1e-12)
        assert comp.mean[0] == pytest.approx(50.0, abs=1e-12)
        # (1-a)*225 + a*0 = 220.5: decays toward the floor
        assert comp.variance == pytest.approx(220.5, abs=1e-12)
        assert mask.to_array()[0, 0, 0] == 0

    def test_no_match_appends_component(self):
        prm = GmmParams(k=3, lam=2.5, alpha_lr=0.02, var_init=225.0)
        model = layer_init(gray_frame([[50]]), prm)
        # 150 away: no match (150 > 37.5)
        mask, updated = layer_update_classify(model, gray_frame([[200]]))
        comps = updated.pixel(0, 0).components
        assert len(comps) == 2
        assert comps[0].weight == pytest.approx(1.0 / 1.02)
        assert comps[1].weight == pytest.approx(0.02 / 1.02)
        assert comps[1].mean == (200.0,)
        assert comps[1].variance == 225.0
        assert mask.to_array()[0, 0, 0] == 255

    def test_no_match_replaces_lowest_weight_at_capacity(self):
        prm = GmmParams(k=1, lam=2.5, alpha_lr=0.5, var_init=100.0)
        model = layer_init(gray_frame([[50]]), prm)
        _, updated = layer_update_classify(model, gray_frame([[200]]))
        comps = updated.pixel(0, 0).components
        assert len(comps) == 1
        assert comps[0].mean == (200.0,)
        assert comps[0].weight == 1.0  # renormalized single component

    def test_zero_learning_rate_is_pure_classifier(self):
        prm = GmmParams(alpha_lr=0.0)
        base = np.full((4, 4), 100, dtype=np.uint8)
        model = layer_init(gray_frame(base), prm)
        moved = base.copy()
        moved[0, 0] = 255
        mask, updated = layer_update_classify(model, gray_frame(moved))
        assert updated.equals(model)
        assert mask.to_array()[0, 0, 0] == 255
        assert np.count_nonzero(mask.to_array()) == 1

    def test_weights_normalized_and_variance_floored(self):
        rng = np.random.RandomState(3)
        model = layer_init(gray_frame(rng.randint(0, 256, (8, 8))), GmmParams(var_min=4.0))
        for _ in range(20):
            frame = gray_frame(rng.randint(0, 256, (8, 8)))
            _, model = layer_update_classify(model, frame)
            assert np.allclose(model._w.sum(axis=1), 1.0, atol=1e-9)
            active = np.arange(model._w.shape[1])[None, :] < model._n[:, None]
            assert np.all(model._var[active] >= 4.0)

    def test_stationary_input_never_regrows_foreground(self):
        rng = np.random.RandomState(1)
        frame = gray_frame(rng.randint(0, 256, (16, 16)))
        model = layer_init(frame)
        counts = []
        for _ in range(10):
            mask, model = layer_update_classify(model, frame)
            counts.append(int(np.count_nonzero(mask.to_array())))
        assert all(a >= b for a, b in zip(counts[1:], counts[2:]))


class TestMaskPostprocess:
    def mask_frame(self, arr):
        return Frame.from_array(np.where(arr, 255, 0).astype(np.uint8))

    def test_all_zero_stays_zero(self):
        out = mask_postprocess(self.mask_frame(np.zeros((8, 8), dtype=bool)))
        assert np.count_nonzero(out.to_array()) == 0

    def test_isolated_pixel_removed(self):
        m = np.zeros((8, 8), dtype=bool)
        m[4, 4] = True
        out = mask_postprocess(self.mask_frame(m))
        assert np.count_nonzero(out.to_array()) == 0

    def test_solid_square_preserved(self):
        m = np.zeros((32, 32), dtype=bool)
        m[10:18, 10:18] = True
        out = mask_postprocess(self.mask_frame(m))
        assert np.array_equal(out.to_array()[:, :, 0] == 255, m)

    def test_matches_brute_force_on_random_masks(self):
        rng = np.random.RandomState(7)
        for _ in range(10):
            m = rng.rand(12, 12) < 0.4
            out = mask_postprocess(self.mask_frame(m)).to_array()[:, :, 0] == 255
            assert np.array_equal(out, brute_force_opening(m))

    def test_non_binary_rejected(self):
        f = Frame.from_array(np.array([[3]], dtype=np.uint8))
        with pytest.raises(InvalidMask):
            mask_postprocess(f)

    def test_multichannel_rejected(self):
        f = Frame.from_array(np.zeros((2, 2, 3), dtype=np.uint8))
        with pytest.raises(InvalidMask):
            mask_postprocess(f)


class TestColorFrames:
    def test_three_channel_matching(self):
        base = np.full((4, 4, 3), (10, 20, 30), dtype=np.uint8)
        model = layer_init(Frame.from_array(base))
        moved = base.copy()
        moved[1, 1] = (10, 20, 130)  # one channel far out -> no match
        mask, _ = layer_update_classify(model, Frame.from_array(moved))
        arr = mask.to_array()[:, :, 0]
        assert arr[1, 1] == 255
        assert np.count_nonzero(arr) == 1
