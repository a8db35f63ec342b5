import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from emr.errors import DimensionMismatch
from emr.layering import (
    GmmParams,
    LayerModel,
    _window_any,
    layer_init,
    layer_update_classify,
    mask_postprocess,
)
from emr.raster import Frame


def copy_model(model):
    """A model holding copies of another's state arrays."""
    return LayerModel(
        model.width, model.height, model.channels, model.params,
        model._w.copy(), model._mu.copy(), model._var.copy(), model._n.copy(),
    )


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
        # the clipped window is the dilation under either padding, and its
        # complement on the complement the erosion under edge replication
        assert np.array_equal(
            _window_any(mask, radius), brute_force_window(mask, radius, False, pad_mode)
        )
        assert np.array_equal(
            ~_window_any(~mask, radius), brute_force_window(mask, radius, True, "edge")
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
            dict(lam=float("nan")),
            dict(var_min=float("nan")),
            dict(var_init=float("nan")),
        ],
    )
    def test_invalid_params_rejected(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):  # the message names the field
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
        p = 1  # column 1, row 0
        assert model._n[p] == 1
        assert model._w[0, p] == 1.0
        assert model._mu[0, :, p].tolist() == [60.0]
        assert model._var[0, p] == 225.0

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
        assert updated._n[0] == 1
        assert updated._w[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert updated._mu[0, 0, 0] == pytest.approx(50.0, abs=1e-12)
        # (1-a)*225 + a*0 = 220.5: decays toward the floor
        assert updated._var[0, 0] == pytest.approx(220.5, abs=1e-12)
        assert mask.to_array()[0, 0, 0] == 0

    def test_no_match_appends_component(self):
        prm = GmmParams(k=3, lam=2.5, alpha_lr=0.02, var_init=225.0)
        model = layer_init(gray_frame([[50]]), prm)
        # 150 away: no match (150 > 37.5)
        mask, updated = layer_update_classify(model, gray_frame([[200]]))
        assert updated._n[0] == 2
        assert updated._w[0, 0] == pytest.approx(1.0 / 1.02)
        assert updated._w[1, 0] == pytest.approx(0.02 / 1.02)
        assert updated._mu[1, :, 0].tolist() == [200.0]
        assert updated._var[1, 0] == 225.0
        assert mask.to_array()[0, 0, 0] == 255

    def test_no_match_replaces_lowest_weight_at_capacity(self):
        prm = GmmParams(k=1, lam=2.5, alpha_lr=0.5, var_init=100.0)
        model = layer_init(gray_frame([[50]]), prm)
        _, updated = layer_update_classify(model, gray_frame([[200]]))
        assert updated._n[0] == 1
        assert updated._mu[0, :, 0].tolist() == [200.0]
        assert updated._w[0, 0] == 1.0  # renormalized single component

    def test_zero_learning_rate_is_pure_classifier(self):
        prm = GmmParams(alpha_lr=0.0)
        base = np.full((4, 4), 100, dtype=np.uint8)
        model = layer_init(gray_frame(base), prm)
        before = copy_model(model)
        moved = base.copy()
        moved[0, 0] = 255
        mask, updated = layer_update_classify(model, gray_frame(moved))
        assert updated.shape == before.shape and updated.params == before.params
        for plane in ("_n", "_w", "_mu", "_var"):
            assert np.array_equal(getattr(updated, plane), getattr(before, plane))
        assert mask.to_array()[0, 0, 0] == 255
        assert np.count_nonzero(mask.to_array()) == 1

    def test_update_is_in_place(self):
        rng = np.random.RandomState(5)
        model = layer_init(gray_frame(rng.randint(0, 256, (8, 8))))
        before = copy_model(model)
        planes = (model._w, model._mu, model._var, model._n)
        _, updated = layer_update_classify(model, gray_frame(rng.randint(0, 256, (8, 8))))
        assert updated is model
        assert all(a is b for a, b in zip(planes, (model._w, model._mu, model._var, model._n)))
        assert not np.array_equal(model._mu, before._mu)  # the copy kept the old state

    def test_weights_normalized_and_variance_floored(self):
        rng = np.random.RandomState(3)
        model = layer_init(gray_frame(rng.randint(0, 256, (8, 8))), GmmParams(var_min=4.0))
        for _ in range(20):
            frame = gray_frame(rng.randint(0, 256, (8, 8)))
            _, model = layer_update_classify(model, frame)
            assert np.allclose(model._w.sum(axis=0), 1.0, atol=1e-9)
            active = np.arange(model._w.shape[0])[:, None] < model._n[None, :]
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

    @given(arrays(np.bool_, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12)))
    @example(np.ones((1, 5), dtype=bool))
    @example(np.ones((2, 4), dtype=bool))
    @example(np.ones((3, 3), dtype=bool))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_on_random_masks(self, m):
        # frames one or two pixels across are all border ring
        out = mask_postprocess(self.mask_frame(m)).to_array()[:, :, 0] == 255
        assert np.array_equal(out, brute_force_opening(m))

    def test_non_binary_rejected(self):
        # only the last value is neither 0 nor 255
        f = Frame.from_array(np.array([[0, 255, 254]], dtype=np.uint8))
        with pytest.raises(ValueError, match="mask values"):
            mask_postprocess(f)

    def test_multichannel_rejected(self):
        f = Frame.from_array(np.zeros((2, 2, 3), dtype=np.uint8))
        with pytest.raises(ValueError, match="mask must have a single channel"):
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


def reference_update_classify(prm, state, x):
    """The pixel-major (P, K, C) update the planar model replaced.

    ``state`` is (w (P, K), mu (P, K, C), var (P, K), n (P,)) and ``x`` the
    frame as (P, C) float64; returns the foreground flags and the new state.
    """
    w, mu, var, n = (a.copy() for a in state)
    alpha = prm.alpha_lr
    pcount, k = w.shape
    active = np.arange(k)[None, :] < n[:, None]

    diff = x[:, None, :] - mu
    within = np.abs(diff) <= (prm.lam * np.sqrt(var))[:, :, None]
    matched = active & within.all(axis=2)
    has_match = matched.any(axis=1)

    dist2 = np.where(matched, (diff * diff).sum(axis=2), np.inf)
    best = np.argmin(dist2, axis=1)

    if alpha > 0.0:
        rows = np.where(has_match)[0]
        b = best[rows]
        old_mean = mu[rows, b].copy()
        w[rows] *= 1.0 - alpha
        w[rows, b] += alpha
        mu[rows, b] = (1.0 - alpha) * old_mean + alpha * x[rows]
        dev2 = ((x[rows] - old_mean) ** 2).mean(axis=1)
        var[rows, b] = np.maximum(prm.var_min, (1.0 - alpha) * var[rows, b] + alpha * dev2)

        miss = np.where(~has_match)[0]
        if miss.size:
            room = n[miss] < k
            slot = np.where(room, np.minimum(n[miss], k - 1), np.argmin(w[miss], axis=1))
            w[miss, slot] = alpha
            mu[miss, slot] = x[miss]
            var[miss, slot] = prm.var_init
            n[miss] = np.minimum(n[miss] + room, k)

        w /= w.sum(axis=1, keepdims=True)
        active = np.arange(k)[None, :] < n[:, None]

    rank = np.where(active, w / np.sqrt(var), -np.inf)
    order = np.argsort(-rank, axis=1, kind="stable")
    sorted_w = np.take_along_axis(w, order, axis=1)
    cum_before = np.cumsum(sorted_w, axis=1) - sorted_w
    in_bg_sorted = (cum_before < prm.t_bg) & np.take_along_axis(active, order, axis=1)
    in_bg = np.zeros_like(in_bg_sorted)
    np.put_along_axis(in_bg, order, in_bg_sorted, axis=1)

    foreground = ~(matched & in_bg).any(axis=1)
    return foreground, (w, mu, var, n)


@st.composite
def gmm_cases(draw):
    """Short frame sequences over a few sample levels, so ties and full mixtures occur."""
    k = draw(st.integers(1, 4))
    channels = draw(st.sampled_from([1, 3]))
    alpha_lr = draw(st.sampled_from([0.0, 0.02, 0.25, 0.5, 1.0]))
    var_init = draw(st.sampled_from([4.0, 100.0, 225.0]))
    prm = GmmParams(k=k, lam=draw(st.sampled_from([1.0, 2.5])), alpha_lr=alpha_lr,
                    t_bg=draw(st.sampled_from([0.3, 0.7, 1.0])), var_init=var_init, var_min=4.0)
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    levels = st.sampled_from([0, 10, 60, 200])
    frames = draw(st.lists(
        arrays(np.uint8, (h, w, channels), elements=levels), min_size=2, max_size=6,
    ))
    return prm, frames


def full_size_case():
    """64x64 colour, K = 3, 20 updates with a moving square and sparse outliers.

    The drawn cases stop at 4x4; this one runs the masked steps and scratch
    planes at a real frame size.  Noise rises from none in column 0 to
    sigma 8 in column 63, so variances reach the floor on the left while
    components are added and replaced on the right.
    """
    rng = np.random.RandomState(11)
    base = rng.randint(40, 200, (64, 64, 3))
    sigma = np.linspace(0.0, 8.0, 64)[None, :, None]
    frames = []
    for i in range(21):
        arr = base + sigma * rng.normal(0.0, 1.0, base.shape)
        arr[20:36, 3 * i:3 * i + 16] = (230, 90, 40)
        arr[rng.rand(64, 64) < 0.02] = rng.randint(0, 256, 3)
        frames.append(np.clip(np.rint(arr), 0, 255).astype(np.uint8))
    return GmmParams(k=3, alpha_lr=0.25), frames


class TestPlanarMatchesReference:
    @given(gmm_cases())
    @example(full_size_case())
    # 100 misses 0 and leaves weights (0.5, 0.5); 200 misses both, and the
    # replacement's tie between equal weights goes to slot 0
    @example((GmmParams(k=2, alpha_lr=1.0), [np.full((1, 1, 1), v, np.uint8) for v in (0, 100, 200)]))
    @settings(max_examples=200, deadline=None)
    def test_equal_masks_and_state(self, case):
        prm, frames = case
        model = layer_init(Frame.from_array(frames[0]), prm)
        pcount, c = frames[0].shape[0] * frames[0].shape[1], frames[0].shape[2]
        state = (
            model._w.T.copy(), model._mu.transpose(2, 0, 1).copy(),
            model._var.T.copy(), model._n.copy(),
        )
        for arr in frames[1:]:
            mask, model = layer_update_classify(model, Frame.from_array(arr))
            fg, state = reference_update_classify(
                prm, state, arr.reshape(pcount, c).astype(np.float64)
            )
            assert np.array_equal(mask.to_array().reshape(-1) == 255, fg)
            w, mu, var, n = state
            assert np.array_equal(model._w, w.T)
            assert np.array_equal(model._mu, mu.transpose(1, 2, 0))
            assert np.array_equal(model._var, var.T)
            assert np.array_equal(model._n, n)

    def test_cumulative_weight_rounding_matches_reference(self):
        # the 0.9 slot ranks second; its weight before it is (0.1 + 0.9) - 0.9,
        # which rounds to just under t_bg = 0.1, so it is in the background set
        prm = GmmParams(k=2, alpha_lr=0.0, t_bg=0.1)
        w = np.array([[0.1], [0.9]])
        mu = np.array([[[0.0]], [[100.0]]])
        var = np.array([[4.0], [400.0]])
        n = np.array([2])
        model = LayerModel(1, 1, 1, prm, w, mu, var, n)
        mask, _ = layer_update_classify(model, gray_frame([[100]]))
        fg, _ = reference_update_classify(
            prm, (w.T, mu.transpose(2, 0, 1), var.T, n), np.array([[100.0]])
        )
        assert not fg[0]
        assert mask.to_array()[0, 0, 0] == 0

    def test_full_mixture_replaces_lowest_weight_slot(self):
        # k = 2 fills after one miss; the third level then replaces the slot
        # of lowest weight (the newcomer), not the established background
        prm = GmmParams(k=2, lam=1.0, alpha_lr=0.25, var_init=4.0)
        model = layer_init(gray_frame([[0]]), prm)
        _, model = layer_update_classify(model, gray_frame([[100]]))
        _, model = layer_update_classify(model, gray_frame([[200]]))
        assert model._n[0] == 2
        assert model._mu[:, :, 0].tolist() == [[0.0], [200.0]]
