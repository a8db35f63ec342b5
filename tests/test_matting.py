import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emr.errors import DimensionMismatch, InsufficientLabels, InvalidRadii
from emr.matting import (
    FuzzyKnowledge,
    MattingParams,
    alpha_solve,
    fuzzy_init,
    fuzzy_update,
    trimap_from_mask,
)
from emr.raster import BG, FG, UNKNOWN, AlphaMatte, Frame, Trimap, round_u8


def mask_frame(arr):
    return Frame.from_array(np.where(arr, 255, 0).astype(np.uint8))


def brute_force_morph(mask, radius, erode):
    """Oracle morphology with replicate padding, plain loops."""
    h, w = mask.shape
    out = np.zeros_like(mask, dtype=bool)
    for y in range(h):
        for x in range(w):
            acc = erode
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    yy = min(max(y + dy, 0), h - 1)
                    xx = min(max(x + dx, 0), w - 1)
                    if erode:
                        acc = acc and mask[yy, xx]
                    else:
                        acc = acc or mask[yy, xx]
            out[y, x] = acc
    return out


class TestTrimap:
    def test_empty_mask_is_all_background(self):
        mask = mask_frame(np.zeros((8, 8), dtype=bool))
        t = trimap_from_mask(mask, MattingParams(r_fg=2, r_bg=4))
        assert np.all(t.to_array() == BG)

    def test_full_mask_is_all_foreground(self):
        mask = mask_frame(np.ones((8, 8), dtype=bool))
        t = trimap_from_mask(mask, MattingParams(r_fg=2, r_bg=4))
        assert np.all(t.to_array() == FG)

    def test_square_produces_core_band_background(self):
        m = np.zeros((32, 32), dtype=bool)
        m[12:20, 12:20] = True
        t = trimap_from_mask(mask_frame(m), MattingParams(r_fg=2, r_bg=4)).to_array()
        expected_fg = brute_force_morph(m, 2, erode=True)
        expected_bg = ~brute_force_morph(m, 4, erode=False)
        assert np.array_equal(t == FG, expected_fg)
        assert np.array_equal(t == BG, expected_bg)
        # the 8x8 square erodes to its centered 4x4 core
        core = np.zeros_like(m)
        core[14:18, 14:18] = True
        assert np.array_equal(t == FG, core)

    def test_radius_zero_keeps_mask(self):
        m = np.zeros((6, 6), dtype=bool)
        m[2:4, 2:4] = True
        t = trimap_from_mask(mask_frame(m), MattingParams(r_fg=0, r_bg=0)).to_array()
        assert np.array_equal(t == FG, m)
        assert np.array_equal(t == BG, ~m)

    def test_matches_brute_force_on_random_masks(self):
        rng = np.random.RandomState(11)
        for _ in range(5):
            m = rng.rand(10, 10) < 0.5
            t = trimap_from_mask(mask_frame(m), MattingParams(r_fg=1, r_bg=2)).to_array()
            assert np.array_equal(t == FG, brute_force_morph(m, 1, erode=True))
            assert np.array_equal(t == BG, ~brute_force_morph(m, 2, erode=False))

    def test_reversed_radii_rejected(self):
        with pytest.raises(InvalidRadii):
            MattingParams(r_fg=3, r_bg=2)


class TestMattingParams:
    @pytest.mark.parametrize(
        "kw, error",
        [
            (dict(r_fg=-1), InvalidRadii),
            (dict(r_fg=5, r_bg=4), InvalidRadii),
            (dict(window=0), ValueError),
            (dict(max_iters=0), ValueError),
            (dict(eps=0.0), ValueError),
            (dict(eps=math.nan), ValueError),
            (dict(lambda_t=1.5), ValueError),
            (dict(lambda_t=math.nan), ValueError),
        ],
    )
    def test_invalid_params_rejected(self, kw, error):
        with pytest.raises(error):
            MattingParams(**kw)


def ramp_scene(h=32, w=64, bg_end=16, fg_start=48):
    """Composite of F=255 over B=0 with a linear alpha ramp between anchors."""
    alpha_true = np.zeros((h, w))
    for x in range(w):
        alpha_true[:, x] = min(max((x - bg_end) / (fg_start - bg_end - 0.0), 0.0), 1.0)
    frame = Frame.from_array(round_u8(alpha_true * 255.0))
    labels = np.full((h, w), UNKNOWN, dtype=np.uint8)
    labels[:, :bg_end] = BG
    labels[:, fg_start:] = FG
    return frame, Trimap.from_array(labels), alpha_true


class TestAlphaSolve:
    def test_no_unknown_is_exact_and_instant(self):
        labels = np.array([[FG, BG], [BG, FG]], dtype=np.uint8)
        frame = Frame.from_array(np.array([[255, 0], [0, 255]], dtype=np.uint8))
        res = alpha_solve(frame, Trimap.from_array(labels))
        assert res.iterations == 0
        assert res.matte.to_array().tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_projection_formula_on_plateau(self):
        # unknown interior pixel with all-equal neighbors keeps the raw
        # projection: (128-0)*(255-0)/255^2
        img = np.zeros((7, 7), dtype=np.uint8)
        img[:, 6] = 255
        img[:, 1:6] = 128
        labels = np.full((7, 7), UNKNOWN, dtype=np.uint8)
        labels[:, 0] = BG
        labels[:, 6] = FG
        res = alpha_solve(Frame.from_array(img), Trimap.from_array(labels))
        got = res.matte.to_array()[3, 3]
        assert got == pytest.approx(128.0 * 255.0 / (255.0 * 255.0), abs=1e-12)

    def test_degenerate_separation_defaults_to_half(self):
        img = np.full((5, 5), 100, dtype=np.uint8)
        labels = np.full((5, 5), UNKNOWN, dtype=np.uint8)
        labels[0, 0] = FG
        labels[4, 4] = BG
        labels[0, 4] = BG
        labels[4, 0] = FG
        res = alpha_solve(Frame.from_array(img), Trimap.from_array(labels))
        center = 2 * 5 + 2
        assert center in res.degenerate
        assert res.matte.to_array()[2, 2] == 0.5

    def test_missing_anchor_rejected(self):
        labels = np.full((4, 4), UNKNOWN, dtype=np.uint8)
        labels[0, 0] = FG  # no BG anywhere
        with pytest.raises(InsufficientLabels):
            alpha_solve(Frame.from_array(np.zeros((4, 4), dtype=np.uint8)),
                        Trimap.from_array(labels))

    def test_ramp_recovery(self):
        frame, trimap, alpha_true = ramp_scene()
        res = alpha_solve(frame, trimap)
        est = res.matte.to_array()
        unk = trimap.to_array() == UNKNOWN
        assert np.abs(est - alpha_true)[unk].mean() <= 0.1
        assert np.all(est[trimap.to_array() == FG] == 1.0)
        assert np.all(est[trimap.to_array() == BG] == 0.0)

    def test_alpha_stays_in_unit_interval(self):
        rng = np.random.RandomState(5)
        img = rng.randint(0, 256, (12, 12, 3), dtype=np.uint8)
        labels = np.full((12, 12), UNKNOWN, dtype=np.uint8)
        labels[:2] = BG
        labels[-2:] = FG
        res = alpha_solve(Frame.from_array(img), Trimap.from_array(labels))
        arr = res.matte.to_array()
        assert arr.min() >= 0.0 and arr.max() <= 1.0
        assert res.iterations <= 20

    def test_change_non_increasing_after_second_iteration(self):
        frame, trimap, _ = ramp_scene()
        res = alpha_solve(frame, trimap, max_iters=20, eps=0.0)
        changes = res.changes[1:]
        assert all(a >= b for a, b in zip(changes, changes[1:]))

    def test_dimension_mismatch_rejected(self):
        frame = Frame.from_array(np.zeros((3, 3), dtype=np.uint8))
        trimap = Trimap.from_array(np.full((3, 4), BG, dtype=np.uint8))
        with pytest.raises(DimensionMismatch):
            alpha_solve(frame, trimap)

    @pytest.mark.parametrize("window", [0, -1])
    def test_window_below_one_rejected(self, window):
        # unguarded, window 0 never grows (radius *= 2 stays 0) and -1 indexes past the table
        m = np.zeros((32, 32), dtype=bool)
        m[11:21, 11:21] = True
        mask = mask_frame(m)
        trimap = trimap_from_mask(mask, MattingParams(r_fg=2, r_bg=4))
        with pytest.raises(ValueError):
            alpha_solve(mask, trimap, window=window)


def pinned_solve(labels):
    """(sha256 of the matte's float64 bytes, iterations) on seeded random colors."""
    rng = np.random.default_rng(7)
    img = rng.integers(0, 256, labels.shape + (3,), dtype=np.uint8)
    res = alpha_solve(Frame.from_array(img), Trimap.from_array(labels))
    return hashlib.sha256(res.matte.to_array().tobytes()).hexdigest(), res.iterations


class TestAlphaSolveBandBox:
    """Matte digests recorded with full-frame summed-area tables."""

    def test_band_touching_frame_border(self):
        labels = np.full((16, 20), BG, dtype=np.uint8)
        labels[0:8, 0:9] = UNKNOWN
        labels[0:4, 0:4] = FG
        assert pinned_solve(labels) == (
            "3f217cf5694d1bbdfa988c98d3a689d52a579b26042a72e1c22fab354b46fe32", 3
        )

    def test_band_needing_window_doubling(self):
        # corners of the band lie 10 px from the FG core: windows 3 -> 6 -> 12
        labels = np.full((40, 40), BG, dtype=np.uint8)
        labels[10:30, 8:32] = UNKNOWN
        labels[18:22, 18:22] = FG
        assert pinned_solve(labels) == (
            "d856e813715be5428f82480ca1f8a3bf58277c19416eddee3ac48a4ccbce46a0", 4
        )

    def test_window_reaching_full_frame(self):
        # (11, 0) needs radius 15 to reach both anchors: the window doubles to 24 >= max(h, w)
        labels = np.full((12, 16), UNKNOWN, dtype=np.uint8)
        labels[0, 0] = FG
        labels[11, 15] = BG
        assert pinned_solve(labels) == (
            "1c61d202548fc1b64144f6cfe4a70760db1ec9ad2021ce287a0893e00fae109a", 2
        )


class TestFuzzyKnowledge:
    def test_zero_rate_keeps_membership(self):
        k = fuzzy_init(2, 1, lambda_t=0.0)
        m = AlphaMatte(width=2, height=1, alpha=(1.0, 0.3))
        assert np.array_equal(fuzzy_update(k, m).membership, k.membership)

    def test_full_rate_replaces_membership(self):
        k = fuzzy_init(2, 1, lambda_t=1.0)
        m = AlphaMatte(width=2, height=1, alpha=(0.25, 0.75))
        assert np.array_equal(fuzzy_update(k, m).membership, [0.25, 0.75])

    def test_halfway_blend(self):
        k = FuzzyKnowledge(width=1, height=1, membership=(0.2,), lambda_t=0.5)
        m = AlphaMatte(width=1, height=1, alpha=(0.8,))
        assert fuzzy_update(k, m).membership[0] == pytest.approx(0.5)

    def test_nan_membership_rejected(self):
        with pytest.raises(ValueError):
            FuzzyKnowledge(width=1, height=1, membership=(float("nan"),))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_membership_rejected(self, bad):
        with pytest.raises(ValueError):
            FuzzyKnowledge(width=2, height=1, membership=(0.5, bad))

    def test_to_array_is_a_read_only_view(self):
        m = AlphaMatte(width=2, height=1, alpha=(1.0, 0.5))
        k = fuzzy_update(fuzzy_init(2, 1, lambda_t=0.5), m)
        arr = k.to_array()
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0
        assert np.array_equal(arr, [[0.5, 0.25]])

    def test_source_array_is_copied(self):
        src = np.array([0.2, 0.4])
        k = FuzzyKnowledge(width=2, height=1, membership=src)
        src[0] = 0.9
        assert np.array_equal(k.membership, [0.2, 0.4])

    def test_dimension_mismatch_rejected(self):
        k = fuzzy_init(2, 2)
        m = AlphaMatte(width=1, height=1, alpha=(0.0,))
        with pytest.raises(DimensionMismatch):
            fuzzy_update(k, m)

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=60)
    def test_membership_stays_in_unit_interval(self, mem, alpha, lam):
        k = FuzzyKnowledge(width=2, height=2, membership=tuple(mem), lambda_t=lam)
        m = AlphaMatte(width=2, height=2, alpha=tuple(alpha))
        out = fuzzy_update(k, m)
        assert all(0.0 <= v <= 1.0 for v in out.membership)
