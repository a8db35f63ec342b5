import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from emr import matting
from emr.errors import DimensionMismatch, InsufficientLabels
from emr.matting import (
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
        t = trimap_from_mask(mask, MattingParams(r_fg=2, r_bg=4), 1)
        assert np.all(t.to_array() == BG)

    def test_full_mask_is_all_foreground(self):
        mask = mask_frame(np.ones((8, 8), dtype=bool))
        t = trimap_from_mask(mask, MattingParams(r_fg=2, r_bg=4), 1)
        assert np.all(t.to_array() == FG)

    def test_square_produces_core_band_background(self):
        m = np.zeros((32, 32), dtype=bool)
        m[12:20, 12:20] = True
        t = trimap_from_mask(mask_frame(m), MattingParams(r_fg=2, r_bg=4), 1).to_array()
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
        t = trimap_from_mask(mask_frame(m), MattingParams(r_fg=0, r_bg=0), 1).to_array()
        assert np.array_equal(t == FG, m)
        assert np.array_equal(t == BG, ~m)

    def test_matches_brute_force_on_random_masks(self):
        rng = np.random.RandomState(11)
        for _ in range(5):
            m = rng.rand(10, 10) < 0.5
            t = trimap_from_mask(mask_frame(m), MattingParams(r_fg=1, r_bg=2), 1).to_array()
            assert np.array_equal(t == FG, brute_force_morph(m, 1, erode=True))
            assert np.array_equal(t == BG, ~brute_force_morph(m, 2, erode=False))

    @given(
        arrays(np.bool_, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12)),
        st.integers(0, 4),
        st.integers(0, 4),
        st.integers(1, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_on_any_mask_and_radii(self, m, r1, r2, scale):
        r_fg, r_bg = min(r1, r2), max(r1, r2)
        t = trimap_from_mask(mask_frame(m), MattingParams(r_fg=r_fg, r_bg=r_bg), scale).to_array()
        fg = brute_force_morph(m, r_fg // scale, erode=True)
        bg = ~brute_force_morph(m, r_bg // scale, erode=False)
        assert np.array_equal(t == FG, fg)
        assert np.array_equal(t == BG, bg)
        assert np.array_equal(t == UNKNOWN, ~fg & ~bg)

    @pytest.mark.parametrize("r_fg, r_bg", [(0, 1), (1, 3), (2, 4), (3, 7)])
    def test_band_width_in_capture_pixels_does_not_grow_with_scale(self, r_fg, r_bg):
        # a 32 px square in a 64x64 capture, keyed at scales 1, 2 and 4; the
        # band's width is read along the middle row, in capture pixels
        capture = np.zeros((64, 64), dtype=bool)
        capture[16:48, 16:48] = True
        params = MattingParams(r_fg=r_fg, r_bg=r_bg)
        width = {}
        for scale in (1, 2, 4):
            labels = trimap_from_mask(mask_frame(capture[::scale, ::scale]), params, scale).labels
            width[scale] = np.count_nonzero(labels[labels.shape[0] // 2] == UNKNOWN) * scale
        assert width[2] <= width[1] and width[4] <= width[1]

    def test_reversed_radii_rejected(self):
        with pytest.raises(ValueError, match="r_bg must be >= r_fg"):
            MattingParams(r_fg=3, r_bg=2)


class TestMattingParams:
    @pytest.mark.parametrize(
        "kw, field",
        [
            pytest.param(dict(r_fg=-1), "r_fg", id="kw0-InvalidRadii"),
            pytest.param(dict(r_fg=5, r_bg=4), "r_bg", id="kw1-InvalidRadii"),
            pytest.param(dict(window=0), "window", id="kw2-ValueError"),
            pytest.param(dict(max_iters=0), "max_iters", id="kw3-ValueError"),
            pytest.param(dict(eps=0.0), "eps", id="kw4-ValueError"),
            pytest.param(dict(eps=math.nan), "eps", id="kw5-ValueError"),
            pytest.param(dict(lambda_t=1.5), "lambda_t", id="kw6-ValueError"),
            pytest.param(dict(lambda_t=math.nan), "lambda_t", id="kw7-ValueError"),
        ],
    )
    def test_invalid_params_rejected(self, kw, field):
        with pytest.raises(ValueError, match=field):
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
    return frame, Trimap(labels), alpha_true


class TestAlphaSolve:
    def test_no_unknown_is_exact_and_instant(self):
        labels = np.array([[FG, BG], [BG, FG]], dtype=np.uint8)
        frame = Frame.from_array(np.array([[255, 0], [0, 255]], dtype=np.uint8))
        res = alpha_solve(frame, Trimap(labels))
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
        res = alpha_solve(Frame.from_array(img), Trimap(labels))
        got = res.matte.to_array()[3, 3]
        assert got == pytest.approx(128.0 * 255.0 / (255.0 * 255.0), abs=1e-12)

    def test_degenerate_separation_defaults_to_half(self):
        img = np.full((5, 5), 100, dtype=np.uint8)
        labels = np.full((5, 5), UNKNOWN, dtype=np.uint8)
        labels[0, 0] = FG
        labels[4, 4] = BG
        labels[0, 4] = BG
        labels[4, 0] = FG
        res = alpha_solve(Frame.from_array(img), Trimap(labels))
        # one flat color: every UNKNOWN pixel's F and B estimates coincide
        assert res.degenerate == 21
        assert res.matte.to_array()[2, 2] == 0.5

    def test_missing_anchor_rejected(self):
        labels = np.full((4, 4), UNKNOWN, dtype=np.uint8)
        labels[0, 0] = FG  # no BG anywhere
        with pytest.raises(InsufficientLabels):
            alpha_solve(Frame.from_array(np.zeros((4, 4), dtype=np.uint8)),
                        Trimap(labels))

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
        res = alpha_solve(Frame.from_array(img), Trimap(labels))
        arr = res.matte.to_array()
        assert arr.min() >= 0.0 and arr.max() <= 1.0
        assert res.iterations <= 20

    def test_change_non_increasing_after_second_iteration(self):
        frame, trimap, _ = ramp_scene()
        # the smallest positive eps stops only at an exact fixed point, so the
        # solve capped at k rounds returns the matte after round k
        mattes = [
            alpha_solve(frame, trimap, MattingParams(max_iters=k, eps=5e-324)).matte.alpha
            for k in range(1, 21)
        ]
        changes = [np.abs(b - a).max() for a, b in zip(mattes, mattes[1:])]  # rounds 2..20
        assert all(a >= b for a, b in zip(changes, changes[1:]))

    def test_dimension_mismatch_rejected(self):
        frame = Frame.from_array(np.zeros((3, 3), dtype=np.uint8))
        trimap = Trimap(np.full((3, 4), BG, dtype=np.uint8))
        with pytest.raises(DimensionMismatch):
            alpha_solve(frame, trimap)

    @pytest.mark.parametrize("window", [0, -1])
    def test_window_below_one_rejected(self, window):
        # unguarded, window 0 never grows (radius *= 2 stays 0) and -1 indexes
        # past the table; no solver parameters with such a window can be built
        with pytest.raises(ValueError, match="window"):
            MattingParams(window=window)


def seeded_solve(labels, params=MattingParams()):
    """The solve of the trimap on seeded random colors."""
    rng = np.random.default_rng(7)
    img = rng.integers(0, 256, labels.shape + (3,), dtype=np.uint8)
    return alpha_solve(Frame.from_array(img), Trimap(labels), params)


def matte_digest(res):
    """sha256 of the matte's float64 bytes."""
    return hashlib.sha256(res.matte.to_array().tobytes()).hexdigest()


def pinned_solve(labels):
    """(sha256 of the matte's float64 bytes, iterations) on seeded random colors."""
    res = seeded_solve(labels)
    return matte_digest(res), res.iterations


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


def cycling_labels():
    # from the first round on the confident sets alternate with period 2
    labels = np.full((8, 8), BG, dtype=np.uint8)
    labels[1:8, 1:8] = UNKNOWN
    labels[4, 4] = FG
    return labels


def counting_tables(monkeypatch):
    """A list that gets each summed-area table's (height, width) as the solver builds it."""
    builds = []
    build = matting._stacked_table

    def counted(*args):
        builds.append(args[2].shape[:2])  # the colors the table sums
        return build(*args)

    monkeypatch.setattr(matting, "_stacked_table", counted)
    return builds


class TestRepeatedRounds:
    """Digests and counts recorded with a solver that ran every round."""

    @pytest.mark.parametrize("max_iters", range(1, 26))
    def test_cycle_returns_the_capped_round(self, max_iters):
        res = seeded_solve(cycling_labels(), MattingParams(max_iters=max_iters))
        assert matte_digest(res) == (
            "9fa394a88a5115496fccff97c47e2004337a30def046e9c7d0068cd7f330bfbb" if max_iters % 2
            else "32d6dd23c1d701dd8d050eafc4abda3f8084ae843025cc4fc1d1996a5c14f95d"
        )
        assert (res.iterations, res.converged, res.degenerate) == (max_iters, False, 0)

    def test_cycle_stops_building_tables(self, monkeypatch):
        builds = counting_tables(monkeypatch)
        assert seeded_solve(cycling_labels()).iterations == 20  # 22 tables if every round ran
        assert len(builds) <= 5

    def test_repeated_sets_converge_without_a_table(self, monkeypatch):
        labels = np.full((12, 12), BG, dtype=np.uint8)
        labels[1:11, 1:11] = UNKNOWN
        labels[4:8, 4:8] = FG
        builds = counting_tables(monkeypatch)
        res = seeded_solve(labels)
        assert (res.iterations, res.converged) == (2, True)
        assert len(builds) == 1  # the second round repeats the first one's sets


class TestTableExtent:
    def test_later_rounds_build_tables_over_the_band_box_only(self, monkeypatch):
        # band box 20 x 24 at (10, 8); the first round needs radii 3, 6 and 12
        labels = np.full((40, 40), BG, dtype=np.uint8)
        labels[10:30, 8:32] = UNKNOWN
        labels[18:22, 18:22] = FG
        builds = counting_tables(monkeypatch)
        seeded_solve(labels)
        # one table of the labels per radius, over the band box grown by it
        assert builds[:3] == [(26, 30), (32, 36), (40, 40)]
        # then one per later round that has confident band pixels, over the
        # band box alone; rounds 2 and 3 have some
        assert len(builds) >= 5
        assert set(builds[3:]) == {(20, 24)}


def reference_solve(img, labels, params):
    """(alpha, iterations, converged, degenerate) of a solver that runs every round.

    Each band pixel's window sums are slice sums of the confident masks and
    colors, its radius doubling until both masks have samples.  Sums of
    floats run left to right from 0.0, as the solver's channel and 3x3 row
    sums do; out-of-frame neighbors are left out of the smoothing.
    """
    h, w, c = img.shape
    colors = img.astype(np.int64)
    band = list(zip(*np.nonzero(labels == UNKNOWN)))
    alpha = np.where(labels == FG, 1.0, 0.0)
    for y, x in band:
        alpha[y, x] = 0.5
    iterations, converged = params.max_iters, False
    for k in range(params.max_iters):
        fg = (labels == FG) | (alpha > 0.95)
        bg = (labels == BG) | (alpha < 0.05)
        fg_colors = colors * fg[:, :, None]
        bg_colors = colors * bg[:, :, None]
        projected = np.where(labels == FG, 1.0, 0.0)
        degenerate = 0
        for y, x in band:
            radius = params.window
            while True:
                win = np.s_[max(y - radius, 0):y + radius + 1, max(x - radius, 0):x + radius + 1]
                fcnt, bcnt = int(fg[win].sum()), int(bg[win].sum())
                if fcnt and bcnt:
                    break
                assert radius < max(h, w)  # a window of the whole frame holds both labels
                radius *= 2
            fsum = fg_colors[win].sum(axis=(0, 1)).tolist()
            bsum = bg_colors[win].sum(axis=(0, 1)).tolist()
            denom = num = 0.0
            for ch in range(c):
                f, b = fsum[ch] / fcnt, bsum[ch] / bcnt
                denom += (f - b) * (f - b)
                num += (float(colors[y, x, ch]) - b) * (f - b)
            if denom < 1.0:
                degenerate += 1
                projected[y, x] = 0.5
            else:
                projected[y, x] = min(max(num / denom, 0.0), 1.0)
        change = 0.0
        smoothed = alpha.copy()
        for y, x in band:
            total, count = 0.0, 0
            for yy in range(max(y - 1, 0), min(y + 2, h)):
                row = 0.0
                for xx in range(max(x - 1, 0), min(x + 2, w)):
                    row += projected[yy, xx]
                    count += 1
                total += row
            smoothed[y, x] = total / count
            change = max(change, abs(smoothed[y, x] - alpha[y, x]))
        alpha = smoothed
        if change < params.eps:
            iterations, converged = k + 1, True
            break
    return alpha, iterations, converged, degenerate


def random_solve_case(seed):
    """A seeded random image, trimap and solver params for ``reference_solve``."""
    rng = np.random.default_rng(seed)
    h, w = (int(v) for v in rng.integers(3, 14, 2))
    c = int(rng.choice((1, 3)))
    if rng.random() < 0.3:
        # flattened colors: separations of 0 and 1 levels leave degenerate pixels
        img = rng.integers(0, 255, c) + rng.integers(0, 2, (h, w, c))
    else:
        img = rng.integers(0, 256, (h, w, c))
    labels = rng.choice(np.array([BG, UNKNOWN, FG], dtype=np.uint8), (h, w), p=rng.dirichlet((1, 2, 1)))
    spots = rng.permutation(h * w)[:3]
    labels.flat[spots] = (FG, BG, UNKNOWN)
    params = MattingParams(window=int(rng.integers(1, 4)), max_iters=int(rng.integers(1, 25)))
    return img.astype(np.uint8), labels, params


class TestReferenceSolver:
    """The solver against a brute-force one that shares none of its helpers."""

    @pytest.mark.parametrize("batch", range(20))
    def test_random_trimaps_match_the_reference(self, batch):
        for seed in range(16 * batch, 16 * batch + 16):
            img, labels, params = random_solve_case(seed)
            res = alpha_solve(Frame.from_array(img), Trimap(labels), params)
            alpha, iterations, converged, degenerate = reference_solve(img, labels, params)
            assert res.matte.alpha.tobytes() == alpha.tobytes(), seed
            assert (res.iterations, res.converged, res.degenerate) == (
                iterations, converged, degenerate
            ), seed


class TestFuzzyKnowledge:
    """The membership grid is an ``AlphaMatte``; ``fuzzy_update`` blends a matte into it."""

    def test_init_is_an_empty_grid(self):
        k = fuzzy_init(3, 2)
        assert isinstance(k, AlphaMatte)
        assert np.array_equal(k.alpha, np.zeros((2, 3)))

    def test_zero_rate_keeps_membership(self):
        k = fuzzy_init(2, 1)
        m = AlphaMatte(np.array([[1.0, 0.3]]))
        assert fuzzy_update(k, m, MattingParams(lambda_t=0.0)) == k

    def test_full_rate_replaces_membership(self):
        k = fuzzy_init(2, 1)
        m = AlphaMatte(np.array([[0.25, 0.75]]))
        assert fuzzy_update(k, m, MattingParams(lambda_t=1.0)) == m

    def test_halfway_blend(self):
        k = AlphaMatte(np.array([[0.2]]))
        m = AlphaMatte(np.array([[0.8]]))
        assert fuzzy_update(k, m, MattingParams(lambda_t=0.5)).alpha[0, 0] == pytest.approx(0.5)

    def test_nan_membership_rejected(self):
        with pytest.raises(ValueError):
            AlphaMatte(np.array([[float("nan")]]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_membership_rejected(self, bad):
        with pytest.raises(ValueError):
            AlphaMatte(np.array([[0.5, bad]]))

    def test_to_array_is_a_read_only_view(self):
        # the blended grid's field is the read-only view; to_array() is a writable copy
        m = AlphaMatte(np.array([[1.0, 0.5]]))
        k = fuzzy_update(fuzzy_init(2, 1), m, MattingParams(lambda_t=0.5))
        assert not k.alpha.flags.writeable
        with pytest.raises(ValueError):
            k.alpha[0, 0] = 0.0
        assert np.array_equal(k.alpha, [[0.5, 0.25]])
        arr = k.to_array()
        arr[0, 0] = 0.0
        assert np.array_equal(k.alpha, [[0.5, 0.25]])

    def test_source_array_is_copied(self):
        src = np.array([[0.2, 0.4]])
        k = AlphaMatte(src)
        src[0, 0] = 0.9
        assert np.array_equal(k.alpha, [[0.2, 0.4]])

    def test_dimension_mismatch_rejected(self):
        k = fuzzy_init(2, 2)
        m = AlphaMatte(np.array([[0.0]]))
        with pytest.raises(DimensionMismatch):
            fuzzy_update(k, m, MattingParams())
        with pytest.raises(DimensionMismatch):
            fuzzy_update(fuzzy_init(2, 1), AlphaMatte(np.zeros((1, 2)).T), MattingParams())

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=60)
    def test_membership_stays_in_unit_interval(self, mem, alpha, lam):
        k = AlphaMatte(np.reshape(mem, (2, 2)))
        m = AlphaMatte(np.reshape(alpha, (2, 2)))
        out = fuzzy_update(k, m, MattingParams(lambda_t=lam))
        assert out.alpha.shape == (2, 2)
        assert ((out.alpha >= 0.0) & (out.alpha <= 1.0)).all()
