import math

import numpy as np
import pytest

from emr.errors import InvalidTransform, NoViews
from emr.fusion import FusionParams, RvoLayer, ViewSource, compose, place_layer, select_view
from emr.raster import AlphaMatte, Frame, round_u8


def layer_from(pixels, alpha, **kw):
    pixels = np.asarray(pixels, dtype=np.uint8)
    frame = Frame.from_array(pixels)
    matte = AlphaMatte.from_array(np.asarray(alpha, dtype=np.float64))
    return RvoLayer(pixels=frame, matte=matte, **kw)


def random_layer(rng, canvas=16):
    side = int(rng.integers(1, 6))
    pixels = rng.integers(0, 256, (side, side, 3), dtype=np.uint8)
    alpha = rng.random((side, side))
    return layer_from(
        pixels,
        alpha,
        scale=float(rng.choice([0.5, 1.0, 2.0])),
        tx=int(rng.integers(-4, canvas)),
        ty=int(rng.integers(-4, canvas)),
        depth=float(rng.normal()),
    )


def full_canvas_compose(background, layers):
    """Reference blend over the whole canvas, one placed layer at a time."""
    canvas = background.to_array()
    for layer in sorted(layers, key=lambda l: l.depth):
        placed, matte = place_layer(layer, background.width, background.height)
        a = matte.to_array()[:, :, None]
        fg = placed.to_array().astype(np.float64)
        canvas = round_u8(a * fg + (1.0 - a) * canvas.astype(np.float64))
    return Frame.from_array(canvas, index=background.index)


class TestPlaceLayer:
    def test_identity_transform_keeps_layer(self):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, (4, 4, 3), dtype=np.uint8)
        alpha = rng.random((4, 4))
        layer = layer_from(pixels, alpha)
        placed, matte = place_layer(layer, 4, 4)
        assert np.array_equal(placed.to_array(), pixels)
        assert np.allclose(matte.to_array(), alpha)

    def test_upscale_replicates_nearest(self):
        layer = layer_from([[[9, 8, 7]]], [[0.25]], scale=2.0)
        placed, matte = place_layer(layer, 2, 2)
        assert np.all(placed.to_array() == (9, 8, 7))
        assert np.all(matte.to_array() == 0.25)

    def test_fully_clipped_is_transparent_not_an_error(self):
        layer = layer_from([[[1, 2, 3]]], [[1.0]], tx=10)
        placed, matte = place_layer(layer, 4, 4)
        assert np.count_nonzero(matte.to_array()) == 0
        assert np.count_nonzero(placed.to_array()) == 0

    def test_negative_offset_clips_partially(self):
        layer = layer_from([[[5, 5, 5]], [[6, 6, 6]]], [[1.0], [1.0]], ty=-1)
        placed, matte = place_layer(layer, 1, 1)
        assert placed.to_array()[0, 0, 0] == 6
        assert matte.to_array()[0, 0] == 1.0

    def test_non_positive_scale_rejected(self):
        layer = layer_from([[[0, 0, 0]]], [[0.0]], scale=0.0)
        with pytest.raises(InvalidTransform):
            place_layer(layer, 2, 2)


class TestCompose:
    def background(self, rng=None, side=8):
        rng = rng or np.random.default_rng(1)
        return Frame.from_array(rng.integers(0, 256, (side, side, 3), dtype=np.uint8))

    def test_no_layers_is_identity(self):
        bg = self.background()
        assert compose(bg, []) == bg

    def test_transparent_layer_is_identity(self):
        bg = self.background()
        layer = layer_from(np.full((8, 8, 3), 200), np.zeros((8, 8)))
        assert compose(bg, [layer]) == bg

    def test_opaque_layer_overwrites_its_region(self):
        bg = self.background()
        pixels = np.full((3, 3, 3), 77, dtype=np.uint8)
        layer = layer_from(pixels, np.ones((3, 3)), tx=2, ty=1)
        out = compose(bg, [layer]).to_array()
        assert np.all(out[1:4, 2:5] == 77)
        untouched = bg.to_array()
        out[1:4, 2:5] = untouched[1:4, 2:5]
        assert np.array_equal(out, untouched)

    def test_half_blend_arithmetic(self):
        bg = Frame.from_array(np.full((1, 1, 3), 100, dtype=np.uint8))
        layer = layer_from(np.full((1, 1, 3), 200), [[0.5]])
        assert compose(bg, [layer]).to_array()[0, 0, 0] == 150

    def test_blend_stays_within_contributing_values(self):
        rng = np.random.default_rng(2)
        bg = self.background(rng)
        layers = [random_layer(rng, canvas=8) for _ in range(3)]
        out = compose(bg, layers).to_array().astype(int)
        # conservative bound: global min/max over background and all layer pixels
        candidates = [bg.to_array().astype(int)] + [l.pixels.to_array().astype(int) for l in layers]
        lo = min(c.min() for c in candidates)
        hi = max(c.max() for c in candidates)
        assert out.min() >= lo and out.max() <= hi

    def test_depth_orders_far_first(self):
        bg = Frame.from_array(np.zeros((1, 1, 3), dtype=np.uint8))
        far = layer_from(np.full((1, 1, 3), 10), [[1.0]], depth=-1.0)
        near = layer_from(np.full((1, 1, 3), 250), [[1.0]], depth=5.0)
        out = compose(bg, [near, far])
        assert out.to_array()[0, 0, 0] == 250

    def test_equal_depths_compose_in_input_order(self):
        bg = Frame.from_array(np.zeros((1, 1, 3), dtype=np.uint8))
        first = layer_from(np.full((1, 1, 3), 10), [[1.0]], depth=1.0)
        second = layer_from(np.full((1, 1, 3), 20), [[1.0]], depth=1.0)
        assert compose(bg, [first, second]).to_array()[0, 0, 0] == 20

    def test_matches_full_canvas_blend(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            bg = self.background(rng)
            layers = [random_layer(rng, canvas=8) for _ in range(int(rng.integers(1, 4)))]
            # one layer pushed wholly off the canvas, on a random side
            off = layers[0]
            tx, ty = [(off.tx, 9), (off.tx, -20), (9, off.ty), (-20, off.ty)][int(rng.integers(4))]
            layers.append(RvoLayer(pixels=off.pixels, matte=off.matte, scale=off.scale,
                                   tx=tx, ty=ty, depth=off.depth))
            assert compose(bg, layers) == full_canvas_compose(bg, layers)

    def test_depth_offset_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            bg = self.background(rng)
            layers = [random_layer(rng, canvas=8) for _ in range(int(rng.integers(1, 5)))]
            shifted = [
                RvoLayer(
                    pixels=l.pixels, matte=l.matte, scale=l.scale,
                    tx=l.tx, ty=l.ty, depth=l.depth + 123.5,
                )
                for l in layers
            ]
            assert compose(bg, layers) == compose(bg, shifted)


class TestSelectView:
    def views(self):
        return [ViewSource(id="front", angle_deg=0.0), ViewSource(id="side", angle_deg=90.0)]

    def test_nearest_angle_wins(self):
        assert select_view(self.views(), 10.0).id == "front"

    def test_exact_match(self):
        assert select_view(self.views(), 90.0).id == "side"

    def test_tie_breaks_to_earlier_view(self):
        assert select_view(self.views(), 45.0).id == "front"

    def test_wraparound_distance(self):
        assert select_view(self.views(), 350.0).id == "front"

    def test_empty_rejected(self):
        with pytest.raises(NoViews):
            select_view([], 0.0)

    def test_angle_range_enforced(self):
        with pytest.raises(ValueError):
            ViewSource(id="x", angle_deg=360.0)


class TestFusionParams:
    @pytest.mark.parametrize(
        "kw, error",
        [
            (dict(scale=0.0), InvalidTransform),
            (dict(scale=math.nan), InvalidTransform),
            (dict(view_angle=360.0), ValueError),
            (dict(view_angle=math.nan), ValueError),
        ],
    )
    def test_invalid_params_rejected(self, kw, error):
        with pytest.raises(error):
            FusionParams(**kw)
