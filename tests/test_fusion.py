import math

import numpy as np
import pytest

from emr.fusion import FusionParams, RvoLayer, ViewSource, compose, select_view
from emr.raster import AlphaMatte, Frame


def layer_from(pixels, alpha, **kw):
    pixels = np.asarray(pixels, dtype=np.uint8)
    frame = Frame.from_array(pixels)
    matte = AlphaMatte(np.asarray(alpha, dtype=np.float64))
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


def reference_source(layer: RvoLayer, x: int, y: int):
    """The source (row, col) that placement puts at canvas pixel (x, y), or None.

    Written per pixel from the placement rule alone: along each axis the
    layer covers ``size * scale`` canvas pixels rounded half up from its
    offset, and the pixel at distance d from the offset shows source line
    ``floor(d / scale)``, capped at the last line.
    """

    def axis(pos, offset, size):
        d = pos - offset
        # d < round_half_up(size * scale)  <=>  d + 1/2 <= size * scale, compared exactly
        if d < 0 or 2 * d + 1 > 2 * size * layer.scale:
            return None
        return min(int(d / layer.scale), size - 1)

    row = axis(y, layer.ty, layer.pixels.height)
    col = axis(x, layer.tx, layer.pixels.width)
    return None if row is None or col is None else (row, col)


def place_layer(layer: RvoLayer, canvas_w: int, canvas_h: int):
    """The layer placed on a canvas, as (Frame, AlphaMatte); alpha 0 and black where it is not."""
    out = np.zeros((canvas_h, canvas_w, layer.pixels.channels), dtype=np.uint8)
    out_alpha = np.zeros((canvas_h, canvas_w))
    for y in range(canvas_h):
        for x in range(canvas_w):
            source = reference_source(layer, x, y)
            if source is not None:
                out[y, x] = layer.pixels.data[source]
                out_alpha[y, x] = layer.matte.alpha[source]
    return Frame.from_array(out, index=layer.pixels.index), AlphaMatte(out_alpha)


def full_canvas_compose(background, layers):
    """Reference "over" blend of every canvas pixel, one placed layer at a time, far first.

    Each canvas pixel outside a layer's footprint blends with alpha 0, so
    this also blends the whole footprint, alpha 0 or not.
    """
    canvas = background.to_array()
    for layer in sorted(layers, key=lambda l: l.depth):
        placed, matte = place_layer(layer, background.width, background.height)
        a = matte.alpha[:, :, None]
        blend = a * placed.data.astype(np.float64) + (1.0 - a) * canvas.astype(np.float64)
        canvas = np.minimum(np.floor(blend + 0.5), 255).astype(np.uint8)  # half up
    return Frame.from_array(canvas, index=background.index)


def sparse_layer(rng, canvas=16):
    """A layer whose alpha is 0 on most pixels, often on whole edge rows and columns."""
    h, w = (int(v) for v in rng.integers(1, 9, 2))
    pixels = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    alpha = rng.random((h, w)) * (rng.random((h, w)) < 0.3)
    return layer_from(
        pixels,
        alpha,
        scale=float(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0])),
        tx=int(rng.integers(-8, canvas)),
        ty=int(rng.integers(-8, canvas)),
        depth=float(rng.normal()),
    )


class TestPlaceLayer:
    # each case checks the reference placement, then that compose places the
    # layer the same way: by exact values, and against the reference blend

    def test_identity_transform_keeps_layer(self):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, (4, 4, 3), dtype=np.uint8)
        alpha = rng.random((4, 4))
        layer = layer_from(pixels, alpha)
        placed, matte = place_layer(layer, 4, 4)
        assert np.array_equal(placed.to_array(), pixels)
        assert np.array_equal(matte.to_array(), alpha)
        bg = rng.integers(0, 256, (4, 4, 3), dtype=np.uint8)
        a = alpha[:, :, None]
        expected = np.floor(a * pixels + (1.0 - a) * bg + 0.5)
        out = compose(Frame.from_array(bg), [layer])
        assert np.array_equal(out.to_array(), expected)
        assert out == full_canvas_compose(Frame.from_array(bg), [layer])

    def test_upscale_replicates_nearest(self):
        layer = layer_from([[[200, 100, 40]]], [[0.25]], scale=2.0)
        placed, matte = place_layer(layer, 2, 2)
        assert np.all(placed.to_array() == (200, 100, 40))
        assert np.all(matte.to_array() == 0.25)
        bg = Frame.from_array(np.zeros((2, 2, 3), dtype=np.uint8))
        out = compose(bg, [layer])
        assert np.all(out.to_array() == (50, 25, 10))
        assert out == full_canvas_compose(bg, [layer])

    def test_fully_clipped_is_transparent_not_an_error(self):
        layer = layer_from([[[1, 2, 3]]], [[1.0]], tx=10)
        placed, matte = place_layer(layer, 4, 4)
        assert np.count_nonzero(matte.to_array()) == 0
        assert np.count_nonzero(placed.to_array()) == 0
        bg = Frame.from_array(np.full((4, 4, 3), 9, dtype=np.uint8))
        assert compose(bg, [layer]) == bg == full_canvas_compose(bg, [layer])

    def test_negative_offset_clips_partially(self):
        layer = layer_from([[[5, 5, 5]], [[6, 6, 6]]], [[1.0], [1.0]], ty=-1)
        placed, matte = place_layer(layer, 1, 1)
        assert placed.to_array()[0, 0, 0] == 6
        assert matte.to_array()[0, 0] == 1.0
        bg = Frame.from_array(np.zeros((1, 1, 3), dtype=np.uint8))
        out = compose(bg, [layer])
        assert np.all(out.to_array() == 6)
        assert out == full_canvas_compose(bg, [layer])

    def test_non_positive_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            layer_from([[[0, 0, 0]]], [[0.0]], scale=0.0)


class TestCompose:
    def background(self, rng=None, side=8):
        rng = rng or np.random.default_rng(1)
        return Frame.from_array(rng.integers(0, 256, (side, side, 3), dtype=np.uint8))

    def test_no_layers_is_identity(self):
        bg = self.background()
        assert compose(bg, []) == bg

    def test_transparent_layer_is_identity(self):
        bg = self.background()
        for scale, tx, ty in [(1.0, 0, 0), (0.5, -3, 5), (3.0, 6, -2)]:
            layer = layer_from(np.full((8, 8, 3), 200), np.zeros((8, 8)), scale=scale, tx=tx, ty=ty)
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

    def test_huge_finite_scale_covers_the_canvas(self):
        # 2 * 1e308 overflows to inf; the extent is clipped to the canvas first
        bg = self.background()
        layer = layer_from([[[10, 20, 30], [40, 50, 60]]], [[1.0, 1.0]], scale=1e308, tx=1)
        out = compose(bg, [layer]).to_array()
        assert np.all(out[:, 1:] == (10, 20, 30))
        assert np.array_equal(out[:, 0], bg.to_array()[:, 0])
        assert compose(bg, [layer]) == full_canvas_compose(bg, [layer])

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

    def test_support_blend_matches_full_footprint_blend(self):
        # blending only the box of the support gives the same bytes as
        # blending the whole footprint: non-unit scales, offsets off the
        # canvas edges, and alpha that is 0 on every pixel of a layer
        rng = np.random.default_rng(6)
        for _ in range(300):
            bg = self.background(rng, side=16)
            layers = [sparse_layer(rng) for _ in range(int(rng.integers(1, 4)))]
            blank = layers[0]
            layers.append(RvoLayer(pixels=blank.pixels, matte=AlphaMatte(np.zeros(blank.matte.alpha.shape)),
                                   scale=2.0, tx=-1, ty=3, depth=float(rng.normal())))
            assert compose(bg, layers) == full_canvas_compose(bg, layers)

    def test_support_the_placement_never_shows_changes_nothing(self):
        # alpha > 0 only at source pixels whose row or column no canvas pixel
        # shows: skipped by a scale < 1 or placed off the canvas.  The flagged
        # rows and columns can still span a box, which then holds only alpha 0
        rng = np.random.default_rng(7)
        for _ in range(300):
            bg = self.background(rng, side=int(rng.integers(3, 12)))
            layers = []
            for _ in range(int(rng.integers(1, 4))):
                h, w = (int(v) for v in rng.integers(1, 12, 2))
                layer = layer_from(rng.integers(0, 256, (h, w, 3)), np.zeros((h, w)),
                                   scale=float(rng.choice([0.3, 0.5, 0.77, 1.0, 2.0])),
                                   tx=int(rng.integers(-12, bg.width + 3)),
                                   ty=int(rng.integers(-12, bg.height + 3)),
                                   depth=float(rng.normal()))
                shown = {reference_source(layer, x, y) for y in range(bg.height) for x in range(bg.width)}
                rows = {s[0] for s in shown if s is not None}
                cols = {s[1] for s in shown if s is not None}
                hidden = np.array([[r not in rows or c not in cols for c in range(w)] for r in range(h)])
                alpha = rng.random((h, w)) * hidden * (rng.random((h, w)) < 0.5)
                layers.append(RvoLayer(pixels=layer.pixels, matte=AlphaMatte(alpha), scale=layer.scale,
                                       tx=layer.tx, ty=layer.ty, depth=layer.depth))
            assert compose(bg, layers) == bg == full_canvas_compose(bg, layers)

    @pytest.mark.parametrize("offset", [-2 ** 61, -(2 ** 62 - 1)], ids=["-2**61", "-(2**62-1)"])
    @pytest.mark.parametrize("axes", ["tx", "ty", "tx+ty"])
    def test_huge_scale_at_an_offset_past_2_53_covers_the_canvas(self, offset, axes):
        # the extent reaches the room left on the canvas, which lies past
        # 2**53 and must not be rounded through a float on the way
        bg = Frame.from_array(np.zeros((4, 5, 3), dtype=np.uint8))
        pixels = np.arange(1, 19).reshape(3, 2, 3)
        kw = {axis: offset for axis in axes.split("+")}
        layer = layer_from(pixels, np.ones((3, 2)), scale=1e308, **kw)
        out = compose(bg, [layer])
        assert np.all(out.to_array() == pixels[0, 0])
        assert out == full_canvas_compose(bg, [layer])

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
        with pytest.raises(ValueError, match="views"):
            select_view([], 0.0)

    def test_angle_range_enforced(self):
        with pytest.raises(ValueError):
            ViewSource(id="x", angle_deg=360.0)


class TestFusionParams:
    @pytest.mark.parametrize(
        "kw, field",
        [
            pytest.param(dict(scale=0.0), "scale", id="kw0-InvalidTransform"),
            pytest.param(dict(scale=math.nan), "scale", id="kw1-InvalidTransform"),
            pytest.param(dict(view_angle=360.0), "view_angle", id="kw2-ValueError"),
            pytest.param(dict(view_angle=math.nan), "view_angle", id="kw3-ValueError"),
            pytest.param(dict(views=()), "views", id="kw4-ValueError"),
            pytest.param(dict(tx=2 ** 62), "tx", id="kw5-ValueError"),
            pytest.param(dict(ty=-2 ** 62), "ty", id="kw6-ValueError"),
        ],
    )
    def test_invalid_params_rejected(self, kw, field):
        with pytest.raises(ValueError, match=field):
            FusionParams(**kw)
