"""Scene fusion: place keyed layers into a target scene and blend by alpha.

Layers are real-virtual objects: a pixel rectangle with its matte, a
scale/translate transform, and a depth (larger = nearer).  Composition sorts
far-to-near and blends ``C = round(alpha*F + (1-alpha)*C)`` per channel.
Resampling is nearest-neighbor so results are integer-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidTransform, NoViews
from .raster import AlphaMatte, Frame, round_u8


@dataclass(frozen=True)
class RvoLayer:
    """A keyed layer with placement transform and depth."""

    pixels: Frame
    matte: AlphaMatte
    scale: float = 1.0
    tx: int = 0
    ty: int = 0
    depth: float = 0.0

    def __post_init__(self):
        if (self.pixels.width, self.pixels.height) != (self.matte.width, self.matte.height):
            raise ValueError("layer pixels and matte dimensions differ")


def _check_angle(name: str, degrees: float) -> None:
    if not 0.0 <= degrees < 360.0:
        raise ValueError(f"{name} must lie in [0, 360)")


def _check_scale(scale: float) -> None:
    if not scale > 0:
        raise InvalidTransform(f"scale must be > 0, got {scale}")


@dataclass(frozen=True)
class ViewSource:
    """One camera view: an identifier and its bearing."""

    id: str
    angle_deg: float

    def __post_init__(self):
        _check_angle("angle_deg", self.angle_deg)


@dataclass(frozen=True)
class FusionParams:
    """Placement of the keyed layer, the target bearing and the candidate views."""

    scale: float = 1.0
    tx: int = 0
    ty: int = 0
    depth: float = 0.0
    view_angle: float = 0.0
    views: tuple = (ViewSource("front", 0.0), ViewSource("profile", 90.0))

    def __post_init__(self):
        _check_scale(self.scale)
        _check_angle("view_angle", self.view_angle)


def _round_half_away(v: float) -> int:
    return int(math.floor(v + 0.5)) if v >= 0 else -int(math.floor(-v + 0.5))


def _resample(layer: RvoLayer, canvas_w: int, canvas_h: int):
    """Nearest-neighbor placement of a layer, clipped to the canvas.

    Returns ``((y0, y1, x0, x1), pixels, alpha)``: the covered canvas rectangle
    and the layer's uint8 pixels and float alpha resampled onto it, or None
    when the layer falls entirely outside the canvas.
    """
    _check_scale(layer.scale)
    sw = _round_half_away(layer.pixels.width * layer.scale)
    sh = _round_half_away(layer.pixels.height * layer.scale)
    x0, x1 = max(0, layer.tx), min(canvas_w, layer.tx + sw)
    y0, y1 = max(0, layer.ty), min(canvas_h, layer.ty + sh)
    if x0 >= x1 or y0 >= y1:
        return None
    xs = np.arange(x0, x1)
    ys = np.arange(y0, y1)
    src_x = np.minimum(((xs - layer.tx) / layer.scale).astype(np.int64), layer.pixels.width - 1)
    src_y = np.minimum(((ys - layer.ty) / layer.scale).astype(np.int64), layer.pixels.height - 1)
    rows, cols = src_y[:, None], src_x[None, :]
    pixels = layer.pixels.to_array()[rows, cols]
    alpha = layer.matte.to_array()[rows, cols]
    return (y0, y1, x0, x1), pixels, alpha


def place_layer(layer: RvoLayer, canvas_w: int, canvas_h: int):
    """Resample and translate a layer onto a canvas; returns (Frame, AlphaMatte).

    Pixels falling outside the canvas are clipped; uncovered canvas pixels get
    alpha 0 (and black pixels).
    """
    out = np.zeros((canvas_h, canvas_w, layer.pixels.channels), dtype=np.uint8)
    out_alpha = np.zeros((canvas_h, canvas_w))
    placed = _resample(layer, canvas_w, canvas_h)
    if placed is not None:
        (y0, y1, x0, x1), pixels, alpha = placed
        out[y0:y1, x0:x1] = pixels
        out_alpha[y0:y1, x0:x1] = alpha
    return Frame.from_array(out, index=layer.pixels.index), AlphaMatte.from_array(out_alpha)


def compose(background: Frame, layers) -> Frame:
    """Blend layers over the background, far first (ascending depth).

    Only each layer's clipped footprint is blended.  Everywhere else the
    placed alpha is 0, and ``round_u8(0*0 + 1*c) == c`` for every integer
    sample c, so the result is byte-identical to a full-canvas blend.
    """
    canvas = background.to_array()
    ordered = sorted(layers, key=lambda l: l.depth)  # stable: equal depths keep input order
    for layer in ordered:
        if layer.pixels.channels != background.channels:
            raise DimensionMismatch("layer channel count differs from background")
        placed = _resample(layer, background.width, background.height)
        if placed is None:
            continue
        (y0, y1, x0, x1), pixels, alpha = placed
        a = alpha[:, :, None]
        region = canvas[y0:y1, x0:x1].astype(np.float64)
        canvas[y0:y1, x0:x1] = round_u8(a * pixels.astype(np.float64) + (1.0 - a) * region)
    return Frame.from_array(canvas, index=background.index)


def select_view(views, target_angle_deg: float) -> ViewSource:
    """Pick the view with minimum circular distance; ties go to the earlier view."""
    views = list(views)
    if not views:
        raise NoViews("no views to select from")

    def circ_dist(view):
        d = abs(view.angle_deg - target_angle_deg) % 360.0
        return min(d, 360.0 - d)

    return min(views, key=circ_dist)  # min keeps the first of equal keys
