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

from .errors import DimensionMismatch
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
        _check_scale(self.scale)
        _check_offset("tx", self.tx)
        _check_offset("ty", self.ty)


def _check_angle(name: str, degrees: float) -> None:
    if not 0.0 <= degrees < 360.0:
        raise ValueError(f"{name} must lie in [0, 360)")


def _check_scale(scale: float) -> None:
    if not scale > 0:
        raise ValueError(f"scale must be > 0, got {scale}")


# an offset below this in magnitude keeps ``_resample``'s int64 arithmetic in range
_OFFSET_LIMIT = 2 ** 62


def _check_offset(name: str, offset: int) -> None:
    if not -_OFFSET_LIMIT < offset < _OFFSET_LIMIT:
        raise ValueError(f"{name} must lie strictly between -2**62 and 2**62, got {offset}")


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
    view_angle: float = 0.0
    views: tuple[ViewSource, ...] = (ViewSource("front", 0.0), ViewSource("profile", 90.0))

    def __post_init__(self):
        if not self.views:
            raise ValueError("views must hold at least one view")
        _check_scale(self.scale)
        _check_offset("tx", self.tx)
        _check_offset("ty", self.ty)
        _check_angle("view_angle", self.view_angle)


def _extent(size: int, scale: float, room: int) -> int:
    """size * scale rounded half up, clipped first to the room left on the canvas
    (so a huge finite scale cannot overflow; what lies past it is clipped anyway)."""
    return int(math.floor(min(size * scale, room) + 0.5))


def _resample(layer: RvoLayer, canvas_w: int, canvas_h: int):
    """Nearest-neighbor placement of a layer, clipped to the canvas.

    Returns ``((y0, y1, x0, x1), pixels, alpha)``: the covered canvas rectangle
    and the layer's uint8 pixels and float alpha resampled onto it, or None
    when the layer falls entirely outside the canvas.
    """
    sw = _extent(layer.pixels.width, layer.scale, canvas_w - layer.tx)
    sh = _extent(layer.pixels.height, layer.scale, canvas_h - layer.ty)
    x0, x1 = max(0, layer.tx), min(canvas_w, layer.tx + sw)
    y0, y1 = max(0, layer.ty), min(canvas_h, layer.ty + sh)
    if x0 >= x1 or y0 >= y1:
        return None
    xs = np.arange(x0, x1)
    ys = np.arange(y0, y1)
    src_x = np.minimum(((xs - layer.tx) / layer.scale).astype(np.int64), layer.pixels.width - 1)
    src_y = np.minimum(((ys - layer.ty) / layer.scale).astype(np.int64), layer.pixels.height - 1)
    rows, cols = src_y[:, None], src_x[None, :]
    pixels = layer.pixels.data[rows, cols]
    alpha = layer.matte.alpha[rows, cols]
    return (y0, y1, x0, x1), pixels, alpha


def compose(background: Frame, layers) -> Frame:
    """Blend layers over the background, far first (ascending depth).

    Only the rows and columns of each layer's clipped footprint that hold
    some alpha > 0 are blended, and a layer with none is skipped.  Everywhere
    else the placed alpha is 0, and ``round_u8(0*f + 1*c) == c`` for every
    integer sample c, so the result is byte-identical to a full-canvas blend.
    """
    canvas = background.to_array()
    ordered = sorted(layers, key=lambda l: l.depth)  # stable: equal depths keep input order
    for layer in ordered:
        if layer.pixels.channels != background.channels:
            raise DimensionMismatch("layer channel count differs from background")
        placed = _resample(layer, background.width, background.height)
        if placed is None:
            continue
        (y0, _, x0, _), pixels, alpha = placed
        support = alpha > 0
        rows = np.flatnonzero(support.any(axis=1))
        if rows.size == 0:
            continue
        cols = np.flatnonzero(support.any(axis=0))
        box = np.s_[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
        a = alpha[box][:, :, None]
        y, x = y0 + rows[0], x0 + cols[0]
        target = canvas[y:y + a.shape[0], x:x + a.shape[1]]
        target[...] = round_u8(a * pixels[box].astype(np.float64) + (1.0 - a) * target)
    return Frame.from_array(canvas, index=background.index)


def select_view(views, target_angle_deg: float) -> ViewSource:
    """Pick the view with minimum circular distance; ties go to the earlier view."""
    views = list(views)
    if not views:
        raise ValueError("no views to select from")

    def circ_dist(view):
        d = abs(view.angle_deg - target_angle_deg) % 360.0
        return min(d, 360.0 - d)

    return min(views, key=circ_dist)  # min keeps the first of equal keys
