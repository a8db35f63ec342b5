"""Scene fusion: place keyed layers into a target scene and blend by alpha.

Layers are real-virtual objects: a pixel rectangle with its matte, a
scale/translate transform, and a depth (larger = nearer).  Composition sorts
far-to-near and blends ``C = round(alpha*F + (1-alpha)*C)`` per channel.
Resampling is nearest-neighbor so results are integer-exact, and it reads
only the box of the source matte's support (alpha > 0), since alpha 0
leaves every sample unchanged.
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


# an offset below this in magnitude keeps ``_span``'s int64 arithmetic in range
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
    """size * scale rounded half up, clipped to the room left on the canvas; the clip
    comes first, so a huge scale cannot overflow and a room past 2**53 stays exact."""
    return room if size * scale >= room else int(math.floor(size * scale + 0.5))


def _span(used, offset: int, scale: float, limit: int):
    """One axis of a nearest-neighbor placement, cut to the lines flagged in ``used``.

    Of the canvas run ``[offset, offset + extent)`` clipped to ``[0, limit)``,
    returns ``(start, src)``: the position of the first line placed from a
    flagged source line, and the source index of each position from it to the
    last such line; or None when no flagged line lands on the canvas.
    """
    start = max(0, offset)
    stop = min(limit, offset + _extent(used.size, scale, limit - offset))
    src = np.minimum(((np.arange(start, stop) - offset) / scale).astype(np.int64), used.size - 1)
    hit = np.flatnonzero(used[src])
    if hit.size == 0:
        return None
    return start + int(hit[0]), src[hit[0]:hit[-1] + 1]


def compose(background: Frame, layers) -> Frame:
    """Blend layers over the background, far first (ascending depth).

    Each layer's support (alpha > 0) is found on its source matte first, and
    only the canvas box of placed rows and columns whose source row or column
    holds some is gathered and blended; a layer with none on the canvas is
    skipped.  The box may hold pixels of alpha 0, as does all outside it, and
    ``round_u8(0*f + 1*c) == c`` for every integer sample c, so the result is
    byte-identical to a full-canvas blend.
    """
    canvas = background.to_array()
    for layer in sorted(layers, key=lambda l: l.depth):  # stable: equal depths keep input order
        if layer.pixels.channels != background.channels:
            raise DimensionMismatch("layer channel count differs from background")
        support = layer.matte.alpha > 0
        rows = _span(support.any(axis=1), layer.ty, layer.scale, background.height)
        cols = _span(support.any(axis=0), layer.tx, layer.scale, background.width)
        if rows is None or cols is None:
            continue
        (y, src_y), (x, src_x) = rows, cols
        box = np.ix_(src_y, src_x)
        a = layer.matte.alpha[box][:, :, None]
        target = canvas[y:y + src_y.size, x:x + src_x.size]
        target[...] = round_u8(a * layer.pixels.data[box].astype(np.float64) + (1.0 - a) * target)
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
