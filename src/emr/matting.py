"""Trimap generation and recursive per-pixel alpha estimation.

The solver refines opacity over the trimap's UNKNOWN band iteratively.  Each
round estimates local foreground and background colors as window means over
confidently-labeled pixels (trimap labels, plus pixels whose current alpha
has converged past 0.95 / below 0.05), projects the observed color onto the
F-B axis, and smooths the band with one 3x3 averaging pass.  Windows grow by
doubling until both color estimates have samples.  Iteration stops when the
largest per-pixel change drops under ``eps``.

Temporal knowledge of the keyed subject is held as a fuzzy membership grid
blended from successive mattes at rate ``lambda_t``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InsufficientLabels, InvalidRadii
from .layering import _binary, _dilate, _erode
from .raster import BG, FG, UNKNOWN, AlphaMatte, Frame, Trimap

DEFAULT_WINDOW = 3
DEFAULT_MAX_ITERS = 20
DEFAULT_EPS = 1.0 / 255.0

# samples with alpha beyond these thresholds join the color estimates
_FG_CONF = 0.95
_BG_CONF = 0.05
# below this squared F-B separation the projection is meaningless
_DEGENERATE_SEP = 1.0


def trimap_from_mask(mask: Frame, r_fg: int = 2, r_bg: int = 4) -> Trimap:
    """Erode the mask into sure-FG, dilate into sure-BG, leave a band UNKNOWN.

    Morphology uses square structuring elements of the given radii with
    edge-replication padding, so a full-frame mask stays all-FG.
    """
    if r_fg < 0 or r_bg < r_fg:
        raise InvalidRadii(f"need r_bg >= r_fg >= 0, got r_fg={r_fg} r_bg={r_bg}")
    m = _binary(mask)
    fg = _erode(m, r_fg, "edge")
    bg = ~_dilate(m, r_bg, "edge")
    labels = np.full(m.shape, UNKNOWN, dtype=np.uint8)
    labels[fg] = FG
    labels[bg] = BG
    return Trimap.from_array(labels)


@dataclass(frozen=True)
class AlphaSolveResult:
    """Solved matte plus solver diagnostics."""

    matte: AlphaMatte
    iterations: int
    converged: bool
    degenerate: frozenset  # flat pixel indices that fell back to alpha = 0.5
    changes: tuple = ()    # max per-pixel change after each iteration


def _integral(arr: np.ndarray) -> np.ndarray:
    """Summed-area table with a zero top row and left column."""
    s = arr.cumsum(axis=0).cumsum(axis=1)
    out = np.zeros((arr.shape[0] + 1, arr.shape[1] + 1) + arr.shape[2:], dtype=np.float64)
    out[1:, 1:] = s
    return out


def _box(ii: np.ndarray, ys, xs, radius, h, w):
    y0 = np.maximum(ys - radius, 0)
    y1 = np.minimum(ys + radius + 1, h)
    x0 = np.maximum(xs - radius, 0)
    x1 = np.minimum(xs + radius + 1, w)
    return ii[y1, x1] - ii[y0, x1] - ii[y1, x0] + ii[y0, x0]


def _grow(box, margin: int, h: int, w: int):
    """A (y0, y1, x0, x1) box grown by margin on every side, clipped to h x w."""
    y0, y1, x0, x1 = box
    return max(y0 - margin, 0), min(y1 + margin, h), max(x0 - margin, 0), min(x1 + margin, w)


def _sum3x3(arr: np.ndarray) -> np.ndarray:
    """Zero-padded 3x3 window sums: each window row left to right, then the rows."""
    p = np.pad(arr, 1)
    rows = p[:, :-2] + p[:, 1:-1] + p[:, 2:]
    return rows[:-2] + rows[1:-1] + rows[2:]


def alpha_solve(
    frame: Frame,
    trimap: Trimap,
    max_iters: int = DEFAULT_MAX_ITERS,
    eps: float = DEFAULT_EPS,
    window: int = DEFAULT_WINDOW,
) -> AlphaSolveResult:
    """Estimate per-pixel opacity for the trimap's UNKNOWN band.

    FG pixels get alpha exactly 1 and BG exactly 0.  Pixels whose local
    foreground and background estimates coincide (squared separation < 1)
    default to 0.5 and are reported in ``degenerate``.

    Work stays near the band's bounding box.  The summed-area tables cover it
    grown by the largest window radius used so far, and are rebuilt when a
    doubling passes that margin; from radius ``max(h, w)`` on they cover the
    whole frame.  Smoothing covers the box grown by one pixel.  The tables sum
    integer counts and colors, so every box sum is exact in float64 and the
    matte is bit-identical to one solved with full-frame tables.
    """
    if (frame.width, frame.height) != (trimap.width, trimap.height):
        raise DimensionMismatch("frame and trimap dimensions differ")
    h, w = frame.height, frame.width
    labels = trimap.to_array()
    fg_lab = labels == FG
    bg_lab = labels == BG
    unk = labels == UNKNOWN

    alpha = np.zeros((h, w))
    alpha[fg_lab] = 1.0
    if not unk.any():
        matte = AlphaMatte.from_array(alpha)
        return AlphaSolveResult(
            matte=matte, iterations=0, converged=True, degenerate=frozenset(), changes=()
        )
    if not fg_lab.any() or not bg_lab.any():
        raise InsufficientLabels("unknown pixels need both FG and BG labels somewhere")

    colors = frame.to_array().astype(np.float64)
    ys, xs = np.nonzero(unk)
    n = ys.size
    cvals = colors[ys, xs]  # (n, C)
    alpha[unk] = 0.5
    max_radius = max(h, w)
    band = (int(ys.min()), int(ys.max()) + 1, int(xs.min()), int(xs.max()) + 1)

    # a band pixel's 3x3 neighborhood lies in the band box grown by one
    sy0, sy1, sx0, sx1 = _grow(band, 1, h, w)
    sy, sx = ys - sy0, xs - sx0
    neighbor_cnt = _sum3x3(np.ones((sy1 - sy0, sx1 - sx0)))[sy, sx]  # in-bounds neighbors

    degen = np.zeros(n, dtype=bool)
    margin = window
    iterations = 0
    converged = False
    changes = []

    for _ in range(max_iters):
        fg_src = fg_lab | (alpha > _FG_CONF)
        bg_src = bg_lab | (alpha < _BG_CONF)

        fsum = np.zeros((n, frame.channels))
        bsum = np.zeros((n, frame.channels))
        fcnt = np.zeros(n)
        bcnt = np.zeros(n)
        unresolved = np.ones(n, dtype=bool)
        radius = window
        fg_cnt_ii = None
        while unresolved.any():
            if fg_cnt_ii is None or radius > margin:
                # a window of radius <= margin around a band pixel stays
                # inside the band box grown by the margin, clipped to the frame
                margin = max(margin, radius)
                y0, y1, x0, x1 = _grow(band, margin, h, w)
                bh, bw = y1 - y0, x1 - x0
                by, bx = ys - y0, xs - x0
                fg_box = fg_src[y0:y1, x0:x1]
                bg_box = bg_src[y0:y1, x0:x1]
                box_colors = colors[y0:y1, x0:x1]
                fg_cnt_ii = _integral(fg_box.astype(np.float64))
                bg_cnt_ii = _integral(bg_box.astype(np.float64))
                fg_sum_ii = _integral(box_colors * fg_box[:, :, None])
                bg_sum_ii = _integral(box_colors * bg_box[:, :, None])
            sel = np.nonzero(unresolved)[0]
            cf = _box(fg_cnt_ii, by[sel], bx[sel], radius, bh, bw)
            cb = _box(bg_cnt_ii, by[sel], bx[sel], radius, bh, bw)
            good = (cf > 0) & (cb > 0)
            done = sel[good]
            if done.size:
                fcnt[done] = cf[good]
                bcnt[done] = cb[good]
                fsum[done] = _box(fg_sum_ii, by[done], bx[done], radius, bh, bw)
                bsum[done] = _box(bg_sum_ii, by[done], bx[done], radius, bh, bw)
                unresolved[done] = False
            if radius >= max_radius:
                # precondition guarantees global samples; the box is the whole frame
                rest = np.nonzero(unresolved)[0]
                fcnt[rest] = fg_cnt_ii[bh, bw]
                bcnt[rest] = bg_cnt_ii[bh, bw]
                fsum[rest] = fg_sum_ii[bh, bw]
                bsum[rest] = bg_sum_ii[bh, bw]
                unresolved[rest] = False
            radius *= 2

        fhat = fsum / fcnt[:, None]
        bhat = bsum / bcnt[:, None]
        d = fhat - bhat
        denom = (d * d).sum(axis=1)
        degen = denom < _DEGENERATE_SEP
        proj = np.zeros(n)
        ok = ~degen
        proj[ok] = ((cvals[ok] - bhat[ok]) * d[ok]).sum(axis=1) / denom[ok]
        proj = np.clip(proj, 0.0, 1.0)
        proj[degen] = 0.5

        # one Jacobi-style 3x3 averaging pass over the UNKNOWN band only
        projected = alpha[sy0:sy1, sx0:sx1].copy()
        projected[sy, sx] = proj
        smoothed = _sum3x3(projected)[sy, sx] / neighbor_cnt

        change = float(np.abs(smoothed - alpha[ys, xs]).max())
        changes.append(change)
        alpha[ys, xs] = smoothed
        iterations += 1
        if change < eps:
            converged = True
            break

    matte = AlphaMatte.from_array(np.clip(alpha, 0.0, 1.0))
    return AlphaSolveResult(
        matte=matte, iterations=iterations, converged=converged,
        degenerate=frozenset((ys[degen] * w + xs[degen]).tolist()), changes=tuple(changes),
    )


@dataclass(frozen=True)
class FuzzyKnowledge:
    """Temporal foreground membership, blended from mattes at rate lambda_t."""

    width: int
    height: int
    membership: tuple
    lambda_t: float = 0.1

    def __post_init__(self):
        if len(self.membership) != self.width * self.height:
            raise ValueError("membership length != width*height")
        if any(not 0.0 <= m <= 1.0 for m in self.membership):
            raise ValueError("membership values must lie in [0, 1]")
        if not 0.0 <= self.lambda_t <= 1.0:
            raise ValueError("lambda_t must lie in [0, 1]")

    def to_array(self) -> np.ndarray:
        return np.asarray(self.membership, dtype=np.float64).reshape(self.height, self.width)


def fuzzy_init(width: int, height: int, lambda_t: float = 0.1, value: float = 0.0) -> FuzzyKnowledge:
    return FuzzyKnowledge(
        width=width, height=height, membership=(value,) * (width * height), lambda_t=lambda_t
    )


def fuzzy_update(knowledge: FuzzyKnowledge, matte: AlphaMatte) -> FuzzyKnowledge:
    """Blend a matte into the membership grid: m' = (1-lambda)*m + lambda*alpha."""
    if (knowledge.width, knowledge.height) != (matte.width, matte.height):
        raise DimensionMismatch("matte dimensions do not match the knowledge grid")
    lam = knowledge.lambda_t
    mem = tuple(
        (1.0 - lam) * m + lam * a for m, a in zip(knowledge.membership, matte.alpha)
    )
    return FuzzyKnowledge(
        width=knowledge.width, height=knowledge.height, membership=mem, lambda_t=lam
    )
