"""Trimap generation and recursive per-pixel alpha estimation.

The solver refines opacity over the trimap's UNKNOWN band iteratively.  Each
round estimates local foreground and background colors as window means over
confidently-labeled pixels (trimap labels, plus pixels whose current alpha
has converged past 0.95 / below 0.05), projects the observed color onto the
F-B axis, and smooths the band with one 3x3 averaging pass.  Windows grow by
doubling until both color estimates have samples.  Iteration stops when the
largest per-pixel change drops under ``eps``.  A round whose confident pixels
equal an earlier round's is not computed: from there the rounds cycle, so the
capped iteration's result is already known.

Temporal knowledge of the keyed subject is a fuzzy membership grid, held
as an ``AlphaMatte`` and blended from successive mattes at rate
``lambda_t``.

``MattingParams`` holds every parameter here (trimap radii, solver window,
iteration cap, ``eps`` and ``lambda_t``) and checks them when built;
``trimap_from_mask``, ``alpha_solve`` and ``fuzzy_update`` take it whole and
check none of them again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InsufficientLabels
from .layering import _binary, _dilate, _erode
from .raster import BG, FG, UNKNOWN, AlphaMatte, Frame, Trimap

# samples with alpha beyond these thresholds join the color estimates
_FG_CONF = 0.95
_BG_CONF = 0.05
# below this squared F-B separation the projection is meaningless
_DEGENERATE_SEP = 1.0


@dataclass(frozen=True)
class MattingParams:
    """Trimap radii, solver window and stopping rule, and the fuzzy blend rate."""

    r_fg: int = 2
    r_bg: int = 4
    window: int = 3
    max_iters: int = 20
    eps: float = 1.0 / 255.0
    lambda_t: float = 0.1

    def __post_init__(self):
        if not self.r_fg >= 0:
            raise ValueError(f"r_fg must be >= 0, got {self.r_fg}")
        if not self.r_bg >= self.r_fg:
            raise ValueError(f"r_bg must be >= r_fg, got r_fg={self.r_fg} r_bg={self.r_bg}")
        if not self.window >= 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be >= 1")
        if not self.eps > 0:
            raise ValueError("eps must be > 0")
        if not 0.0 <= self.lambda_t <= 1.0:
            raise ValueError("lambda_t must lie in [0, 1]")


def trimap_from_mask(mask: Frame, params: MattingParams) -> Trimap:
    """Erode the mask into sure-FG, dilate into sure-BG, leave a band UNKNOWN.

    Morphology uses square structuring elements of radii ``params.r_fg`` and
    ``params.r_bg`` with edge-replication padding, so a full-frame mask stays
    all-FG.
    """
    m = _binary(mask)
    fg = _erode(m, params.r_fg, "edge")
    bg = ~_dilate(m, params.r_bg, "edge")
    labels = np.full(m.shape, UNKNOWN, dtype=np.uint8)
    labels[fg] = FG
    labels[bg] = BG
    return Trimap(labels)


@dataclass(frozen=True)
class AlphaSolveResult:
    """Solved matte plus solver diagnostics."""

    matte: AlphaMatte
    iterations: int
    converged: bool
    degenerate: int  # band pixels that fell back to alpha = 0.5 in the last round


def _stacked_table(fg: np.ndarray, bg: np.ndarray, colors: np.ndarray) -> np.ndarray:
    """Raveled summed-area table of FG count, BG count, FG colors and BG colors.

    The table has a zero top row and left column and is returned as
    ``((h + 1) * (w + 1), 2 + 2C)``: row ``y * (w + 1) + x`` holds the sums
    over ``[0, y) x [0, x)``.  Each channel is accumulated on its own, down
    the rows first, then along the columns.
    """
    h, w, c = colors.shape
    table = np.zeros((h + 1, w + 1, 2 + 2 * c))
    cells = table[1:, 1:]
    cells[:, :, 0] = fg
    cells[:, :, 1] = bg
    np.multiply(colors, cells[:, :, 0:1], out=cells[:, :, 2:2 + c])
    np.multiply(colors, cells[:, :, 1:2], out=cells[:, :, 2 + c:])
    np.cumsum(cells, axis=0, out=cells)
    np.cumsum(cells, axis=1, out=cells)
    return table.reshape(-1, 2 + 2 * c)


def _box_sums(table: np.ndarray, ys, xs, radius: int, h: int, w: int) -> np.ndarray:
    """Every channel's sum over the radius windows at (ys, xs), clipped to h x w.

    One gather fetches the four corners of every window from the raveled
    table; they combine as ``a - b - c + d``, left to right.
    """
    stride = w + 1
    y0 = np.maximum(ys - radius, 0) * stride
    y1 = np.minimum(ys + radius + 1, h) * stride
    x0 = np.maximum(xs - radius, 0)
    x1 = np.minimum(xs + radius + 1, w)
    corners = table.take(np.concatenate((y1 + x1, y0 + x1, y1 + x0, y0 + x0)), axis=0)
    a, b, c, d = corners.reshape(4, ys.size, table.shape[1])
    return a - b - c + d


def _grow(box, margin: int, h: int, w: int):
    """A (y0, y1, x0, x1) box grown by margin on every side, clipped to h x w."""
    y0, y1, x0, x1 = box
    return max(y0 - margin, 0), min(y1 + margin, h), max(x0 - margin, 0), min(x1 + margin, w)


def _sum3x3(arr: np.ndarray) -> np.ndarray:
    """Zero-padded 3x3 window sums: each window row left to right, then the rows."""
    p = np.zeros((arr.shape[0] + 2, arr.shape[1] + 2))
    p[1:-1, 1:-1] = arr
    rows = p[:, :-2] + p[:, 1:-1] + p[:, 2:]
    return rows[:-2] + rows[1:-1] + rows[2:]


def alpha_solve(
    frame: Frame, trimap: Trimap, params: MattingParams = MattingParams()
) -> AlphaSolveResult:
    """Estimate per-pixel opacity for the trimap's UNKNOWN band.

    Windows start at radius ``params.window``; at most ``params.max_iters``
    rounds run, and a round whose largest change is under ``params.eps``
    ends the solve as converged.  FG pixels get alpha exactly 1 and BG
    exactly 0.  Pixels whose local foreground and background estimates
    coincide (squared separation < 1) default to 0.5; ``degenerate`` counts
    them in the last round.

    Work stays near the band's bounding box.  One summed-area table of
    2 + 2C channels (FG count, BG count, FG colors, BG colors) covers it
    grown by the largest window radius used so far, and is rebuilt when a
    doubling passes that margin; from radius ``max(h, w)`` on it covers the
    whole frame.  Smoothing covers the box grown by one pixel.

    Exactness: every table entry is a sum of integer counts or 8-bit colors
    over at most h*w pixels, far below 2**53, so each is exact in float64,
    and so is every ``a - b - c + d`` window sum, whatever the table's
    extent or channel stacking.  Each channel is still accumulated rows then
    columns and combined in that corner order, as the four separate
    tables were, so the matte, iteration count, ``converged`` and
    ``degenerate`` are identical to theirs.

    Repeated rounds: a round's outcome (smoothed band alpha and degenerate
    count) depends only on its confident sets, the band pixels above 0.95
    and below 0.05, since the labels outside the band, the colors, the band
    and its smoothing box are fixed and every window sum is exact.  So when
    round k's sets equal an earlier round j's, round k returns round j's
    alpha and the rounds cycle with period ``p = k - j``; no table is built
    for it.  If that alpha is within ``eps`` of the current one the solve
    ends converged at round k.  Otherwise every later change repeats one of
    rounds j+1 .. k, each at least ``eps``, so none converges and the solve
    returns round ``j + (max_iters - 1 - j) % p``.  ``iterations`` and
    ``converged`` describe the ``max_iters``-capped iteration as if every
    round ran: ``iterations`` counts the rounds up to the converged one, or
    is ``max_iters``.
    """
    if (frame.width, frame.height) != (trimap.width, trimap.height):
        raise DimensionMismatch("frame and trimap dimensions differ")
    h, w = frame.height, frame.width
    labels = trimap.labels
    fg_lab = labels == FG
    bg_lab = labels == BG
    unk = labels == UNKNOWN

    alpha = np.zeros((h, w))
    alpha[fg_lab] = 1.0
    if not unk.any():
        return AlphaSolveResult(
            matte=AlphaMatte(alpha), iterations=0, converged=True, degenerate=0
        )
    if not fg_lab.any() or not bg_lab.any():
        raise InsufficientLabels("unknown pixels need both FG and BG labels somewhere")

    colors = frame.data.astype(np.float64)
    c = frame.channels
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

    margin = params.window
    iterations = params.max_iters
    converged = False
    seen = {}  # a round's confident band sets, as bytes -> that round's index
    rounds = []  # per round: (band alpha, degenerate count)

    for k in range(params.max_iters):
        band_alpha = alpha[ys, xs]
        sets = (band_alpha > _FG_CONF).tobytes() + (band_alpha < _BG_CONF).tobytes()
        j = seen.setdefault(sets, k)
        if j < k:
            # rounds k, k+1, ... repeat rounds j .. k-1 in turn; if this one
            # does not converge, none of them does
            if float(np.abs(rounds[j][0] - band_alpha).max()) < params.eps:
                iterations, converged, last = k + 1, True, j
            else:
                last = j + (params.max_iters - 1 - j) % (k - j)
            break
        fg_src = fg_lab | (alpha > _FG_CONF)
        bg_src = bg_lab | (alpha < _BG_CONF)

        sums = np.zeros((n, 2 + 2 * c))  # per band pixel: fcnt, bcnt, fsum, bsum
        unresolved = np.ones(n, dtype=bool)
        radius = params.window
        table = None
        while unresolved.any():
            if table is None or radius > margin:
                # a window of radius <= margin around a band pixel stays
                # inside the band box grown by the margin, clipped to the frame
                margin = max(margin, radius)
                y0, y1, x0, x1 = _grow(band, margin, h, w)
                bh, bw = y1 - y0, x1 - x0
                by, bx = ys - y0, xs - x0
                table = _stacked_table(
                    fg_src[y0:y1, x0:x1], bg_src[y0:y1, x0:x1], colors[y0:y1, x0:x1]
                )
            sel = np.nonzero(unresolved)[0]
            found = _box_sums(table, by[sel], bx[sel], radius, bh, bw)
            good = (found[:, 0] > 0) & (found[:, 1] > 0)
            done = sel[good]
            sums[done] = found[good]
            unresolved[done] = False
            if radius >= max_radius:
                # precondition guarantees global samples; the box is the whole frame
                sums[unresolved] = table[-1]
                unresolved[:] = False
            radius *= 2

        fhat = sums[:, 2:2 + c] / sums[:, 0:1]
        bhat = sums[:, 2 + c:] / sums[:, 1:2]
        d = fhat - bhat
        denom = (d * d).sum(axis=1)
        degen = denom < _DEGENERATE_SEP
        num = ((cvals - bhat) * d).sum(axis=1)
        proj = np.divide(num, denom, out=np.full(n, 0.5), where=~degen)
        np.clip(proj, 0.0, 1.0, out=proj)

        # one Jacobi-style 3x3 averaging pass over the UNKNOWN band only
        projected = alpha[sy0:sy1, sx0:sx1].copy()
        projected[sy, sx] = proj
        smoothed = _sum3x3(projected)[sy, sx] / neighbor_cnt

        rounds.append((smoothed, int(np.count_nonzero(degen))))
        last = k
        if float(np.abs(smoothed - band_alpha).max()) < params.eps:
            iterations, converged = k + 1, True
            break
        alpha[ys, xs] = smoothed

    band_alpha, degenerate = rounds[last]
    alpha[ys, xs] = band_alpha
    matte = AlphaMatte(np.clip(alpha, 0.0, 1.0))
    return AlphaSolveResult(
        matte=matte, iterations=iterations, converged=converged, degenerate=degenerate
    )


def fuzzy_init(width: int, height: int) -> AlphaMatte:
    """An empty membership grid: no pixel is known to be foreground yet."""
    return AlphaMatte(np.zeros((height, width)))


def fuzzy_update(knowledge: AlphaMatte, matte: AlphaMatte, params: MattingParams) -> AlphaMatte:
    """Blend a matte into the membership grid at rate lambda = ``params.lambda_t``:

    m' = (1 - lambda) * m + lambda * alpha
    """
    if knowledge.alpha.shape != matte.alpha.shape:
        raise DimensionMismatch("matte dimensions do not match the knowledge grid")
    lam = params.lambda_t
    return AlphaMatte((1.0 - lam) * knowledge.alpha + lam * matte.alpha)
