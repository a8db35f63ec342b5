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
from .layering import _binary, _window_any
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


def trimap_from_mask(mask: Frame, params: MattingParams, scale: int) -> Trimap:
    """Erode the mask into sure-FG, dilate into sure-BG, leave a band UNKNOWN.

    The radii ``params.r_fg`` and ``params.r_bg`` are in capture pixels: a
    mask keyed at a level of scale factor ``scale`` is eroded and dilated by
    square structuring elements of radii ``r_fg // scale`` and
    ``r_bg // scale``.  The windows are clipped to the frame
    (``_window_any``), which erodes as edge-replication padding would, so a
    full-frame mask stays all-FG.
    """
    m = _binary(mask)
    core = ~_window_any(~m, params.r_fg // scale)
    reach = _window_any(m, params.r_bg // scale)
    # core <= m <= reach, so the sum is BG 0 outside reach, UNKNOWN 1 or FG 2
    return Trimap(np.add(reach, core, dtype=np.uint8))


@dataclass(frozen=True)
class AlphaSolveResult:
    """Solved matte plus solver diagnostics."""

    matte: AlphaMatte
    iterations: int
    converged: bool
    degenerate: int  # band pixels that fell back to alpha = 0.5 in the last round


def _stacked_table(fg: np.ndarray, bg: np.ndarray, colors: np.ndarray) -> np.ndarray:
    """Raveled int64 summed-area table of FG count, BG count, FG colors and BG colors.

    The table has a zero top row and left column and is returned as
    ``((h + 1) * (w + 1), 2 + 2C)``: row ``y * (w + 1) + x`` holds the sums
    over ``[0, y) x [0, x)``.
    """
    h, w, c = colors.shape
    table = np.zeros((h + 1, w + 1, 2 + 2 * c), dtype=np.int64)
    cells = table[1:, 1:]
    cells[:, :, 0] = fg
    cells[:, :, 1] = bg
    np.multiply(colors, cells[:, :, 0:1], out=cells[:, :, 2:2 + c])
    np.multiply(colors, cells[:, :, 1:2], out=cells[:, :, 2 + c:])
    np.cumsum(cells, axis=0, out=cells)
    np.cumsum(cells, axis=1, out=cells)
    return table.reshape(-1, 2 + 2 * c)


def _corners(ys, xs, radius: int, h: int, w: int) -> np.ndarray:
    """Table rows of the four corners of the radius windows at (ys, xs), clipped to h x w.

    They come as four blocks of ``ys.size`` rows, ``a, b, c, d`` of the
    window sum ``a - b - c + d``.
    """
    stride = w + 1
    y0 = np.maximum(ys - radius, 0) * stride
    y1 = np.minimum(ys + radius + 1, h) * stride
    x0 = np.maximum(xs - radius, 0)
    x1 = np.minimum(xs + radius + 1, w)
    return np.concatenate((y1 + x1, y0 + x1, y1 + x0, y0 + x0))


def _box_sums(table: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Every channel's window sum, from one gather of the ``_corners`` rows."""
    a, b, c, d = table.take(corners, axis=0).reshape(4, -1, table.shape[1])
    return a - b - c + d


def _grow(box, margin: int, h: int, w: int):
    """A (y0, y1, x0, x1) box grown by margin on every side, clipped to h x w."""
    y0, y1, x0, x1 = box
    return max(y0 - margin, 0), min(y1 + margin, h), max(x0 - margin, 0), min(x1 + margin, w)


def _sum3x3(p: np.ndarray) -> np.ndarray:
    """3x3 window sums over the inside of a zero-bordered array: each window
    row left to right, then the rows."""
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

    Work stays near the band's bounding box, and each window sum has two
    parts.  The label part counts the trimap's FG and BG, fixed for the
    solve: one summed-area table of 2 + 2C channels (FG count, BG count, FG
    colors, BG colors) over the band box grown by a radius gives every band
    pixel's sums at that radius, kept for the rest of the solve.  Only the
    first round builds these: later rounds add confident band pixels to a
    window's counts and remove none, so no window needs a larger radius
    than it did there.  The band part counts the band pixels above 0.95 and
    below 0.05, the only sources that change between rounds: one table per
    round over the band box alone, none while no band pixel is confident,
    as in the first round.  Smoothing covers the band box grown by one
    pixel.

    Exactness: every table entry and window sum is an int64 sum of counts
    or 8-bit colors over at most h*w pixels, far below 2**53, so the two
    parts add to the sums of one table over the labels and the confident
    band together, and each is exact once it becomes float64 for the
    divisions.  The matte, iteration count, ``converged`` and
    ``degenerate`` are thus those of float64 tables of any extent.

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

    alpha = fg_lab.astype(np.float64)
    if not unk.any():
        return AlphaSolveResult(
            matte=AlphaMatte(alpha), iterations=0, converged=True, degenerate=0
        )
    if not fg_lab.any() or not bg_lab.any():
        raise InsufficientLabels("unknown pixels need both FG and BG labels somewhere")

    data = frame.data
    c = frame.channels
    ys, xs = np.nonzero(unk)
    n = ys.size
    cvals = data[ys, xs].astype(np.float64)  # (n, C)
    band = (int(ys.min()), int(ys.max()) + 1, int(xs.min()), int(xs.max()) + 1)
    by0, by1, bx0, bx1 = band
    by, bx = ys - by0, xs - bx0
    marks = np.zeros((2, by1 - by0, bx1 - bx0), dtype=bool)  # confident band pixels

    # a band pixel's 3x3 neighborhood lies in the band box grown by one; the
    # smoothing box borders it with zeros, which stand for out-of-frame pixels
    sy0, sy1, sx0, sx1 = _grow(band, 1, h, w)
    sy, sx = ys - sy0, xs - sx0
    smooth = np.zeros((sy1 - sy0 + 2, sx1 - sx0 + 2))
    inner = smooth[1:-1, 1:-1]
    inner[...] = 1.0
    neighbor_cnt = _sum3x3(smooth)[sy, sx]  # in-frame neighbors
    inner[...] = fg_lab[sy0:sy1, sx0:sx1]

    label_sums = {}  # radius -> every band pixel's label part
    band_corners = {}  # radius -> the windows' corner rows in the band box's table
    sums = np.empty((n, 2 + 2 * c))  # per band pixel: fcnt, bcnt, fsum, bsum
    iterations = params.max_iters
    converged = False
    seen = {}  # a round's confident band sets, as bytes -> that round's index
    rounds = []  # per round: (band alpha, degenerate count)
    band_alpha = np.full(n, 0.5)

    for k in range(params.max_iters):
        conf_fg = band_alpha > _FG_CONF
        conf_bg = band_alpha < _BG_CONF
        sets = conf_fg.tobytes() + conf_bg.tobytes()
        j = seen.setdefault(sets, k)
        if j < k:
            # rounds k, k+1, ... repeat rounds j .. k-1 in turn; if this one
            # does not converge, none of them does
            if float(np.abs(rounds[j][0] - band_alpha).max()) < params.eps:
                iterations, converged, last = k + 1, True, j
            else:
                last = j + (params.max_iters - 1 - j) % (k - j)
            break
        band_table = None
        if conf_fg.any() or conf_bg.any():
            marks[0, by, bx] = conf_fg
            marks[1, by, bx] = conf_bg
            band_table = _stacked_table(marks[0], marks[1], data[by0:by1, bx0:bx1])

        unresolved = np.ones(n, dtype=bool)
        radius = params.window
        while unresolved.any():
            # from radius max(h, w) on every window is the whole frame, which
            # holds FG and BG labels, so this loop ends there at the latest
            if radius not in label_sums:
                # a window of this radius around a band pixel stays inside the
                # band box grown by it, clipped to the frame
                y0, y1, x0, x1 = _grow(band, radius, h, w)
                table = _stacked_table(
                    fg_lab[y0:y1, x0:x1], bg_lab[y0:y1, x0:x1], data[y0:y1, x0:x1]
                )
                label_sums[radius] = _box_sums(
                    table, _corners(ys - y0, xs - x0, radius, y1 - y0, x1 - x0)
                )
                band_corners[radius] = _corners(by, bx, radius, by1 - by0, bx1 - bx0)
            found = label_sums[radius]
            if band_table is not None:
                found = found + _box_sums(band_table, band_corners[radius])
            good = unresolved & (found[:, 0] > 0) & (found[:, 1] > 0)
            np.copyto(sums, found, where=good[:, None])
            unresolved &= ~good
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
        inner[sy, sx] = proj
        smoothed = _sum3x3(smooth)[sy, sx] / neighbor_cnt

        rounds.append((smoothed, int(np.count_nonzero(degen))))
        last = k
        if float(np.abs(smoothed - band_alpha).max()) < params.eps:
            iterations, converged = k + 1, True
            break
        band_alpha = smoothed

    band_alpha, degenerate = rounds[last]
    alpha[ys, xs] = band_alpha
    # no clip needed: labels give 0 and 1, proj is clipped, and a smoothed value is a
    # float sum of neighbor_cnt values in [0, 1] over neighbor_cnt, which rounds into [0, 1]
    matte = AlphaMatte(alpha)
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
