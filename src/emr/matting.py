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
from .raster import BG, FG, UNKNOWN, AlphaMatte, Frame, Trimap, _readonly_unit

DEFAULT_WINDOW = 3
DEFAULT_MAX_ITERS = 20
DEFAULT_EPS = 1.0 / 255.0

# samples with alpha beyond these thresholds join the color estimates
_FG_CONF = 0.95
_BG_CONF = 0.05
# below this squared F-B separation the projection is meaningless
_DEGENERATE_SEP = 1.0


def _check_window(window: int) -> None:
    if not window >= 1:
        raise ValueError(f"window must be >= 1, got {window}")


def _check_lambda_t(lambda_t: float) -> None:
    if not 0.0 <= lambda_t <= 1.0:
        raise ValueError("lambda_t must lie in [0, 1]")


@dataclass(frozen=True)
class MattingParams:
    """Trimap radii, solver window and stopping rule, and the fuzzy blend rate."""

    r_fg: int = 2
    r_bg: int = 4
    window: int = DEFAULT_WINDOW
    max_iters: int = DEFAULT_MAX_ITERS
    eps: float = DEFAULT_EPS
    lambda_t: float = 0.1

    def __post_init__(self):
        if not self.r_fg >= 0:
            raise InvalidRadii(f"r_fg must be >= 0, got {self.r_fg}")
        if not self.r_bg >= self.r_fg:
            raise InvalidRadii(f"r_bg must be >= r_fg, got r_fg={self.r_fg} r_bg={self.r_bg}")
        _check_window(self.window)
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be >= 1")
        if not self.eps > 0:
            raise ValueError("eps must be > 0")
        _check_lambda_t(self.lambda_t)


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
    return Trimap.from_array(labels)


@dataclass(frozen=True)
class AlphaSolveResult:
    """Solved matte plus solver diagnostics."""

    matte: AlphaMatte
    iterations: int
    converged: bool
    degenerate: frozenset  # flat pixel indices that fell back to alpha = 0.5
    changes: tuple = ()    # max per-pixel change after each iteration


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
    tables were, so the matte, iteration count, ``converged``,
    ``degenerate`` and ``changes`` are bit-identical to theirs.
    """
    _check_window(window)
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
        return AlphaSolveResult(
            matte=AlphaMatte.from_array(alpha), iterations=0, converged=True, degenerate=frozenset()
        )
    if not fg_lab.any() or not bg_lab.any():
        raise InsufficientLabels("unknown pixels need both FG and BG labels somewhere")

    colors = frame.to_array().astype(np.float64)
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

    degen = np.zeros(n, dtype=bool)
    margin = window
    iterations = 0
    converged = False
    changes = []

    for _ in range(max_iters):
        fg_src = fg_lab | (alpha > _FG_CONF)
        bg_src = bg_lab | (alpha < _BG_CONF)

        sums = np.zeros((n, 2 + 2 * c))  # per band pixel: fcnt, bcnt, fsum, bsum
        unresolved = np.ones(n, dtype=bool)
        radius = window
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


@dataclass(frozen=True, eq=False)
class FuzzyKnowledge:
    """Temporal foreground membership, blended from mattes at rate lambda_t.

    ``membership`` accepts any sequence of width*height values in [0, 1] and
    is stored as a flat read-only float64 array.
    """

    width: int
    height: int
    membership: np.ndarray
    lambda_t: float = 0.1

    def __post_init__(self):
        membership = _readonly_unit(self.membership, self.width * self.height, "membership")
        object.__setattr__(self, "membership", membership)
        _check_lambda_t(self.lambda_t)

    def __eq__(self, other):
        if not isinstance(other, FuzzyKnowledge):
            return NotImplemented
        return (
            (self.width, self.height, self.lambda_t) == (other.width, other.height, other.lambda_t)
            and np.array_equal(self.membership, other.membership)
        )

    def to_array(self) -> np.ndarray:
        """The membership grid as a read-only (height, width) view."""
        return self.membership.reshape(self.height, self.width)


def fuzzy_init(width: int, height: int, lambda_t: float = 0.1, value: float = 0.0) -> FuzzyKnowledge:
    return FuzzyKnowledge(
        width=width, height=height, membership=np.full(width * height, value), lambda_t=lambda_t
    )


def fuzzy_update(knowledge: FuzzyKnowledge, matte: AlphaMatte) -> FuzzyKnowledge:
    """Blend a matte into the membership grid: m' = (1-lambda)*m + lambda*alpha."""
    if (knowledge.width, knowledge.height) != (matte.width, matte.height):
        raise DimensionMismatch("matte dimensions do not match the knowledge grid")
    lam = knowledge.lambda_t
    return FuzzyKnowledge(
        width=knowledge.width, height=knowledge.height,
        membership=(1.0 - lam) * knowledge.membership + lam * matte.alpha, lambda_t=lam,
    )
