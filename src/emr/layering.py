"""Motion keying by per-pixel adaptive Gaussian mixtures.

Every pixel carries up to K weighted Gaussian components over the colors it
has observed.  A sample matches a component when it falls within ``lam``
standard deviations of the mean on every channel; the closest matching
component absorbs the sample at the fixed learning rate ``alpha_lr``.  When
nothing matches, the lowest-weight component is replaced (or a new one is
appended) with a fresh component centered on the sample.

The background set of a pixel is the smallest prefix of its components,
ordered by weight/sigma descending, whose cumulative weight reaches ``t_bg``.
A sample that matched no background-set component is keyed as foreground.
The model bootstraps from the first frame alone and needs no prior knowledge
of the scene.

The mixture state is component-major: one contiguous plane over all pixels
per component slot (weights, variances) and per slot and channel (means).
Steps across slots or channels are short Python loops over whole planes;
the rank order of the background set comes from plane comparisons rather
than a per-pixel sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .raster import Frame


@dataclass(frozen=True)
class GmmParams:
    """Mixture parameters; defaults suit 8-bit video with mild sensor noise."""

    k: int = 3
    lam: float = 2.5
    alpha_lr: float = 0.02
    t_bg: float = 0.7
    var_init: float = 225.0
    var_min: float = 4.0

    def __post_init__(self):
        if not self.k >= 1:
            raise ValueError("k must be >= 1")
        if not self.lam > 0:
            raise ValueError("lam must be > 0")
        if not 0.0 <= self.alpha_lr <= 1.0:
            raise ValueError("alpha_lr must lie in [0, 1]")
        if not 0.0 < self.t_bg <= 1.0:
            raise ValueError("t_bg must lie in (0, 1]")
        if not self.var_init >= self.var_min > 0:
            raise ValueError("need var_init >= var_min > 0")


class LayerModel:
    """Per-pixel mixture grid; owned by a single worker, updated frame by frame.

    State is planar: ``_w`` and ``_var`` are ``(K, P)``, ``_mu`` is
    ``(K, C, P)`` and ``_n`` is ``(P,)``, with P pixels in row-major order.
    Each component slot and each channel is one contiguous plane, so every
    update step is a ufunc over whole planes.  Slots at or beyond a pixel's
    active count are unused.
    """

    def __init__(self, width, height, channels, params, weights, means, variances, n_active):
        self.width = width
        self.height = height
        self.channels = channels
        self.params = params
        self._w = weights        # (K, P) float64
        self._mu = means         # (K, C, P) float64
        self._var = variances    # (K, P) float64
        self._n = n_active       # (P,) int64

    @property
    def shape(self):
        return (self.height, self.width, self.channels)

    def copy(self) -> "LayerModel":
        return LayerModel(
            self.width, self.height, self.channels, self.params,
            self._w.copy(), self._mu.copy(), self._var.copy(), self._n.copy(),
        )


def layer_init(frame: Frame, params: GmmParams = GmmParams()) -> LayerModel:
    """Bootstrap a model from one frame: one component per pixel at the pixel value."""
    h, w, c = frame.height, frame.width, frame.channels
    p = h * w
    k = params.k
    weights = np.zeros((k, p))
    means = np.zeros((k, c, p))
    variances = np.full((k, p), params.var_init)
    weights[0] = 1.0
    means[0] = _planes(frame)
    n_active = np.ones(p, dtype=np.int64)
    return LayerModel(w, h, c, params, weights, means, variances, n_active)


def _planes(frame: Frame) -> np.ndarray:
    """A frame's samples as a contiguous (C, P) float64 array, one plane per channel."""
    return np.moveaxis(frame.data, 2, 0).reshape(frame.channels, -1).astype(np.float64)


def _sum_planes(planes) -> np.ndarray:
    """Sum of a sequence of planes, added left to right."""
    total = planes[0].copy()
    for plane in planes[1:]:
        total += plane
    return total


def _argmin_planes(planes) -> np.ndarray:
    """Index of the smallest plane per pixel; ties go to the lowest index."""
    best = np.zeros(planes[0].shape, dtype=np.intp)
    low = planes[0]
    for j in range(1, len(planes)):
        below = planes[j] < low
        best[below] = j
        low = np.where(below, planes[j], low)
    return best


def layer_update_classify(model: LayerModel, frame: Frame):
    """Adapt the model to a frame and key it; returns (mask, updated model).

    The mask is a single-channel frame with 255 on foreground.  With
    alpha_lr = 0 the model is left untouched and only classification runs.

    Every sum over channels or components runs left to right, and every
    argmin and rank order breaks ties by the lowest slot.  That is what
    numpy's reductions (sequential below 8 elements) and stable argsort did
    over the former pixel-major ``(P, K, C)`` layout, so for k < 8 the mask
    and the model are bit-identical to it.
    """
    if (frame.height, frame.width, frame.channels) != model.shape:
        raise DimensionMismatch(
            f"frame {frame.width}x{frame.height}x{frame.channels} does not "
            f"match model {model.width}x{model.height}x{model.channels}"
        )
    prm = model.params
    alpha = prm.alpha_lr
    out = model.copy()
    w, mu, var, n = out._w, out._mu, out._var, out._n
    k, pcount = w.shape
    slots = np.arange(k)[:, None]

    x = _planes(frame)  # (C, P)
    active = slots < n

    diff = x - mu  # (K, C, P)
    sq = diff * diff
    within = np.abs(diff) <= (prm.lam * np.sqrt(var))[:, None, :]
    matched = active.copy()
    for c in range(model.channels):
        matched &= within[:, c]
    has_match = matched.any(axis=0)

    dist2 = _sum_planes(sq.transpose(1, 0, 2))  # over channels: (K, P)
    best = _argmin_planes(np.where(matched, dist2, np.inf))

    if alpha > 0.0:
        hit = (best == slots) & has_match  # the component each matched pixel updates
        keep = 1.0 - alpha
        np.multiply(w, keep, out=w, where=has_match)
        np.add(w, alpha, out=w, where=hit)
        # variance target: per-channel squared deviation from the pre-update mean
        dev2 = dist2 / model.channels
        np.copyto(var, np.maximum(prm.var_min, keep * var + alpha * dev2), where=hit)
        np.copyto(mu, keep * mu + alpha * x, where=hit[:, None, :])

        miss = ~has_match
        room = n < k
        slot = np.where(room, n, _argmin_planes(w))
        fresh = (slot == slots) & miss
        w[fresh] = alpha
        np.copyto(mu, x, where=fresh[:, None, :])
        var[fresh] = prm.var_init
        n += miss & room

        w /= _sum_planes(w)
        active = slots < n

    # background set from the (updated) model: smallest weight/sigma-ordered
    # prefix whose cumulative weight reaches t_bg.  pos[j] is slot j's place
    # in a stable descending sort by rank.
    rank = np.where(active, w / np.sqrt(var), -np.inf)
    pos = np.zeros(w.shape, dtype=np.intp)
    for j in range(k):
        for i in range(k):
            if i != j:
                pos[j] += rank[i] >= rank[j] if i < j else rank[i] > rank[j]
    flat = (pos * pcount + np.arange(pcount)).reshape(-1)  # slot j's cell in rank order
    sorted_w = np.empty(k * pcount)
    sorted_w[flat] = w.reshape(-1)
    sorted_w = sorted_w.reshape(k, pcount)
    cum = np.zeros(pcount)
    bg_sorted = np.empty((k, pcount), dtype=bool)
    for r in range(k):
        cum = cum + sorted_w[r]
        bg_sorted[r] = cum - sorted_w[r] < prm.t_bg
    in_bg = active & bg_sorted.reshape(-1)[flat].reshape(k, pcount)

    background = (matched & in_bg).any(axis=0)
    mask = np.where(background, 0, 255).astype(np.uint8).reshape(model.height, model.width)
    mask_frame = Frame.from_array(mask, index=frame.index)
    return mask_frame, out


def _binary(frame: Frame) -> np.ndarray:
    if frame.channels != 1:
        raise ValueError("mask must have a single channel")
    arr = frame.data[:, :, 0]
    fg = arr == 255
    if not (fg | (arr == 0)).all():
        raise ValueError("mask values must be 0 or 255")
    return fg


def _window_any(padded: np.ndarray, radius: int) -> np.ndarray:
    """OR over every (2r+1)-square window of a boolean array padded by r per side.

    Separable: OR along rows, then along columns of the row results.
    """
    k = 2 * radius + 1
    h = padded.shape[0] - 2 * radius
    w = padded.shape[1] - 2 * radius
    rows = padded[:, :w].copy()
    for d in range(1, k):
        rows |= padded[:, d:d + w]
    out = rows[:h].copy()
    for d in range(1, k):
        out |= rows[d:d + h]
    return out


def _erode(mask: np.ndarray, radius: int, pad_mode: str) -> np.ndarray:
    """Square-window binary erosion.

    The complement of a dilation of the complement; complementing after
    padding pads True in ``"constant"`` mode.  A boolean min filter equals
    its row-then-column decomposition, so the result is exact.
    """
    if radius < 1:
        return mask.copy()
    return ~_window_any(~np.pad(mask, radius, mode=pad_mode), radius)


def _dilate(mask: np.ndarray, radius: int, pad_mode: str) -> np.ndarray:
    """Square-window binary dilation.

    A boolean max filter over a square is the max over rows of the max over
    columns, so the separable pass is exact.
    """
    if radius < 1:
        return mask.copy()
    return _window_any(np.pad(mask, radius, mode=pad_mode), radius)


def mask_postprocess(mask: Frame) -> Frame:
    """Morphological 3x3 opening; image edges count as background when eroding."""
    m = _binary(mask)
    # zero padding makes border pixels unable to survive erosion
    opened = _dilate(_erode(m, 1, "constant"), 1, "constant")
    result = np.where(opened, 255, 0).astype(np.uint8)
    return Frame.from_array(result, index=mask.index)
