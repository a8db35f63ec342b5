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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidMask, InvalidParams
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
        if self.k < 1:
            raise InvalidParams("k must be >= 1")
        if self.lam <= 0:
            raise InvalidParams("lam must be > 0")
        if not 0.0 <= self.alpha_lr <= 1.0:
            raise InvalidParams("alpha_lr must lie in [0, 1]")
        if not 0.0 < self.t_bg <= 1.0:
            raise InvalidParams("t_bg must lie in (0, 1]")
        if self.var_min <= 0 or self.var_init < self.var_min:
            raise InvalidParams("need var_init >= var_min > 0")


@dataclass(frozen=True)
class GmmComponent:
    weight: float
    mean: tuple
    variance: float


@dataclass(frozen=True)
class PixelGmm:
    """Inspection view of one pixel's mixture."""

    components: tuple

    def __post_init__(self):
        if not self.components:
            raise ValueError("a pixel mixture holds at least one component")


class LayerModel:
    """Per-pixel mixture grid; owned by a single worker, updated frame by frame.

    Internal state is kept in dense arrays indexed ``[pixel, component]``;
    slots at or beyond a pixel's active count are unused.
    """

    def __init__(self, width, height, channels, params, weights, means, variances, n_active):
        self.width = width
        self.height = height
        self.channels = channels
        self.params = params
        self._w = weights        # (P, K) float64
        self._mu = means         # (P, K, C) float64
        self._var = variances    # (P, K) float64
        self._n = n_active       # (P,) int64

    @property
    def shape(self):
        return (self.height, self.width, self.channels)

    def pixel(self, x: int, y: int) -> PixelGmm:
        """The mixture at column x, row y."""
        p = y * self.width + x
        comps = tuple(
            GmmComponent(
                weight=float(self._w[p, j]),
                mean=tuple(float(v) for v in self._mu[p, j]),
                variance=float(self._var[p, j]),
            )
            for j in range(int(self._n[p]))
        )
        return PixelGmm(components=comps)

    def copy(self) -> "LayerModel":
        return LayerModel(
            self.width, self.height, self.channels, self.params,
            self._w.copy(), self._mu.copy(), self._var.copy(), self._n.copy(),
        )

    def equals(self, other: "LayerModel") -> bool:
        return (
            self.shape == other.shape
            and self.params == other.params
            and np.array_equal(self._n, other._n)
            and np.array_equal(self._w, other._w)
            and np.array_equal(self._mu, other._mu)
            and np.array_equal(self._var, other._var)
        )


def layer_init(frame: Frame, params: GmmParams = GmmParams()) -> LayerModel:
    """Bootstrap a model from one frame: one component per pixel at the pixel value."""
    h, w, c = frame.height, frame.width, frame.channels
    p = h * w
    k = params.k
    weights = np.zeros((p, k))
    means = np.zeros((p, k, c))
    variances = np.full((p, k), params.var_init)
    weights[:, 0] = 1.0
    means[:, 0, :] = frame.to_array().reshape(p, c).astype(np.float64)
    n_active = np.ones(p, dtype=np.int64)
    return LayerModel(w, h, c, params, weights, means, variances, n_active)


def layer_update_classify(model: LayerModel, frame: Frame):
    """Adapt the model to a frame and key it; returns (mask, updated model).

    The mask is a single-channel frame with 255 on foreground.  With
    alpha_lr = 0 the model is left untouched and only classification runs.
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
    pcount, k = w.shape

    x = frame.to_array().reshape(pcount, model.channels).astype(np.float64)
    active = np.arange(k)[None, :] < n[:, None]

    diff = x[:, None, :] - mu
    within = np.abs(diff) <= (prm.lam * np.sqrt(var))[:, :, None]
    matched = active & within.all(axis=2)
    has_match = matched.any(axis=1)

    dist2 = np.where(matched, (diff * diff).sum(axis=2), np.inf)
    best = np.argmin(dist2, axis=1)  # ties resolve to the lowest slot

    if alpha > 0.0:
        rows = np.where(has_match)[0]
        b = best[rows]
        old_mean = mu[rows, b].copy()
        w[rows] *= 1.0 - alpha
        w[rows, b] += alpha
        mu[rows, b] = (1.0 - alpha) * old_mean + alpha * x[rows]
        # variance target: per-channel squared deviation from the pre-update mean
        dev2 = ((x[rows] - old_mean) ** 2).mean(axis=1)
        var[rows, b] = np.maximum(prm.var_min, (1.0 - alpha) * var[rows, b] + alpha * dev2)

        miss = np.where(~has_match)[0]
        if miss.size:
            room = n[miss] < k
            slot = np.where(room, np.minimum(n[miss], k - 1), np.argmin(w[miss], axis=1))
            w[miss, slot] = alpha
            mu[miss, slot] = x[miss]
            var[miss, slot] = prm.var_init
            n[miss] = np.minimum(n[miss] + room, k)

        w /= w.sum(axis=1, keepdims=True)
        active = np.arange(k)[None, :] < n[:, None]

    # background set from the (updated) model: smallest weight/sigma-ordered
    # prefix whose cumulative weight reaches t_bg
    rank = np.where(active, w / np.sqrt(var), -np.inf)
    order = np.argsort(-rank, axis=1, kind="stable")
    sorted_w = np.take_along_axis(w, order, axis=1)
    cum_before = np.cumsum(sorted_w, axis=1) - sorted_w
    in_bg_sorted = (cum_before < prm.t_bg) & np.take_along_axis(active, order, axis=1)
    in_bg = np.zeros_like(in_bg_sorted)
    np.put_along_axis(in_bg, order, in_bg_sorted, axis=1)

    background = (matched & in_bg).any(axis=1)
    mask = np.where(background, 0, 255).astype(np.uint8).reshape(model.height, model.width)
    mask_frame = Frame.from_array(mask, index=frame.index)
    return mask_frame, (out if alpha > 0.0 else model.copy())


def _binary(frame: Frame) -> np.ndarray:
    if frame.channels != 1:
        raise InvalidMask("mask must have a single channel")
    arr = frame.to_array()[:, :, 0]
    if not set(np.unique(arr).tolist()) <= {0, 255}:
        raise InvalidMask("mask values must be 0 or 255")
    return arr == 255


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
