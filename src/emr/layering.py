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
of the scene.  ``mask_postprocess`` opens the keyed mask; its erosion and
dilation, and the trimap's in ``matting``, OR over square windows clipped to
the frame (``_window_any``) rather than over a padded copy.

The mixture state is component-major: one contiguous plane over all pixels
per component slot (weights, variances) and per slot and channel (means).
Steps across slots or channels are short Python loops over whole planes,
or numpy's ``sum`` and ``argmin`` over axis 0, which add the slot planes
left to right and give ties to the lowest slot.  The rank order of the
background set comes from plane comparisons rather than a per-pixel sort.

An update changes the model in place and returns it.  Masked steps are
in-place ufuncs with ``where=``, and every intermediate plane the size of
the mixture (deviations, distances, match flags, rank order, the background
set) is a scratch plane the model allocates once, filled with ``out=`` on
each frame.  Replacement writes by index, to only the pixels that matched
no component.  A caller that needs the state from before an update copies
the state arrays first.
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

    ``layer_update_classify`` changes this state in place.  The model also
    holds the scratch planes that update writes into (``_x`` and the
    ``(K, P)`` planes below), so a frame allocates nothing of the model's
    size; their contents between calls mean nothing.  A caller that needs
    the state from before an update copies the state arrays first.
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
        k, p = weights.shape
        self._x = np.empty((channels, p))            # the frame, one plane per channel
        self._diff = np.empty((k, p))                # one channel's |deviation|, then its square
        self._dist2 = np.empty((k, p))               # squared distance to each mean
        self._rank = np.empty((k, p))                # match bound, then weight/sigma
        self._matched = np.empty((k, p), dtype=bool)
        self._pos = np.empty((k, p), dtype=np.intp)  # each slot's place in rank order
        self._sorted_w = np.empty((k, p))            # weights in rank order
        self._bg = np.empty((k, p), dtype=bool)      # background set, in rank order

    @property
    def shape(self):
        return (self.height, self.width, self.channels)


def layer_init(frame: Frame, params: GmmParams = GmmParams()) -> LayerModel:
    """Bootstrap a model from one frame: one component per pixel at the pixel value."""
    h, w, c = frame.height, frame.width, frame.channels
    p = h * w
    k = params.k
    weights = np.zeros((k, p))
    means = np.zeros((k, c, p))
    variances = np.full((k, p), params.var_init)
    weights[0] = 1.0
    np.copyto(means[0], _channel_planes(frame))
    n_active = np.ones(p, dtype=np.int64)
    return LayerModel(w, h, c, params, weights, means, variances, n_active)


def _channel_planes(frame: Frame) -> np.ndarray:
    """A (C, P) view of a frame's samples, one plane per channel."""
    return frame.data.reshape(-1, frame.channels).T


def layer_update_classify(model: LayerModel, frame: Frame):
    """Adapt the model to a frame in place and key it; returns (mask, model).

    The returned model is the argument itself: its planes are updated where
    they lie, through masked in-place ufuncs and the model's scratch planes,
    so no temporary of the model's size is built.  A caller that needs the
    old state copies the model first.  The mask is a single-channel frame
    with 255 on foreground.  With alpha_lr = 0 the state is left untouched
    and only classification runs.

    Every sum over channels or components runs left to right, and every
    argmin and rank order breaks ties by the lowest slot: ``argmin(axis=0)``
    returns the first minimum, and unmatched slots hold ``inf``, never NaN.
    That is what numpy's reductions (sequential below 8 elements) and stable
    argsort did over the former pixel-major ``(P, K, C)`` layout, so for
    k < 8 the mask and the model are bit-identical to it.  Each masked step
    rounds as the whole-plane expression it replaces: ``keep * mu + alpha * x``
    is one in-place multiply and one in-place add, each rounded once.
    Replacement writes by index to only the pixels that matched nothing, in
    their next free slot or, with all K in use, their lowest-weight slot.
    """
    if (frame.height, frame.width, frame.channels) != model.shape:
        raise DimensionMismatch(
            f"frame {frame.width}x{frame.height}x{frame.channels} does not "
            f"match model {model.width}x{model.height}x{model.channels}"
        )
    prm = model.params
    alpha = prm.alpha_lr
    w, mu, var, n = model._w, model._mu, model._var, model._n
    diff, dist2, matched = model._diff, model._dist2, model._matched
    k, pcount = w.shape
    slots = np.arange(k)[:, None]

    x = model._x
    np.copyto(x, _channel_planes(frame))
    active = slots < n

    # a slot matches when every channel lies within lam sigma of its mean;
    # dist2 sums the squared deviations over channels, left to right
    bound = np.sqrt(var, out=model._rank)
    bound *= prm.lam
    np.copyto(matched, active)
    dist2.fill(0.0)
    for c in range(model.channels):
        np.subtract(x[c], mu[:, c], out=diff)
        matched &= np.abs(diff, out=diff) <= bound
        diff *= diff  # |d| * |d| is d * d exactly
        dist2 += diff

    if alpha > 0.0:
        # the component each matched pixel updates
        has_match = matched.any(axis=0)
        np.copyto(dist2, np.inf, where=~matched)
        hit = (dist2.argmin(axis=0) == slots) & has_match
        keep = 1.0 - alpha
        np.multiply(w, keep, out=w, where=has_match)
        np.add(w, alpha, out=w, where=hit)
        # variance target: per-channel squared deviation from the pre-update mean
        dev2 = np.divide(dist2, model.channels, out=dist2)
        np.multiply(var, keep, out=var, where=hit)
        np.add(var, np.multiply(dev2, alpha, out=dev2), out=var, where=hit)
        np.maximum(var, prm.var_min, out=var, where=hit)
        hit3 = hit[:, None, :]
        np.multiply(mu, keep, out=mu, where=hit3)
        np.add(mu, alpha * x, out=mu, where=hit3)

        miss = np.flatnonzero(~has_match)
        room = n[miss] < k
        slot = np.where(room, n[miss], w[:, miss].argmin(axis=0))
        w[slot, miss] = alpha
        mu[slot, :, miss] = x[:, miss].T  # indices around a slice: (M, C) result
        var[slot, miss] = prm.var_init
        n[miss] += room

        w /= w.sum(axis=0)
        active = slots < n

    # background set from the (updated) model: smallest weight/sigma-ordered
    # prefix whose cumulative weight reaches t_bg.  pos[j] is slot j's place
    # in a stable descending sort by rank.
    rank = np.sqrt(var, out=model._rank)
    np.divide(w, rank, out=rank)
    np.copyto(rank, -np.inf, where=~active)
    pos = model._pos
    pos.fill(0)
    for j in range(k):
        for i in range(k):
            if i != j:
                pos[j] += rank[i] >= rank[j] if i < j else rank[i] > rank[j]
    pos *= pcount
    pos += np.arange(pcount)
    flat = pos.reshape(-1)  # slot j's cell in rank order
    sorted_w, bg = model._sorted_w, model._bg
    sorted_w.reshape(-1)[flat] = w.reshape(-1)
    cum = np.zeros(pcount)
    for r in range(k):
        cum += sorted_w[r]
        np.less(cum - sorted_w[r], prm.t_bg, out=bg[r])
    # matched slots are active ones, and a slot stays active once it is
    matched &= bg.reshape(-1)[flat].reshape(k, pcount)

    background = matched.any(axis=0)
    mask = np.where(background, np.uint8(0), np.uint8(255)).reshape(model.height, model.width)
    return Frame.from_array(mask, index=frame.index), model


def _binary(frame: Frame) -> np.ndarray:
    if frame.channels != 1:
        raise ValueError("mask must have a single channel")
    arr = frame.data[:, :, 0]
    fg = arr == 255
    if not (fg | (arr == 0)).all():
        raise ValueError("mask values must be 0 or 255")
    return fg


def _window_any(mask: np.ndarray, radius: int) -> np.ndarray:
    """OR over every (2r+1)-square window of a boolean array, clipped to the array.

    Rows, then columns, by in-place ORs of shifted slices: a square is a row
    segment times a column segment.  Clipping reads all that padding would:
    edge replication repeats an edge pixel the clipped window holds, and False
    adds nothing to an OR.  So this is dilation under either padding, and
    ``~_window_any(~m, r)`` is erosion under edge replication.
    """
    rows = mask.copy()
    for d in range(1, radius + 1):
        rows[:, d:] |= mask[:, :-d]
        rows[:, :-d] |= mask[:, d:]
    out = rows.copy()
    for d in range(1, radius + 1):
        out[d:] |= rows[:-d]
        out[:-d] |= rows[d:]
    return out


def mask_postprocess(mask: Frame) -> Frame:
    """Morphological 3x3 opening; image edges count as background when eroding."""
    core = ~_window_any(~_binary(mask), 1)
    # the border ring's windows reach past the edge, so none of it survives
    core[[0, -1]] = core[:, [0, -1]] = False
    opened = _window_any(core, 1)
    result = opened * np.uint8(255)
    return Frame.from_array(result, index=mask.index)
