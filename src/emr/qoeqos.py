"""Joint experience/service scoring and encoding selection.

Experience is a mean-opinion score on [1, 5] following a logarithmic law in
bitrate, anchored so b = 0 scores 1 and b = bmax scores 5:

    mos(b) = clamp(1 + 4 * ln(1 + b/b0) / ln(1 + bmax/b0), 1, 5)

Service quality is normalized latency headroom against [L_min, L_max].  Both
axes map onto [0, 1] so the three selection policies compare on one scale:

* OPT_QOE     best mos among levels meeting the latency bound
* OPT_QOS     lowest latency among levels meeting the mos floor
* BALANCE     best  w * qoe_norm + (1 - w) * qos_norm  over all levels

A policy whose feasible set is empty degrades to the lowest-bits level and
flags it, so a caller never stalls on an overloaded channel.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .errors import (
    InvalidBounds,
    InvalidChannel,
    InvalidModel,
    NoLevels,
)
from .raster import Frame, downsample, quantize


@dataclass(frozen=True)
class EncodingLevel:
    """One candidate encoding: spatial divisor, quantization step, payload bits.

    ``bits_per_frame`` may be supplied directly or left None and resolved from
    frame dimensions via :func:`level_bits`.
    """

    id: str
    scale_factor: int = 1
    quant_step: int = 1
    bits_per_frame: int | None = None

    def __post_init__(self):
        if self.scale_factor < 1:
            raise ValueError("scale_factor must be >= 1")
        if not 1 <= self.quant_step <= 128:
            raise ValueError("quant_step must lie in [1, 128]")
        if self.bits_per_frame is not None and self.bits_per_frame <= 0:
            raise ValueError("bits_per_frame must be > 0")

    def resolved(self, width: int, height: int, channels: int) -> "EncodingLevel":
        """This level with bits_per_frame filled in for the given frame shape."""
        if self.bits_per_frame is not None:
            return self
        return replace(self, bits_per_frame=level_bits(self, width, height, channels))


def level_bits(level: EncodingLevel, width: int, height: int, channels: int) -> int:
    """Payload size after re-encoding: samples times bits per quantized sample."""
    effective = (256 + level.quant_step - 1) // level.quant_step
    bits_per_sample = max(1, (effective - 1).bit_length())
    return (width // level.scale_factor) * (height // level.scale_factor) * channels * bits_per_sample


@dataclass(frozen=True)
class ChannelModel:
    """Transport abstraction: serialization capacity, fixed delay, loss."""

    capacity: float  # bits/second
    base_delay: float = 0.0
    loss_prob: float = 0.0

    def __post_init__(self):
        if not self.capacity > 0:
            raise InvalidChannel("capacity must be > 0")
        if not self.base_delay >= 0:
            raise ValueError("base_delay must be >= 0")
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ValueError("loss_prob must lie in [0, 1]")


@dataclass(frozen=True)
class MosModel:
    """Anchors of the logarithmic bitrate-to-experience law."""

    b0: float = 1e6
    bmax: float = 8e6

    def __post_init__(self):
        if not self.bmax > self.b0 > 0:
            raise InvalidModel("need bmax > b0 > 0")


@dataclass(frozen=True)
class QoeQosScore:
    mos: float
    latency: float
    qoe_norm: float
    qos_norm: float


@dataclass(frozen=True)
class Bounds:
    """Latency normalization window."""

    l_min: float = 0.0
    l_max: float = 0.5

    def __post_init__(self):
        if not self.l_max > self.l_min >= 0:
            raise InvalidBounds("need l_max > l_min >= 0")


class Policy(enum.Enum):
    OPT_QOE = "qoe"
    OPT_QOS = "qos"
    BALANCE = "balance"


@dataclass(frozen=True)
class Constraints:
    """Feasibility limits for the constrained policies; l_min anchors BALANCE."""

    mos_min: float = 1.0
    l_max: float = 0.5
    l_min: float = 0.0

    def __post_init__(self):
        self.bounds  # checks l_max > l_min >= 0

    @property
    def bounds(self) -> Bounds:
        return Bounds(l_min=self.l_min, l_max=self.l_max)


def mos_of(bits_per_frame: float, fps: float, model: MosModel) -> float:
    """Mean-opinion score of the bitrate bits_per_frame * fps."""
    if not fps > 0:
        raise InvalidModel("fps must be > 0")
    b = bits_per_frame * fps
    raw = 1.0 + 4.0 * math.log(1.0 + b / model.b0) / math.log(1.0 + model.bmax / model.b0)
    return min(5.0, max(1.0, raw))


def latency_of(level: EncodingLevel, channel: ChannelModel) -> float:
    """One-frame delivery latency: base delay plus serialization time."""
    if level.bits_per_frame is None:
        raise ValueError("level bits_per_frame unresolved; call resolved() first")
    return channel.base_delay + level.bits_per_frame / channel.capacity


def score(
    level: EncodingLevel,
    channel: ChannelModel,
    fps: float,
    model: MosModel,
    bounds: Bounds,
) -> QoeQosScore:
    """Quantified, normalized experience/service score of one level."""
    mos = mos_of(level.bits_per_frame, fps, model)
    latency = latency_of(level, channel)
    qoe_norm = (mos - 1.0) / 4.0
    qos_norm = min(1.0, max(0.0, (bounds.l_max - latency) / (bounds.l_max - bounds.l_min)))
    return QoeQosScore(mos=mos, latency=latency, qoe_norm=qoe_norm, qos_norm=qos_norm)


def select_encoding(
    levels,
    channel: ChannelModel,
    fps: float,
    model: MosModel,
    policy: Policy,
    w: float = 0.5,
    constraints: Constraints = Constraints(),
):
    """Pick a level under the given policy; returns (level, degraded).

    ``degraded`` is True when the policy's feasible set was empty and the
    lowest-bits level was returned instead.
    """
    levels = list(levels)
    if not levels:
        raise NoLevels("candidate level set is empty")
    if not 0.0 <= w <= 1.0:
        raise ValueError("w must lie in [0, 1]")
    bounds = constraints.bounds
    scored = [
        (i, lvl, score(lvl, channel, fps, model, bounds)) for i, lvl in enumerate(levels)
    ]

    if policy is Policy.OPT_QOE:
        feasible = [(i, l, s) for i, l, s in scored if s.latency <= constraints.l_max]
        def key(item):
            i, lvl, s = item
            return (-s.mos, lvl.bits_per_frame, i)
    elif policy is Policy.OPT_QOS:
        feasible = [(i, l, s) for i, l, s in scored if s.mos >= constraints.mos_min]
        def key(item):
            i, lvl, s = item
            return (s.latency, -s.mos, i)
    elif policy is Policy.BALANCE:
        feasible = scored
        def key(item):
            i, lvl, s = item
            return (-(w * s.qoe_norm + (1.0 - w) * s.qos_norm), lvl.bits_per_frame, i)
    else:
        raise ValueError(f"unknown policy {policy!r}")

    if not feasible:
        _, lvl, _ = min(scored, key=lambda item: (item[1].bits_per_frame, item[0]))
        return lvl, True
    _, lvl, _ = min(feasible, key=key)
    return lvl, False


def reencode(frame: Frame, level: EncodingLevel) -> Frame:
    """Apply a level: spatial downsample then quantization."""
    return quantize(downsample(frame, level.scale_factor), level.quant_step)
