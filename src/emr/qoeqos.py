"""Joint experience/service scoring and encoding selection.

Experience is a mean-opinion score on [1, 5] following a logarithmic law in
bitrate, anchored so b = 0 scores 1 and b = bmax scores 5:

    mos(b) = clamp(1 + 4 * ln(1 + b/b0) / ln(1 + bmax/b0), 1, 5)

Service quality is normalized latency headroom against [L_min, L_max].  Both
axes map onto [0, 1] so the three selection policies compare on one scale:

* OPT_QOE     best mos among levels meeting the latency bound
* OPT_QOS     lowest latency among levels meeting the mos floor
* BALANCE     best  w * qoe_norm + (1 - w) * qos_norm  over all levels

A level's bits per frame follow from the source geometry (``level_bits``),
and only levels whose scale factor divides the source's width and height
compete.  A policy whose feasible set is empty degrades to the lowest-bits
level and flags it, so a caller never stalls on an overloaded channel.

Every parameter of the law and the policies (fps, b0, bmax, policy, w,
mos_min, l_max, l_min) and the candidate levels of a run live in one frozen
``EncodingParams`` that checks its fields when built; ``mos_of``, ``score``
and ``select_encoding`` take it whole and check none of them again.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import NoLevels
from .raster import Frame, downsample, quantize

# the metrics' level of a frame that was never read; no level may take it
NO_LEVEL = "-"


@dataclass(frozen=True)
class EncodingLevel:
    """One candidate encoding: spatial divisor and quantization step.

    Its payload bits depend on the source as well; :func:`level_bits` gives them.
    """

    id: str
    scale_factor: int = 1
    quant_step: int = 1

    def __post_init__(self):
        # the metrics CSV writes the id raw; splitlines() also yields no line for ""
        if "," in self.id or self.id.splitlines() != [self.id]:
            raise ValueError("id must be non-empty without commas or line breaks")
        if self.id == NO_LEVEL:
            raise ValueError(f"id must not be {NO_LEVEL!r}, a placeholder of the metrics")
        if not self.scale_factor >= 1:
            raise ValueError("scale_factor must be >= 1")
        if not 1 <= self.quant_step <= 128:
            raise ValueError("quant_step must lie in [1, 128]")


def level_bits(level: EncodingLevel, width: int, height: int, channels: int) -> int:
    """Payload size after re-encoding: samples times bits per quantized sample."""
    effective = (256 + level.quant_step - 1) // level.quant_step
    bits_per_sample = max(1, (effective - 1).bit_length())
    return (width // level.scale_factor) * (height // level.scale_factor) * channels * bits_per_sample


@dataclass(frozen=True)
class ChannelModel:
    """Transport abstraction: serialization capacity, fixed delay, loss."""

    capacity: float = 1e7  # bits/second
    base_delay: float = 0.01  # seconds
    loss_prob: float = 0.0

    def __post_init__(self):
        if not self.capacity > 0:
            raise ValueError("capacity must be > 0")
        if not self.base_delay >= 0:
            raise ValueError("base_delay must be >= 0")
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ValueError("loss_prob must lie in [0, 1]")


@dataclass(frozen=True)
class QoeQosScore:
    mos: float
    latency: float
    qoe_norm: float
    qos_norm: float


class Policy(enum.Enum):
    OPT_QOE = "qoe"
    OPT_QOS = "qos"
    BALANCE = "balance"


@dataclass(frozen=True)
class EncodingParams:
    """Candidate levels, frame rate, experience-law anchors, policy and its
    feasibility limits.

    ``levels`` are the encodings a run picks from, with distinct ids;
    ``mos_of`` maps bitrate onto [1, 5] between ``b0`` and ``bmax``;
    ``[l_min, l_max]`` normalizes latency; ``w`` weighs experience against
    service under BALANCE.
    """

    levels: tuple[EncodingLevel, ...] = (
        EncodingLevel("high", 1, 1), EncodingLevel("med", 2, 8), EncodingLevel("low", 4, 32),
    )
    fps: float = 30.0
    b0: float = 1e6
    bmax: float = 8e6
    policy: Policy = Policy.BALANCE
    w: float = 0.5
    mos_min: float = 2.0
    l_max: float = 0.5
    l_min: float = 0.0

    def __post_init__(self):
        if not self.levels:
            raise ValueError("levels must hold at least one level")
        ids = [level.id for level in self.levels]
        if len(set(ids)) != len(ids):
            raise ValueError("levels must have distinct ids")
        if not isinstance(self.policy, Policy):
            raise TypeError(f"policy must be a Policy, got {self.policy!r}")
        if not self.fps > 0:
            raise ValueError("fps must be > 0")
        if not 0.0 <= self.w <= 1.0:
            raise ValueError("w must lie in [0, 1]")
        if not self.bmax > self.b0 > 0:
            raise ValueError("need bmax > b0 > 0")
        if math.isnan(self.mos_min):
            raise ValueError("mos_min must be a number, not NaN")
        if not self.l_max > self.l_min >= 0:
            raise ValueError("need l_max > l_min >= 0")


def mos_of(bits_per_frame: float, params: EncodingParams) -> float:
    """Mean-opinion score of the bitrate bits_per_frame * params.fps."""
    b = bits_per_frame * params.fps
    raw = 1.0 + 4.0 * math.log(1.0 + b / params.b0) / math.log(1.0 + params.bmax / params.b0)
    return min(5.0, max(1.0, raw))


def latency_of(bits_per_frame: float, channel: ChannelModel) -> float:
    """One-frame delivery latency: base delay plus serialization time."""
    return channel.base_delay + bits_per_frame / channel.capacity


def score(bits_per_frame: float, channel: ChannelModel, params: EncodingParams) -> QoeQosScore:
    """Quantified, normalized experience/service score of a frame of this many bits."""
    mos = mos_of(bits_per_frame, params)
    latency = latency_of(bits_per_frame, channel)
    qoe_norm = (mos - 1.0) / 4.0
    l_min, l_max = params.l_min, params.l_max
    qos_norm = min(1.0, max(0.0, (l_max - latency) / (l_max - l_min)))
    return QoeQosScore(mos=mos, latency=latency, qoe_norm=qoe_norm, qos_norm=qos_norm)


def select_encoding(levels, geometry, channel: ChannelModel, params: EncodingParams):
    """Pick a level for a ``(width, height, channels)`` source under
    ``params.policy``; returns (level, degraded).

    Only levels whose scale factor divides width and height compete;
    ``NoLevels`` is raised when none does.  ``degraded`` is True when the
    policy's feasible set was empty and the lowest-bits level was returned
    instead.
    """
    width, height, _ = geometry
    usable = [lvl for lvl in levels if width % lvl.scale_factor == 0 and height % lvl.scale_factor == 0]
    if not usable:
        raise NoLevels(f"no candidate level divides a {width}x{height} source")
    bits = [level_bits(lvl, *geometry) for lvl in usable]
    scores = [score(b, channel, params) for b in bits]
    policy, w = params.policy, params.w

    if policy is Policy.OPT_QOE:
        feasible = [i for i, s in enumerate(scores) if s.latency <= params.l_max]
        def key(i):
            return (-scores[i].mos, bits[i], i)
    elif policy is Policy.OPT_QOS:
        feasible = [i for i, s in enumerate(scores) if s.mos >= params.mos_min]
        def key(i):
            return (scores[i].latency, -scores[i].mos, i)
    else:  # Policy.BALANCE
        feasible = range(len(scores))
        def key(i):
            s = scores[i]
            return (-(w * s.qoe_norm + (1.0 - w) * s.qos_norm), bits[i], i)

    if not feasible:
        return usable[bits.index(min(bits))], True
    return usable[min(feasible, key=key)], False


def reencode(frame: Frame, level: EncodingLevel) -> Frame:
    """Apply a level: spatial downsample then quantization."""
    return quantize(downsample(frame, level.scale_factor), level.quant_step)
