import math
import random

import numpy as np
import pytest

from emr.errors import (
    DimensionMismatch,
    InvalidBounds,
    InvalidChannel,
    InvalidModel,
    NoLevels,
)
from emr.qoeqos import (
    Bounds,
    ChannelModel,
    Constraints,
    EncodingLevel,
    MosModel,
    Policy,
    latency_of,
    level_bits,
    mos_of,
    reencode,
    score,
    select_encoding,
)
from emr.raster import Frame

MODEL = MosModel(b0=1e6, bmax=8e6)


def oracle_select(levels, channel, fps, model, policy, w, constraints):
    """Independent exhaustive evaluation straight from the scoring formulas."""
    def mos(lvl):
        b = lvl.bits_per_frame * fps
        raw = 1 + 4 * math.log(1 + b / model.b0) / math.log(1 + model.bmax / model.b0)
        return min(5.0, max(1.0, raw))

    def lat(lvl):
        return channel.base_delay + lvl.bits_per_frame / channel.capacity

    def qoe(lvl):
        return (mos(lvl) - 1) / 4

    def qos(lvl):
        span = constraints.l_max - constraints.l_min
        return min(1.0, max(0.0, (constraints.l_max - lat(lvl)) / span))

    indexed = list(enumerate(levels))
    if policy is Policy.OPT_QOE:
        feasible = [(i, l) for i, l in indexed if lat(l) <= constraints.l_max]
        keyfn = lambda il: (-mos(il[1]), il[1].bits_per_frame, il[0])
    elif policy is Policy.OPT_QOS:
        feasible = [(i, l) for i, l in indexed if mos(l) >= constraints.mos_min]
        keyfn = lambda il: (lat(il[1]), -mos(il[1]), il[0])
    else:
        feasible = indexed
        keyfn = lambda il: (-(w * qoe(il[1]) + (1 - w) * qos(il[1])), il[1].bits_per_frame, il[0])
    if not feasible:
        return min(indexed, key=lambda il: (il[1].bits_per_frame, il[0]))[1], True
    return min(feasible, key=keyfn)[1], False


def random_levels(rng, n):
    levels = []
    for i in range(n):
        levels.append(
            EncodingLevel(
                id=f"L{i}",
                scale_factor=rng.choice([1, 2, 4]),
                quant_step=rng.choice([1, 2, 8, 32, 128]),
                bits_per_frame=rng.randrange(10_000, 20_000_000),
            )
        )
    return levels


class TestMos:
    def test_zero_bitrate_anchors_at_one(self):
        assert mos_of(0, 30, MODEL) == 1.0

    def test_bmax_anchors_at_five(self):
        assert mos_of(8e6, 1.0, MODEL) == 5.0

    def test_closed_form_value(self):
        # 1 + 4*ln(4)/ln(9)
        expected = 1 + 4 * math.log(4) / math.log(9)
        assert mos_of(3e6, 1.0, MODEL) == pytest.approx(expected, abs=1e-12)
        assert mos_of(3e6, 1.0, MODEL) == pytest.approx(3.5237190142858297, abs=1e-9)

    def test_clamps_above_bmax(self):
        assert mos_of(1e9, 1.0, MODEL) == 5.0

    def test_monotone_in_bitrate(self):
        rng = random.Random(0)
        for _ in range(200):
            a = rng.uniform(0, 2e7)
            b = rng.uniform(0, 2e7)
            lo, hi = min(a, b), max(a, b)
            assert mos_of(lo, 1.0, MODEL) <= mos_of(hi, 1.0, MODEL) + 1e-12

    @pytest.mark.parametrize(
        "kw",
        [
            dict(b0=0.0, bmax=1e6),
            dict(b0=1e6, bmax=1e6),
            dict(b0=math.nan, bmax=8e6),
            dict(b0=1e6, bmax=math.nan),
        ],
    )
    def test_invalid_model_rejected(self, kw):
        with pytest.raises(InvalidModel):
            mos_of(1e6, 1.0, MosModel(**kw))


class TestLatency:
    def channel(self, capacity=1e7):
        return ChannelModel(capacity=capacity, base_delay=0.01)

    def test_empty_payload_costs_base_delay(self):
        lvl = EncodingLevel(id="x", bits_per_frame=1)
        assert latency_of(lvl, self.channel()) == pytest.approx(0.01 + 1e-7)

    def test_serialization_time_adds_up(self):
        lvl = EncodingLevel(id="x", bits_per_frame=1_000_000)
        assert latency_of(lvl, self.channel()) == pytest.approx(0.11)

    def test_zero_capacity_rejected(self):
        lvl = EncodingLevel(id="x", bits_per_frame=1)
        with pytest.raises(InvalidChannel):
            latency_of(lvl, ChannelModel(capacity=0.0))

    @pytest.mark.parametrize(
        "kw, error",
        [
            (dict(capacity=math.nan), InvalidChannel),
            (dict(capacity=1e7, base_delay=math.nan), ValueError),
            (dict(capacity=1e7, loss_prob=math.nan), ValueError),
            (dict(capacity=0.0), InvalidChannel),
            (dict(capacity=1.0, loss_prob=1.5), ValueError),
        ],
    )
    def test_nan_channel_rejected(self, kw, error):
        with pytest.raises(error):
            ChannelModel(**kw)

    def test_monotone_in_bits(self):
        ch = self.channel()
        lats = [
            latency_of(EncodingLevel(id="x", bits_per_frame=b), ch)
            for b in (1, 100, 10_000, 1_000_000)
        ]
        assert lats == sorted(lats)


class TestScore:
    def test_norms_at_bounds(self):
        ch = ChannelModel(capacity=1e7, base_delay=0.0)
        bounds = Bounds(l_min=0.0, l_max=0.5)
        at_max = EncodingLevel(id="a", bits_per_frame=int(0.5 * 1e7))
        assert score(at_max, ch, 1.0, MODEL, bounds).qos_norm == 0.0
        tiny = EncodingLevel(id="b", bits_per_frame=1)
        assert score(tiny, ch, 1.0, MODEL, bounds).qos_norm == pytest.approx(1.0, abs=1e-6)

    def test_qoe_norm_is_rescaled_mos(self):
        ch = ChannelModel(capacity=1e7, base_delay=0.01)
        s = score(EncodingLevel(id="a", bits_per_frame=3_000_000), ch, 1.0, MODEL,
                  Bounds(l_max=1.0))
        assert s.qoe_norm == pytest.approx((s.mos - 1) / 4, abs=1e-12)
        assert s.qoe_norm == pytest.approx(0.6309297535714574, abs=1e-9)

    def test_bad_bounds_rejected(self):
        ch = ChannelModel(capacity=1e7)
        with pytest.raises(InvalidBounds):
            score(EncodingLevel(id="a", bits_per_frame=1), ch, 1.0, MODEL,
                  Bounds(l_min=0.5, l_max=0.5))

    @pytest.mark.parametrize("kw", [dict(l_min=math.nan), dict(l_max=math.nan)])
    def test_nan_bounds_rejected(self, kw):
        with pytest.raises(InvalidBounds):
            Bounds(**kw)
        with pytest.raises(InvalidBounds):
            Constraints(**kw)


class TestLevelBits:
    def test_full_quality(self):
        lvl = EncodingLevel(id="hq", scale_factor=1, quant_step=1)
        assert level_bits(lvl, 64, 64, 3) == 64 * 64 * 3 * 8

    def test_quantization_reduces_sample_bits(self):
        # step 32 leaves ceil(256/32) = 8 levels -> 3 bits
        lvl = EncodingLevel(id="lq", scale_factor=2, quant_step=32)
        assert level_bits(lvl, 64, 64, 3) == 32 * 32 * 3 * 3

    def test_resolved_fills_bits(self):
        lvl = EncodingLevel(id="a", scale_factor=1, quant_step=1)
        assert lvl.resolved(8, 8, 1).bits_per_frame == 8 * 8 * 8

    def test_extreme_quantization_floors_at_one_bit(self):
        lvl = EncodingLevel(id="z", scale_factor=1, quant_step=128)
        assert level_bits(lvl, 4, 4, 1) == 16


class TestSelectEncoding:
    CH = ChannelModel(capacity=1e7, base_delay=0.01)

    def abc(self):
        return [
            EncodingLevel(id="A", bits_per_frame=1_000_000),
            EncodingLevel(id="B", bits_per_frame=4_000_000),
            EncodingLevel(id="C", bits_per_frame=8_000_000),
        ]

    def test_qoe_policy_respects_latency_bound(self):
        # C has the top mos but 0.81 s latency; B wins under the 0.5 s bound
        lvl, degraded = select_encoding(
            self.abc(), self.CH, 1.0, MODEL, Policy.OPT_QOE,
            constraints=Constraints(l_max=0.5),
        )
        assert lvl.id == "B" and not degraded

    def test_single_level_degrades_when_infeasible(self):
        only = [EncodingLevel(id="big", bits_per_frame=8_000_000)]
        lvl, degraded = select_encoding(
            only, self.CH, 1.0, MODEL, Policy.OPT_QOE, constraints=Constraints(l_max=0.5)
        )
        assert lvl.id == "big" and degraded

    def test_qos_policy_picks_fastest_feasible(self):
        lvl, degraded = select_encoding(
            self.abc(), self.CH, 1.0, MODEL, Policy.OPT_QOS,
            constraints=Constraints(mos_min=3.0, l_max=0.5),
        )
        # A's mos 2.26 misses the floor; B is the fastest of {B, C}
        assert lvl.id == "B" and not degraded

    def test_empty_level_set_rejected(self):
        with pytest.raises(NoLevels):
            select_encoding([], self.CH, 1.0, MODEL, Policy.BALANCE)

    def test_balance_with_full_weight_reduces_to_qoe(self):
        rng = random.Random(1)
        unconstrained = Constraints(l_max=1e9)
        for _ in range(100):
            levels = random_levels(rng, rng.randrange(1, 9))
            got, _ = select_encoding(levels, self.CH, 30.0, MODEL, Policy.BALANCE,
                                     w=1.0, constraints=unconstrained)
            want, _ = select_encoding(levels, self.CH, 30.0, MODEL, Policy.OPT_QOE,
                                      constraints=unconstrained)
            assert got.id == want.id

    @pytest.mark.parametrize("policy", list(Policy))
    def test_matches_exhaustive_oracle(self, policy):
        rng = random.Random(42)
        for _ in range(300):
            levels = random_levels(rng, rng.randrange(1, 17))
            channel = ChannelModel(
                capacity=rng.uniform(1e5, 1e8), base_delay=rng.uniform(0, 0.1)
            )
            constraints = Constraints(
                mos_min=rng.uniform(1.0, 5.0),
                l_max=rng.uniform(0.05, 1.0),
            )
            w = rng.random()
            got = select_encoding(levels, channel, 30.0, MODEL, policy, w, constraints)
            want = oracle_select(levels, channel, 30.0, MODEL, policy, w, constraints)
            assert (got[0].id, got[1]) == (want[0].id, want[1])

    def test_scaling_invariance(self):
        # multiplying all bitrates, (b0, bmax), and capacity by one constant
        # leaves every policy's argmax unchanged
        rng = random.Random(7)
        for _ in range(100):
            levels = random_levels(rng, rng.randrange(1, 9))
            channel = ChannelModel(capacity=rng.uniform(1e6, 1e8), base_delay=0.0)
            scaled = [
                EncodingLevel(id=l.id, bits_per_frame=l.bits_per_frame * 8) for l in levels
            ]
            scaled_channel = ChannelModel(capacity=channel.capacity * 8, base_delay=0.0)
            for policy in Policy:
                base, _ = select_encoding(
                    levels, channel, 1.0, MosModel(b0=1e6, bmax=8e6), policy, 0.5,
                    Constraints(mos_min=2.0, l_max=0.5),
                )
                after, _ = select_encoding(
                    scaled, scaled_channel, 1.0, MosModel(b0=8e6, bmax=64e6), policy, 0.5,
                    Constraints(mos_min=2.0, l_max=0.5),
                )
                assert base.id == after.id


class TestReencode:
    def test_identity_level(self):
        f = Frame.from_array(np.arange(16, dtype=np.uint8).reshape(4, 4))
        assert reencode(f, EncodingLevel(id="hq", scale_factor=1, quant_step=1)) == f

    def test_downsample_then_quantize(self):
        f = Frame.from_array(np.array([[10, 20], [30, 40]], dtype=np.uint8))
        out = reencode(f, EncodingLevel(id="lq", scale_factor=2, quant_step=32))
        # block mean 25, round(25/32) = 1 -> 32
        assert out.data == bytes([32])

    def test_non_divisible_dimensions_rejected(self):
        f = Frame.from_array(np.zeros((3, 3), dtype=np.uint8))
        with pytest.raises(DimensionMismatch):
            reencode(f, EncodingLevel(id="x", scale_factor=2, quant_step=1))
