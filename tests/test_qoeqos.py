import math
import random
from dataclasses import replace

import numpy as np
import pytest

from emr.errors import DimensionMismatch, NoLevels
from emr.qoeqos import (
    ChannelModel,
    EncodingLevel,
    EncodingParams,
    Policy,
    latency_of,
    level_bits,
    mos_of,
    reencode,
    score,
    select_encoding,
)
from emr.raster import Frame

# the experience law at 1 frame/s: bits per frame read as bits per second
AT_1FPS = EncodingParams(fps=1.0, b0=1e6, bmax=8e6)


def oracle_select(levels, geometry, channel, params):
    """Independent exhaustive evaluation straight from the scoring formulas.

    Every level's scale factor must divide the geometry's width and height.
    """
    policy, w = params.policy, params.w
    bits = [level_bits(lvl, *geometry) for lvl in levels]

    def mos(i):
        b = bits[i] * params.fps
        raw = 1 + 4 * math.log(1 + b / params.b0) / math.log(1 + params.bmax / params.b0)
        return min(5.0, max(1.0, raw))

    def lat(i):
        return channel.base_delay + bits[i] / channel.capacity

    def qoe(i):
        return (mos(i) - 1) / 4

    def qos(i):
        span = params.l_max - params.l_min
        return min(1.0, max(0.0, (params.l_max - lat(i)) / span))

    indexed = range(len(levels))
    if policy is Policy.OPT_QOE:
        feasible = [i for i in indexed if lat(i) <= params.l_max]
        keyfn = lambda i: (-mos(i), bits[i], i)
    elif policy is Policy.OPT_QOS:
        feasible = [i for i in indexed if mos(i) >= params.mos_min]
        keyfn = lambda i: (lat(i), -mos(i), i)
    else:
        feasible = indexed
        keyfn = lambda i: (-(w * qoe(i) + (1 - w) * qos(i)), bits[i], i)
    if not feasible:
        return levels[min(indexed, key=lambda i: (bits[i], i))], True
    return levels[min(feasible, key=keyfn)], False


def random_levels(rng, n):
    return [
        EncodingLevel(
            id=f"L{i}",
            scale_factor=rng.choice([1, 2, 4]),
            quant_step=rng.choice([1, 2, 8, 32, 128]),
        )
        for i in range(n)
    ]


def random_geometry(rng):
    """A source every random level divides, of 64 to about 34 M bits per level."""
    return 4 * rng.randrange(8, 300), 4 * rng.randrange(8, 300), rng.choice([1, 3])


class TestMos:
    def test_zero_bitrate_anchors_at_one(self):
        assert mos_of(0, EncodingParams(fps=30)) == 1.0

    def test_bmax_anchors_at_five(self):
        assert mos_of(8e6, AT_1FPS) == 5.0

    def test_closed_form_value(self):
        # 1 + 4*ln(4)/ln(9)
        expected = 1 + 4 * math.log(4) / math.log(9)
        assert mos_of(3e6, AT_1FPS) == pytest.approx(expected, abs=1e-12)
        assert mos_of(3e6, AT_1FPS) == pytest.approx(3.5237190142858297, abs=1e-9)

    def test_clamps_above_bmax(self):
        assert mos_of(1e9, AT_1FPS) == 5.0

    def test_monotone_in_bitrate(self):
        rng = random.Random(0)
        for _ in range(200):
            a = rng.uniform(0, 2e7)
            b = rng.uniform(0, 2e7)
            lo, hi = min(a, b), max(a, b)
            assert mos_of(lo, AT_1FPS) <= mos_of(hi, AT_1FPS) + 1e-12

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
        with pytest.raises(ValueError, match="bmax > b0"):
            EncodingParams(fps=1.0, **kw)


class TestEncodingLevel:
    # a comma or line break in an id would split its row of the metrics CSV
    @pytest.mark.parametrize("level_id", ["", "-", "a,b", "a\nb", "a\r\nb", "a\x0bb"])
    def test_id_that_would_corrupt_the_metrics_rejected(self, level_id):
        with pytest.raises(ValueError, match="^id must"):
            EncodingLevel(id=level_id)


class TestEncodingParams:
    @pytest.mark.parametrize(
        "kw, field",
        [
            (dict(fps=0.0), "fps"),
            (dict(fps=math.nan), "fps"),
            (dict(w=1.5), "w"),
            (dict(w=-0.1), "w"),
            (dict(w=math.nan), "w"),
            # NaN fails every comparison, so each qos selection would read degraded
            (dict(mos_min=math.nan), "mos_min"),
            (dict(levels=()), "levels"),
            (dict(levels=(EncodingLevel("a"), EncodingLevel("a", scale_factor=2))), "levels"),
        ],
    )
    def test_invalid_params_rejected(self, kw, field):
        # each field is checked here alone: mos_of and select_encoding take it as given
        with pytest.raises(ValueError, match=rf"^{field} must"):
            EncodingParams(**kw)

    def test_policy_must_be_a_policy(self):
        # a policy's value in place of the member would fail only at the first selection
        with pytest.raises(TypeError, match="policy"):
            EncodingParams(policy="qoe")

    def test_defaults_match_the_config_defaults(self):
        assert EncodingParams() == EncodingParams(
            fps=30.0, b0=1e6, bmax=8e6, policy=Policy.BALANCE, w=0.5,
            mos_min=2.0, l_max=0.5, l_min=0.0,
        )


class TestLatency:
    def channel(self, capacity=1e7):
        return ChannelModel(capacity=capacity, base_delay=0.01)

    def test_empty_payload_costs_base_delay(self):
        assert latency_of(1, self.channel()) == pytest.approx(0.01 + 1e-7)

    def test_serialization_time_adds_up(self):
        assert latency_of(1_000_000, self.channel()) == pytest.approx(0.11)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            latency_of(1, ChannelModel(capacity=0.0))

    @pytest.mark.parametrize(
        "kw, field",
        [
            pytest.param(dict(capacity=math.nan), "capacity", id="kw0-InvalidChannel"),
            pytest.param(dict(capacity=1e7, base_delay=math.nan), "base_delay",
                         id="kw1-ValueError"),
            pytest.param(dict(capacity=1e7, loss_prob=math.nan), "loss_prob",
                         id="kw2-ValueError"),
            pytest.param(dict(capacity=0.0), "capacity", id="kw3-InvalidChannel"),
            pytest.param(dict(capacity=1.0, loss_prob=1.5), "loss_prob", id="kw4-ValueError"),
            pytest.param(dict(capacity=1e7, level=dict(scale_factor=math.nan)),
                         "scale_factor", id="kw6-ValueError"),
        ],
    )
    def test_nan_channel_rejected(self, kw, field):
        # refused where the level or channel is built, so the level's bits and
        # latency_of never return nan
        kw = dict(kw)
        level = kw.pop("level", {})
        with pytest.raises(ValueError, match=field):
            latency_of(level_bits(EncodingLevel(id="x", **level), 8, 8, 1), ChannelModel(**kw))

    def test_monotone_in_bits(self):
        ch = self.channel()
        lats = [latency_of(b, ch) for b in (1, 100, 10_000, 1_000_000)]
        assert lats == sorted(lats)


class TestScore:
    def test_norms_at_bounds(self):
        ch = ChannelModel(capacity=1e7, base_delay=0.0)
        bounds = EncodingParams(fps=1.0, l_min=0.0, l_max=0.5)
        assert score(int(0.5 * 1e7), ch, bounds).qos_norm == 0.0
        assert score(1, ch, bounds).qos_norm == pytest.approx(1.0, abs=1e-6)

    def test_qoe_norm_is_rescaled_mos(self):
        ch = ChannelModel(capacity=1e7, base_delay=0.01)
        s = score(3_000_000, ch, EncodingParams(fps=1.0, l_max=1.0))
        assert s.qoe_norm == pytest.approx((s.mos - 1) / 4, abs=1e-12)
        assert s.qoe_norm == pytest.approx(0.6309297535714574, abs=1e-9)

    def test_bad_bounds_rejected(self):
        ch = ChannelModel(capacity=1e7)
        with pytest.raises(ValueError, match="l_max > l_min"):
            score(1, ch, EncodingParams(fps=1.0, l_min=0.5, l_max=0.5))

    @pytest.mark.parametrize("kw", [dict(l_min=math.nan), dict(l_max=math.nan)])
    def test_nan_bounds_rejected(self, kw):
        with pytest.raises(ValueError, match="l_max > l_min"):
            EncodingParams(**kw)


class TestLevelBits:
    def test_full_quality(self):
        lvl = EncodingLevel(id="hq", scale_factor=1, quant_step=1)
        assert level_bits(lvl, 64, 64, 3) == 64 * 64 * 3 * 8

    def test_quantization_reduces_sample_bits(self):
        # step 32 leaves ceil(256/32) = 8 levels -> 3 bits
        lvl = EncodingLevel(id="lq", scale_factor=2, quant_step=32)
        assert level_bits(lvl, 64, 64, 3) == 32 * 32 * 3 * 3

    def test_extreme_quantization_floors_at_one_bit(self):
        lvl = EncodingLevel(id="z", scale_factor=1, quant_step=128)
        assert level_bits(lvl, 4, 4, 1) == 16


class TestSelectEncoding:
    CH = ChannelModel(capacity=1e7, base_delay=0.01)
    # one 8-bit sample per pixel: quant 128, 16 and 1 give 1, 4 and 8 bits a sample
    MEGAPIXEL = (1000, 1000, 1)

    def abc(self):
        # 1 M, 4 M and 8 M bits at MEGAPIXEL
        return [
            EncodingLevel(id="A", quant_step=128),
            EncodingLevel(id="B", quant_step=16),
            EncodingLevel(id="C", quant_step=1),
        ]

    def test_qoe_policy_respects_latency_bound(self):
        # C has the top mos but 0.81 s latency; B wins under the 0.5 s bound
        lvl, degraded = select_encoding(
            self.abc(), self.MEGAPIXEL, self.CH,
            EncodingParams(fps=1.0, policy=Policy.OPT_QOE, l_max=0.5),
        )
        assert lvl.id == "B" and not degraded

    def test_single_level_degrades_when_infeasible(self):
        only = [EncodingLevel(id="big", quant_step=1)]
        lvl, degraded = select_encoding(
            only, self.MEGAPIXEL, self.CH,
            EncodingParams(fps=1.0, policy=Policy.OPT_QOE, l_max=0.5),
        )
        assert lvl.id == "big" and degraded

    def test_qos_policy_picks_fastest_feasible(self):
        lvl, degraded = select_encoding(
            self.abc(), self.MEGAPIXEL, self.CH,
            EncodingParams(fps=1.0, policy=Policy.OPT_QOS, mos_min=3.0, l_max=0.5),
        )
        # A's mos 2.26 misses the floor; B is the fastest of {B, C}
        assert lvl.id == "B" and not degraded

    def test_empty_level_set_rejected(self):
        with pytest.raises(NoLevels):
            select_encoding([], self.MEGAPIXEL, self.CH, EncodingParams(fps=1.0))

    def test_only_levels_dividing_the_source_compete(self):
        # C (scale 2, 2 M bits) outscores A (1 M) where it divides the source;
        # at 999x999 it sits out and A is the one level left
        levels = [EncodingLevel(id="A", quant_step=128), EncodingLevel(id="C", scale_factor=2)]
        params = EncodingParams(fps=1.0, policy=Policy.OPT_QOE, l_max=1e9)
        assert select_encoding(levels, self.MEGAPIXEL, self.CH, params) == (levels[1], False)
        assert select_encoding(levels, (999, 999, 1), self.CH, params) == (levels[0], False)
        with pytest.raises(NoLevels, match="999x1000"):
            select_encoding(levels[1:], (999, 1000, 1), self.CH, params)

    def test_levels_sharing_an_id_keep_their_own_bits(self):
        # only EncodingParams insists on distinct ids; a bare list may repeat one
        twins = [EncodingLevel(id="x", quant_step=128), EncodingLevel(id="x", quant_step=1)]
        params = EncodingParams(fps=1.0, policy=Policy.OPT_QOE, l_max=1e9)
        assert select_encoding(twins, self.MEGAPIXEL, self.CH, params)[0] is twins[1]

    def test_balance_with_full_weight_reduces_to_qoe(self):
        rng = random.Random(1)
        unconstrained = EncodingParams(l_max=1e9)
        for _ in range(100):
            levels = random_levels(rng, rng.randrange(1, 9))
            geometry = random_geometry(rng)
            got, _ = select_encoding(
                levels, geometry, self.CH, replace(unconstrained, policy=Policy.BALANCE, w=1.0)
            )
            want, _ = select_encoding(
                levels, geometry, self.CH, replace(unconstrained, policy=Policy.OPT_QOE)
            )
            assert got.id == want.id

    @pytest.mark.parametrize("policy", list(Policy))
    def test_matches_exhaustive_oracle(self, policy):
        rng = random.Random(42)
        for _ in range(300):
            levels = random_levels(rng, rng.randrange(1, 17))
            geometry = random_geometry(rng)
            channel = ChannelModel(
                capacity=rng.uniform(1e5, 1e8), base_delay=rng.uniform(0, 0.1)
            )
            mos_min, l_max = rng.uniform(1.0, 5.0), rng.uniform(0.05, 1.0)
            params = EncodingParams(
                policy=policy, w=rng.random(), mos_min=mos_min, l_max=l_max
            )
            got = select_encoding(levels, geometry, channel, params)
            want = oracle_select(levels, geometry, channel, params)
            assert (got[0].id, got[1]) == (want[0].id, want[1])

    def test_scaling_invariance(self):
        # multiplying all bitrates, (b0, bmax), and capacity by one constant
        # leaves every policy's argmax unchanged: doubling the source's width
        # and height multiplies every level's bits by 4
        rng = random.Random(7)
        for _ in range(100):
            levels = random_levels(rng, rng.randrange(1, 9))
            width, height, channels = random_geometry(rng)
            channel = ChannelModel(capacity=rng.uniform(1e6, 1e8), base_delay=0.0)
            scaled_channel = ChannelModel(capacity=channel.capacity * 4, base_delay=0.0)
            for policy in Policy:
                base, _ = select_encoding(
                    levels, (width, height, channels), channel,
                    EncodingParams(fps=1.0, b0=1e6, bmax=8e6, policy=policy, mos_min=2.0),
                )
                after, _ = select_encoding(
                    levels, (2 * width, 2 * height, channels), scaled_channel,
                    EncodingParams(fps=1.0, b0=4e6, bmax=32e6, policy=policy, mos_min=2.0),
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
        assert out.data.tobytes() == bytes([32])

    def test_non_divisible_dimensions_rejected(self):
        f = Frame.from_array(np.zeros((3, 3), dtype=np.uint8))
        with pytest.raises(DimensionMismatch):
            reencode(f, EncodingLevel(id="x", scale_factor=2, quant_step=1))
