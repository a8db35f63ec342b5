import math
import random

import pytest

from emr.errors import ReplayAlarm, TamperAlarm, UnauthorizedAgent
from emr.netsim import (
    Adversary,
    AdversaryMode,
    Link,
    interpose,
    transmit,
)
from emr.qoeqos import ChannelModel
from emr.tunnel import HEADER_SIZE, decrypt_verify, encode_envelope, encrypt_envelope

from test_tunnel import session_pair


def make_link(loss=0.0, seed=0, capacity=1e7, base_delay=0.01):
    return Link(ChannelModel(capacity=capacity, base_delay=base_delay, loss_prob=loss), seed=seed)


class TestTransmit:
    def test_lossless_always_delivers(self):
        link = make_link(loss=0.0)
        assert all(transmit(link, 100, 0.0).delivered for _ in range(200))

    def test_fully_lossy_always_drops(self):
        link = make_link(loss=1.0)
        assert not any(transmit(link, 100, 0.0).delivered for _ in range(200))

    def test_arrival_time_arithmetic(self):
        link = make_link()
        res = transmit(link, 1_000_000, now=0.0)
        assert res.delivered
        assert res.arrival == pytest.approx(0.11)

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError, match="payload_bits"):
            transmit(make_link(), -1, 0.0)

    def test_identical_seeds_reproduce_traces(self):
        t1 = [transmit(make_link(loss=0.3, seed=42), 10, 0.0).delivered for _ in range(100)]
        t2 = [transmit(make_link(loss=0.3, seed=42), 10, 0.0).delivered for _ in range(100)]
        assert t1 == t2

    def test_empirical_drop_rate_tracks_loss_prob(self):
        link = make_link(loss=0.1, seed=7)
        drops = sum(not transmit(link, 8, 0.0).delivered for _ in range(10_000))
        assert abs(drops / 10_000 - 0.1) <= 0.02

    def test_invalid_link_parameters_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            Link(ChannelModel(capacity=0.0))
        with pytest.raises(ValueError):
            Link(ChannelModel(capacity=1.0, loss_prob=1.5))

    @pytest.mark.parametrize(
        "kw, field",
        [
            pytest.param(dict(capacity=math.nan), "capacity", id="kw0"),
            pytest.param(dict(capacity=1.0, base_delay=math.nan), "base_delay", id="kw1"),
        ],
    )
    def test_nan_link_parameters_rejected(self, kw, field):
        with pytest.raises(ValueError, match=field):
            Link(ChannelModel(**kw))


class TestAdversary:
    def test_mode_must_be_an_adversary_mode(self):
        # a mode's value in place of the member would fail only at the first envelope
        with pytest.raises(TypeError, match="mode"):
            Adversary("m", "tamper")

    def test_tamper_flips_exactly_one_bit(self):
        # the draw over the n ciphertext bits, past the header: the bit the
        # adversary flipped when it edited parsed envelopes
        a, _, _ = session_pair()
        for seed in range(20):
            n = seed + 1
            wire = encode_envelope(encrypt_envelope(a, bytes(n)))
            out = interpose(Adversary("m", AdversaryMode.TAMPER, seed=seed), wire)
            bit = 8 * HEADER_SIZE + random.Random(seed).randrange(8 * n)
            assert len(out) == len(wire)
            assert int.from_bytes(out, "little") ^ int.from_bytes(wire, "little") == 1 << bit

    def test_tamper_passes_empty_ciphertext(self):
        a, _, _ = session_pair()
        wire = encode_envelope(encrypt_envelope(a, b""))
        mallory = Adversary("m", AdversaryMode.TAMPER, seed=1)
        assert interpose(mallory, wire) == wire
        assert mallory.rng.getstate() == random.Random(1).getstate()  # and draws nothing

    def test_tamper_raises_alarm_downstream(self):
        a, b, reg = session_pair()
        mallory = Adversary("m", AdversaryMode.TAMPER, seed=3)
        for i in range(100):
            wire = interpose(mallory, encode_envelope(encrypt_envelope(a, bytes([i]) * (i + 1))))
            with pytest.raises(TamperAlarm):
                decrypt_verify(b, wire, reg, a.send_seq)

    def test_replay_lags_by_one_and_trips_on_duplicate(self):
        a, b, reg = session_pair()
        mallory = Adversary("m", AdversaryMode.REPLAY)
        first = encode_envelope(encrypt_envelope(a, b"one"))
        second = encode_envelope(encrypt_envelope(a, b"two"))
        assert interpose(mallory, first) == first  # nothing to replay yet
        decrypt_verify(b, first, reg, 1)
        replayed = interpose(mallory, second)
        assert replayed == first
        with pytest.raises(ReplayAlarm):  # envelope 1 in the slot that expects seq 2
            decrypt_verify(b, replayed, reg, 2)

    def test_impersonation_rejected_by_registry(self):
        a, b, reg = session_pair()
        mallory = Adversary("m", AdversaryMode.IMPERSONATE)
        wire = encode_envelope(encrypt_envelope(a, b"hello"))
        out = interpose(mallory, wire)
        assert out[:32] == mallory.fingerprint and out[32:] == wire[32:]
        with pytest.raises(UnauthorizedAgent):
            decrypt_verify(b, out, reg, a.send_seq)
