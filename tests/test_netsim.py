import math

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
from emr.tunnel import decrypt_verify, encrypt_envelope

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
        a, _, _ = session_pair()
        env = encrypt_envelope(a, b"some payload")
        out = interpose(Adversary("m", AdversaryMode.TAMPER, seed=1), env)
        diff = [
            bin(x ^ y).count("1") for x, y in zip(env.ciphertext, out.ciphertext)
        ]
        assert sum(diff) == 1
        assert out.digest == env.digest and out.seq == env.seq

    def test_tamper_passes_empty_ciphertext(self):
        a, _, _ = session_pair()
        env = encrypt_envelope(a, b"")
        assert interpose(Adversary("m", AdversaryMode.TAMPER, seed=1), env) == env

    def test_tamper_raises_alarm_downstream(self):
        a, b, reg = session_pair()
        mallory = Adversary("m", AdversaryMode.TAMPER, seed=3)
        for i in range(100):
            env = interpose(mallory, encrypt_envelope(a, bytes([i]) * (i + 1)))
            with pytest.raises(TamperAlarm):
                decrypt_verify(b, env, reg, a.send_seq)

    def test_replay_lags_by_one_and_trips_on_duplicate(self):
        a, b, reg = session_pair()
        mallory = Adversary("m", AdversaryMode.REPLAY)
        first = encrypt_envelope(a, b"one")
        second = encrypt_envelope(a, b"two")
        assert interpose(mallory, first) == first  # nothing to replay yet
        decrypt_verify(b, first, reg, 1)
        replayed = interpose(mallory, second)
        assert replayed == first
        with pytest.raises(ReplayAlarm):  # envelope 1 in the slot that expects seq 2
            decrypt_verify(b, replayed, reg, 2)

    def test_impersonation_rejected_by_registry(self):
        a, b, reg = session_pair()
        mallory = Adversary("m", AdversaryMode.IMPERSONATE)
        env = interpose(mallory, encrypt_envelope(a, b"hello"))
        assert env.sender_fingerprint == mallory.fingerprint
        with pytest.raises(UnauthorizedAgent):
            decrypt_verify(b, env, reg, a.send_seq)

