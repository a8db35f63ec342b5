import dataclasses
import hashlib
import hmac
import math
import random
import statistics
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emr.errors import (
    ReplayAlarm,
    SecurityAlarm,
    TamperAlarm,
    UnauthorizedAgent,
)
from emr import tunnel
from emr.tunnel import (
    _envelope_keystream,
    _lane_orbit,
    _lane_seeds,
    DH_G,
    DH_P,
    HEADER_SIZE,
    KEY_WIDTH,
    LOGISTIC_R,
    Envelope,
    SessionTunnel,
    decrypt_verify,
    encode_envelope,
    encrypt_envelope,
    fingerprint,
    handshake,
    keypair_gen,
    make_agent,
)

key_seeds = st.integers(min_value=0, max_value=2 ** 64 - 1)


def reference_orbit(x, steps):
    """The states x, f(x), ..., f^steps(x) of the one-step scalar loop."""
    states = [x]
    for _ in range(steps):
        x = LOGISTIC_R * x * (1.0 - x)
        states.append(x)
    return np.array(states)


def one_lane_orbit(x, steps):
    """The states x, f(x), ..., f^steps(x) of one ``_lane_orbit`` lane."""
    return _lane_orbit(np.array([x]), steps)[:, 0]


# where every state after the first lies: T, r/4 rounded up by one ulp, is
# the largest value the float step reaches, and f(T) is the smallest
ORBIT_TOP = 0.9975000000000002
ORBIT_BOTTOM = 0.009950062499999348


def reference_seed(word):
    """A 64-bit word's chaos seed: its top 53 bits as a fraction, scaled onto [0.01, 0.99]."""
    return 0.01 + 0.98 * ((word >> 11) * 2.0 ** -53)


def reference_seeds(material, count):
    """Seed i from bytes 8i .. 8i+7 of the SHAKE-256 output, read big-endian."""
    stream = hashlib.shake_256(material).digest(8 * count)
    return [reference_seed(int.from_bytes(stream[8 * i:8 * i + 8], "big")) for i in range(count)]


def reference_keystream(tunnel_state, sender_fp, seq, n):
    """Byte i from lane i mod L at step i div L + 1, each lane a scalar orbit."""
    if n == 0:
        return b""
    lanes = 1
    while lanes * lanes < n:
        lanes += 1
    steps = (n + lanes - 1) // lanes
    material = struct.pack(">d", tunnel_state.chaos_x) + sender_fp + seq.to_bytes(8, "big")
    orbits = [reference_orbit(x, steps) for x in reference_seeds(material, lanes)]
    return bytes(int(orbits[i % lanes][i // lanes + 1] * 256.0) for i in range(n))


# Diagnostics over keystream structure (histogram shape, short-range
# correlation); they measure, they do not certify.

def keystream_chi2(stream: bytes) -> float:
    """Chi-square statistic of the byte histogram against uniform (255 dof)."""
    counts = [0] * 256
    for b in stream:
        counts[b] += 1
    expected = len(stream) / 256.0
    return sum((c - expected) ** 2 / expected for c in counts)


def keystream_lag1_autocorr(stream: bytes) -> float:
    """Lag-1 autocorrelation of the byte sequence; 1.0 for constant streams."""
    if len(stream) < 2:
        return 0.0
    n = len(stream)
    mean = sum(stream) / n
    var = sum((b - mean) ** 2 for b in stream) / n
    if var == 0:
        return 1.0
    cov = sum((stream[i] - mean) * (stream[i + 1] - mean) for i in range(n - 1)) / (n - 1)
    return cov / var


def bare_tunnel(chaos_x=0.4321):
    return SessionTunnel(
        local_fingerprint=b"\x01" * 32,
        peer_fingerprint=b"\x02" * 32,
        shared_secret=12345,
        chaos_x=chaos_x,
    )


def plant_seeds(monkeypatch, planted):
    """Make lane i of every envelope start from planted[i] where given."""
    lane_seeds = tunnel._lane_seeds

    def seeds(material, lanes):
        out = lane_seeds(material, lanes)
        for lane, x in planted.items():
            if lane < lanes:
                out[lane] = x
        return out
    monkeypatch.setattr(tunnel, "_lane_seeds", seeds)


def session_pair(seed_a=1, seed_b=2):
    priv_a, pub_a = keypair_gen(seed_a)
    priv_b, pub_b = keypair_gen(seed_b)
    registry = {fingerprint(pub_a), fingerprint(pub_b)}
    a = handshake(priv_a, pub_b, registry)
    b = handshake(priv_b, pub_a, registry)
    return a, b, registry


class TestKeypair:
    def test_deterministic_for_equal_seeds(self):
        assert keypair_gen(99) == keypair_gen(99)

    def test_group_constants(self):
        # keys, secrets and fingerprint inputs are 8 bytes wide on the wire
        assert KEY_WIDTH == 8
        assert DH_P.bit_length() == 61 and 1 < DH_G < DH_P

    @given(key_seeds)
    def test_public_key_is_the_generator_power(self, seed):
        priv, pub = keypair_gen(seed)
        assert pub == pow(DH_G, priv, DH_P)

    @given(key_seeds)
    def test_private_in_valid_range(self, seed):
        priv, pub = keypair_gen(seed)
        assert 2 <= priv <= DH_P - 2
        assert 1 <= pub <= DH_P - 1


class TestFingerprint:
    def test_deterministic(self):
        assert fingerprint(8) == fingerprint(8)
        assert len(fingerprint(8)) == 32

    def test_is_sha256_of_the_fixed_width_key(self):
        assert fingerprint(8) == hashlib.sha256((8).to_bytes(KEY_WIDTH, "big")).digest()

    def test_distinct_keys_distinct_digests(self):
        rng = random.Random(0)
        keys = rng.sample(range(1, DH_P - 1), 10_000)
        digests = {fingerprint(k) for k in keys}
        assert len(digests) == len(keys)

    @pytest.mark.parametrize("key", [0, -1])
    def test_out_of_range_rejected(self, key):
        with pytest.raises(ValueError, match="public key"):
            fingerprint(key)

    def test_modulus_sized_key_rejected(self):
        with pytest.raises(ValueError, match="public key"):
            fingerprint(DH_P)


class TestHandshake:
    @given(key_seeds, key_seeds)
    def test_both_sides_agree_on_the_secret(self, seed_a, seed_b):
        priv_a, pub_a = keypair_gen(seed_a)
        priv_b, pub_b = keypair_gen(seed_b)
        a, b, _ = session_pair(seed_a, seed_b)
        assert a.shared_secret == b.shared_secret == pow(DH_G, priv_a * priv_b, DH_P)
        assert a.chaos_x == b.chaos_x
        assert (a.local_fingerprint, a.peer_fingerprint) == (fingerprint(pub_a), fingerprint(pub_b))
        assert (b.local_fingerprint, b.peer_fingerprint) == (fingerprint(pub_b), fingerprint(pub_a))

    def test_symmetry_over_random_keypairs(self):
        rng = random.Random(5)
        for _ in range(100):
            a, b, _ = session_pair(rng.getrandbits(32), rng.getrandbits(32))
            assert a.shared_secret == b.shared_secret
            assert a.chaos_x == b.chaos_x

    def test_unknown_fingerprint_rejected(self):
        priv_a, pub_a = keypair_gen(1)
        priv_b, pub_b = keypair_gen(2)
        registry = {fingerprint(pub_a)}  # peer missing
        with pytest.raises(UnauthorizedAgent):
            handshake(priv_a, pub_b, registry)

    def test_out_of_range_peer_rejected(self):
        priv_a, _ = keypair_gen(1)
        with pytest.raises(ValueError, match="public key"):
            handshake(priv_a, DH_P, {b"x"})

    def test_chaos_seed_in_open_interval(self):
        for seed in range(30):
            a, b, _ = session_pair(seed * 2 + 1, seed * 2 + 2)
            assert 0.01 <= a.chaos_x <= 0.99

    def test_base_state_is_the_first_seed_of_the_secret(self):
        a, _, _ = session_pair()
        assert a.chaos_x == reference_seeds(a.shared_secret.to_bytes(KEY_WIDTH, "big"), 1)[0]

    def test_chaos_state_is_a_python_float(self):
        a, _, _ = session_pair()
        assert type(a.chaos_x) is float


class TestKeystream:
    def test_single_step_from_half(self, monkeypatch):
        # one byte is one lane's first step: 3.99 * 0.5 * 0.5 = 0.9975; floor(0.9975 * 256) = 255
        plant_seeds(monkeypatch, {0: 0.5})
        assert _envelope_keystream(bare_tunnel(), b"\x01" * 32, 1, 1) == bytes([255])

    def test_deterministic(self):
        a, b, _ = session_pair()
        stream = _envelope_keystream(a, a.local_fingerprint, 7, 64)
        assert stream == _envelope_keystream(a, a.local_fingerprint, 7, 64)
        assert stream == _envelope_keystream(b, a.local_fingerprint, 7, 64)

    def test_lane_seeds_match_per_lane_derivation(self):
        material = bytes(range(48))
        expected = np.array(reference_seeds(material, 961))
        assert _lane_seeds(material, 961).tobytes() == expected.tobytes()
        assert _lane_seeds(material, 5).tobytes() == expected[:5].tobytes()

    # the ends of the word range, the last words of equal top 53 bits, the midpoint
    EDGE_WORDS = [0, 2 ** 11 - 1, 2 ** 11, 2 ** 63, 2 ** 64 - 2 ** 11, 2 ** 64 - 1]

    def test_edge_words_map_into_the_closed_seed_interval(self, monkeypatch):
        assert reference_seed(0) == 0.01
        assert reference_seed(2 ** 64 - 1) <= 0.99
        stream = b"".join(w.to_bytes(8, "big") for w in self.EDGE_WORDS)

        class Shake:
            def __init__(self, material):
                pass

            def digest(self, length):
                return stream[:length]
        monkeypatch.setattr(hashlib, "shake_256", Shake)
        seeds = _lane_seeds(b"", len(self.EDGE_WORDS))
        assert seeds.tolist() == [reference_seed(w) for w in self.EDGE_WORDS]
        assert 0.01 == seeds.min() and seeds.max() <= 0.99

    @given(
        x=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        steps=st.integers(0, 40),
    )
    @settings(max_examples=300, deadline=None)
    def test_orbit_matches_per_step_loop(self, x, steps):
        assert one_lane_orbit(x, steps).tobytes() == reference_orbit(x, steps).tobytes()

    @given(x=st.floats(0.01, 0.99))
    @example(x=0.01)
    @example(x=math.nextafter(0.01, 1.0))
    @example(x=0.5)
    @example(x=math.nextafter(0.99, 0.0))
    @example(x=0.99)
    # f(x) rounds to T, then f(T) is the bottom: both ends are reached
    @example(x=0.49999999988897775)
    @settings(max_examples=50, deadline=None)
    def test_orbit_stays_off_the_fixed_points(self, x):
        # the float map sends [f(T), T] into itself and any seed in
        # [0.01, 0.99] lands there in one step: no state nears 0 or 1
        states = one_lane_orbit(x, 13301)[1:]
        assert ORBIT_BOTTOM <= states.min() and states.max() <= ORBIT_TOP

    def test_orbit_bounds_are_reached(self):
        assert ORBIT_TOP == math.nextafter(LOGISTIC_R / 4.0, 1.0)
        states = one_lane_orbit(0.49999999988897775, 2)
        assert states[1] == ORBIT_TOP
        assert states[2] == ORBIT_BOTTOM == LOGISTIC_R * ORBIT_TOP * (1.0 - ORBIT_TOP)

    def test_long_orbit_matches_per_step_loop(self):
        # far longer than any envelope lane (960 steps at 640x480x3)
        got = one_lane_orbit(0.4321, 13301)
        assert got.dtype == np.float64
        assert got.tobytes() == reference_orbit(0.4321, 13301).tobytes()

    @given(
        chaos_x=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        sender_fp=st.binary(min_size=32, max_size=32),
        seq=st.integers(0, 2 ** 64 - 1),
        n=st.integers(0, 3000),
    )
    @settings(max_examples=100, deadline=None)
    def test_lanes_match_per_lane_scalar_orbit(self, chaos_x, sender_fp, seq, n):
        state = bare_tunnel(chaos_x=chaos_x)
        assert _envelope_keystream(state, sender_fp, seq, n) == reference_keystream(
            state, sender_fp, seq, n
        )

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 144, 145, 12301])
    def test_lane_layout_at_square_boundaries(self, n):
        state = bare_tunnel()
        stream = _envelope_keystream(state, b"\x03" * 32, 9, n)
        assert len(stream) == n
        assert stream == reference_keystream(state, b"\x03" * 32, 9, n)

    def test_lane_columns_are_scalar_orbits(self):
        seeds = np.array([0.1, 0.25, 0.4321, 0.6, 0.9])
        orbit = _lane_orbit(seeds, 40)
        assert orbit.shape == (41, 5)
        for lane, seed in enumerate(seeds):
            assert orbit[:, lane].tobytes() == reference_orbit(seed, 40).tobytes()

    def test_pinned_keystream_bytes(self):
        a, _, _ = session_pair()
        stream = _envelope_keystream(a, a.local_fingerprint, 1, 4096)
        assert hashlib.sha256(stream).hexdigest() == (
            "3c4079f6eaba5c067b28f22af77e82ec1cf3ee6aaca27d8e6b5136fd6ba8681e"
        )

    def test_chi2_statistic_computes_known_cases(self):
        uniform = bytes(range(256)) * 4
        assert keystream_chi2(uniform) == 0.0
        skewed = bytes(256)  # every byte zero
        # one bin holds all 256 observations against an expectation of 1
        assert keystream_chi2(skewed) == pytest.approx(255.0 ** 2 + 255.0)

    def test_autocorr_statistic_computes_known_cases(self):
        alternating = bytes([0, 255] * 512)
        assert keystream_lag1_autocorr(alternating) == pytest.approx(-1.0, abs=1e-2)
        assert keystream_lag1_autocorr(bytes(16)) == 1.0  # constant stream

    # Envelopes 1..k of the seed-1/seed-2 session as the single-orbit keystream
    # (one orbit per envelope, from a base state warmed up for 1000 steps)
    # measured them: k, mean and sample sd of keystream_chi2, mean |lag-1|.
    SINGLE_ORBIT_STATS = {
        12301: (100, 6647.42, 388.84, 0.13537),
        65536: (20, 34149.78, 755.16, 0.13656),
    }

    def test_diagnostics_expose_keystream_structure(self):
        # the map's arcsine density piles mass near 0/255 in every envelope;
        # the lanes leave the histogram no more skewed than one long orbit did
        # (one envelope's chi2 varies by about 390 at 12,301 bytes, so the means
        # may differ by three standard errors of their difference) and move the
        # orbit's lag-1 correlation out to lag L
        a, _, _ = session_pair()
        for n, (k, chi2_mean, chi2_sd, lag1_mean) in self.SINGLE_ORBIT_STATS.items():
            streams = [
                _envelope_keystream(a, a.local_fingerprint, seq, n) for seq in range(1, k + 1)
            ]
            chi2 = [keystream_chi2(stream) for stream in streams]
            lag1 = [abs(keystream_lag1_autocorr(stream)) for stream in streams]
            assert min(chi2) > 1000.0
            assert statistics.fmean(chi2) <= chi2_mean + 3.0 * chi2_sd * math.sqrt(2.0 / k)
            assert statistics.fmean(lag1) <= lag1_mean


class TestEnvelopes:
    def test_empty_payload(self):
        a, b, reg = session_pair()
        env = encrypt_envelope(a, b"")
        assert env.ciphertext == b""
        assert decrypt_verify(b, encode_envelope(env), reg, 1) == b""

    def test_roundtrip_random_payloads(self):
        a, b, reg = session_pair()
        rng = random.Random(3)
        for _ in range(50):
            payload = rng.randbytes(rng.randrange(0, 512))
            env = encrypt_envelope(a, payload)
            assert decrypt_verify(b, encode_envelope(env), reg, a.send_seq) == payload

    def test_pinned_ciphertext(self):
        priv_a, pub_a = keypair_gen(1)
        priv_b, pub_b = keypair_gen(2)
        registry = {fingerprint(pub_a), fingerprint(pub_b)}
        a = handshake(priv_a, pub_b, registry)
        env = encrypt_envelope(a, bytes(range(256)) * 16)
        assert hashlib.sha256(env.ciphertext).hexdigest() == (
            "20eede509f3eabd2444ff17db4cfcc13028418d1bab1a3a97d0fed0c64f844e0"
        )
        assert env.digest.hex() == (
            "e4273ca8e0a6e430a74072ddeea402221042da450688b834cc15c00ee2d5ffe7"
        )

    def test_digest_is_hmac_over_header_and_ciphertext(self):
        a, _, _ = session_pair()
        env = encrypt_envelope(a, b"authenticated")
        secret = a.shared_secret.to_bytes(KEY_WIDTH, "big")
        message = a.local_fingerprint + (1).to_bytes(8, "big") + (13).to_bytes(4, "big")
        assert env.digest == hmac.digest(secret, message + env.ciphertext, "sha256")

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 99, 100, 101, 12301, 16384, 16385, 20000])
    def test_roundtrip_across_lane_boundaries(self, size):
        a, b, reg = session_pair()
        payload = random.Random(size).randbytes(size)
        env = encrypt_envelope(a, payload)
        assert env.ciphertext != payload
        assert decrypt_verify(b, encode_envelope(env), reg, 1) == payload

    def test_sequence_strictly_increases(self):
        a, _, _ = session_pair()
        seqs = [encrypt_envelope(a, b"x").seq for _ in range(5)]
        assert seqs == [1, 2, 3, 4, 5]

    def test_gap_tolerant_decryption(self):
        a, b, reg = session_pair()
        encrypt_envelope(a, b"lost in transit")
        late = encrypt_envelope(a, b"arrives fine")
        assert decrypt_verify(b, encode_envelope(late), reg, 2) == b"arrives fine"

    def test_tamper_detected_on_any_bit(self):
        a, b, reg = session_pair()
        rng = random.Random(9)
        for _ in range(100):
            payload = rng.randbytes(rng.randrange(1, 128))
            env = encrypt_envelope(a, payload)
            bit = rng.randrange(len(env.ciphertext) * 8)
            mutated = bytearray(env.ciphertext)
            mutated[bit // 8] ^= 1 << (bit % 8)
            bad = Envelope(env.sender_fingerprint, env.seq, bytes(mutated), env.digest)
            with pytest.raises(TamperAlarm):
                decrypt_verify(b, encode_envelope(bad), reg, a.send_seq)

    def test_replay_detected(self):
        # an envelope delivered in any slot but its own, late or early
        a, b, reg = session_pair()
        env = encrypt_envelope(a, b"once")
        assert decrypt_verify(b, encode_envelope(env), reg, 1) == b"once"
        with pytest.raises(ReplayAlarm, match="seq 1 where 2 is expected"):
            decrypt_verify(b, encode_envelope(env), reg, 2)
        early = encrypt_envelope(a, b"early")
        with pytest.raises(ReplayAlarm):
            decrypt_verify(b, encode_envelope(early), reg, 1)

    def test_forged_seq_reads_as_tamper(self):
        # the digest covers the seq, and it is checked first
        a, b, reg = session_pair()
        env = encrypt_envelope(a, b"slot one")
        forged = Envelope(env.sender_fingerprint, 2, env.ciphertext, env.digest)
        with pytest.raises(TamperAlarm):
            decrypt_verify(b, encode_envelope(forged), reg, 2)

    def test_unknown_sender_rejected_before_decryption(self):
        a, b, reg = session_pair()
        env = encrypt_envelope(a, b"hi")
        forged = Envelope(b"\x00" * 32, env.seq, env.ciphertext, env.digest)
        with pytest.raises(UnauthorizedAgent):
            decrypt_verify(b, encode_envelope(forged), reg, 1)

    def test_envelope_relabelled_as_another_trusted_agent_rejected(self):
        # the receiver's own fingerprint is in the registry but is not the
        # sender of this session; the genuine envelope must still decrypt
        a, b, reg = session_pair()
        env = encrypt_envelope(a, b"genuine")
        relabelled = Envelope(b.local_fingerprint, env.seq, env.ciphertext, env.digest)
        with pytest.raises(UnauthorizedAgent):
            decrypt_verify(b, encode_envelope(relabelled), reg, 1)
        assert decrypt_verify(b, encode_envelope(env), reg, 1) == b"genuine"

    def test_alarmed_envelopes_never_advance_state(self):
        a, b, reg = session_pair()
        env = encrypt_envelope(a, b"first")
        forged = Envelope(env.sender_fingerprint, env.seq, env.ciphertext, b"\x00" * 32)
        with pytest.raises(TamperAlarm):
            decrypt_verify(b, encode_envelope(forged), reg, 1)
        assert decrypt_verify(b, encode_envelope(env), reg, 1) == b"first"


class TestWireFormat:
    def test_roundtrip(self):
        a, b, reg = session_pair()
        env = encrypt_envelope(a, b"payload bytes")
        wire = encode_envelope(env)
        n = int.from_bytes(wire[40:44], "big")
        fields = wire[:32], int.from_bytes(wire[32:40], "big"), wire[44:44 + n], wire[44 + n:]
        assert Envelope(*fields) == env
        assert decrypt_verify(b, wire, reg, 1) == b"payload bytes"

    def test_layout(self):
        a, _, _ = session_pair()
        env = encrypt_envelope(a, b"abc")
        wire = encode_envelope(env)
        assert wire[:32] == env.sender_fingerprint
        assert int.from_bytes(wire[32:40], "big") == env.seq
        assert int.from_bytes(wire[40:44], "big") == 3
        assert wire[44:47] == env.ciphertext
        assert wire[47:] == env.digest
        assert len(wire) == 32 + 8 + 4 + 3 + 32 == HEADER_SIZE + 3 + 32

    def test_truncated_wire_rejected(self):
        # shorter than header plus digest, behind a trusted fingerprint
        a, b, reg = session_pair()
        with pytest.raises(TamperAlarm):
            decrypt_verify(b, a.local_fingerprint + b"\x00" * 8, reg, 1)

    def test_length_mismatch_rejected(self):
        # one byte past what the length field declares
        a, b, reg = session_pair()
        wire = encode_envelope(encrypt_envelope(a, b"abc"))
        with pytest.raises(TamperAlarm):
            decrypt_verify(b, wire + b"\x00", reg, 1)
        assert decrypt_verify(b, wire, reg, 1) == b"abc"

    @given(st.binary(max_size=200), st.integers(0, 255))
    @settings(max_examples=50, deadline=None)
    def test_every_malformed_wire_alarms(self, payload, extra):
        # the digest covers every header byte, the length field included, so
        # no single-bit flip, truncation or extension reaches the plaintext:
        # an edited fingerprint is unauthorized, anything else is tamper
        a, b, reg = session_pair()
        wire = encode_envelope(encrypt_envelope(a, payload))
        flips = (
            (wire[:i] + bytes([wire[i] ^ (1 << k)]) + wire[i + 1:], i < 32)
            for i in range(len(wire)) for k in range(8)
        )
        truncations = ((wire[:n], False) for n in range(len(wire)))
        for bad, unauth in (*flips, *truncations, (wire + bytes([extra]), False)):
            with pytest.raises(UnauthorizedAgent if unauth else TamperAlarm):
                decrypt_verify(b, bad, reg, 1)
        assert decrypt_verify(b, wire, reg, 1) == payload

    @given(st.binary(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_any_bytes_raise_only_security_alarms(self, data):
        # as they arrive, and behind the peer's fingerprint, which takes them
        # on to the digest check
        a, b, reg = session_pair()
        for wire in (data, a.local_fingerprint + data):
            with pytest.raises(SecurityAlarm):
                decrypt_verify(b, wire, reg, 1)

    @pytest.mark.parametrize("field, value, message", [
        ("sender_fingerprint", bytes(31), "32 bytes"),
        ("seq", -1, "seq"),
        ("seq", 2 ** 64, "seq"),
        ("digest", bytes(33), "32 bytes"),
    ])
    def test_envelope_checks_its_fields(self, field, value, message):
        env = encrypt_envelope(session_pair()[0], b"abc")
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(env, **{field: value})


class TestAgents:
    def test_make_agent_binds_fingerprint(self):
        ident, priv = make_agent(seed=4)
        assert ident.fingerprint == fingerprint(ident.public_key)
        assert pow(DH_G, priv, DH_P) == ident.public_key
