"""Confidential session tunnel: key agreement, fingerprints, chaotic keystream.

Sessions are established with finite-field Diffie-Hellman over a fixed
group; agents are identified by the SHA-256 fingerprint of their public key,
checked against a registry of trusted fingerprints.  Payloads are XORed with
a keystream drawn from the logistic map ``x <- r*x*(1-x)`` (r = 3.99) and
authenticated by HMAC-SHA256 (RFC 2104), keyed with the shared secret, over
every wire byte before the digest.  Tamper, replay, and unknown-agent
conditions each raise their own alarm.

Keystream scheduling: seeds come from one SHAKE-256 read (FIPS 202) of
some material, 8 bytes per seed, each big-endian 64-bit word w mapped to
0.01 + 0.98 * (w >> 11) / 2**53 in [0.01, 0.99].  The handshake derives a
base chaos state, the first seed of the shared secret; each envelope then
derives its own stream from (base state, sender fingerprint, sequence
number).  Envelopes therefore decrypt independently of delivery gaps, and
the two directions of a session never share keystream.  An n-byte stream
runs on L = ceil(sqrt(n)) lanes, like the independent counter blocks of CTR
mode: lane i starts from seed i of the envelope material, all lanes advance
together for ceil(n / L) steps, and byte i is taken from lane i mod L at
step i div L + 1.  Identical seeds produce identical byte streams within this
implementation; bit-exactness across implementations is not promised.

The rate r = 3.99 and the group (``DH_P``, ``DH_G``) are constants.  At
this r no orbit can collapse to the fixed points 0 or 1: the map sends
[f(r/4), r/4] into itself (May, 1976), and every seed in [0.01, 0.99] lands
in it after one step, since f(0.01) = f(0.99) = 0.0395...  In double
precision one rounding can reach T = 0.9975000000000002, one ulp above r/4,
so computed states lie in [f(T), T] = [0.009950062499999348,
0.9975000000000002]; no state is checked.

This is a protocol model for anomaly-detection experiments, NOT production
cryptography: no forward secrecy, no padding, no side-channel hardening, and
the logistic-map cipher has no security proof.  Its keystream bytes follow
the map's arcsine-shaped invariant density (mass piles up near 0 and 255),
and successive states of one lane, L bytes apart in the stream, have a
lag-1 autocorrelation of about -0.14; ``keystream_chi2`` and
``keystream_lag1_autocorr`` in ``tests/test_tunnel.py`` measure that
structure.  Do not protect real data with it.

Replay: sender and receiver run in lockstep, so the receiver passes the
sequence number its slot expects and any other raises ReplayAlarm (the
anti-replay window of IPsec ESP, RFC 4303 section 3.4.3, with a window of
one); the receiver keeps no sequence state.

Envelope wire layout, bit-exact:

    32-byte sender fingerprint
     8-byte big-endian sequence number
     4-byte big-endian ciphertext length
            ciphertext
    32-byte digest

The receiver authenticates before it parses: ``decrypt_verify`` reads only
the sender fingerprint before the digest over ``wire[:-32]`` verifies.  The
digest covers the length field, so a truncated, extended or length-altered
wire fails it like any other edit.
"""

from __future__ import annotations

import hashlib
import hmac
import math
import random
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ReplayAlarm, TamperAlarm, UnauthorizedAgent

LOGISTIC_R = 3.99
HEADER_SIZE = 44   # sender fingerprint, sequence number, ciphertext length
DIGEST_SIZE = 32

# 61-bit safe prime (p = 2q + 1, q prime); 3 generates the order-q subgroup.
DH_P = 1152921504606849707
DH_G = 3
KEY_WIDTH = (DH_P.bit_length() + 7) // 8  # bytes of a key or secret on the wire


@dataclass(frozen=True)
class AgentIdentity:
    public_key: int
    fingerprint: bytes


def _encode_int(value: int) -> bytes:
    return value.to_bytes(KEY_WIDTH, "big")


def _hash(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def keypair_gen(seed: int):
    """Deterministic keypair from a seed: x in [2, p-2], y = g^x mod p."""
    private = random.Random(seed).randrange(2, DH_P - 1)
    return private, pow(DH_G, private, DH_P)


def fingerprint(public_key: int) -> bytes:
    """SHA-256 digest of the fixed-width big-endian key encoding."""
    if not 1 <= public_key <= DH_P - 1:
        raise ValueError(f"public key {public_key} outside [1, p-1]")
    return _hash(_encode_int(public_key))


def make_agent(seed: int):
    """Convenience: generate a keypair and identity; returns (identity, private)."""
    private, public = keypair_gen(seed)
    return AgentIdentity(public_key=public, fingerprint=fingerprint(public)), private


@dataclass
class SessionTunnel:
    """Established session state; owned by exactly one worker at a time."""

    local_fingerprint: bytes
    peer_fingerprint: bytes
    shared_secret: int
    chaos_x: float
    send_seq: int = 0


@dataclass(frozen=True)
class Envelope:
    """One authenticated ciphertext message."""

    sender_fingerprint: bytes
    seq: int
    ciphertext: bytes
    digest: bytes

    def __post_init__(self):
        if len(self.sender_fingerprint) != DIGEST_SIZE or len(self.digest) != DIGEST_SIZE:
            raise ValueError("fingerprint and digest must be 32 bytes")
        if not 0 <= self.seq < 2 ** 64:
            raise ValueError(f"seq {self.seq} outside [0, 2**64)")


def _lane_seeds(material: bytes, lanes: int) -> np.ndarray:
    """Chaos seeds in [0.01, 0.99] for lanes 0 .. lanes-1 from one SHAKE-256 read.

    Seed i comes from bytes 8i .. 8i+7 read as a big-endian word: its top
    53 bits over 2**53 are an exact double in [0, 1), scaled onto
    [0.01, 0.99], so no seed needs a check.
    """
    words = np.frombuffer(hashlib.shake_256(material).digest(8 * lanes), ">u8")
    return 0.01 + 0.98 * ((words >> np.uint64(11)) * 2.0 ** -53)


def _lane_orbit(seeds: np.ndarray, steps: int) -> np.ndarray:
    """The (steps + 1, L) states of L logistic orbits advanced side by side.

    Row t holds f^t of every seed; each step is the scalar expression
    ``(LOGISTIC_R * x) * (1.0 - x)`` applied to a whole row, so column i is
    bit for bit the one-step scalar loop from seeds[i].  Every state after
    row 0 lies in [f(T), T] (module doc), so none is checked.
    """
    orbit = np.empty((steps + 1, len(seeds)))
    orbit[0] = seeds
    x = orbit[0]
    for row in orbit[1:]:
        np.multiply(LOGISTIC_R * x, 1.0 - x, out=row)
        x = row
    return orbit


def handshake(local_private: int, peer_public: int, registry) -> SessionTunnel:
    """Authenticate the peer against the registry and derive session state.

    The local public key is derived from ``local_private``, so the local
    fingerprint always belongs to the key that computes the secret.  Both
    directions of a session derive the same shared secret and the same base
    chaos state: the first SHAKE-256 seed of the secret.  A peer key outside
    [1, p-1] raises ValueError (from :func:`fingerprint`).  An unknown peer
    fingerprint raises UnauthorizedAgent; that alarm is the anomalous-node
    signal.
    """
    peer_fp = fingerprint(peer_public)
    if peer_fp not in registry:
        raise UnauthorizedAgent(f"peer fingerprint {peer_fp.hex()[:16]}... not trusted")
    shared = pow(peer_public, local_private, DH_P)
    return SessionTunnel(
        local_fingerprint=fingerprint(pow(DH_G, local_private, DH_P)),
        peer_fingerprint=peer_fp,
        shared_secret=shared,
        chaos_x=float(_lane_seeds(_encode_int(shared), 1)[0]),
    )


def _envelope_keystream(tunnel: SessionTunnel, sender_fp: bytes, seq: int, n: int) -> bytes:
    """n bytes from ceil(sqrt(n)) lanes, interleaved lane by lane (see module doc)."""
    if n == 0:
        return b""
    material = (
        struct.pack(">d", tunnel.chaos_x)
        + sender_fp
        + seq.to_bytes(8, "big")
    )
    lanes = math.isqrt(n - 1) + 1
    orbit = _lane_orbit(_lane_seeds(material, lanes), -(-n // lanes))
    states = orbit[1:].reshape(-1)[:n]  # a view: the orbit is C-contiguous
    states *= 256.0  # exact for a power of two, so the cast gives floor(256 * x)
    return states.astype(np.uint8).tobytes()


def _header(fp: bytes, seq: int, n: int) -> bytes:
    return fp + seq.to_bytes(8, "big") + n.to_bytes(4, "big")


def _envelope_digest(tunnel: SessionTunnel, signed: bytes) -> bytes:
    """HMAC-SHA256 keyed with the shared secret over the wire's header and ciphertext."""
    return hmac.digest(_encode_int(tunnel.shared_secret), signed, "sha256")


def _xor(data: bytes, keystream: bytes) -> bytes:
    return np.bitwise_xor(
        np.frombuffer(data, dtype=np.uint8), np.frombuffer(keystream, dtype=np.uint8)
    ).tobytes()


def encrypt_envelope(tunnel: SessionTunnel, payload: bytes) -> Envelope:
    """Cipher a payload and advance the send counter."""
    seq = tunnel.send_seq + 1
    keystream = _envelope_keystream(tunnel, tunnel.local_fingerprint, seq, len(payload))
    ciphertext = _xor(payload, keystream)
    header = _header(tunnel.local_fingerprint, seq, len(ciphertext))
    digest = _envelope_digest(tunnel, header + ciphertext)
    tunnel.send_seq = seq
    return Envelope(
        sender_fingerprint=tunnel.local_fingerprint,
        seq=seq,
        ciphertext=ciphertext,
        digest=digest,
    )


def decrypt_verify(tunnel: SessionTunnel, wire: bytes, registry, seq: int) -> bytes:
    """Authenticate and decipher the wire bytes of the slot that expects ``seq``.

    Check order: the wire's length, its fingerprint's registry membership and
    session peer, the digest, and only then the sequence number, which must
    equal ``seq`` (a forged one fails the digest and reads as tamper).  A
    trusted sender other than the peer (such as the receiver's own
    fingerprint on a relabelled wire) is unauthorized on this tunnel.
    """
    if len(wire) < HEADER_SIZE + DIGEST_SIZE:
        raise TamperAlarm(f"wire of {len(wire)} bytes is shorter than an envelope")
    sender = wire[:32]
    if sender not in registry:
        raise UnauthorizedAgent(f"sender fingerprint {sender.hex()[:16]}... not trusted")
    if sender != tunnel.peer_fingerprint:
        raise UnauthorizedAgent(
            f"sender fingerprint {sender.hex()[:16]}... is not this session's peer"
        )
    signed = wire[:-DIGEST_SIZE]
    if not hmac.compare_digest(_envelope_digest(tunnel, signed), wire[-DIGEST_SIZE:]):
        raise TamperAlarm(f"digest mismatch on a {len(wire)}-byte wire")
    wire_seq = int.from_bytes(wire[32:40], "big")
    if wire_seq != seq:
        raise ReplayAlarm(f"seq {wire_seq} where {seq} is expected")
    ciphertext = signed[HEADER_SIZE:]
    return _xor(ciphertext, _envelope_keystream(tunnel, sender, seq, len(ciphertext)))


def encode_envelope(envelope: Envelope) -> bytes:
    """The envelope's wire bytes (layout in the module doc)."""
    return (
        _header(envelope.sender_fingerprint, envelope.seq, len(envelope.ciphertext))
        + envelope.ciphertext
        + envelope.digest
    )
