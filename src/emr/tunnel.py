"""Confidential session tunnel: key agreement, fingerprints, chaotic keystream.

Sessions are established with finite-field Diffie-Hellman over a configurable
group; agents are identified by the SHA-256 fingerprint of their public key,
checked against a registry of trusted fingerprints.  Payloads are XORed with
a keystream drawn from the logistic map ``x <- r*x*(1-x)`` (r = 3.99) and
authenticated by HMAC-SHA256 (RFC 2104), keyed with the shared secret, over
(sender fingerprint, sequence number, ciphertext length, ciphertext).
Tamper, replay, and unknown-agent conditions each raise their own alarm.

Keystream scheduling: the handshake derives a base chaos state from the
shared secret and warms it up for ``burn_in`` steps; each envelope then
derives its own stream from (base state, sender fingerprint, sequence
number).  Envelopes therefore decrypt independently of delivery gaps, and the
two directions of a session never share keystream.  An n-byte stream runs on
L = ceil(sqrt(n)) lanes, like the independent counter blocks of CTR mode:
lane i starts from the SHA-256 seed of the envelope material followed by i
(no warm-up; the hash already separates the lanes), all lanes advance
together for ceil(n / L) steps, and byte i is taken from lane i mod L at
step i div L + 1.  Identical seeds produce identical byte streams within this
implementation; bit-exactness across implementations is not promised.

This is a protocol model for anomaly-detection experiments, NOT production
cryptography: no forward secrecy, no padding, no side-channel hardening, and
the logistic-map cipher has no security proof.  Its keystream bytes follow
the map's arcsine-shaped invariant density (mass piles up near 0 and 255),
and successive states of one lane, L bytes apart in the stream, have a
lag-1 autocorrelation of about -0.14; :func:`keystream_chi2` and
:func:`keystream_lag1_autocorr` exist precisely to measure that structure.
Do not protect real data with it.

Envelope wire layout, bit-exact:

    32-byte sender fingerprint
     8-byte big-endian sequence number
     4-byte big-endian ciphertext length
            ciphertext
    32-byte digest
"""

from __future__ import annotations

import enum
import hashlib
import hmac
import math
import random
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ReplayAlarm, ReseedRequired, TamperAlarm, UnauthorizedAgent

LOGISTIC_R = 3.99
BURN_IN = 1000
DIGEST_SIZE = 32

# chaos seeds are rejected outside this open interval
_SEED_LOW = 0.01
_SEED_HIGH = 0.99
_DEGENERATE_TOL = 1e-12
_TWO64 = 2 ** 64


@dataclass(frozen=True)
class DhGroup:
    """Multiplicative group modulo a prime, with a fixed generator."""

    p: int
    g: int

    def __post_init__(self):
        if not self.p >= 5:
            raise ValueError(f"modulus p = {self.p} leaves no usable exponent range")
        if not 1 < self.g < self.p:
            raise ValueError("generator must satisfy 1 < g < p")

    @property
    def key_width(self) -> int:
        return (self.p.bit_length() + 7) // 8


# 61-bit safe prime (p = 2q + 1, q prime); 3 generates the order-q subgroup.
DEFAULT_GROUP = DhGroup(p=1152921504606849707, g=3)


class AgentRole(enum.Enum):
    HUMAN = "human"
    DEVICE = "device"
    COMBINED = "combined"


@dataclass(frozen=True)
class AgentIdentity:
    id: str
    role: AgentRole
    public_key: int
    fingerprint: bytes


def _encode_int(value: int, group: DhGroup) -> bytes:
    return value.to_bytes(group.key_width, "big")


def _hash(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def keypair_gen(seed: int, group: DhGroup = DEFAULT_GROUP):
    """Deterministic keypair from a seed: x in [2, p-2], y = g^x mod p."""
    rng = random.Random(seed)
    private = rng.randrange(2, group.p - 1)
    public = pow(group.g, private, group.p)
    return private, public


def fingerprint(public_key: int, group: DhGroup = DEFAULT_GROUP) -> bytes:
    """SHA-256 digest of the fixed-width big-endian key encoding."""
    if not 1 <= public_key <= group.p - 1:
        raise ValueError(f"public key {public_key} outside [1, p-1]")
    return _hash(_encode_int(public_key, group))


def make_agent(agent_id: str, role: AgentRole, seed: int, group: DhGroup = DEFAULT_GROUP):
    """Convenience: generate a keypair and identity; returns (identity, private)."""
    private, public = keypair_gen(seed, group)
    ident = AgentIdentity(
        id=agent_id, role=role, public_key=public, fingerprint=fingerprint(public, group)
    )
    return ident, private


@dataclass
class SessionTunnel:
    """Established session state; owned by exactly one worker at a time."""

    local_fingerprint: bytes
    peer_fingerprint: bytes
    shared_secret: int
    group: DhGroup
    chaos_x: float
    chaos_r: float = LOGISTIC_R
    send_seq: int = 0
    recv_seq: int = 0


@dataclass(frozen=True)
class Envelope:
    """One authenticated ciphertext message."""

    sender_fingerprint: bytes
    seq: int
    ciphertext: bytes
    digest: bytes


def _seed_from_material(material: bytes) -> float:
    """Map hash material to a chaos seed in (0.01, 0.99), re-hashing as needed."""
    h = _hash(material)
    x = int.from_bytes(h[:8], "big") / _TWO64
    counter = 1
    while not _SEED_LOW < x < _SEED_HIGH:
        h = _hash(material + counter.to_bytes(8, "big"))
        x = int.from_bytes(h[:8], "big") / _TWO64
        counter += 1
    return x


def _lane_seeds(material: bytes, lanes: int) -> np.ndarray:
    """``_seed_from_material(material + i.to_bytes(4, "big"))`` for lanes i = 0 .. lanes-1.

    The material is hashed once and the hash state copied for each lane.
    All first digests are divided by 2**64 in one array operation, which
    rounds as the scalar division does (the 64-bit integer is rounded to a
    double, then scaled by a power of two); only the lanes that fall
    outside (0.01, 0.99) go through ``_seed_from_material``.
    """
    base = hashlib.sha256(material)
    digests = []
    for i in range(lanes):
        h = base.copy()
        h.update(i.to_bytes(4, "big"))
        digests.append(h.digest())
    seeds = np.frombuffer(b"".join(digests), ">u8")[::4] / float(_TWO64)
    for i in np.flatnonzero(~((seeds > _SEED_LOW) & (seeds < _SEED_HIGH))):
        seeds[i] = _seed_from_material(material + int(i).to_bytes(4, "big"))
    return seeds


def _logistic_orbit(x: float, r: float, steps: int) -> np.ndarray:
    """The states x, f(x), ..., f^steps(x) of the logistic map f(x) = r*x*(1-x).

    Any new state within 1e-12 of 0 or 1 raises ReseedRequired, naming the
    first such state.

    The loop runs eight steps per pass and holds no test; the collapse check
    is one vectorised comparison over the finished orbit.  That is exact:
    every state is the same double expression ``r * x * (1.0 - x)`` on the
    previous state, evaluated in the same order as a one-step loop, so the
    orbit up to the first collapsed state is bit for bit the orbit a per-step
    test would have seen, and the first failing element is the state it would
    have raised on.  The states after a collapse are computed and discarded;
    for 0 < r <= 4 (which the config enforces) the map sends [0, 1] into
    [0, 1], so they hold no inf or NaN, and Python float arithmetic never
    raises on overflow in any case.
    """
    states = [x]
    extend = states.extend
    for _ in range(steps >> 3):
        x1 = r * x * (1.0 - x)
        x2 = r * x1 * (1.0 - x1)
        x3 = r * x2 * (1.0 - x2)
        x4 = r * x3 * (1.0 - x3)
        x5 = r * x4 * (1.0 - x4)
        x6 = r * x5 * (1.0 - x5)
        x7 = r * x6 * (1.0 - x6)
        x = r * x7 * (1.0 - x7)
        extend((x1, x2, x3, x4, x5, x6, x7, x))
    append = states.append
    for _ in range(steps & 7):
        x = r * x * (1.0 - x)
        append(x)
    orbit = np.fromiter(states, np.float64, count=steps + 1)
    _check_collapse(orbit[1:])
    return orbit


def _lane_orbit(seeds: np.ndarray, r: float, steps: int) -> np.ndarray:
    """The (steps + 1, L) states of L logistic orbits advanced side by side.

    Row t holds f^t of every seed; each step is the scalar expression
    ``(r * x) * (1.0 - x)`` applied to a whole row, so column i is bit for bit
    ``_logistic_orbit(seeds[i], r, steps)``.  One collapse check covers every
    new state and names the first in row-major order, which is byte order.
    """
    orbit = np.empty((steps + 1, len(seeds)))
    orbit[0] = seeds
    x = orbit[0]
    for row in orbit[1:]:
        np.multiply(r * x, 1.0 - x, out=row)
        x = row
    _check_collapse(orbit[1:].ravel())
    return orbit


def _check_collapse(states: np.ndarray) -> None:
    """Raise ReseedRequired naming the first state within 1e-12 of 0 or 1."""
    collapsed = (states <= _DEGENERATE_TOL) | (states >= 1.0 - _DEGENERATE_TOL)
    if collapsed.any():
        first = float(states[collapsed.argmax()])
        raise ReseedRequired(f"chaos state collapsed to {first!r}")


def handshake(
    local_private: int,
    local_public: int,
    peer_public: int,
    registry,
    group: DhGroup = DEFAULT_GROUP,
    chaos_r: float = LOGISTIC_R,
    burn_in: int = BURN_IN,
) -> SessionTunnel:
    """Authenticate the peer against the registry and derive session state.

    Both directions of a session derive the same shared secret and the same
    base chaos state: the secret's seed after ``burn_in`` logistic steps.  A
    peer key outside [1, p-1] raises ValueError (from :func:`fingerprint`).
    An unknown peer fingerprint raises UnauthorizedAgent; that alarm is the
    anomalous-node signal.
    """
    peer_fp = fingerprint(peer_public, group)
    if peer_fp not in registry:
        raise UnauthorizedAgent(f"peer fingerprint {peer_fp.hex()[:16]}... not trusted")
    shared = pow(peer_public, local_private, group.p)
    seed = _seed_from_material(_encode_int(shared, group))
    x = float(_logistic_orbit(seed, chaos_r, burn_in)[-1])
    return SessionTunnel(
        local_fingerprint=fingerprint(local_public, group),
        peer_fingerprint=peer_fp,
        shared_secret=shared,
        group=group,
        chaos_x=x,
        chaos_r=chaos_r,
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
    states = _lane_orbit(_lane_seeds(material, lanes), tunnel.chaos_r, -(-n // lanes))[1:]
    # scaling by a power of two is exact, so this is floor(256 * x) per state
    return (states.ravel()[:n] * 256.0).astype(np.uint8).tobytes()


def _envelope_digest(tunnel: SessionTunnel, sender_fp: bytes, seq: int, ciphertext: bytes) -> bytes:
    """HMAC-SHA256 keyed with the shared secret over the wire header and ciphertext."""
    key = _encode_int(tunnel.shared_secret, tunnel.group)
    header = sender_fp + seq.to_bytes(8, "big") + len(ciphertext).to_bytes(4, "big")
    return hmac.digest(key, header + ciphertext, "sha256")


def _xor(data: bytes, keystream: bytes) -> bytes:
    return np.bitwise_xor(
        np.frombuffer(data, dtype=np.uint8), np.frombuffer(keystream, dtype=np.uint8)
    ).tobytes()


def encrypt_envelope(tunnel: SessionTunnel, payload: bytes) -> Envelope:
    """Cipher a payload and advance the send counter."""
    seq = tunnel.send_seq + 1
    keystream = _envelope_keystream(tunnel, tunnel.local_fingerprint, seq, len(payload))
    ciphertext = _xor(payload, keystream)
    digest = _envelope_digest(tunnel, tunnel.local_fingerprint, seq, ciphertext)
    tunnel.send_seq = seq
    return Envelope(
        sender_fingerprint=tunnel.local_fingerprint,
        seq=seq,
        ciphertext=ciphertext,
        digest=digest,
    )


def decrypt_verify(tunnel: SessionTunnel, envelope: Envelope, registry) -> bytes:
    """Authenticate and decipher an envelope; raises the matching alarm.

    Check order: registry membership, the session peer, digest, then
    sequence freshness.  A trusted sender other than the tunnel's peer (such
    as the receiver's own fingerprint on a relabelled envelope) is
    unauthorized on this tunnel.  No plaintext is ever produced and no state
    changes on an alarmed envelope.
    """
    if envelope.sender_fingerprint not in registry:
        raise UnauthorizedAgent(
            f"sender fingerprint {envelope.sender_fingerprint.hex()[:16]}... not trusted"
        )
    if envelope.sender_fingerprint != tunnel.peer_fingerprint:
        raise UnauthorizedAgent(
            f"sender fingerprint {envelope.sender_fingerprint.hex()[:16]}... "
            "is not this session's peer"
        )
    expected = _envelope_digest(
        tunnel, envelope.sender_fingerprint, envelope.seq, envelope.ciphertext
    )
    if not hmac.compare_digest(expected, envelope.digest):
        raise TamperAlarm(f"digest mismatch on seq {envelope.seq}")
    if envelope.seq <= tunnel.recv_seq:
        raise ReplayAlarm(f"seq {envelope.seq} not beyond {tunnel.recv_seq}")
    keystream = _envelope_keystream(
        tunnel, envelope.sender_fingerprint, envelope.seq, len(envelope.ciphertext)
    )
    tunnel.recv_seq = envelope.seq
    return _xor(envelope.ciphertext, keystream)


# --- wire format ---------------------------------------------------------------

def encode_envelope(envelope: Envelope) -> bytes:
    if len(envelope.sender_fingerprint) != DIGEST_SIZE or len(envelope.digest) != DIGEST_SIZE:
        raise ValueError("fingerprint and digest must be 32 bytes")
    return (
        envelope.sender_fingerprint
        + envelope.seq.to_bytes(8, "big")
        + len(envelope.ciphertext).to_bytes(4, "big")
        + envelope.ciphertext
        + envelope.digest
    )


def decode_envelope(data: bytes) -> Envelope:
    if len(data) < DIGEST_SIZE + 8 + 4 + DIGEST_SIZE:
        raise ValueError("envelope too short")
    fp = data[:32]
    seq = int.from_bytes(data[32:40], "big")
    ct_len = int.from_bytes(data[40:44], "big")
    if len(data) != 44 + ct_len + DIGEST_SIZE:
        raise ValueError("envelope length does not match its header")
    ciphertext = data[44:44 + ct_len]
    digest = data[44 + ct_len:]
    return Envelope(sender_fingerprint=fp, seq=seq, ciphertext=ciphertext, digest=digest)


# --- keystream statistics --------------------------------------------------------
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
