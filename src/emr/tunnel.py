"""Confidential session tunnel: key agreement, fingerprints, chaotic keystream.

Sessions are established with finite-field Diffie-Hellman over a configurable
group; agents are identified by the SHA-256 fingerprint of their public key,
checked against a registry of trusted fingerprints.  Payloads are XORed with
a keystream drawn from the logistic map ``x <- r*x*(1-x)`` (r = 3.99) and
authenticated by a digest over (sequence number, ciphertext, shared secret).
Tamper, replay, and unknown-agent conditions each raise their own alarm.

Keystream scheduling: the handshake derives a burned-in base chaos state from
the shared secret; each envelope then derives its own stream from (base
state, sender fingerprint, sequence number).  Envelopes therefore decrypt
independently of delivery gaps, and the two directions of a session never
share keystream.  Identical seeds produce identical byte streams within this
implementation; bit-exactness across implementations is not promised.

This is a protocol model for anomaly-detection experiments, NOT production
cryptography: no forward secrecy, no padding, no side-channel hardening, and
the logistic-map cipher has no security proof.  Its keystream bytes follow
the map's arcsine-shaped invariant density (mass piles up near 0 and 255,
lag-1 autocorrelation is about -0.14); :func:`keystream_chi2` and
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
import random
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    GroupTooSmall,
    InvalidKey,
    ReplayAlarm,
    ReseedRequired,
    TamperAlarm,
    UnauthorizedAgent,
)

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
            raise GroupTooSmall(f"modulus p = {self.p} leaves no usable exponent range")
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
        raise InvalidKey(f"public key {public_key} outside [1, p-1]")
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
    burn_in: int = BURN_IN
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
    new_states = orbit[1:]
    collapsed = (new_states <= _DEGENERATE_TOL) | (new_states >= 1.0 - _DEGENERATE_TOL)
    if collapsed.any():
        first = float(new_states[collapsed.argmax()])
        raise ReseedRequired(f"chaos state collapsed to {first!r}")
    return orbit


def logistic_keystream(x0: float, r: float, n: int, burn_in: int = 0) -> bytes:
    """n keystream bytes from the logistic map after burn_in warm-up steps.

    Byte i is floor(256 * x) of state burn_in + 1 + i; scaling by a power of
    two is exact, so the array conversion matches per-state ``int(x * 256.0)``.
    """
    states = _logistic_orbit(x0, r, burn_in + n)[burn_in + 1:]
    return (states * 256.0).astype(np.uint8).tobytes()


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
    base chaos state.  A peer key outside [1, p-1] raises InvalidKey (from
    :func:`fingerprint`).  An unknown peer fingerprint raises
    UnauthorizedAgent; that alarm is the anomalous-node signal.
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
        burn_in=burn_in,
    )


def _envelope_keystream(tunnel: SessionTunnel, sender_fp: bytes, seq: int, n: int) -> bytes:
    material = (
        struct.pack(">d", tunnel.chaos_x)
        + sender_fp
        + seq.to_bytes(8, "big")
    )
    x0 = _seed_from_material(material)
    return logistic_keystream(x0, tunnel.chaos_r, n, burn_in=tunnel.burn_in)


def _envelope_digest(tunnel: SessionTunnel, seq: int, ciphertext: bytes) -> bytes:
    return _hash(
        seq.to_bytes(8, "big") + ciphertext + _encode_int(tunnel.shared_secret, tunnel.group)
    )


def _xor(data: bytes, keystream: bytes) -> bytes:
    return np.bitwise_xor(
        np.frombuffer(data, dtype=np.uint8), np.frombuffer(keystream, dtype=np.uint8)
    ).tobytes()


def encrypt_envelope(tunnel: SessionTunnel, payload: bytes) -> Envelope:
    """Cipher a payload and advance the send counter."""
    seq = tunnel.send_seq + 1
    keystream = _envelope_keystream(tunnel, tunnel.local_fingerprint, seq, len(payload))
    ciphertext = _xor(payload, keystream)
    digest = _envelope_digest(tunnel, seq, ciphertext)
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
    expected = _envelope_digest(tunnel, envelope.seq, envelope.ciphertext)
    if expected != envelope.digest:
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
