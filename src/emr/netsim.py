"""Deterministic network model: lossy delaying links and adversarial nodes.

Each ``Link(channel, seed)`` takes capacity, delay and loss from a checked
``ChannelModel`` and owns a PRNG seeded with ``seed``, so identical seeds and
call order reproduce identical delivery traces.  Adversaries exercise the tunnel's anomaly
detection: bit tampering, lag-one replay, and fingerprint impersonation.
"""

from __future__ import annotations

import enum
import hashlib
import random
from dataclasses import dataclass, field

from .errors import InvalidPayload
from .qoeqos import ChannelModel
from .tunnel import Envelope


@dataclass(frozen=True)
class TransmitResult:
    delivered: bool
    arrival: float | None = None


class Link:
    """Point-to-point link: a channel's capacity, fixed delay and Bernoulli loss."""

    def __init__(self, channel: ChannelModel, seed: int = 0):
        self.channel = channel
        self.rng = random.Random(seed)


def transmit(link: Link, payload_bits: float, now: float = 0.0) -> TransmitResult:
    """Attempt a delivery; loss is drawn from the link's seeded PRNG."""
    if payload_bits < 0:
        raise InvalidPayload(f"payload_bits must be >= 0, got {payload_bits}")
    u = link.rng.random()  # always draw, keeping traces aligned across configs
    if u < link.channel.loss_prob:
        return TransmitResult(delivered=False)
    arrival = now + link.channel.base_delay + payload_bits / link.channel.capacity
    return TransmitResult(delivered=True, arrival=arrival)


class AdversaryMode(enum.Enum):
    TAMPER = "tamper"
    REPLAY = "replay"
    IMPERSONATE = "impersonate"


@dataclass
class Adversary:
    """An anomalous node interposed on a link."""

    node_id: str
    mode: AdversaryMode
    seed: int = 0
    rng: random.Random = field(init=False, repr=False)
    last_seen: Envelope | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.rng = random.Random(self.seed)

    @property
    def fingerprint(self) -> bytes:
        # self-made identity; never present in any trusted registry
        return hashlib.sha256(b"adversary:" + self.node_id.encode("utf-8")).digest()


def interpose(adversary: Adversary, envelope: Envelope) -> Envelope:
    """Pass an envelope through the adversary, applying its mode."""
    if adversary.mode is AdversaryMode.TAMPER:
        ct = envelope.ciphertext
        if not ct:
            return envelope
        bit = adversary.rng.randrange(len(ct) * 8)
        tampered = bytearray(ct)
        tampered[bit // 8] ^= 1 << (bit % 8)
        return Envelope(
            sender_fingerprint=envelope.sender_fingerprint,
            seq=envelope.seq,
            ciphertext=bytes(tampered),
            digest=envelope.digest,
        )
    if adversary.mode is AdversaryMode.REPLAY:
        out = adversary.last_seen if adversary.last_seen is not None else envelope
        adversary.last_seen = envelope
        return out
    if adversary.mode is AdversaryMode.IMPERSONATE:
        return Envelope(
            sender_fingerprint=adversary.fingerprint,
            seq=envelope.seq,
            ciphertext=envelope.ciphertext,
            digest=envelope.digest,
        )
    raise ValueError(f"unknown adversary mode {adversary.mode!r}")

