"""Deterministic network model: lossy delaying links and adversarial nodes.

Each ``Link(channel, seed)`` takes capacity, delay and loss from a checked
``ChannelModel`` and owns a PRNG seeded with ``seed``, so identical seeds and
call order reproduce identical delivery traces.  Adversaries exercise the tunnel's anomaly
detection: bit tampering, lag-one replay, and fingerprint impersonation.  They
edit the wire bytes between ``transmit`` and ``decrypt_verify``, header included.
"""

from __future__ import annotations

import enum
import hashlib
import random
from dataclasses import dataclass, field

from .qoeqos import ChannelModel
from .tunnel import DIGEST_SIZE, HEADER_SIZE


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
        raise ValueError(f"payload_bits must be >= 0, got {payload_bits}")
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
    last_seen: bytes | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.mode, AdversaryMode):
            raise TypeError(f"mode must be an AdversaryMode, got {self.mode!r}")
        self.rng = random.Random(self.seed)

    @property
    def fingerprint(self) -> bytes:
        # self-made identity; never present in any trusted registry
        return hashlib.sha256(b"adversary:" + self.node_id.encode("utf-8")).digest()


def interpose(adversary: Adversary, wire: bytes) -> bytes:
    """Pass an envelope's wire bytes through the adversary, applying its mode.

    Tamper flips one drawn ciphertext bit, if there is one; replay forwards
    the previous wire; impersonate overwrites the fingerprint, bytes 0-31.
    """
    if adversary.mode is AdversaryMode.TAMPER:
        n = len(wire) - HEADER_SIZE - DIGEST_SIZE
        if n <= 0:
            return wire
        bit = adversary.rng.randrange(8 * n)
        tampered = bytearray(wire)
        tampered[HEADER_SIZE + bit // 8] ^= 1 << (bit % 8)
        return bytes(tampered)
    if adversary.mode is AdversaryMode.REPLAY:
        out = adversary.last_seen if adversary.last_seen is not None else wire
        adversary.last_seen = wire
        return out
    # AdversaryMode.IMPERSONATE
    return adversary.fingerprint + wire[32:]
