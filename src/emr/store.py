"""Sharded identity store with incremental centroid learning.

User appearance is summarized as a 256-dimensional template: the grayscale
face region resized to 16x16 (nearest neighbor), mean-subtracted, and scaled
to unit L2 norm.  Each user's centroid is the running mean of their enrolled
templates; queries match by cosine distance across every shard and return the
best user under the threshold, or nothing.

Templates are dispersed over N shard nodes by SHA-256 of the user id modulo
N, so shard layout never changes a query's answer and stores can be
rebalanced to any shard count without losing a template.

Persistence: one text file per shard, one record per line:
``user_id,sample_count,v0,...,v255`` with full-precision decimal reals.
Files are replaced whole (``write_atomic``), so a write that fails part way
leaves the previous file in place.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import DegenerateTemplate
from .raster import Frame, to_grayscale

TEMPLATE_SIDE = 16
TEMPLATE_DIM = TEMPLATE_SIDE * TEMPLATE_SIDE

_SHARD_FILE = "shard_{:03d}.csv"


def write_atomic(path, text: str) -> None:
    """Replace the file at path with text, or leave it as it was.

    The text goes to a temporary file in the same directory, which
    ``os.replace`` then renames over the target in one step.  A failure
    before the rename removes the temporary file and leaves the target
    untouched.  Nothing is fsynced: the guarantee covers a process that
    fails mid-write, not a power cut.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _check_shards(count: int) -> None:
    if not count >= 1:
        raise ValueError(f"shards must be >= 1, got {count}")


def _check_user_id(user_id: str, name: str = "user_id") -> None:
    # load() splits a shard file with splitlines(), which also yields no line for ""
    if "," in user_id or user_id.splitlines() != [user_id]:
        raise ValueError(f"{name} must be non-empty without commas or line breaks")


def _template_vector(values, name: str) -> np.ndarray:
    """values as a float64 vector of TEMPLATE_DIM finite numbers."""
    vec = np.asarray(values, dtype=np.float64)
    if vec.shape != (TEMPLATE_DIM,):
        raise ValueError(f"{name} must have dimension {TEMPLATE_DIM}")
    if not np.isfinite(vec).all():
        raise ValueError(f"{name} must be finite")
    return vec


@dataclass(frozen=True)
class StoreParams:
    """Shard count, match threshold, persistence directory and enrolment of a run."""

    shards: int = 4
    theta: float = 0.35  # cosine-distance threshold of ``identify``
    directory: Path | None = None
    enroll_user: str | None = None
    enroll_frame: int = 0

    def __post_init__(self):
        _check_shards(self.shards)
        if not 0.0 < self.theta < 2.0:
            raise ValueError("theta must lie in (0, 2)")
        if self.enroll_user is not None:
            _check_user_id(self.enroll_user, "enroll_user")
        if not self.enroll_frame >= 0:
            raise ValueError("enroll_frame must be >= 0")


def extract_template(region: Frame) -> np.ndarray:
    """Normalized 256-vector for a face region of at least 16x16 pixels."""
    if region.width < TEMPLATE_SIDE or region.height < TEMPLATE_SIDE:
        raise ValueError(
            f"region {region.width}x{region.height} smaller than "
            f"{TEMPLATE_SIDE}x{TEMPLATE_SIDE}"
        )
    gray = to_grayscale(region) if region.channels == 3 else region
    arr = gray.data[:, :, 0]
    rows = (np.arange(TEMPLATE_SIDE) * gray.height) // TEMPLATE_SIDE
    cols = (np.arange(TEMPLATE_SIDE) * gray.width) // TEMPLATE_SIDE
    small = arr[rows[:, None], cols[None, :]].astype(np.float64)
    vec = small.reshape(-1)
    vec = vec - vec.mean()
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise DegenerateTemplate("region has zero variance")
    return vec / norm


@dataclass
class IdentityTemplate:
    """A user's centroid and how many samples built it."""

    user_id: str
    centroid: np.ndarray
    sample_count: int

    def __post_init__(self):
        self.centroid = _template_vector(self.centroid, "centroid")
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")


@dataclass
class KnowledgeShard:
    node_id: int
    templates: dict = field(default_factory=dict)


def _shard_index(user_id: str, shard_count: int) -> int:
    digest = hashlib.sha256(user_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shard_count


class KnowledgeStore:
    """A dispersed set of shards holding identity templates."""

    def __init__(self, shard_count: int):
        _check_shards(shard_count)
        self.shards = [KnowledgeShard(node_id=i) for i in range(shard_count)]

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def shard_for(self, user_id: str) -> KnowledgeShard:
        return self.shards[_shard_index(user_id, self.shard_count)]

    def users(self):
        for shard in self.shards:
            yield from shard.templates.keys()

    def enroll(self, user_id: str, template: np.ndarray) -> None:
        """Fold a template into the user's centroid on their home shard."""
        _check_user_id(user_id)
        template = _template_vector(template, "template")
        shard = self.shard_for(user_id)
        entry = shard.templates.get(user_id)
        if entry is None:
            shard.templates[user_id] = IdentityTemplate(
                user_id=user_id, centroid=template.copy(), sample_count=1
            )
        else:
            n = entry.sample_count
            entry.centroid = (n * entry.centroid + template) / (n + 1)
            entry.sample_count = n + 1

    def identify(self, template: np.ndarray, theta: float = 0.35):
        """Best cosine match across all shards, or None when over the threshold.

        Ties on distance resolve to the lexicographically smallest user id.
        ``StoreParams`` holds a run's theta and owns its domain.
        """
        template = np.asarray(template, dtype=np.float64)
        qnorm = np.linalg.norm(template)
        if qnorm == 0.0:
            return None
        best = None
        for shard in self.shards:
            for user_id, entry in shard.templates.items():
                cnorm = np.linalg.norm(entry.centroid)
                if cnorm == 0.0:
                    continue  # cosine undefined; a cancelled centroid never matches
                dist = 1.0 - float(template @ entry.centroid) / (qnorm * cnorm)
                if best is None or (dist, user_id) < best:
                    best = (dist, user_id)
        if best is not None and best[0] <= theta:
            return best[1]
        return None

    def rebalance(self, new_shard_count: int) -> "KnowledgeStore":
        """Redistribute every template over a new shard count; nothing is lost."""
        out = KnowledgeStore(new_shard_count)
        for shard in self.shards:
            for user_id, entry in shard.templates.items():
                out.shard_for(user_id).templates[user_id] = replace(
                    entry, centroid=entry.centroid.copy()
                )
        return out

    # --- persistence -----------------------------------------------------------

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for shard in self.shards:
            lines = []
            for user_id in sorted(shard.templates):
                entry = shard.templates[user_id]
                values = ",".join(repr(float(v)) for v in entry.centroid)
                lines.append(f"{user_id},{entry.sample_count},{values}\n")
            write_atomic(directory / _SHARD_FILE.format(shard.node_id), "".join(lines))

    @classmethod
    def load(cls, directory, shard_count: int) -> "KnowledgeStore":
        directory = Path(directory)
        store = cls(shard_count)
        for shard in store.shards:
            path = directory / _SHARD_FILE.format(shard.node_id)
            if not path.exists():
                continue
            for line in path.read_text().splitlines():
                if not line.strip():
                    continue
                parts = line.split(",")
                if len(parts) != 2 + TEMPLATE_DIM:
                    raise ValueError(f"malformed shard record in {path}")
                user_id, count = parts[0], int(parts[1])
                _check_user_id(user_id, f"user id in {path}")
                centroid = np.array([float(v) for v in parts[2:]])
                home = store.shard_for(user_id)
                if home.node_id != shard.node_id:
                    raise ValueError(
                        f"user {user_id!r} found on shard {shard.node_id}, "
                        f"belongs on {home.node_id}"
                    )
                if user_id in shard.templates:
                    raise ValueError(f"user {user_id!r} listed twice in {path}")
                shard.templates[user_id] = IdentityTemplate(
                    user_id=user_id, centroid=centroid, sample_count=count
                )
        return store
