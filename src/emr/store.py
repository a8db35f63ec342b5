"""Identity table with incremental centroid learning.

User appearance is summarized as a 256-dimensional template: the gray 16x16
nearest-neighbor grid of the subject's box, grown to 16 px a side,
mean-subtracted, and scaled to unit L2 norm.  Each user's centroid is the
running mean of their enrolled templates; queries match by cosine distance
against every user and return the best one under the threshold, or nothing.

Persistence: one text file, ``identities.csv``, one record per line:
``user_id,sample_count,v0,...,v255`` with full-precision decimal reals,
in UTF-8.  ``save`` replaces it whole in one call of ``raster.write_atomic``,
so a save that fails part way leaves the previous table in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .raster import Frame, to_grayscale, write_atomic

TEMPLATE_SIDE = 16
TEMPLATE_DIM = TEMPLATE_SIDE * TEMPLATE_SIDE

_TABLE_FILE = "identities.csv"

# the metrics' identity of a frame with no template, and of one matching no
# user; no user may take either
NO_IDENTITY = "-"
UNKNOWN_IDENTITY = "UNKNOWN"


def _check_user_id(user_id: str, name: str = "user_id") -> None:
    # load() splits the table with splitlines(), which also yields no line for ""
    if "," in user_id or user_id.splitlines() != [user_id]:
        raise ValueError(f"{name} must be non-empty without commas or line breaks")
    if user_id in (NO_IDENTITY, UNKNOWN_IDENTITY):
        raise ValueError(f"{name} must not be {user_id!r}, a placeholder of the metrics")


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
    """Match threshold, persistence directory and enrolment of a run."""

    theta: float = 0.35  # cosine-distance threshold of ``identify``
    directory: Path | None = None
    enroll_user: str | None = None
    enroll_frame: int = 0

    def __post_init__(self):
        if not 0.0 < self.theta < 2.0:
            raise ValueError("theta must lie in (0, 2)")
        if self.enroll_user is not None:
            _check_user_id(self.enroll_user, "enroll_user")
        if not self.enroll_frame >= 0:
            raise ValueError("enroll_frame must be >= 0")


def extract_template(frame: Frame, box) -> np.ndarray | None:
    """Unit 256-vector of the frame's gray 16x16 grid over a (y0, y1, x0, x1) box.

    A side shorter than 16 px grows about its middle, kept inside the frame.
    None when the frame is smaller than 16x16 or the samples are all equal.
    """
    y0, y1, x0, x1 = box
    if not (0 <= y0 < y1 <= frame.height and 0 <= x0 < x1 <= frame.width):
        raise ValueError(f"box {box} is empty or not inside the {frame.width}x{frame.height} frame")
    if frame.height < TEMPLATE_SIDE or frame.width < TEMPLATE_SIDE:
        return None
    rows, cols = _grid(y0, y1, frame.height), _grid(x0, x1, frame.width)
    samples = frame.data[rows[:, None], cols[None, :]]
    if frame.channels == 3:
        samples = to_grayscale(Frame(samples)).data
    vec = samples.reshape(-1).astype(np.float64)
    vec = vec - vec.mean()
    norm = np.linalg.norm(vec)
    return vec / norm if norm else None


def _grid(lo: int, hi: int, limit: int) -> np.ndarray:
    """Nearest-neighbor sample positions of [lo, hi), grown to 16 within [0, limit)."""
    if hi - lo < TEMPLATE_SIDE:
        lo = max(0, min(lo - (TEMPLATE_SIDE - (hi - lo)) // 2, limit - TEMPLATE_SIDE))
        hi = lo + TEMPLATE_SIDE
    return lo + (np.arange(TEMPLATE_SIDE) * (hi - lo)) // TEMPLATE_SIDE


@dataclass
class IdentityTemplate:
    """A user's centroid and how many samples built it; the store keys it by user id."""

    centroid: np.ndarray
    sample_count: int

    def __post_init__(self):
        self.centroid = _template_vector(self.centroid, "centroid")
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")


class KnowledgeStore:
    """Identity templates by user id."""

    def __init__(self):
        self.templates = {}

    def enroll(self, user_id: str, template: np.ndarray) -> None:
        """Fold a template into the user's centroid."""
        _check_user_id(user_id)
        template = _template_vector(template, "template")
        entry = self.templates.get(user_id)
        if entry is None:
            self.templates[user_id] = IdentityTemplate(centroid=template.copy(), sample_count=1)
        else:
            n = entry.sample_count
            entry.centroid = (n * entry.centroid + template) / (n + 1)
            entry.sample_count = n + 1

    def identify(self, template: np.ndarray, theta: float):
        """Best cosine match over every user, or None when over the threshold.

        Ties on distance resolve to the lexicographically smallest user id.
        ``StoreParams`` holds a run's theta and owns its domain.
        """
        template = np.asarray(template, dtype=np.float64)
        qnorm = np.linalg.norm(template)
        if qnorm == 0.0:
            return None
        best = None
        for user_id, entry in self.templates.items():
            cnorm = np.linalg.norm(entry.centroid)
            if cnorm == 0.0:
                continue  # cosine undefined; a cancelled centroid never matches
            dist = 1.0 - float(template @ entry.centroid) / (qnorm * cnorm)
            if best is None or (dist, user_id) < best:
                best = (dist, user_id)
        if best is not None and best[0] <= theta:
            return best[1]
        return None

    # --- persistence -----------------------------------------------------------

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        lines = []
        for user_id in sorted(self.templates):
            entry = self.templates[user_id]
            values = ",".join(repr(float(v)) for v in entry.centroid)
            lines.append(f"{user_id},{entry.sample_count},{values}\n")
        write_atomic(directory / _TABLE_FILE, "".join(lines).encode("utf-8"))

    @classmethod
    def load(cls, directory) -> "KnowledgeStore":
        """The table saved in directory; empty when it holds none."""
        directory = Path(directory)
        legacy = sorted(directory.glob("shard_*.csv"))
        if legacy:
            raise ValueError(
                f"{directory} holds per-shard files ({legacy[0].name}, ...); their lines "
                f"have the table's format, so concatenate them into {_TABLE_FILE}"
            )
        store = cls()
        path = directory / _TABLE_FILE
        if not path.exists():
            return store
        for line in path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != 2 + TEMPLATE_DIM:
                raise ValueError(f"malformed identity record in {path}")
            user_id, count = parts[0], int(parts[1])
            _check_user_id(user_id, f"user id in {path}")
            if user_id in store.templates:
                raise ValueError(f"user {user_id!r} listed twice in {path}")
            store.templates[user_id] = IdentityTemplate(
                centroid=np.array([float(v) for v in parts[2:]]), sample_count=count
            )
        return store
