"""Correctness checks shared by the benchmark's processes."""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

OK, DROP, ALARM, WRONG = "ok", "drop", "alarm", "wrong"
ALARM_COLUMNS = ("tamper", "replay", "unauth")
NO_VALUE = "-"  # emr's placeholder for an unset level or identity


def classify(records, composites, expected_level: str, expected_alarm: str) -> list:
    """Outcome per metrics record: ok, drop, the expected alarm, or wrong.

    ``composites`` holds the frame indices that have a written composite.  A
    frame is wrong if it was unreadable (no level), encoded at another level,
    raised an alarm other than ``expected_alarm``, missed that alarm, wrote a
    composite it should not have, or stopped on a module error (delivered, no
    alarm, but no identity or no composite).
    """
    outcomes = []
    for rec in records:
        alarms = [name for name in ALARM_COLUMNS if getattr(rec, name)]
        written = rec.frame in composites
        if rec.level != expected_level:
            outcome = WRONG
        elif rec.drop:
            outcome = DROP if not alarms and not written else WRONG
        elif expected_alarm:
            outcome = ALARM if alarms == [expected_alarm] and not written else WRONG
        elif alarms or not written or rec.identity == NO_VALUE:
            outcome = WRONG
        else:
            outcome = OK
        outcomes.append(outcome)
    return outcomes


def output_sha256(out_dir: Path, metrics_text: str) -> str:
    """SHA-256 of the composites (name and bytes) and the metrics without ms_total."""
    digest = hashlib.sha256()
    for path in sorted(Path(out_dir).glob("out_*.ppm")):
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
    lines = metrics_text.splitlines()
    drop = lines[0].split(",").index("ms_total")
    for line in lines:
        fields = line.split(",")
        digest.update((",".join(fields[:drop] + fields[drop + 1:]) + "\n").encode())
    return digest.hexdigest()


def mean_abs_error(composite: np.ndarray, reference: np.ndarray) -> float:
    """Mean absolute difference in 8-bit levels over every sample."""
    if composite.shape != reference.shape:
        raise ValueError(f"composite {composite.shape} vs reference {reference.shape}")
    return float(np.abs(composite.astype(np.int16) - reference.astype(np.int16)).mean())
