"""Pipeline configuration: a small key=value format with [section] headers.

Grammar: blank lines and ``#`` comments are ignored (a ``#`` also starts an
inline comment), section names sit in square brackets, and entries are
``key = value``.  A duplicated key keeps its last occurrence and records a
warning.  Unknown sections or keys are errors, as are non-finite numbers
and values violating any module precondition; every check runs up front so
a run never aborts mid-stream over a bad parameter.  Each precondition lives
in one place: ``_build`` makes each typed section from its ``_SCHEMA`` rows,
the type checks its own fields, and its error becomes ``InvalidValue`` naming
the config key.  ``_check`` covers the six keys no type carries: encoding.fps,
encoding.w, tunnel.r, tunnel.burn_in, io.frames_dir and io.background.

Sections and keys (defaults in parentheses):

    [io]       frames_dir (required), background (required),
               out_dir (out), metrics (metrics.csv)
    [encoding] levels (high:1:1,med:2:8,low:4:32)  -- comma list of
               id:scale:quant[:bits] entries -- fps (30), b0 (1e6),
               bmax (8e6), policy (balance|qoe|qos), w (0.5),
               mos_min (2.0), l_max (0.5), l_min (0.0)
    [channel]  capacity (1e7), base_delay (0.01), loss_prob (0.0)
    [tunnel]   p (61-bit safe prime), g (3), r (3.99), burn_in (1000)
    [gmm]      k (3), lambda (2.5), alpha_lr (0.02), t (0.7),
               var_init (225), var_min (4)
    [matting]  r_fg (2), r_bg (4), window (3), max_iters (20),
               eps (1/255), lambda_t (0.1)
    [store]    shards (4), theta (0.35), dir (unset), enroll_user (unset),
               enroll_frame (0)
    [fusion]   scale (1.0), tx (0), ty (0), depth (0.0), view_angle (0.0),
               views (front:0,profile:90)
    [run]      seed (0)
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import EmrError, InvalidValue, MissingKey, UnknownKey
from .fusion import FusionParams, ViewSource
from .layering import GmmParams
from .matting import DEFAULT_EPS, MattingParams
from .qoeqos import ChannelModel, Constraints, EncodingLevel, MosModel, Policy
from .store import StoreParams
from .tunnel import BURN_IN, DEFAULT_GROUP, LOGISTIC_R, DhGroup


@dataclass
class PipelineConfig:
    frames_dir: Path
    background: Path
    out_dir: Path
    metrics_path: Path
    levels: tuple
    fps: float
    mos_model: MosModel
    policy: Policy
    w: float
    constraints: Constraints
    channel: ChannelModel
    group: DhGroup
    chaos_r: float
    burn_in: int
    gmm: GmmParams
    matting: MattingParams
    store: StoreParams
    fusion: FusionParams
    seed: int
    warnings: list = field(default_factory=list)


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{text!r} is not an integer")


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a number")
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _parse_levels(text: str):
    levels = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(f"{chunk!r} is not id:scale:quant[:bits]")
        bits = _parse_int(parts[3]) if len(parts) == 4 else None
        try:
            levels.append(
                EncodingLevel(
                    id=parts[0],
                    scale_factor=_parse_int(parts[1]),
                    quant_step=_parse_int(parts[2]),
                    bits_per_frame=bits,
                )
            )
        except ValueError as exc:
            raise ValueError(f"level {parts[0]!r}: {exc}")
    if not levels:
        raise ValueError("at least one level is required")
    ids = [l.id for l in levels]
    if len(set(ids)) != len(ids):
        raise ValueError("level ids must be distinct")
    return tuple(levels)


def _parse_views(text: str):
    views = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ValueError(f"{chunk!r} is not id:angle")
        views.append(ViewSource(id=parts[0], angle_deg=_parse_float(parts[1])))
    if not views:
        raise ValueError("at least one view is required")
    return tuple(views)


def _parse_optional(text: str):
    return text or None


# (section, key) -> (default text or None=required, parser[, field]); a row
# names the field of its typed section when that differs from the key
_SCHEMA = {
    ("io", "frames_dir"): (None, str),
    ("io", "background"): (None, str),
    ("io", "out_dir"): ("out", str),
    ("io", "metrics"): ("metrics.csv", str),
    ("encoding", "levels"): ("high:1:1,med:2:8,low:4:32", _parse_levels),
    ("encoding", "fps"): ("30", _parse_float),
    ("encoding", "b0"): ("1e6", _parse_float),
    ("encoding", "bmax"): ("8e6", _parse_float),
    ("encoding", "policy"): ("balance", Policy),
    ("encoding", "w"): ("0.5", _parse_float),
    ("encoding", "mos_min"): ("2.0", _parse_float),
    ("encoding", "l_max"): ("0.5", _parse_float),
    ("encoding", "l_min"): ("0.0", _parse_float),
    ("channel", "capacity"): ("1e7", _parse_float),
    ("channel", "base_delay"): ("0.01", _parse_float),
    ("channel", "loss_prob"): ("0.0", _parse_float),
    ("tunnel", "p"): (str(DEFAULT_GROUP.p), _parse_int),
    ("tunnel", "g"): (str(DEFAULT_GROUP.g), _parse_int),
    ("tunnel", "r"): (str(LOGISTIC_R), _parse_float),
    ("tunnel", "burn_in"): (str(BURN_IN), _parse_int),
    ("gmm", "k"): ("3", _parse_int),
    ("gmm", "lambda"): ("2.5", _parse_float, "lam"),
    ("gmm", "alpha_lr"): ("0.02", _parse_float),
    ("gmm", "t"): ("0.7", _parse_float, "t_bg"),
    ("gmm", "var_init"): ("225", _parse_float),
    ("gmm", "var_min"): ("4", _parse_float),
    ("matting", "r_fg"): ("2", _parse_int),
    ("matting", "r_bg"): ("4", _parse_int),
    ("matting", "window"): ("3", _parse_int),
    ("matting", "max_iters"): ("20", _parse_int),
    ("matting", "eps"): (repr(DEFAULT_EPS), _parse_float),
    ("matting", "lambda_t"): ("0.1", _parse_float),
    ("store", "shards"): ("4", _parse_int),
    ("store", "theta"): ("0.35", _parse_float),
    ("store", "dir"): ("", _parse_optional, "directory"),
    ("store", "enroll_user"): ("", _parse_optional),
    ("store", "enroll_frame"): ("0", _parse_int),
    ("fusion", "scale"): ("1.0", _parse_float),
    ("fusion", "tx"): ("0", _parse_int),
    ("fusion", "ty"): ("0", _parse_int),
    ("fusion", "depth"): ("0.0", _parse_float),
    ("fusion", "view_angle"): ("0.0", _parse_float),
    ("fusion", "views"): ("front:0,profile:90", _parse_views),
    ("run", "seed"): ("0", _parse_int),
}

_SECTIONS = {section for section, _ in _SCHEMA}


def _read_entries(text: str):
    """Raw (section, key) -> value text, plus duplicate-key warnings."""
    entries = {}
    warnings = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise UnknownKey(section)
            continue
        if "=" not in line:
            raise InvalidValue(f"line {lineno}", f"expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if section is None:
            raise InvalidValue(key, "entry before any [section] header")
        full = (section, key)
        if full not in _SCHEMA:
            raise UnknownKey(f"{section}.{key}")
        if full in entries:
            warnings.append(f"duplicate key {section}.{key}; last occurrence wins")
        entries[full] = value
    return entries, warnings


def _check(condition: bool, key: str, reason: str) -> None:
    if not condition:
        raise InvalidValue(key, reason)


def _build(cls, section: str, values: dict):
    """``cls`` from the parsed values of the section's rows that name its fields.

    A precondition error of the type becomes ``InvalidValue`` for the config
    key of the first field its message names, or for the section if none.
    """
    names = {f.name for f in fields(cls)}
    keys = {}
    for (row_section, key), row in _SCHEMA.items():
        name = row[2] if len(row) > 2 else key
        if row_section == section and name in names:
            keys[name] = key
    try:
        return cls(**{name: values[(section, key)] for name, key in keys.items()})
    except (ValueError, EmrError) as exc:
        named = [keys[word] for word in re.findall(r"\w+", str(exc)) if word in keys]
        raise InvalidValue(f"{section}.{named[0]}" if named else section, str(exc))


def parse_config(text: str, base_dir=".", require_paths: bool = True) -> PipelineConfig:
    """Parse and fully validate a pipeline configuration."""
    base = Path(base_dir)
    entries, warnings = _read_entries(text)

    values = {}
    for (section, key), (default, parser, *_) in _SCHEMA.items():
        if (section, key) in entries:
            raw = entries[(section, key)]
        elif default is None:
            raise MissingKey(f"{section}.{key}")
        else:
            raw = default
        try:
            values[(section, key)] = parser(raw)
        except ValueError as exc:
            raise InvalidValue(f"{section}.{key}", str(exc))

    _check(values["encoding", "fps"] > 0, "encoding.fps", "must be > 0")
    _check(0.0 <= values["encoding", "w"] <= 1.0, "encoding.w", "must lie in [0, 1]")
    _check(0.0 < values["tunnel", "r"] <= 4.0, "tunnel.r", "must lie in (0, 4]")
    _check(values["tunnel", "burn_in"] >= 0, "tunnel.burn_in", "must be >= 0")

    frames_dir = base / values["io", "frames_dir"]
    background = base / values["io", "background"]
    if require_paths:
        _check(frames_dir.is_dir(), "io.frames_dir", f"directory {frames_dir} does not exist")
        _check(background.is_file(), "io.background", f"file {background} does not exist")
    if values["store", "dir"] is not None:
        values["store", "dir"] = base / values["store", "dir"]

    return PipelineConfig(
        frames_dir=frames_dir,
        background=background,
        out_dir=base / values["io", "out_dir"],
        metrics_path=base / values["io", "metrics"],
        levels=values["encoding", "levels"],
        fps=values["encoding", "fps"],
        mos_model=_build(MosModel, "encoding", values),
        policy=values["encoding", "policy"],
        w=values["encoding", "w"],
        constraints=_build(Constraints, "encoding", values),
        channel=_build(ChannelModel, "channel", values),
        group=_build(DhGroup, "tunnel", values),
        chaos_r=values["tunnel", "r"],
        burn_in=values["tunnel", "burn_in"],
        gmm=_build(GmmParams, "gmm", values),
        matting=_build(MattingParams, "matting", values),
        store=_build(StoreParams, "store", values),
        fusion=_build(FusionParams, "fusion", values),
        seed=values["run", "seed"],
        warnings=warnings,
    )


MINIMAL_TEMPLATE = """\
# Minimal pipeline configuration; all other keys take their defaults.
[io]
frames_dir = frames
background = scene.ppm
"""
