"""Pipeline configuration: a small key=value format with [section] headers.

Grammar: blank lines and ``#`` comments are ignored (a ``#`` also starts an
inline comment), section names sit in square brackets, and entries are
``key = value``.  A duplicated key keeps its last occurrence and records a
warning.  Unknown sections or keys are errors, as are non-finite numbers
and values violating any module precondition; every check runs up front so
a run never aborts mid-stream over a bad parameter.  Each precondition lives
in one place: ``_build`` makes each typed section from its ``_SCHEMA`` rows,
the type checks its own fields, and its ``ValueError`` becomes
``InvalidValue`` naming the config key.  ``_check`` covers the five keys no
type carries: the inputs io.frames_dir and io.background, and the outputs
io.out_dir, io.metrics and store.dir.  ``emr run``'s --seed, --policy,
--out and --metrics arrive as ``overrides`` entries (run.seed,
encoding.policy, io.out_dir, io.metrics), checked like the file's and
replacing them without a warning; their paths are relative to the working
directory, as the command line makes them absolute.  The parsed
``PipelineConfig`` is frozen.

Sections and keys (defaults in parentheses):

    [io]       frames_dir (required), background (required),
               out_dir (out), metrics (metrics.csv)  -- frames_dir
               holds frame_NNNNNN.ppm; an output path is a directory,
               or creatable under one; metrics names a file that is
               not an input or the config file; a run first removes
               every composite out_NNNNNN.ppm from out_dir --
    [encoding] levels (high:1:1,med:2:8,low:4:32)  -- comma list of
               id:scale:quant entries -- fps (30), b0 (1e6),
               bmax (8e6), policy (balance|qoe|qos), w (0.5),
               mos_min (2.0), l_max (0.5), l_min (0.0)
    [channel]  capacity (1e7), base_delay (0.01), loss_prob (0.0)
    [gmm]      k (3), lambda (2.5), alpha_lr (0.02), t (0.7),
               var_init (225), var_min (4)
    [matting]  r_fg (2), r_bg (4), window (3), max_iters (20),
               eps (1/255), lambda_t (0.1)
    [store]    theta (0.35), dir (unset), enroll_user (unset),
               enroll_frame (0)
    [fusion]   scale (1.0), tx (0), ty (0), view_angle (0.0),
               views (front:0,profile:90)  -- scale is relative to the
               capture: a layer keyed at a level of scale factor s is
               placed at scale * s
    [run]      seed (0)
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import InvalidValue, MissingKey, UnknownKey
from .fusion import FusionParams, ViewSource
from .layering import GmmParams
from .matting import MattingParams
from .qoeqos import ChannelModel, EncodingLevel, EncodingParams, Policy
from .store import _TABLE_FILE, StoreParams


# the name of an input frame in io.frames_dir; the group is its index
FRAME_RE = re.compile(r"^frame_([0-9]{6})\.ppm$")
# the name of a composite in io.out_dir
COMPOSITE_RE = re.compile(r"^out_[0-9]{6}\.ppm$")


@dataclass(frozen=True)
class PipelineConfig:
    frames_dir: Path
    background: Path
    out_dir: Path
    metrics_path: Path
    levels: tuple
    encoding: EncodingParams
    channel: ChannelModel
    gmm: GmmParams
    matting: MattingParams
    store: StoreParams
    fusion: FusionParams
    seed: int
    warnings: tuple = ()


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
        if len(parts) != 3:
            raise ValueError(f"{chunk!r} is not id:scale:quant")
        try:
            levels.append(
                EncodingLevel(
                    id=parts[0],
                    scale_factor=_parse_int(parts[1]),
                    quant_step=_parse_int(parts[2]),
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


def _parse_path(text: str) -> str:
    if "\0" in text:
        raise ValueError(f"{text!r} holds a NUL byte")
    return text


# (section, key) -> (default text or None=required, parser[, field]); a row
# names the field of its typed section when that differs from the key
_SCHEMA = {
    ("io", "frames_dir"): (None, _parse_path),
    ("io", "background"): (None, _parse_path),
    ("io", "out_dir"): ("out", _parse_path),
    ("io", "metrics"): ("metrics.csv", _parse_path),
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
    ("matting", "eps"): (repr(1 / 255), _parse_float),
    ("matting", "lambda_t"): ("0.1", _parse_float),
    ("store", "theta"): ("0.35", _parse_float),
    ("store", "dir"): ("", _parse_path, "directory"),
    ("store", "enroll_user"): ("", _parse_optional),
    ("store", "enroll_frame"): ("0", _parse_int),
    ("fusion", "scale"): ("1.0", _parse_float),
    ("fusion", "tx"): ("0", _parse_int),
    ("fusion", "ty"): ("0", _parse_int),
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


def _check_outputs(config: PipelineConfig, source) -> None:
    """Reject, before any frame runs, an output path the run could not create.

    io.out_dir and store.dir must each be a directory, or lie under one
    with nothing but missing names between (a dangling link is not
    missing: ``mkdir`` cannot replace it); io.metrics must not be a
    directory, an input (io.background, a frame of io.frames_dir or the
    config file ``source``) or another output (io.out_dir, a composite in
    it, store.dir or its identity table), also through a link, and its
    parent must pass the same rule.  io.background must not be a composite
    of io.out_dir, which a run clears before its first frame.
    """
    metrics = config.metrics_path
    _check(not metrics.is_dir(), "io.metrics", f"{metrics} is a directory")
    target = metrics.resolve()
    out_dir = config.out_dir.resolve()
    taken = {config.background.resolve(), out_dir}
    if source is not None:
        taken.add(Path(source).resolve())
    if config.store.directory is not None:
        store_dir = config.store.directory.resolve()
        taken |= {store_dir, store_dir / _TABLE_FILE}
    _check(
        target not in taken
        and not (target.parent == config.frames_dir.resolve() and FRAME_RE.match(target.name))
        and not (target.parent == out_dir and COMPOSITE_RE.match(target.name)),
        "io.metrics", f"{metrics} is an input or another output of the run",
    )
    _check(
        not any(p.parent.resolve() == out_dir and COMPOSITE_RE.match(p.name)
                for p in (config.background, config.background.resolve())),
        "io.background", f"{config.background} is a composite name in io.out_dir",
    )
    outputs = [("io.out_dir", config.out_dir), ("io.metrics", metrics.parent)]
    if config.store.directory is not None:
        outputs.append(("store.dir", config.store.directory))
    for key, path in outputs:
        existing = next(p for p in (path, *path.parents) if p.is_symlink() or p.exists())
        _check(existing.is_dir(), key, f"{existing} is not a directory")


def _build(cls, section: str, values: dict):
    """``cls`` from the parsed values of the section's rows that name its fields.

    A ``ValueError`` of the type becomes ``InvalidValue`` for the config
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
    except ValueError as exc:
        named = [keys[word] for word in re.findall(r"\w+", str(exc)) if word in keys]
        raise InvalidValue(f"{section}.{named[0]}" if named else section, str(exc))


def parse_config(text: str, base_dir=".", overrides=None, source=None) -> PipelineConfig:
    """Parse and fully validate a pipeline configuration read from ``source``;
    ``overrides`` maps (section, key) to the text that replaces the entry."""
    base = Path(base_dir)
    entries, warnings = _read_entries(text)
    for full, value in (overrides or {}).items():
        if full not in _SCHEMA:
            raise UnknownKey(".".join(full))
        entries[full] = value

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

    frames_dir = base / values["io", "frames_dir"]
    background = base / values["io", "background"]
    _check(frames_dir.is_dir(), "io.frames_dir", f"directory {frames_dir} does not exist")
    _check(background.is_file(), "io.background", f"file {background} does not exist")
    values["store", "dir"] = base / values["store", "dir"] if values["store", "dir"] else None

    config = PipelineConfig(
        frames_dir=frames_dir,
        background=background,
        out_dir=base / values["io", "out_dir"],
        metrics_path=base / values["io", "metrics"],
        levels=values["encoding", "levels"],
        encoding=_build(EncodingParams, "encoding", values),
        channel=_build(ChannelModel, "channel", values),
        gmm=_build(GmmParams, "gmm", values),
        matting=_build(MattingParams, "matting", values),
        store=_build(StoreParams, "store", values),
        fusion=_build(FusionParams, "fusion", values),
        seed=values["run", "seed"],
        warnings=tuple(warnings),
    )
    _check_outputs(config, source)
    return config


MINIMAL_TEMPLATE = """\
# Minimal pipeline configuration; all other keys take their defaults.
[io]
frames_dir = frames
background = scene.ppm
"""
