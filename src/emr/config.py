"""Pipeline configuration: a small key=value format with [section] headers.

Grammar: blank lines and ``#`` comments are ignored (a ``#`` also starts an
inline comment), section names sit in square brackets, and entries are
``key = value``.  A duplicated key keeps its last occurrence and records a
warning.  Unknown sections or keys are errors, as are non-finite numbers and
values violating any module precondition; every check runs up front so a run
never aborts mid-stream over a bad parameter.  Every section but [io] and
[run] is the schema of one frozen type (``_TYPED``): the type's fields are
its keys (``_KEY_OF`` spells three differently), a field's annotation picks
the key's parser (``_PARSERS``), a key the file leaves out takes the field's
default, and the type checks its own fields, its ``ValueError`` becoming
``InvalidValue`` naming the config key; so each parameter is defaulted and
checked in one place.  Only the five keys of [io] and [run] have their
parser and default text here (``_UNTYPED``).  ``_check`` covers the paths:
the inputs io.frames_dir and io.background, and the outputs io.out_dir,
io.metrics and store.dir.  ``emr run``'s --seed, --policy, --out and
--metrics arrive as ``overrides`` entries (run.seed, encoding.policy,
io.out_dir, io.metrics), checked like the file's and replacing them without
a warning; their paths are relative to the working directory, as the command
line makes them absolute.  The parsed ``PipelineConfig`` is frozen.

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
    [run]      seed (0)  -- >= 0
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints

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


def _parse_seed(text: str) -> int:
    seed = _parse_int(text)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a number")
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _parse_list(form: str, make):
    """A parser of a comma list of ``form`` entries, each one's colon-separated
    fields passed to ``make``."""
    def parse(text: str):
        items = []
        for chunk in filter(None, (chunk.strip() for chunk in text.split(","))):
            parts = chunk.split(":")
            if len(parts) != form.count(":") + 1:
                raise ValueError(f"{chunk!r} is not {form}")
            items.append(make(*parts))
        return tuple(items)
    return parse


def _level(id: str, scale: str, quant: str) -> EncodingLevel:
    try:
        return EncodingLevel(id=id, scale_factor=_parse_int(scale), quant_step=_parse_int(quant))
    except ValueError as exc:
        raise ValueError(f"level {id!r}: {exc}")


def _parse_path(text: str) -> str:
    if "\0" in text:
        raise ValueError(f"{text!r} holds a NUL byte")
    return text


# a typed section's key takes its parser from its field's annotation; an
# empty optional value means unset
_PARSERS = {
    int: _parse_int,
    float: _parse_float,
    Policy: Policy,
    Path | None: lambda text: Path(_parse_path(text)) if text else None,
    str | None: lambda text: text or None,
    tuple[EncodingLevel, ...]: _parse_list("id:scale:quant", _level),
    tuple[ViewSource, ...]: _parse_list(
        "id:angle", lambda id, angle: ViewSource(id=id, angle_deg=_parse_float(angle))),
}

# section -> the type whose fields are its keys; a key is spelled as its
# field unless _KEY_OF renames it
_TYPED = {
    "encoding": EncodingParams,
    "channel": ChannelModel,
    "gmm": GmmParams,
    "matting": MattingParams,
    "store": StoreParams,
    "fusion": FusionParams,
}
_KEY_OF = {"lam": "lambda", "t_bg": "t", "directory": "dir"}

# the keys no type carries: (section, key) -> (default text or None=required, parser)
_UNTYPED = {
    ("io", "frames_dir"): (None, _parse_path),
    ("io", "background"): (None, _parse_path),
    ("io", "out_dir"): ("out", _parse_path),
    ("io", "metrics"): ("metrics.csv", _parse_path),
    ("run", "seed"): ("0", _parse_seed),
}

# (section, key) -> (parser, field of the section's type or None)
_SCHEMA = {
    **{full: (parser, None) for full, (_, parser) in _UNTYPED.items()},
    **{(section, _KEY_OF.get(name, name)): (_PARSERS[hint], name)
       for section, cls in _TYPED.items() for name, hint in get_type_hints(cls).items()},
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
    """``cls`` from the parsed values given for the section; a field with no
    value takes its default.

    A ``ValueError`` of the type becomes ``InvalidValue`` for the config
    key of the first field its message names, or for the section if none.
    """
    keys = {name: key for (row_section, key), (_, name) in _SCHEMA.items()
            if row_section == section}
    try:
        return cls(**{name: values[section, key] for name, key in keys.items()
                      if (section, key) in values})
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
    for full, (default, _) in _UNTYPED.items():
        if full not in entries:
            if default is None:
                raise MissingKey(".".join(full))
            entries[full] = default

    values = {}
    for full, raw in entries.items():
        try:
            values[full] = _SCHEMA[full][0](raw)
        except ValueError as exc:
            raise InvalidValue(".".join(full), str(exc))

    frames_dir = base / values["io", "frames_dir"]
    background = base / values["io", "background"]
    _check(frames_dir.is_dir(), "io.frames_dir", f"directory {frames_dir} does not exist")
    _check(background.is_file(), "io.background", f"file {background} does not exist")
    if values.get(("store", "dir")) is not None:
        values["store", "dir"] = base / values["store", "dir"]

    config = PipelineConfig(
        frames_dir=frames_dir,
        background=background,
        out_dir=base / values["io", "out_dir"],
        metrics_path=base / values["io", "metrics"],
        **{section: _build(cls, section, values) for section, cls in _TYPED.items()},
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
