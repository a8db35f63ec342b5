"""Pipeline configuration: a small key=value format with [section] headers.

Grammar: blank lines and ``#`` comments are ignored (a ``#`` also starts an
inline comment), section names sit in square brackets, and entries are
``key = value``.  A duplicated key keeps its last occurrence and records a
warning.  Unknown sections or keys are errors, as are non-finite numbers
and values violating any module precondition; every check runs up front so
a run never aborts mid-stream over a bad parameter.  Each precondition lives
in one place: a value type built here checks its own fields (its error
becomes ``InvalidValue`` naming the section), and ``_check`` covers the rest.

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
from dataclasses import dataclass, field
from pathlib import Path

from .errors import EmrError, InvalidValue, MissingKey, UnknownKey
from .fusion import ViewSource
from .layering import GmmParams
from .matting import DEFAULT_EPS, DEFAULT_MAX_ITERS, DEFAULT_WINDOW
from .qoeqos import ChannelModel, Constraints, EncodingLevel, MosModel, Policy
from .tunnel import BURN_IN, DEFAULT_GROUP, LOGISTIC_R, DhGroup


@dataclass(frozen=True)
class MattingParams:
    r_fg: int = 2
    r_bg: int = 4
    window: int = DEFAULT_WINDOW
    max_iters: int = DEFAULT_MAX_ITERS
    eps: float = DEFAULT_EPS
    lambda_t: float = 0.1


@dataclass(frozen=True)
class StoreParams:
    shards: int = 4
    theta: float = 0.35
    directory: Path | None = None
    enroll_user: str | None = None
    enroll_frame: int = 0


@dataclass(frozen=True)
class FusionParams:
    scale: float = 1.0
    tx: int = 0
    ty: int = 0
    depth: float = 0.0
    view_angle: float = 0.0
    views: tuple = (("front", 0.0), ("profile", 90.0))


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
        view = ViewSource(id=parts[0], angle_deg=_parse_float(parts[1]))
        views.append((view.id, view.angle_deg))
    if not views:
        raise ValueError("at least one view is required")
    return tuple(views)


# (section, key) -> (default text or None=required or ""=optional-unset, parser)
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
    ("gmm", "lambda"): ("2.5", _parse_float),
    ("gmm", "alpha_lr"): ("0.02", _parse_float),
    ("gmm", "t"): ("0.7", _parse_float),
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
    ("store", "dir"): ("", str),
    ("store", "enroll_user"): ("", str),
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


def _build(section: str, cls, **fields):
    """``cls(**fields)``, with the type's precondition errors as InvalidValue."""
    try:
        return cls(**fields)
    except (ValueError, EmrError) as exc:
        raise InvalidValue(section, str(exc))


def parse_config(text: str, base_dir=".", require_paths: bool = True) -> PipelineConfig:
    """Parse and fully validate a pipeline configuration."""
    base = Path(base_dir)
    entries, warnings = _read_entries(text)

    values = {}
    for (section, key), (default, parser) in _SCHEMA.items():
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

    def val(section, key):
        return values[(section, key)]

    _check(val("encoding", "fps") > 0, "encoding.fps", "must be > 0")
    _check(0.0 <= val("encoding", "w") <= 1.0, "encoding.w", "must lie in [0, 1]")
    _check(0.0 < val("tunnel", "r") <= 4.0, "tunnel.r", "must lie in (0, 4]")
    _check(val("tunnel", "burn_in") >= 0, "tunnel.burn_in", "must be >= 0")
    _check(val("matting", "r_fg") >= 0, "matting.r_fg", "must be >= 0")
    _check(
        val("matting", "r_bg") >= val("matting", "r_fg"), "matting.r_bg", "must be >= r_fg"
    )
    _check(val("matting", "window") >= 1, "matting.window", "must be >= 1")
    _check(val("matting", "max_iters") >= 1, "matting.max_iters", "must be >= 1")
    _check(val("matting", "eps") > 0, "matting.eps", "must be > 0")
    _check(0.0 <= val("matting", "lambda_t") <= 1.0, "matting.lambda_t", "must lie in [0, 1]")
    _check(val("store", "shards") >= 1, "store.shards", "must be >= 1")
    _check(0.0 < val("store", "theta") < 2.0, "store.theta", "must lie in (0, 2)")
    _check(val("store", "enroll_frame") >= 0, "store.enroll_frame", "must be >= 0")
    _check(
        "," not in val("store", "enroll_user") and "\n" not in val("store", "enroll_user"),
        "store.enroll_user",
        "must not contain commas or newlines",
    )
    _check(val("fusion", "scale") > 0, "fusion.scale", "must be > 0")
    _check(
        0.0 <= val("fusion", "view_angle") < 360.0,
        "fusion.view_angle",
        "must lie in [0, 360)",
    )

    frames_dir = base / val("io", "frames_dir")
    background = base / val("io", "background")
    store_dir_text = val("store", "dir")
    store_dir = (base / store_dir_text) if store_dir_text else None
    if require_paths:
        _check(frames_dir.is_dir(), "io.frames_dir", f"directory {frames_dir} does not exist")
        _check(background.is_file(), "io.background", f"file {background} does not exist")

    enroll_user = val("store", "enroll_user") or None

    return PipelineConfig(
        frames_dir=frames_dir,
        background=background,
        out_dir=base / val("io", "out_dir"),
        metrics_path=base / val("io", "metrics"),
        levels=val("encoding", "levels"),
        fps=val("encoding", "fps"),
        mos_model=_build(
            "encoding", MosModel, b0=val("encoding", "b0"), bmax=val("encoding", "bmax")
        ),
        policy=val("encoding", "policy"),
        w=val("encoding", "w"),
        constraints=_build(
            "encoding", Constraints,
            mos_min=val("encoding", "mos_min"),
            l_max=val("encoding", "l_max"),
            l_min=val("encoding", "l_min"),
        ),
        channel=_build(
            "channel", ChannelModel,
            capacity=val("channel", "capacity"),
            base_delay=val("channel", "base_delay"),
            loss_prob=val("channel", "loss_prob"),
        ),
        group=_build("tunnel", DhGroup, p=val("tunnel", "p"), g=val("tunnel", "g")),
        chaos_r=val("tunnel", "r"),
        burn_in=val("tunnel", "burn_in"),
        gmm=_build(
            "gmm", GmmParams,
            k=val("gmm", "k"),
            lam=val("gmm", "lambda"),
            alpha_lr=val("gmm", "alpha_lr"),
            t_bg=val("gmm", "t"),
            var_init=val("gmm", "var_init"),
            var_min=val("gmm", "var_min"),
        ),
        matting=MattingParams(
            r_fg=val("matting", "r_fg"),
            r_bg=val("matting", "r_bg"),
            window=val("matting", "window"),
            max_iters=val("matting", "max_iters"),
            eps=val("matting", "eps"),
            lambda_t=val("matting", "lambda_t"),
        ),
        store=StoreParams(
            shards=val("store", "shards"),
            theta=val("store", "theta"),
            directory=store_dir,
            enroll_user=enroll_user,
            enroll_frame=val("store", "enroll_frame"),
        ),
        fusion=FusionParams(
            scale=val("fusion", "scale"),
            tx=val("fusion", "tx"),
            ty=val("fusion", "ty"),
            depth=val("fusion", "depth"),
            view_angle=val("fusion", "view_angle"),
            views=val("fusion", "views"),
        ),
        seed=val("run", "seed"),
        warnings=warnings,
    )


MINIMAL_TEMPLATE = """\
# Minimal pipeline configuration; all other keys take their defaults.
[io]
frames_dir = frames
background = scene.ppm
"""
