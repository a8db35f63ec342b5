"""End-to-end staged pipeline over a frame directory.

Per frame, in order:

1. pick an encoding level and re-encode;
2. cipher the payload into an authenticated envelope;
3. transmit the wire bytes over the simulated link (an adversary may edit,
   replace or relabel them on arrival);
4. authenticate the wire bytes, then read their sequence number and
   decipher;
5. key the moving subject (mixture update + mask cleanup);
6. build a trimap, solve the matte, fold it into the fuzzy knowledge;
7. extract an identity template from the subject region and query the store;
8. place the keyed layer into the target scene at the capture's geometry
   and blend;
9. write the composite and append one metrics record.

Every frame appends one record, and only a frame that reaches step 9 writes a
composite.  The others stop at a transport drop (``drop`` set), a security
alarm at step 4 (its ``tamper``, ``replay`` or ``unauth`` column set), or a
module or I/O error at any step, reading the frame included (logged with the
exception's class and message); none aborts the run.  With the same
configuration and seed, output images and the metrics file are byte-identical
across runs (stage timings are measured only when requested, since real
timings would break that reproducibility; the ms_total column reads 0
otherwise).  Before the first frame the run removes every composite
(``out_NNNNNN.ppm``, and nothing else) from the output directory, so after
the run it holds this run's composites alone.
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .config import COMPOSITE_RE, FRAME_RE, PipelineConfig
from .errors import (
    DimensionMismatch,
    EmrError,
    InsufficientLabels,
    ReplayAlarm,
    SecurityAlarm,
    TamperAlarm,
    UnauthorizedAgent,
)
from .fusion import RvoLayer, compose, select_view
from .layering import layer_init, layer_update_classify, mask_postprocess
from .matting import MattingParams, alpha_solve, fuzzy_init, fuzzy_update, trimap_from_mask
from .netsim import Adversary, AdversaryMode, Link, interpose, transmit
from .qoeqos import NO_LEVEL, level_bits, reencode, score as level_score, select_encoding
from .raster import (
    AlphaMatte, Frame, Trimap, decode_pnm, encode_pnm, load_pnm, save_pnm, write_atomic,
)
from .store import NO_IDENTITY, UNKNOWN_IDENTITY, KnowledgeStore, extract_template
from .tunnel import (
    decrypt_verify,
    encode_envelope,
    encrypt_envelope,
    handshake,
    make_agent,
)

log = logging.getLogger("emr.pipeline")

# the metrics column each alarm sets
_ALARM_COLUMNS = {TamperAlarm: "tamper", ReplayAlarm: "replay", UnauthorizedAgent: "unauth"}


@dataclass
class FrameMetrics:
    frame: int
    level: str = NO_LEVEL
    mos: float = 0.0
    latency: float = 0.0
    degraded: bool = False
    tamper: int = 0
    replay: int = 0
    unauth: int = 0
    drop: int = 0
    fg_pixels: int = 0
    identity: str = NO_IDENTITY
    ms_total: float = 0.0


# a column's text by its field's type; any other type is str()
_FORMATS = {bool: lambda v: str(int(v)), float: "{:.6f}".format}
_COLUMN_FORMATS = tuple(
    (name, _FORMATS.get(kind, str)) for name, kind in get_type_hints(FrameMetrics).items()
)
METRICS_COLUMNS = tuple(name for name, _ in _COLUMN_FORMATS)


def emit_metrics(records) -> str:
    """Render ordered records as CSV; byte-deterministic for equal inputs."""
    lines = [",".join(METRICS_COLUMNS)]
    for r in records:
        lines.append(",".join(fmt(getattr(r, name)) for name, fmt in _COLUMN_FORMATS))
    return "\n".join(lines) + "\n"


@dataclass
class PipelineResult:
    records: list
    outputs_written: int
    metrics_text: str


def _list_frames(frames_dir: Path):
    found = []
    for path in frames_dir.iterdir():
        m = FRAME_RE.match(path.name)
        if m:
            found.append((int(m.group(1)), path))
    return sorted(found)


def _solve_matte(received: Frame, trimap: Trimap, mask: Frame, params: MattingParams) -> AlphaMatte:
    """The solved matte, or the binary mask when the band has no anchors."""
    try:
        return alpha_solve(received, trimap, params).matte
    except InsufficientLabels:
        return AlphaMatte(mask.data[:, :, 0] / 255.0)


def _select_level(config: PipelineConfig, geometry: tuple[int, int, int]):
    """(level, degraded, score) the policy gives a (width, height, channels) source.

    The channel, policy and levels are fixed for a run, so the answer depends
    on the geometry alone.
    """
    level, degraded = select_encoding(config.encoding.levels, geometry, config.channel, config.encoding)
    s = level_score(level_bits(level, *geometry), config.channel, config.encoding)
    return level, degraded, s


def run_pipeline(config: PipelineConfig, adversary_mode: str = "none",
                 timings: bool = False) -> PipelineResult:
    """Run the staged pipeline over every frame in the configured directory."""
    # deterministic sub-seeds, drawn in fixed order
    seeder = random.Random(config.seed)
    seed_sender = seeder.getrandbits(64)
    seed_receiver = seeder.getrandbits(64)
    seed_link = seeder.getrandbits(64)
    seed_adversary = seeder.getrandbits(64)

    sender, sender_priv = make_agent(seed_sender)
    receiver, receiver_priv = make_agent(seed_receiver)
    registry = {sender.fingerprint, receiver.fingerprint}
    send_tunnel = handshake(sender_priv, receiver.public_key, registry)
    recv_tunnel = handshake(receiver_priv, sender.public_key, registry)

    link = Link(config.channel, seed=seed_link)
    adversary = None
    if adversary_mode != "none":
        adversary = Adversary("mallory", AdversaryMode(adversary_mode), seed=seed_adversary)

    frames = _list_frames(config.frames_dir)
    background = load_pnm(config.background)
    view = select_view(config.fusion.views, config.fusion.view_angle)
    log.info("active view: %s (%.1f deg)", view.id, view.angle_deg)

    store_dir = config.store.directory
    store = KnowledgeStore.load(store_dir) if store_dir else KnowledgeStore()

    config.out_dir.mkdir(parents=True, exist_ok=True)
    for path in config.out_dir.iterdir():
        if COMPOSITE_RE.match(path.name) and not path.is_dir():
            path.unlink()
    model = None
    fuzzy = None
    records = []
    outputs = 0
    enrolled = False
    now = 0.0
    selected_for = None   # source geometry the current level selection was made for
    selection = None

    for frame_index, path in frames:
        start = time.perf_counter()
        rec = FrameMetrics(frame=frame_index)
        try:
            source = load_pnm(path, index=frame_index)

            # 1. QoE/QoS selection (once per source geometry) and re-encoding
            geometry = (source.width, source.height, source.channels)
            if geometry != selected_for:
                selection = _select_level(config, geometry)
                selected_for = geometry
            level, degraded, s = selection
            rec.level, rec.mos, rec.latency, rec.degraded = level.id, s.mos, s.latency, degraded
            encoded = reencode(source, level)

            # 2. confidential envelope
            payload = encode_pnm(encoded)
            wire = encode_envelope(encrypt_envelope(send_tunnel, payload))

            # 3. simulated transport of the wire bytes
            result = transmit(link, len(wire) * 8, now)
            if not result.delivered:
                rec.drop = 1
                log.info("frame %06d dropped in transit", frame_index)
                continue
            now = result.arrival
            if adversary is not None:
                wire = interpose(adversary, wire)

            # 4. verification; an alarm ends the frame here.  In lockstep the
            # slot's fresh envelope is the one just sealed
            payload = decrypt_verify(recv_tunnel, wire, registry, send_tunnel.send_seq)
            received = decode_pnm(payload, index=frame_index)

            # 5. motion keying; a frame that cannot blend into the scene stops
            # before it reaches (and resets) the model
            if received.channels != background.channels:
                raise DimensionMismatch("layer channel count differs from background")
            if model is None or model.shape != (received.height, received.width, received.channels):
                if model is not None:
                    log.info("frame %06d: dimensions changed, model reset", frame_index)
                model = layer_init(received, config.gmm)
                fuzzy = fuzzy_init(received.width, received.height)
            mask, model = layer_update_classify(model, received)
            mask = mask_postprocess(mask)
            rec.fg_pixels = int(np.count_nonzero(mask.data))

            # 6. matting
            trimap = trimap_from_mask(mask, config.matting, level.scale_factor)
            matte = _solve_matte(received, trimap, mask, config.matting)
            fuzzy = fuzzy_update(fuzzy, matte, config.matting)

            # 7. identification
            identity = None
            fg = mask.data[:, :, 0]
            ys, xs = np.flatnonzero(fg.any(axis=1)), np.flatnonzero(fg.any(axis=0))
            template = extract_template(
                received, (ys[0], ys[-1] + 1, xs[0], xs[-1] + 1)
            ) if ys.size else None
            if template is not None:
                if (
                    config.store.enroll_user
                    and not enrolled
                    and frame_index >= config.store.enroll_frame
                ):
                    store.enroll(config.store.enroll_user, template)
                    enrolled = True
                    log.info("frame %06d: enrolled %s", frame_index, config.store.enroll_user)
                identity = store.identify(template, config.store.theta)
            rec.identity = identity if identity is not None else UNKNOWN_IDENTITY

            # 8. fusion into the target scene at the capture's geometry: keying
            # ran on the level's downsampled frame, so scale it back up
            layer = RvoLayer(
                pixels=received, matte=matte,
                scale=config.fusion.scale * level.scale_factor,
                tx=config.fusion.tx, ty=config.fusion.ty,
            )
            composite = compose(background, [layer])

            # 9. output
            save_pnm(composite, config.out_dir / f"out_{frame_index:06d}.ppm")
            outputs += 1
        except SecurityAlarm as exc:
            setattr(rec, _ALARM_COLUMNS[type(exc)], 1)
            log.warning("frame %06d alarm: %s: %s", frame_index, type(exc).__name__, exc)
        except (EmrError, OSError) as exc:
            log.warning("frame %06d stopped: %s: %s", frame_index, type(exc).__name__, exc)
        finally:
            if timings:
                rec.ms_total = (time.perf_counter() - start) * 1000.0
            records.append(rec)

    metrics_text = emit_metrics(records)
    config.metrics_path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(config.metrics_path, metrics_text.encode("utf-8"))
    if store_dir:
        store.save(store_dir)
    return PipelineResult(records, outputs, metrics_text)
