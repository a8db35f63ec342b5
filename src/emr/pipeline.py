"""End-to-end staged pipeline over a frame directory.

Per frame, in order:

1. pick an encoding level and re-encode;
2. cipher the payload into an authenticated envelope;
3. transmit over the simulated link (an adversary may interpose);
4. verify and decipher -- alarmed frames are logged and go no further;
5. key the moving subject (mixture update + mask cleanup);
6. build a trimap, solve the matte, fold it into the fuzzy knowledge;
7. extract an identity template from the subject region and query the store;
8. place the keyed layer into the target scene and blend;
9. write the composite and append one metrics record.

Transport drops produce a metrics record marked ``drop`` with no output
image.  Any module error on a frame is logged and the frame skipped; the
pipeline itself never aborts mid-run.  With the same configuration and seed,
output images and the metrics file are byte-identical across runs (stage
timings are measured only when requested, since real timings would break
that reproducibility; the ms_total column reads 0 otherwise).
"""

from __future__ import annotations

import logging
import random
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import PipelineConfig
from .errors import (
    DegenerateTemplate,
    EmrError,
    InsufficientLabels,
    ReplayAlarm,
    TamperAlarm,
    UnauthorizedAgent,
)
from .fusion import RvoLayer, compose, select_view
from .layering import layer_init, layer_update_classify, mask_postprocess
from .matting import alpha_solve, fuzzy_init, fuzzy_update, trimap_from_mask
from .netsim import Adversary, AdversaryMode, Link, interpose, transmit
from .qoeqos import reencode, score as level_score, select_encoding
from .raster import AlphaMatte, Frame, decode_pnm, encode_pnm, load_pnm, save_pnm
from .store import TEMPLATE_SIDE, KnowledgeStore, extract_template, write_atomic
from .tunnel import (
    AgentRole,
    decrypt_verify,
    encode_envelope,
    encrypt_envelope,
    handshake,
    make_agent,
)

log = logging.getLogger("emr.pipeline")

METRICS_COLUMNS = (
    "frame", "level", "mos", "latency", "degraded", "tamper", "replay",
    "unauth", "drop", "fg_pixels", "identity", "ms_total",
)

_FRAME_RE = re.compile(r"^frame_(\d{6})\.ppm$")
_NO_IDENTITY = "-"
_UNKNOWN_IDENTITY = "UNKNOWN"


@dataclass
class FrameMetrics:
    frame: int
    level: str = _NO_IDENTITY
    mos: float = 0.0
    latency: float = 0.0
    degraded: bool = False
    tamper: int = 0
    replay: int = 0
    unauth: int = 0
    drop: int = 0
    fg_pixels: int = 0
    identity: str = _NO_IDENTITY
    ms_total: float = 0.0


def emit_metrics(records) -> str:
    """Render ordered records as CSV; byte-deterministic for equal inputs."""
    lines = [",".join(METRICS_COLUMNS)]
    for r in records:
        lines.append(
            f"{r.frame},{r.level},{r.mos:.6f},{r.latency:.6f},{int(r.degraded)},"
            f"{r.tamper},{r.replay},{r.unauth},{r.drop},{r.fg_pixels},"
            f"{r.identity},{r.ms_total:.6f}"
        )
    return "\n".join(lines) + "\n"


@dataclass
class PipelineResult:
    records: list
    traces: dict          # frame index -> tuple of executed stage names
    outputs_written: int
    metrics_text: str
    selected_view: str
    identity_enrolled: bool = False
    notes: list = field(default_factory=list)


def _list_frames(frames_dir: Path):
    found = []
    for path in frames_dir.iterdir():
        m = _FRAME_RE.match(path.name)
        if m:
            found.append((int(m.group(1)), path))
    return sorted(found)


def _subject_template(received: Frame, mask: Frame):
    """Template of the mask's box grown to template size; None if empty or flat."""
    arr = mask.to_array()[:, :, 0]
    ys, xs = np.nonzero(arr)
    if ys.size == 0:
        return None
    y0, y1 = int(ys.min()), int(ys.max()) + 1
    x0, x1 = int(xs.min()), int(xs.max()) + 1
    y0, y1 = _expand_span(y0, y1, TEMPLATE_SIDE, received.height)
    x0, x1 = _expand_span(x0, x1, TEMPLATE_SIDE, received.width)
    if y1 - y0 < TEMPLATE_SIDE or x1 - x0 < TEMPLATE_SIDE:
        return None  # frame itself smaller than a template
    region = received.to_array()[y0:y1, x0:x1]
    try:
        return extract_template(Frame.from_array(region, index=received.index))
    except DegenerateTemplate:
        return None


def _expand_span(lo: int, hi: int, minimum: int, limit: int):
    if hi - lo >= minimum:
        return lo, hi
    pad = minimum - (hi - lo)
    lo = max(0, lo - pad // 2)
    hi = min(limit, lo + minimum)
    lo = max(0, hi - minimum)
    return lo, hi


def _binary_matte(mask: Frame) -> AlphaMatte:
    arr = mask.to_array()[:, :, 0].astype(np.float64) / 255.0
    return AlphaMatte.from_array(arr)


def _select_level(config: PipelineConfig, width: int, height: int, channels: int):
    """(level, degraded, score) the policy gives a source of this geometry.

    The channel, policy and levels are fixed for a run, so the answer depends
    on the geometry alone.
    """
    usable = [
        lvl.resolved(width, height, channels)
        for lvl in config.levels
        if width % lvl.scale_factor == 0 and height % lvl.scale_factor == 0
    ]
    level, degraded = select_encoding(
        usable, config.channel, config.fps, config.mos_model,
        config.policy, config.w, config.constraints,
    )
    s = level_score(
        level, config.channel, config.fps, config.mos_model, config.constraints.bounds
    )
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

    sender, sender_priv = make_agent("camera", AgentRole.DEVICE, seed_sender, config.group)
    receiver, receiver_priv = make_agent("hub", AgentRole.DEVICE, seed_receiver, config.group)
    registry = {sender.fingerprint, receiver.fingerprint}
    send_tunnel = handshake(
        sender_priv, sender.public_key, receiver.public_key, registry,
        config.group, config.chaos_r, config.burn_in,
    )
    recv_tunnel = handshake(
        receiver_priv, receiver.public_key, sender.public_key, registry,
        config.group, config.chaos_r, config.burn_in,
    )

    link = Link(config.channel, seed=seed_link)
    adversary = None
    if adversary_mode != "none":
        adversary = Adversary("mallory", AdversaryMode(adversary_mode), seed=seed_adversary)

    frames = _list_frames(config.frames_dir)
    background = load_pnm(config.background)
    view = select_view(config.fusion.views, config.fusion.view_angle)
    log.info("active view: %s (%.1f deg)", view.id, view.angle_deg)

    store = KnowledgeStore(config.store.shards)
    if config.store.directory and config.store.directory.is_dir():
        store = KnowledgeStore.load(config.store.directory, config.store.shards)

    config.out_dir.mkdir(parents=True, exist_ok=True)
    model = None
    fuzzy = None
    records = []
    traces = {}
    notes = []
    outputs = 0
    enrolled = False
    now = 0.0
    selected_for = None   # source geometry the current level selection was made for
    selection = None

    for frame_index, path in frames:
        start = time.perf_counter()
        rec = FrameMetrics(frame=frame_index)
        trace = []
        try:
            source = load_pnm(path, index=frame_index)
        except (OSError, EmrError) as exc:
            log.warning("frame %06d unreadable: %s", frame_index, exc)
            records.append(rec)
            traces[frame_index] = tuple(trace)
            continue

        try:
            # 1. QoE/QoS selection (once per source geometry) and re-encoding
            geometry = (source.width, source.height, source.channels)
            if geometry != selected_for:
                selection = _select_level(config, *geometry)
                selected_for = geometry
            level, degraded, s = selection
            rec.level, rec.mos, rec.latency, rec.degraded = level.id, s.mos, s.latency, degraded
            encoded = reencode(source, level)
            trace.append("encode")

            # 2. confidential envelope
            payload = encode_pnm(encoded)
            envelope = encrypt_envelope(send_tunnel, payload)
            trace.append("encrypt")

            # 3. simulated transport
            wire_bits = len(encode_envelope(envelope)) * 8
            result = transmit(link, wire_bits, now)
            trace.append("transmit")
            if not result.delivered:
                rec.drop = 1
                log.info("frame %06d dropped in transit", frame_index)
                continue
            now = result.arrival
            if adversary is not None:
                envelope = interpose(adversary, envelope)

            # 4. verification; alarms end the frame here
            try:
                received_payload = decrypt_verify(recv_tunnel, envelope, registry)
            except TamperAlarm:
                rec.tamper = 1
                log.warning("frame %06d: tamper alarm", frame_index)
                continue
            except ReplayAlarm:
                rec.replay = 1
                log.warning("frame %06d: replay alarm", frame_index)
                continue
            except UnauthorizedAgent:
                rec.unauth = 1
                log.warning("frame %06d: unauthorized agent", frame_index)
                continue
            received = decode_pnm(received_payload, index=frame_index)
            trace.append("decrypt")

            # 5. motion keying
            if model is None or model.shape != (received.height, received.width, received.channels):
                if model is not None:
                    notes.append(f"frame {frame_index}: dimensions changed, model reset")
                model = layer_init(received, config.gmm)
                fuzzy = fuzzy_init(received.width, received.height, config.matting.lambda_t)
            mask, model = layer_update_classify(model, received)
            mask = mask_postprocess(mask)
            rec.fg_pixels = int(np.count_nonzero(mask.to_array()))
            trace.append("layer")

            # 6. matting
            trimap = trimap_from_mask(mask, config.matting)
            try:
                matte = alpha_solve(
                    received, trimap,
                    max_iters=config.matting.max_iters,
                    eps=config.matting.eps,
                    window=config.matting.window,
                ).matte
            except InsufficientLabels:
                # band without anchors: fall back to the binary mask as matte
                matte = _binary_matte(mask)
            fuzzy = fuzzy_update(fuzzy, matte)
            trace.append("matte")

            # 7. identification
            identity = None
            template = _subject_template(received, mask)
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
            rec.identity = identity if identity is not None else _UNKNOWN_IDENTITY
            trace.append("identify")

            # 8. fusion into the target scene
            layer = RvoLayer(
                pixels=received, matte=matte,
                scale=config.fusion.scale, tx=config.fusion.tx, ty=config.fusion.ty,
                depth=config.fusion.depth,
            )
            composite = compose(background, [layer])
            trace.append("fuse")

            # 9. output
            save_pnm(composite, config.out_dir / f"out_{frame_index:06d}.ppm")
            outputs += 1
            trace.append("write")
        except EmrError as exc:
            log.warning("frame %06d skipped: %s", frame_index, exc)
        except OSError as exc:
            log.warning("frame %06d I/O failure: %s", frame_index, exc)
        finally:
            if timings:
                rec.ms_total = (time.perf_counter() - start) * 1000.0
            records.append(rec)
            traces[frame_index] = tuple(trace)

    if config.store.directory:
        store.save(config.store.directory)

    metrics_text = emit_metrics(records)
    config.metrics_path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(config.metrics_path, metrics_text)
    return PipelineResult(
        records=records,
        traces=traces,
        outputs_written=outputs,
        metrics_text=metrics_text,
        selected_view=view.id,
        identity_enrolled=enrolled,
        notes=notes,
    )
