"""Spans and counts around calls into emr's layers, recorded from outside ``src/``.

``Tracer.install`` swaps wrappers into the names ``emr.pipeline`` imported
from the layer modules, and onto the ``KnowledgeStore`` methods, so every call
the pipeline makes into a layer is timed with ``perf_counter_ns``.  A span is
``[name, start_ns, end_ns, parent, frame, counts]``; ``parent`` is the index
of the enclosing span (the frame, or the repetition for set-up calls) and
``counts`` holds what the call returned that the per-layer metrics need
(solver iterations, band size, envelope length, alarm class, ...).

Untraced, only the frame-loop marks stay installed: each frame load (frame
loads pass ``index=``; the background load does not) starts a frame, and
``emit_metrics`` after the frames ends the loop.  They cost one clock read per
frame.
"""

from __future__ import annotations

import time

import numpy as np

clock = time.perf_counter_ns


class FirstFrame(BaseException):
    """Raised by a set-up probe at the first frame; passes run_pipeline's handlers."""


def _band_px(trimap, args):
    from emr.raster import UNKNOWN

    return {"band_px": int(np.count_nonzero(trimap.to_array() == UNKNOWN))}


# pipeline-namespace name -> (span name, counts extractor or None)
PIPELINE_CALLS = {
    "make_agent": ("tunnel.make_agent", None),
    "handshake": ("tunnel.handshake", None),
    "encrypt_envelope": ("tunnel.encrypt", lambda out, args: {"payload_bytes": len(args[1])}),
    "encode_envelope": ("tunnel.encode_envelope", lambda out, args: {"envelope_bytes": len(out)}),
    "decrypt_verify": ("tunnel.decrypt_verify", lambda out, args: {"outcome": "ok"}),
    "transmit": ("netsim.transmit", lambda out, args: {"delivered": bool(out.delivered)}),
    "interpose": ("netsim.interpose", None),
    "select_encoding": ("qoeqos.select_encoding", None),
    "level_score": ("qoeqos.score", None),
    "reencode": ("qoeqos.reencode", None),
    "decode_pnm": ("raster.decode", None),
    "encode_pnm": ("raster.encode", None),
    "save_pnm": ("raster.save", None),
    "layer_init": ("layering.init", None),
    "layer_update_classify": ("layering.update", None),
    "mask_postprocess": (
        "layering.cleanup", lambda out, args: {"fg_px": int(np.count_nonzero(out.to_array()))}
    ),
    "trimap_from_mask": ("matting.trimap", _band_px),
    "alpha_solve": (
        "matting.solve",
        lambda out, args: {"iterations": out.iterations, "converged": bool(out.converged)},
    ),
    "fuzzy_init": ("matting.fuzzy_init", None),
    "fuzzy_update": ("matting.fuzzy_update", None),
    "extract_template": ("store.template", None),
    "compose": ("fusion.compose", lambda out, args: {"canvas_px": out.width * out.height}),
    "select_view": ("fusion.select_view", None),
}
STORE_METHODS = ("enroll", "identify")


class Tracer:
    """Frame-loop marks, and in traced mode spans, for one workload process."""

    def __init__(self):
        self.traced = False
        self.probe = False       # raise FirstFrame at the first frame (set-up probe)
        self.spans = []
        self.first_frame_ns = None   # of the current repetition
        self.loop_end_ns = None
        self._run = None             # span index of the current repetition
        self._frame = None           # span index of the open frame
        self._frame_index = None
        self._saved = {}

    # --- repetition and frame boundaries ------------------------------------------

    def begin_repetition(self) -> None:
        self.first_frame_ns = self.loop_end_ns = None
        self._frame = self._frame_index = None
        self._run = None
        if self.traced:
            self.spans.append(["repetition", clock(), None, None, None, None])
            self._run = len(self.spans) - 1

    def end_repetition(self) -> None:
        now = clock()
        self._close_frame(now)
        if self._run is not None:
            self.spans[self._run][2] = now
        self._run = None

    def _frame_start(self, index: int) -> None:
        now = clock()
        if self.first_frame_ns is None:
            self.first_frame_ns = now
            if self.probe:
                raise FirstFrame()
        if self.traced:
            self._close_frame(now)
            self.spans.append(["frame", now, None, self._run, index, None])
            self._frame = len(self.spans) - 1
            self._frame_index = index

    def _loop_end(self) -> None:
        if self.first_frame_ns is not None and self.loop_end_ns is None:
            self.loop_end_ns = clock()
            self._close_frame(self.loop_end_ns)

    def _close_frame(self, now: int) -> None:
        if self._frame is not None:
            self.spans[self._frame][2] = now
        self._frame = self._frame_index = None

    # --- wrappers -------------------------------------------------------------------

    def span(self, name, fn, counts=None):
        """``fn`` wrapped to record a span (traced mode) around each call."""

        def wrapper(*args, **kwargs):
            parent = self._frame if self._frame is not None else self._run
            frame = self._frame_index
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.spans.append([name, start, clock(), parent, frame,
                                   {"outcome": type(exc).__name__}])
                raise
            end = clock()
            self.spans.append([name, start, end, parent, frame,
                               counts(out, args) if counts else None])
            return out

        return wrapper

    def install(self, traced: bool) -> None:
        """Patch emr for one phase; ``traced`` adds the layer spans to the marks."""
        import emr.config
        import emr.pipeline as pipeline
        from emr.store import KnowledgeStore

        self.uninstall()
        self.traced = traced
        self._patch(pipeline, "load_pnm", self._frame_load(pipeline.load_pnm))
        self._patch(pipeline, "emit_metrics", self._loop_marked(
            "pipeline.emit_metrics", pipeline.emit_metrics))
        if not traced:
            return
        for attr, (name, counts) in PIPELINE_CALLS.items():
            self._patch(pipeline, attr, self.span(name, getattr(pipeline, attr), counts))
        for method in STORE_METHODS:
            self._patch(KnowledgeStore, method,
                        self.span(f"store.{method}", getattr(KnowledgeStore, method)))
        self._patch(emr.config, "parse_config",
                    self.span("config.parse", emr.config.parse_config))

    def uninstall(self) -> None:
        for (owner, attr), original in self._saved.items():
            setattr(owner, attr, original)
        self._saved = {}

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.setdefault((owner, attr), owner.__dict__[attr])
        setattr(owner, attr, replacement)

    def _frame_load(self, fn):
        traced_fn = self.span("raster.load", fn)

        def load(path, index=None):
            if index is None:  # the background scene, during set-up
                return traced_fn(path) if self.traced else fn(path)
            self._frame_start(index)
            return traced_fn(path, index=index) if self.traced else fn(path, index=index)

        return load

    def _loop_marked(self, name, fn):
        traced_fn = self.span(name, fn)

        def marked(*args, **kwargs):
            self._loop_end()
            return (traced_fn if self.traced else fn)(*args, **kwargs)

        return marked


# --- analysis ---------------------------------------------------------------------

def self_times(spans) -> list:
    """Per span: its duration minus the part of it its children cover (ns)."""
    children = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0
        reach = start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append(end - start - covered)
    return out


def per_layer(spans, frames: int, overhead_ms: float) -> dict:
    """The per-layer metrics of ``BENCHMARK.json`` from a traced phase's spans.

    ``_ms`` is busy ms per attempted frame, except for the set-up calls
    (``config.parse_ms``, ``tunnel.handshake_ms``), which are ms per call
    because they run once per pipeline run.
    """
    busy = {}
    calls = {}
    counts = {}
    for name, start, end, _parent, _frame, info in spans:
        if name == "tunnel.decrypt_verify":
            name = "tunnel.decrypt" if info["outcome"] == "ok" else "tunnel.reject"
        busy[name] = busy.get(name, 0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        for key, value in (info or {}).items():
            if key != "outcome":
                counts[key] = counts.get(key, 0) + value

    def per_frame(*names):
        return sum(busy.get(n, 0) for n in names) / 1e6 / frames

    def per_call(name):
        return busy.get(name, 0) / 1e6 / calls[name] if calls.get(name) else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    frame_self = [t for span, t in zip(spans, self_times(spans)) if span[0] == "frame"]
    solves = calls.get("matting.solve", 0)
    verifies = calls.get("tunnel.decrypt", 0) + calls.get("tunnel.reject", 0)
    repetitions = calls.get("repetition", 0)
    return {
        "tunnel.encrypt_ms": per_frame("tunnel.encrypt"),
        "tunnel.bytes": counts.get("payload_bytes", 0) / frames,
        "tunnel.decrypt_ms": per_frame("tunnel.decrypt"),
        "tunnel.reject_ms": per_frame("tunnel.reject"),
        "tunnel.accept_ratio": ratio(calls.get("tunnel.decrypt", 0), verifies),
        "tunnel.handshake_ms": per_call("tunnel.handshake"),
        "matting.solve_ms": per_frame("matting.solve"),
        "matting.solve_iters": ratio(counts.get("iterations", 0), solves),
        "matting.converged_ratio": ratio(counts.get("converged", 0), solves),
        "matting.band_px": ratio(counts.get("band_px", 0), calls.get("matting.trimap", 0)),
        "matting.trimap_ms": per_frame("matting.trimap"),
        "matting.fuzzy_ms": per_frame("matting.fuzzy_init", "matting.fuzzy_update"),
        "layering.update_ms": per_frame("layering.init", "layering.update"),
        "layering.cleanup_ms": per_frame("layering.cleanup"),
        "layering.resets": max(0, calls.get("layering.init", 0) - repetitions),
        "layering.fg_px": ratio(counts.get("fg_px", 0), calls.get("layering.cleanup", 0)),
        "fusion.compose_ms": per_frame("fusion.compose"),
        "fusion.canvas_px": ratio(counts.get("canvas_px", 0), calls.get("fusion.compose", 0)),
        "qoeqos.select_ms": per_frame("qoeqos.select_encoding", "qoeqos.score"),
        "qoeqos.reencode_ms": per_frame("qoeqos.reencode"),
        "raster.load_ms": per_frame("raster.load"),
        "raster.decode_ms": per_frame("raster.decode"),
        "raster.encode_ms": per_frame("raster.encode"),
        "raster.save_ms": per_frame("raster.save"),
        "netsim.transmit_ms": per_frame("netsim.transmit"),
        "netsim.interpose_ms": per_frame("netsim.interpose"),
        "netsim.delivered_ratio": ratio(counts.get("delivered", 0),
                                        calls.get("netsim.transmit", 0)),
        "store.template_ms": per_frame("store.template"),
        "store.identify_ms": per_frame("store.identify", "store.enroll"),
        "store.enrolled": ratio(calls.get("store.enroll", 0), repetitions),
        "config.parse_ms": per_call("config.parse"),
        "pipeline.self_ms": sum(frame_self) / 1e6 / frames,
        "trace.overhead_ms": overhead_ms,
    }
