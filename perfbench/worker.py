"""One workload in a fresh, single-threaded interpreter.

    python3 perfbench/worker.py SPEC.json

``run.py`` writes the spec and starts this process with ``PYTHONPATH`` on the
checkout's ``src`` and BLAS/OpenMP threads set to 1.  A repetition is what one
``emr run`` does: ``parse_config`` then ``run_pipeline(config, adversary,
timings=True)`` over the workload's frames, in a fresh directory.  The worker
repeats it until the phase's time is spent, checking each repetition's
outputs, and writes a JSON result.

In ``probe`` mode it stops at the first frame: its only output is set-up
time, measured from the moment ``run.py`` started the process.
"""

from __future__ import annotations

import json
import logging
import resource
import shutil
import sys
import time
from collections import Counter
from pathlib import Path

import emr.config
import emr.pipeline
from emr.raster import load_pnm

from checks import WRONG, classify, mean_abs_error, output_sha256
from tracing import FirstFrame, Tracer, per_layer
from workloads import EXPECTED_LEVEL, WORKLOADS, reference_composite


class _DiscardHandler(logging.Handler):
    """Formats each record, as the CLI's handler would, and drops it.

    Without a handler, logging's last-resort handler writes every alarmed
    frame to stderr and terminal speed becomes part of the measurement.
    """

    def emit(self, record):
        self.format(record)


def quiet_emr_logging() -> None:
    handler = _DiscardHandler()
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger = logging.getLogger("emr")
    logger.setLevel(logging.INFO)
    logger.addHandler(handler)


class Runner:
    def __init__(self, spec: dict, tracer: Tracer):
        self.workload = WORKLOADS[spec["workload"]]
        self.root = Path(spec["root"])
        self.text = (self.root / "pipeline.cfg").read_text()
        self.tracer = tracer

    def repetition(self, score: bool = False) -> dict:
        rep_dir = self.root / "rep"
        if rep_dir.exists():
            shutil.rmtree(rep_dir)
        rep_dir.mkdir()
        self.tracer.begin_repetition()
        try:
            config = emr.config.parse_config(self.text, base_dir=rep_dir)
            result = emr.pipeline.run_pipeline(
                config, adversary_mode=self.workload.adversary, timings=True
            )
        finally:
            self.tracer.end_repetition()
        out_dir = rep_dir / "out"
        composites = {int(p.stem[len("out_"):]): p for p in out_dir.glob("out_*.ppm")}
        outcomes = classify(result.records, composites, EXPECTED_LEVEL,
                            self.workload.expected_alarm)
        rep = {
            "first_frame_ns": self.tracer.first_frame_ns,
            "loop_ns": self.tracer.loop_end_ns - self.tracer.first_frame_ns,
            "ms_total": [r.ms_total for r in result.records],
            "outcomes": Counter(outcomes),
            "wrong_frames": [r.frame for r, o in zip(result.records, outcomes) if o == WRONG],
            "sha256": output_sha256(out_dir, result.metrics_text),
        }
        if score and composites:
            inputs = self.root / "inputs"
            errors = [mean_abs_error(load_pnm(path).to_array(),
                                     reference_composite(inputs, index))
                      for index, path in sorted(composites.items())]
            rep["composite_err"] = sum(errors) / len(errors)
        return rep

    def phase(self, traced: bool, seconds: float, score: bool) -> list:
        """Repetitions until the next one would overrun ``seconds``."""
        self.tracer.install(traced)
        start = time.perf_counter()
        reps = []
        while True:
            reps.append(self.repetition(score=score and not reps))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(reps) > seconds:
                break
        self.tracer.uninstall()
        return reps


def summarize(reps: list, traced: bool) -> dict:
    frames = sum(len(r["ms_total"]) for r in reps)
    loop_s = sum(r["loop_ns"] for r in reps) / 1e9
    outcomes = Counter()
    for r in reps:
        outcomes.update(r["outcomes"])
    return {
        "traced": traced,
        "repetitions": len(reps),
        "frames": frames,
        "loop_s": loop_s,
        "ms_per_frame": loop_s * 1000.0 / frames,
        "repetition_fps": [len(r["ms_total"]) * 1e9 / r["loop_ns"] for r in reps],
        "ms_total": [ms for r in reps for ms in r["ms_total"]],
        "outcomes": dict(outcomes),
        "wrong_frames": sorted({f for r in reps for f in r["wrong_frames"]}),
        "sha256": sorted({r["sha256"] for r in reps}),
    }


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    quiet_emr_logging()
    tracer = Tracer()
    runner = Runner(spec, tracer)
    result_path = Path(spec["result"])

    if spec["mode"] == "probe":
        tracer.probe = True
        tracer.install(traced=False)
        try:
            runner.repetition()
        except FirstFrame:
            pass
        setup_s = (tracer.first_frame_ns - spec["spawn_ns"]) / 1e9
        result_path.write_text(json.dumps({"setup_s": setup_s}))
        return 0

    seconds = float(spec["seconds"])
    traced = bool(spec["trace"])
    plain = runner.phase(False, seconds / 2 if traced else seconds, score=True)
    result = {
        "setup_s": (plain[0]["first_frame_ns"] - spec["spawn_ns"]) / 1e9,
        "composite_err": plain[0].get("composite_err"),
        "phases": [summarize(plain, traced=False)],
    }
    if traced:
        reps = runner.phase(True, seconds / 2, score=False)
        spans = tracer.spans  # the untraced phase records none
        untraced, traced_phase = result["phases"][0], summarize(reps, traced=True)
        result["phases"].append(traced_phase)
        overhead = traced_phase["ms_per_frame"] - untraced["ms_per_frame"]
        result["per_layer"] = per_layer(spans, traced_phase["frames"], overhead)
        with open(spec["spans"], "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
