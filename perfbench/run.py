"""emr benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload synth64|synth320|tamper64 --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  The seed drives the generated inputs and
``[run] seed``.  Inputs and outputs live in a temporary directory under
``.perfbench-work/`` in the checkout, removed at the end; traced runs leave
their spans in ``.perfbench-work/spans/``, and every correct run records its
output hash in ``.perfbench-work/sha256/`` so that later runs of the same
workload and seed in that checkout must reproduce it.

Set-up is timed in fresh processes (``PROBES`` probes before and after the
measured process, and the measured process), from process start to the
first frame.  The measured process then
repeats the workload's sequence for ``--seconds``.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it spends half the time
untraced and half traced, and reports the per-layer metrics and the tracing
overhead.  Human-readable lines come first; the last line of stdout is the
JSON result.  Exit status is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
if not (CHECKOUT / "src" / "emr" / "pipeline.py").is_file():
    sys.exit(f"no emr sources under {CHECKOUT / 'src'}; run from a checkout of the repository")
sys.path.insert(0, str(CHECKOUT / "src"))

import numpy as np  # noqa: E402  (emr and the workloads need the path above)

from workloads import WORKLOADS, config_text, generate  # noqa: E402

# Set-up probes run before and again after the measured process, so that
# set-up is sampled at both ends of the run.
PROBES = 4
# The whole run, probes included, must end within three minutes.
DEADLINE_S = 170
# ms_total must account for the frame loop's wall time, less loop overhead.
MIN_COVERAGE = 0.9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _start(worker_spec: dict, tmp: Path, name: str, deadline: float) -> dict:
    """Run worker.py on a spec in a fresh single-threaded interpreter; its result."""
    src = str(CHECKOUT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.update({var: "1" for var in THREAD_VARS})
    spec_path = tmp / f"{name}.spec.json"
    result_path = tmp / f"{name}.result.json"
    spawn_ns = time.perf_counter_ns()
    spec_path.write_text(json.dumps(dict(worker_spec, result=str(result_path),
                                         spawn_ns=spawn_ns)))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                          env=env, stdout=subprocess.DEVNULL,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {name} exited with status {proc.returncode}")
    return json.loads(result_path.read_text())


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    work = CHECKOUT / ".perfbench-work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work))
    try:
        generate(workload, args.seed, tmp)
        (tmp / "pipeline.cfg").write_text(config_text(workload, args.seed))
        spans = work / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        if args.trace:
            spans.parent.mkdir(exist_ok=True)
        spec = {"workload": workload.name, "root": str(tmp), "seconds": args.seconds,
                "trace": args.trace, "spans": str(spans)}
        def probes(first):
            return [_start(dict(spec, mode="probe"), tmp, f"probe{i}", deadline)["setup_s"]
                    for i in range(first, first + PROBES)]

        before = probes(0)
        result = _start(dict(spec, mode="measure"), tmp, "measure", deadline)
        after = probes(PROBES)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result["setup_samples"] = before + [result["setup_s"]] + after
    return result


def check(result: dict, args) -> list:
    """Reasons the run's outputs are wrong; empty when they are correct."""
    workload = WORKLOADS[args.workload]
    reasons = []
    hashes = sorted({h for phase in result["phases"] for h in phase["sha256"]})
    if len(hashes) != 1:
        reasons.append(f"output_sha256 differs between repetitions: {hashes}")
    for phase in result["phases"]:
        if phase["wrong_frames"]:
            reasons.append(f"wrong outcome on frames {phase['wrong_frames'][:10]}"
                           f"{' ...' if len(phase['wrong_frames']) > 10 else ''}")
        coverage = sum(phase["ms_total"]) / (phase["loop_s"] * 1000.0)
        phase["coverage"] = coverage
        if coverage < MIN_COVERAGE:
            reasons.append(f"ms_total covers only {coverage:.3f} of the frame loop's wall time")
    err, limit = result["composite_err"], workload.max_composite_err
    if limit is not None and (err is None or err > limit):
        reasons.append(f"composite_err {err} above {limit}")
    # Compare with the hash an earlier run of this workload and seed recorded,
    # and record the hash only from a run that passed every other check.
    recorded = CHECKOUT / ".perfbench-work" / "sha256" / f"{args.workload}-seed{args.seed}"
    if recorded.exists():
        if recorded.read_text().strip() not in hashes:
            reasons.append(f"output_sha256 differs from the one an earlier run recorded in "
                           f"{recorded}; delete that file if the new output is intended")
    elif not reasons:
        recorded.parent.mkdir(parents=True, exist_ok=True)
        recorded.write_text(hashes[0] + "\n")
    return reasons


def end_to_end(result: dict) -> dict:
    """The gated end-to-end metrics; see "Run-to-run noise" in README.md."""
    phase = result["phases"][0]
    return {
        "fps": float(np.percentile(phase["repetition_fps"], 10)),
        "frame_ms_p90": float(np.percentile(phase["ms_total"], 90)),
        "setup_s": statistics.median(result["setup_samples"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def with_units(values: dict, kind: str) -> dict:
    """``values`` in the result's format, with the units BENCHMARK.json declares."""
    declared = json.loads((CHECKOUT / "BENCHMARK.json").read_text())[kind]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        raise RuntimeError(f"measured {sorted(values)} but BENCHMARK.json declares {sorted(units)}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def report(result: dict, args, reasons: list) -> dict:
    """Print the human-readable lines; return the JSON result."""
    phases = result["phases"]
    attempted = sum(p["frames"] for p in phases)
    failed = sum(p["outcomes"].get("wrong", 0) for p in phases)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for p in phases:
        print(f"  {'traced' if p['traced'] else 'untraced'} loop: {p['frames']} frames in "
              f"{p['loop_s']:.2f} s ({p['repetitions']} repetitions), "
              f"{p['ms_per_frame']:.3f} ms/frame, ms_total coverage {p['coverage']:.4f}, "
              f"outcomes {p['outcomes']}")
    print(f"  frame_fail_ratio   {failed / attempted:.6f} ratio ({failed} of {attempted})")
    if result["composite_err"] is not None:
        print(f"  composite_err      {result['composite_err']:.6f} 8-bit levels")
    print(f"  output_sha256      {', '.join(sorted({h for p in phases for h in p['sha256']}))}")
    if args.trace:
        metrics = with_units(result["per_layer"], "per_layer")
        print(f"  tracing overhead   {result['per_layer']['trace.overhead_ms']:.4f} ms/frame "
              f"(traced {phases[1]['ms_per_frame']:.3f} vs untraced "
              f"{phases[0]['ms_per_frame']:.3f})")
    else:
        metrics = with_units(end_to_end(result), "end_to_end")
        print(f"  samples            {len(phases[0]['ms_total'])} frames, "
              f"{phases[0]['repetitions']} repetitions, {len(result['setup_samples'])} set-ups")
        print(f"  frame_ms_p50       {statistics.median(phases[0]['ms_total']):.6g} ms "
              f"(printed, not gated)")
    for name, m in metrics.items():
        print(f"  {name:<24} {m['value']:.6g} {m['unit']}")
    for reason in reasons:
        print(f"  INCORRECT: {reason}")
    return {"correct": not reasons, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        result = run(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    reasons = check(result, args)
    try:
        line = json.dumps(report(result, args, reasons))
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
