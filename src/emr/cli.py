"""Command-line entry points.

    emr run --config pipeline.cfg [--seed N] [--policy qoe|qos|balance]
            [--adversary tamper|replay|impersonate|none] [--out DIR]
            [--metrics PATH] [--timings] [-v]
    emr gen-synthetic --out DIR --frames N [--seed S]
    emr validate-config PATH

Exit codes: 0 success, 1 configuration error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import synthetic
from .config import parse_config
from .errors import ConfigError, EmrError
from .netsim import AdversaryMode
from .pipeline import run_pipeline
from .qoeqos import Policy

log = logging.getLogger("emr")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="emr", description="Staged mixed-reality fusion pipeline")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the pipeline over a frame directory")
    run.add_argument("--config", required=True, help="path to the pipeline config file")
    # a flag whose dest is "section.key" sets that config entry; a path is
    # made absolute, so it stays relative to the working directory
    run.add_argument("--seed", dest="run.seed", help="set [run] seed")
    run.add_argument("--policy", dest="encoding.policy", metavar="|".join(p.value for p in Policy),
                     help="set [encoding] policy")
    run.add_argument("--adversary", choices=[m.value for m in AdversaryMode] + ["none"],
                     default="none", help="interpose an adversarial node")
    run.add_argument("--out", dest="io.out_dir", type=lambda v: str(Path(v).absolute()),
                     help="set [io] out_dir")
    run.add_argument("--metrics", dest="io.metrics", type=lambda v: str(Path(v).absolute()),
                     help="set [io] metrics")
    run.add_argument("--timings", action="store_true",
                     help="record wall-clock ms in metrics (breaks byte-identical reruns)")

    gen = sub.add_parser("gen-synthetic", help="emit the synthetic moving-square sequence")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--frames", type=int, required=True, help="number of frames")
    gen.add_argument("--seed", type=int, default=0, help="noise seed")

    val = sub.add_parser("validate-config", help="parse and validate a config file")
    val.add_argument("path", help="config file to check")
    return parser


def _load_config(path_text: str, args):
    path = Path(path_text)
    try:
        text = path.read_text()
    except OSError as exc:
        log.error("cannot read config %s: %s", path, exc)
        return None, EXIT_IO
    overrides = {tuple(dest.split(".")): value for dest, value in vars(args).items()
                 if "." in dest and value is not None}
    try:
        config = parse_config(text, base_dir=path.parent, overrides=overrides, source=path)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return None, EXIT_CONFIG
    for warning in config.warnings:
        log.warning("%s", warning)
    return config, EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )

    if args.command == "gen-synthetic":
        try:
            written = synthetic.generate(args.out, args.frames, args.seed)
        except ValueError as exc:
            log.error("invalid argument: %s", exc)
            return EXIT_CONFIG
        except OSError as exc:
            log.error("cannot write synthetic data: %s", exc)
            return EXIT_IO
        log.info("wrote %d files to %s", len(written), args.out)
        return EXIT_OK

    if args.command == "validate-config":
        config, status = _load_config(args.path, args)
        if config is not None:
            log.info("config OK: %d levels, policy %s",
                     len(config.encoding.levels), config.encoding.policy.value)
        return status

    if args.command == "run":
        config, status = _load_config(args.config, args)
        if config is None:
            return status
        try:
            result = run_pipeline(config, adversary_mode=args.adversary, timings=args.timings)
        except OSError as exc:
            log.error("I/O failure: %s", exc)
            return EXIT_IO
        except (EmrError, ValueError) as exc:  # e.g. a corrupt persisted store
            log.error("pipeline setup failed: %s", exc)
            return EXIT_CONFIG
        drops = sum(r.drop for r in result.records)
        alarms = sum(r.tamper + r.replay + r.unauth for r in result.records)
        log.info(
            "%d frames: %d composites, %d drops, %d alarms; metrics at %s",
            len(result.records), result.outputs_written, drops, alarms, config.metrics_path,
        )
        return EXIT_OK

    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
