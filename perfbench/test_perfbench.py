"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from emr.pipeline import FrameMetrics, emit_metrics
from emr.raster import load_pnm
from checks import ALARM, DROP, OK, WRONG, classify, output_sha256
from tracing import per_layer, self_times
from workloads import WORKLOADS, generate, make_sequence


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_make_sequence_is_deterministic_under_a_seed(tmp_path):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        (tmp_path / name).mkdir()
        make_sequence(tmp_path / name, 48, 32, 16, 4, seed)
    a, b, c = (_files(tmp_path / n) for n in "abc")
    assert a == b
    assert a != c
    assert sorted(a) == sorted(c)


def test_make_sequence_masks_the_square_after_a_clean_plate(tmp_path):
    make_sequence(tmp_path, 48, 32, 16, 3, seed=1)
    assert not load_pnm(tmp_path / "gt_000000.pgm").to_array().any()
    for i, left in ((1, 0), (2, 2)):  # a 16 px square travels 2 px per frame
        gt = load_pnm(tmp_path / f"gt_{i:06d}.pgm").to_array()[:, :, 0] > 0
        frame = load_pnm(tmp_path / f"frame_{i:06d}.ppm").to_array()
        ys, xs = np.nonzero(gt)
        assert (xs.min(), xs.max(), ys.min(), ys.max()) == (left, left + 15, 8, 23)
        assert abs(frame[gt].astype(float).mean(axis=0) - (230, 90, 40)).max() < 2
    assert load_pnm(tmp_path / "scene.ppm").to_array().shape == (32, 48, 3)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generate_is_deterministic_under_a_seed(tmp_path, name):
    workload = replace(WORKLOADS[name], frames=3)
    if workload.width > 64:  # keep the test small: same generator, fewer pixels
        workload = replace(workload, width=80, height=48, square=16)
    for sub, seed in (("a", 3), ("b", 3), ("c", 4)):
        generate(workload, seed, tmp_path / sub)
    a, b, c = (_files(tmp_path / s / "inputs") for s in "abc")
    assert a == b
    assert a != c


def _span(name, start, end, parent=None):
    return [name, start, end, parent, None, None]


def test_self_times_subtract_children_once():
    spans = [
        _span("repetition", 0, 100),
        _span("frame", 10, 60, parent=0),
        _span("a", 12, 20, parent=1),
        _span("b", 18, 30, parent=1),      # overlaps a: 12..30 is covered once
        _span("c", 55, 70, parent=1),      # runs past the frame: clipped at 60
        _span("setup", 0, 5, parent=0),
    ]
    assert self_times(spans) == [100 - 50 - 5, 50 - 18 - 5, 8, 12, 15, 5]


def test_per_layer_normalises_by_attempted_frames():
    spans = [
        ["repetition", 0, 10_000_000, None, None, None],
        ["frame", 0, 4_000_000, 0, 0, None],
        ["matting.solve", 0, 2_000_000, 1, 0, {"iterations": 3, "converged": True}],
        ["frame", 4_000_000, 9_000_000, 0, 1, None],
        ["matting.solve", 4_000_000, 6_000_000, 3, 1, {"iterations": 5, "converged": False}],
        ["tunnel.decrypt_verify", 6_000_000, 7_000_000, 3, 1, {"outcome": "TamperAlarm"}],
        ["tunnel.handshake", 9_000_000, 9_500_000, 0, None, None],
    ]
    m = per_layer(spans, frames=2, overhead_ms=0.25)
    assert m["matting.solve_ms"] == pytest.approx(2.0)
    assert m["matting.solve_iters"] == pytest.approx(4.0)
    assert m["matting.converged_ratio"] == pytest.approx(0.5)
    assert m["tunnel.reject_ms"] == pytest.approx(0.5)
    assert m["tunnel.decrypt_ms"] == 0.0
    assert m["tunnel.accept_ratio"] == 0.0
    assert m["tunnel.handshake_ms"] == pytest.approx(0.5)
    assert m["pipeline.self_ms"] == pytest.approx((2.0 + 2.0) / 2)
    assert m["trace.overhead_ms"] == 0.25


def _ok(frame, level="high"):
    return FrameMetrics(frame=frame, level=level, identity="UNKNOWN")


def test_classify_clean_workload():
    records = [
        _ok(0),
        FrameMetrics(frame=1, level="high", drop=1),
        FrameMetrics(frame=2, level="high"),               # module error: no identity
        _ok(3),                                            # module error: no composite
        FrameMetrics(frame=4),                             # unreadable: no level
        _ok(5, level="low"),                               # wrong level
        FrameMetrics(frame=6, level="high", replay=1),     # unexpected alarm
        FrameMetrics(frame=7, level="high", drop=1),       # drop that wrote a composite
    ]
    composites = {0, 2, 5, 7}
    assert classify(records, composites, "high", "") == [
        OK, DROP, WRONG, WRONG, WRONG, WRONG, WRONG, WRONG,
    ]


def test_classify_tamper_workload():
    records = [
        FrameMetrics(frame=0, level="high", tamper=1),
        FrameMetrics(frame=1, level="high", drop=1),
        _ok(2),                                            # missed alarm
        FrameMetrics(frame=3, level="high", unauth=1),     # wrong alarm class
        FrameMetrics(frame=4, level="high", tamper=1),     # alarm, yet a composite
    ]
    assert classify(records, {2, 4}, "high", "tamper") == [ALARM, DROP, WRONG, WRONG, WRONG]


def test_output_sha256_ignores_only_ms_total(tmp_path):
    (tmp_path / "out_000000.ppm").write_bytes(b"P6\n1 1\n255\nabc")
    fast = [FrameMetrics(frame=0, level="high", identity="x", ms_total=1.5)]
    slow = [FrameMetrics(frame=0, level="high", identity="x", ms_total=9.0)]
    other = [FrameMetrics(frame=0, level="low", identity="x", ms_total=1.5)]
    base = output_sha256(tmp_path, emit_metrics(fast))
    assert output_sha256(tmp_path, emit_metrics(slow)) == base
    assert output_sha256(tmp_path, emit_metrics(other)) != base
    (tmp_path / "out_000000.ppm").write_bytes(b"P6\n1 1\n255\nabd")
    assert output_sha256(tmp_path, emit_metrics(fast)) != base
