import hashlib
import logging
import re
import subprocess
import sys

import pytest

from emr import synthetic, tunnel
from emr.config import parse_config
from emr.pipeline import FrameMetrics, METRICS_COLUMNS, emit_metrics, run_pipeline

BASE_CFG = """\
[io]
frames_dir = data
background = data/scene.ppm
out_dir = out
metrics = metrics.csv

[run]
seed = 11
"""


def workspace(tmp_path, frames=12, extra=""):
    synthetic.generate(tmp_path / "data", frames=frames, seed=3)
    cfg_path = tmp_path / "pipeline.cfg"
    cfg_path.write_text(BASE_CFG + extra)
    return cfg_path


def load(cfg_path):
    return parse_config(cfg_path.read_text(), base_dir=cfg_path.parent)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "emr", *args], capture_output=True, text=True
    )


A7_EXTRA = """\
[encoding]
policy = balance

[channel]
loss_prob = 0.02

[store]
enroll_user = subject
enroll_frame = 20
"""

# sha256 of the A7-config composites (name and bytes, in name order) and the
# metrics CSV without its ms_total column, over 30 synthetic frames
A7_OUTPUT_SHA256 = "d1168d0bce920db1b99b87a508c81a2f0d95c041e097101c74b13fba1b02410f"


# the call that ends each stage of a frame, in stage order.  Identification
# ends in no call of its own; the fusion layer is built right after it, so
# building the layer marks it
STAGE_ENDS = {
    "reencode": "encode", "encode_envelope": "encrypt", "transmit": "transmit",
    "decode_pnm": "decrypt", "mask_postprocess": "layer", "fuzzy_update": "matte",
    "RvoLayer": "identify", "compose": "fuse", "save_pnm": "write",
}


@pytest.fixture
def stages(monkeypatch):
    """frame index -> the stages run_pipeline finished for that frame, in order.

    A frame starts at its load_pnm call, the one that passes ``index=`` (the
    background's does not); a stage is finished when the call ending it returns.
    """
    import emr.pipeline

    finished = {}
    frame = []  # the stages of the frame being run
    load = emr.pipeline.load_pnm

    def load_frame(path, **kwargs):
        nonlocal frame
        if "index" in kwargs:
            frame = finished[kwargs["index"]] = []
        return load(path, **kwargs)

    def ending(fn, stage):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            frame.append(stage)
            return out
        return call

    monkeypatch.setattr(emr.pipeline, "load_pnm", load_frame)
    for name, stage in STAGE_ENDS.items():
        monkeypatch.setattr(emr.pipeline, name, ending(getattr(emr.pipeline, name), stage))
    return finished


def output_sha256(out_dir, metrics_text):
    digest = hashlib.sha256()
    for path in sorted(out_dir.glob("out_*.ppm")):
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
    lines = metrics_text.splitlines()
    drop = lines[0].split(",").index("ms_total")
    for line in lines:
        fields = line.split(",")
        digest.update((",".join(fields[:drop] + fields[drop + 1:]) + "\n").encode())
    return digest.hexdigest()


class TestEmitMetrics:
    def test_empty_records_is_header_only(self):
        assert emit_metrics([]) == ",".join(METRICS_COLUMNS) + "\n"

    def test_one_record_two_lines(self):
        text = emit_metrics([FrameMetrics(frame=0, level="hq", mos=3.5, latency=0.02)])
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("0,hq,3.500000,0.020000,")

    def test_byte_deterministic(self):
        records = [FrameMetrics(frame=i, mos=i / 7) for i in range(5)]
        assert emit_metrics(records) == emit_metrics(records)


class TestRunPipeline:
    def test_processes_every_frame(self, tmp_path, caplog):
        cfg = load(workspace(tmp_path))
        with caplog.at_level(logging.INFO, logger="emr.pipeline"):
            result = run_pipeline(cfg)
        assert len(result.records) == 12
        assert result.outputs_written == 12  # lossless default channel
        assert (tmp_path / "out" / "out_000000.ppm").exists()
        assert (tmp_path / "metrics.csv").read_text() == result.metrics_text
        views = [r.getMessage() for r in caplog.records if "active view" in r.getMessage()]
        assert views == ["active view: front (0.0 deg)"]

    def test_frame_names_need_ascii_digits(self, tmp_path):
        cfg = load(workspace(tmp_path, frames=3))
        data = tmp_path / "data"
        (data / "frame_\uff10\uff10\uff10\uff10\uff10\uff10.ppm").write_bytes(
            (data / "frame_000000.ppm").read_bytes()
        )
        result = run_pipeline(cfg)
        assert [r.frame for r in result.records] == [0, 1, 2]
        assert result.outputs_written == 3

    def test_no_frames_is_a_clean_run(self, tmp_path):
        from emr.raster import save_pnm

        (tmp_path / "data").mkdir()
        save_pnm(synthetic.make_scene(), tmp_path / "data" / "scene.ppm")
        cfg_path = tmp_path / "pipeline.cfg"
        cfg_path.write_text(BASE_CFG)
        result = run_pipeline(load(cfg_path))
        assert result.records == []
        assert result.metrics_text == ",".join(METRICS_COLUMNS) + "\n"

    def test_full_loss_drops_everything(self, tmp_path):
        cfg = load(workspace(tmp_path, frames=6, extra="[channel]\nloss_prob = 1.0\n"))
        result = run_pipeline(cfg)
        assert result.outputs_written == 0
        assert all(r.drop == 1 for r in result.records)
        assert not list((tmp_path / "out").glob("*.ppm"))

    def test_alarmed_frames_stop_at_verification(self, tmp_path, stages):
        cfg = load(workspace(tmp_path, frames=6))
        result = run_pipeline(cfg, adversary_mode="impersonate")
        assert result.outputs_written == 0
        assert all(r.unauth == 1 for r in result.records if not r.drop)
        assert sorted(stages) == list(range(6))
        for trace in stages.values():
            assert "transmit" in trace
            assert "layer" not in trace and "fuse" not in trace and "write" not in trace

    def test_tamper_alarms_counted(self, tmp_path):
        cfg = load(workspace(tmp_path, frames=6))
        result = run_pipeline(cfg, adversary_mode="tamper")
        assert sum(r.tamper for r in result.records) == 6

    def test_stage_order_in_traces(self, tmp_path, stages):
        cfg = load(workspace(tmp_path, frames=3))
        run_pipeline(cfg)
        expected = ["encode", "encrypt", "transmit", "decrypt", "layer",
                    "matte", "identify", "fuse", "write"]
        assert stages == {k: expected for k in range(3)}

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg_path = workspace(tmp_path, frames=8, extra="[channel]\nloss_prob = 0.05\n")
        first = run_pipeline(load(cfg_path))
        images_first = {
            p.name: p.read_bytes() for p in (tmp_path / "out").glob("*.ppm")
        }
        second = run_pipeline(load(cfg_path))
        images_second = {
            p.name: p.read_bytes() for p in (tmp_path / "out").glob("*.ppm")
        }
        assert first.metrics_text == second.metrics_text
        assert images_first == images_second

    def test_outputs_do_not_depend_on_the_keystream(self, tmp_path, monkeypatch):
        # composites and metrics depend on the plaintext alone, so a change of
        # keystream format moves no output byte: run with every chaos seed x
        # replaced by 1 - x.  f(1 - x) = f(x), so a lane's orbit alone would
        # not change, but the mirrored base state changes every envelope's
        # seed material and so its keystream
        cfg_path = workspace(tmp_path, frames=6)

        def ciphertext():
            priv_a, _ = tunnel.keypair_gen(1)
            _, pub_b = tunnel.keypair_gen(2)
            session = tunnel.handshake(priv_a, pub_b, {tunnel.fingerprint(pub_b)})
            return tunnel.encrypt_envelope(session, bytes(64)).ciphertext

        def outputs():
            result = run_pipeline(load(cfg_path))
            composites = {p.name: p.read_bytes() for p in (tmp_path / "out").glob("out_*.ppm")}
            return result.metrics_text, composites

        as_is, as_is_ciphertext = outputs(), ciphertext()
        assert len(as_is[1]) == 6
        lane_seeds, calls = tunnel._lane_seeds, []

        def mirrored(material, lanes):
            calls.append(lanes)
            return 1.0 - lane_seeds(material, lanes)
        monkeypatch.setattr(tunnel, "_lane_seeds", mirrored)
        assert ciphertext() != as_is_ciphertext
        assert outputs() == as_is
        assert len(calls) > 6  # the handshake's and every envelope's seeds

    def test_a7_outputs_pinned(self, tmp_path):
        # any change to keying, matting, fusion or the tunnel that moves a
        # single output byte or metric changes this digest
        cfg = load(workspace(tmp_path, frames=30, extra=A7_EXTRA))
        result = run_pipeline(cfg, timings=True)
        assert result.outputs_written >= 25
        assert output_sha256(tmp_path / "out", result.metrics_text) == A7_OUTPUT_SHA256

    def test_failed_metrics_write_keeps_previous_file(self, tmp_path, monkeypatch):
        from test_store import fail_writes_midway

        cfg = load(workspace(tmp_path, frames=3))
        first = run_pipeline(cfg).metrics_text
        cfg = load(workspace(tmp_path, frames=4))
        fail_writes_midway(monkeypatch)
        with pytest.raises(OSError):
            run_pipeline(cfg)
        assert (tmp_path / "metrics.csv").read_text() == first
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "data", "metrics.csv", "out", "pipeline.cfg",
        ]

    def test_enrollment_identifies_later_frames(self, tmp_path, caplog):
        extra = "[store]\nenroll_user = subject\nenroll_frame = 4\n"
        cfg = load(workspace(tmp_path, frames=10, extra=extra))
        with caplog.at_level(logging.INFO, logger="emr.pipeline"):
            result = run_pipeline(cfg)
        # enrolled once, at enroll_frame, and no frame before it is known
        enrolled = [r.getMessage() for r in caplog.records if "enrolled" in r.getMessage()]
        assert enrolled == ["frame 000004: enrolled subject"]
        assert [r.identity for r in result.records[:4]] == ["UNKNOWN"] * 4
        tail = [r.identity for r in result.records[5:]]
        assert "subject" in tail

    def test_store_persists_across_runs(self, tmp_path):
        store = "[store]\ndir = store\n"
        cfg = load(workspace(tmp_path, frames=10,
                             extra=store + "enroll_user = subject\nenroll_frame = 4\n"))
        first = run_pipeline(cfg)
        assert [r.identity for r in first.records[:4]] == ["UNKNOWN"] * 4
        assert "subject" in [r.identity for r in first.records[4:]]
        table = tmp_path / "store" / "identities.csv"
        assert sorted(p.name for p in table.parent.iterdir()) == ["identities.csv"]
        # the table holds one enrolment, of one sample
        saved = table.read_bytes()
        assert saved.startswith(b"subject,1,")
        assert len(saved.splitlines()) == 1

        # no enrolment this time: frames before 4 can only match the loaded
        # table, and the saved table is the loaded one
        (tmp_path / "pipeline.cfg").write_text(BASE_CFG + store)
        second = run_pipeline(load(tmp_path / "pipeline.cfg"))
        identified = [r.identity for r in second.records if r.identity != "UNKNOWN"]
        assert identified[0] == "subject"
        assert second.records[3].identity == "subject"
        assert table.read_bytes() == saved

    def test_failed_store_save_keeps_the_metrics(self, tmp_path):
        cfg = load(workspace(tmp_path, frames=3, extra="[store]\ndir = store\n"))
        # the file appears after the config check, so only the save can fail
        (tmp_path / "store").write_text("a file where the store directory should be\n")
        with pytest.raises(OSError):
            run_pipeline(cfg)
        metrics = (tmp_path / "metrics.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in metrics[1:]] == ["0", "1", "2"]

    def test_metrics_column_count_stable(self, tmp_path):
        cfg = load(workspace(tmp_path, frames=4))
        result = run_pipeline(cfg)
        for line in result.metrics_text.splitlines():
            assert line.count(",") == len(METRICS_COLUMNS) - 1

    def test_level_selected_once_per_geometry(self, tmp_path, monkeypatch):
        import emr.pipeline
        from emr.raster import Frame, load_pnm, save_pnm

        cfg_path = workspace(tmp_path, frames=6, extra="[encoding]\nlevels = med:2:8\n")
        data = tmp_path / "data"
        # frames 2 and 3 are 63x63, which no level with scale 2 divides;
        # frame 5 is 32x32, a second usable geometry
        for index, side in ((2, 63), (3, 63), (5, 32)):
            path = data / f"frame_{index:06d}.ppm"
            save_pnm(Frame.from_array(load_pnm(path).to_array()[:side, :side]), path)
        geometries = []
        select = emr.pipeline.select_encoding

        def counted(levels, geometry, *args):
            geometries.append(geometry)
            return select(levels, geometry, *args)

        monkeypatch.setattr(emr.pipeline, "select_encoding", counted)
        result = run_pipeline(load(cfg_path))
        # a failing geometry is tried again on each of its frames; a frame
        # after it with the earlier geometry reuses the earlier selection
        assert geometries == [(64, 64, 3), (63, 63, 3), (63, 63, 3), (32, 32, 3)]
        assert [r.level for r in result.records] == ["med", "med", "-", "-", "med", "med"]
        assert result.outputs_written == 4

    def test_flat_luma_subject_is_unknown_not_skipped(self, tmp_path):
        import numpy as np
        from emr.raster import Frame, save_pnm

        # the square's luma rounds to the gray scene's 100, so its template
        # region is flat although its RGB is not; the lossless level keeps
        # the pixels as drawn
        data = tmp_path / "data"
        data.mkdir()
        for i in range(8):
            img = np.full((64, 64, 3), 100, dtype=np.uint8)
            img[28:36, 10 + 4 * i:18 + 4 * i] = (160, 70, 100)
            save_pnm(Frame.from_array(img, index=i), data / f"frame_{i:06d}.ppm")
        save_pnm(Frame.from_array(np.full((64, 64, 3), 30, dtype=np.uint8)),
                 data / "scene.ppm")
        cfg_path = tmp_path / "pipeline.cfg"
        cfg_path.write_text(BASE_CFG + "[encoding]\nlevels = high:1:1\n")
        result = run_pipeline(load(cfg_path))
        assert all(r.fg_pixels >= 64 for r in result.records[1:])
        assert [r.identity for r in result.records] == ["UNKNOWN"] * 8
        assert result.outputs_written == 8

    def test_subject_too_thin_for_a_core_is_fused_by_its_mask(self, tmp_path, monkeypatch):
        import numpy as np
        import emr.pipeline
        from emr.errors import InsufficientLabels
        from emr.raster import Frame, load_pnm, save_pnm

        # a 3 px bar survives the 3x3 opening, but r_fg = 2 erodes it to no
        # FG label, so alpha_solve raises and the binary mask is the matte
        data = tmp_path / "data"
        data.mkdir()
        bar = (slice(30, 33), slice(12, 53))
        for i in range(3):
            img = np.full((64, 64, 3), 100, dtype=np.uint8)
            if i:
                img[bar] = (200, 40, 60)
            save_pnm(Frame.from_array(img, index=i), data / f"frame_{i:06d}.ppm")
        scene = np.random.RandomState(5).randint(0, 256, (64, 64, 3), dtype=np.uint8)
        save_pnm(Frame.from_array(scene), data / "scene.ppm")
        raised = []
        solve = emr.pipeline.alpha_solve

        def recording_solve(received, *args):
            try:
                return solve(received, *args)
            except InsufficientLabels:
                raised.append(received.index)
                raise

        monkeypatch.setattr(emr.pipeline, "alpha_solve", recording_solve)
        cfg_path = tmp_path / "pipeline.cfg"
        cfg_path.write_text(BASE_CFG + "[encoding]\nlevels = high:1:1\n")
        result = run_pipeline(load(cfg_path))
        assert raised == [1, 2]
        assert [r.fg_pixels for r in result.records] == [0, 3 * 41, 3 * 41]
        assert result.outputs_written == 3
        pasted = scene.copy()
        pasted[bar] = (200, 40, 60)
        for i in (1, 2):
            assert np.array_equal(load_pnm(tmp_path / "out" / f"out_{i:06d}.ppm").data, pasted)

    def test_metrics_agree_with_selection_oracle(self, tmp_path):
        from test_qoeqos import oracle_select

        from emr.qoeqos import level_bits, score

        cfg = load(workspace(tmp_path, frames=5))
        result = run_pipeline(cfg)
        # frames are 64x64x3; recompute the expected choice independently
        lvl, degraded = oracle_select(cfg.encoding.levels, (64, 64, 3), cfg.channel, cfg.encoding)
        s = score(level_bits(lvl, 64, 64, 3), cfg.channel, cfg.encoding)
        for r in result.records:
            assert r.level == lvl.id
            assert r.mos == s.mos and r.latency == s.latency
            assert r.degraded == degraded


    @pytest.mark.parametrize("policy, columns", [
        ("qos", "high,3.500414,0.993040,0"),
        ("qoe", "med,1.689933,0.163600,0"),
        ("balance", "low,1.121673,0.033040,0"),
    ])
    def test_each_policy_picks_its_level_on_a_slow_link(self, tmp_path, policy, columns):
        # at 1e5 bit/s the three policies part: qos takes the one level over
        # the mos floor, qoe the richest level under the latency bound, and
        # balance, weighing both, the fastest
        extra = f"[encoding]\npolicy = {policy}\n[channel]\ncapacity = 1e5\n"
        result = run_pipeline(load(workspace(tmp_path, frames=6, extra=extra)))
        rows = result.metrics_text.splitlines()
        assert rows[0].split(",")[1:5] == ["level", "mos", "latency", "degraded"]
        assert [",".join(row.split(",")[1:5]) for row in rows[1:]] == [columns] * 6
        assert result.outputs_written == 6
        assert len(list((tmp_path / "out").glob("out_*.ppm"))) == 6


class TestCaptureGeometry:
    """A layer keyed at a downsampled level is fused where the capture had it."""

    SIDE = 40  # px of the subject square at 320x240

    def sequence(self, data, frames=8):
        """The synthetic recipe at 320x240: a clean plate, then the square 5 px further each frame.

        Returns the square's (y, x) corner per frame; frame 0 has none.
        """
        import numpy as np
        from emr.raster import Frame, round_u8, save_pnm

        data.mkdir()
        rng = np.random.Generator(np.random.PCG64(3))
        rows = np.repeat(np.linspace(90.0, 150.0, 240)[:, None], 320, axis=1)
        base = np.stack([rows, rows + 5.0, rows + 10.0], axis=2)
        corners = [None]
        for i in range(frames):
            img = base.copy()
            if i > 0:
                corners.append((100, 5 * (i - 1)))
                img[100:100 + self.SIDE, 5 * (i - 1):5 * (i - 1) + self.SIDE] = (230, 90, 40)
            img += rng.normal(0.0, 2.0, img.shape)
            save_pnm(Frame.from_array(round_u8(np.clip(img, 0.0, 255.0)), index=i),
                     data / f"frame_{i:06d}.ppm")
        cols = np.repeat(np.linspace(40.0, 200.0, 320)[None, :], 240, axis=0)
        scene = np.stack([cols, np.full_like(cols, 80.0), 200.0 - cols * 0.5], axis=2)
        save_pnm(Frame.from_array(round_u8(scene)), data / "scene.ppm")
        return corners

    def run(self, tmp_path, levels):
        out = tmp_path / levels.replace(":", "_")
        cfg_path = tmp_path / f"{out.name}.cfg"
        cfg_path.write_text(
            f"[io]\nframes_dir = data\nbackground = data/scene.ppm\nout_dir = {out.name}\n"
            f"metrics = {out.name}.csv\n[encoding]\nlevels = {levels}\npolicy = qoe\n"
            "[run]\nseed = 3\n"
        )
        result = run_pipeline(load(cfg_path))
        assert {r.level for r in result.records} == {levels.split(":")[0]}
        return out

    def test_low_level_lands_on_the_high_level_footprint(self, tmp_path):
        import numpy as np
        from emr.raster import load_pnm

        corners = self.sequence(tmp_path / "data")
        scene = load_pnm(tmp_path / "data" / "scene.ppm").to_array().astype(np.int16)
        high = self.run(tmp_path, "high:1:1")
        low = self.run(tmp_path, "low:4:32")

        def footprint(out, i):
            # the pixels the layer moves by more than two quantisation steps;
            # the square differs from the scene by at least 150 levels
            composite = load_pnm(out / f"out_{i:06d}.ppm").to_array().astype(np.int16)
            ys, xs = np.nonzero(np.abs(composite - scene).max(axis=2) > 64)
            return np.array([ys.min(), ys.max(), xs.min(), xs.max()])

        def error(out, i):
            # mean error against the scene with the square pasted where it was
            y, x = corners[i]
            truth = scene.copy()
            source = load_pnm(tmp_path / "data" / f"frame_{i:06d}.ppm").to_array()
            truth[y:y + self.SIDE, x:x + self.SIDE] = source[y:y + self.SIDE, x:x + self.SIDE]
            composite = load_pnm(out / f"out_{i:06d}.ppm").to_array().astype(np.int16)
            return np.abs(composite - truth).mean()

        for i in range(1, 8):
            # within one 4 px block of the low level on every side
            assert np.abs(footprint(low, i) - footprint(high, i)).max() <= 4, i
            assert error(high, i) < 0.15
            # fused at the received 80x60 geometry the error read 2.2 to 2.4:
            # the subject landed at a quarter of its place and size
            assert error(low, i) < 1.1, i


class TestFrameOutcomes:
    """Each way a frame can end short of a composite, one test apiece."""

    def gray_frame_workspace(self, tmp_path):
        from emr.raster import load_pnm, save_pnm, to_grayscale

        cfg_path = workspace(tmp_path, frames=6)
        path = tmp_path / "data" / "frame_000004.ppm"
        save_pnm(to_grayscale(load_pnm(path)), path)  # a P5 frame among P6 ones
        return cfg_path

    def resized_workspace(self, tmp_path, frames, first):
        # frames `first` onwards are a colour 32x32 crop, to the end of the run
        from emr.raster import Frame, load_pnm, save_pnm

        cfg_path = workspace(tmp_path, frames=frames)
        for k in range(first, frames):
            path = tmp_path / "data" / f"frame_{k:06d}.ppm"
            save_pnm(Frame.from_array(load_pnm(path).data[16:48, 16:48]), path)
        return cfg_path

    def written(self, tmp_path):
        return sorted(int(p.stem[4:]) for p in (tmp_path / "out").glob("out_*.ppm"))

    def test_unreadable_frame(self, tmp_path, caplog, stages):
        cfg_path = workspace(tmp_path, frames=5)
        path = tmp_path / "data" / "frame_000002.ppm"
        path.write_bytes(path.read_bytes()[:-1])
        with caplog.at_level(logging.WARNING, logger="emr.pipeline"):
            result = run_pipeline(load(cfg_path), timings=True)
        rec = result.records[2]
        assert (rec.frame, rec.level, rec.drop, rec.identity) == (2, "-", 0, "-")
        assert rec.ms_total > 0
        assert stages[2] == []
        assert self.written(tmp_path) == [0, 1, 3, 4]
        assert "frame 000002 stopped: MalformedImage: payload has" in caplog.text

    def test_module_error(self, tmp_path, caplog, stages):
        # a gray frame cannot blend into the colour scene, so it stops before keying
        with caplog.at_level(logging.WARNING, logger="emr.pipeline"):
            result = run_pipeline(load(self.gray_frame_workspace(tmp_path)))
        assert [r.level for r in result.records] == ["high"] * 6
        assert stages[4][-1] == "decrypt"
        assert (result.records[4].fg_pixels, result.records[4].identity) == (0, "-")
        assert self.written(tmp_path) == [0, 1, 2, 3, 5]
        assert "frame 000004 stopped: DimensionMismatch: " in caplog.text

    def test_failed_composite_write_leaves_no_file(self, tmp_path, monkeypatch, caplog, stages):
        from test_store import fail_writes_midway

        cfg = load(workspace(tmp_path, frames=4))
        fail_writes_midway(monkeypatch, "out_000002.ppm")
        with caplog.at_level(logging.WARNING, logger="emr.pipeline"):
            result = run_pipeline(cfg)
        assert stages[2][-1] == "fuse"
        assert result.outputs_written == 3
        # neither the truncated composite nor the temporary file is left
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "out_000000.ppm", "out_000001.ppm", "out_000003.ppm",
        ]
        assert "frame 000002 stopped: OSError: no space left on device" in caplog.text

    def test_model_reset_logged(self, tmp_path, caplog):
        with caplog.at_level(logging.INFO, logger="emr.pipeline"):
            run_pipeline(load(self.resized_workspace(tmp_path, frames=6, first=4)))
        resets = [r.getMessage() for r in caplog.records if "model reset" in r.getMessage()]
        assert resets == ["frame 000004: dimensions changed, model reset"]
        assert self.written(tmp_path) == [0, 1, 2, 3, 4, 5]

    def test_replay_never_writes_another_frames_composite(self, tmp_path):
        # the adversary forwards each envelope one frame late; no late envelope
        # may be fused as a later frame
        clean, replay = tmp_path / "clean", tmp_path / "replay"
        run_pipeline(load(workspace(clean, frames=8)))
        run_pipeline(load(workspace(replay, frames=8)), adversary_mode="replay")
        composites = {p.name: p.read_bytes() for p in (clean / "out").glob("out_*.ppm")}
        assert len(composites) == 8
        for path in (replay / "out").glob("out_*.ppm"):
            # its own frame's clean composite (the first frames' coincide), or none
            data = path.read_bytes()
            assert data == composites[path.name] or data not in composites.values()

    def test_other_geometry_leaves_the_colour_model_alone(self, tmp_path):
        # keying and identity of the colour frames do not see the gray frame
        from emr.raster import load_pnm, save_pnm, to_grayscale

        extra = "[store]\nenroll_user = subject\n"
        runs = []
        for name, gray in (("plain", False), ("gray", True)):
            cfg_path = workspace(tmp_path / name, frames=10, extra=extra)
            path = tmp_path / name / "data" / "frame_000005.ppm"
            if gray:
                save_pnm(to_grayscale(load_pnm(path)), path)
            else:
                path.unlink()
            records = run_pipeline(load(cfg_path)).records
            runs.append({r.frame: (r.fg_pixels, r.identity) for r in records if r.frame != 5})
        assert runs[1] == runs[0]
        for k in (6, 7, 8, 9):  # keyed, and known
            assert runs[0][k][0] > 0 and runs[0][k][1] == "subject"

    def test_replay_alarm(self, tmp_path, caplog, stages):
        # the adversary forwards each envelope one frame late: every frame after
        # the first receives the envelope of the slot before its own
        with caplog.at_level(logging.WARNING, logger="emr.pipeline"):
            result = run_pipeline(load(workspace(tmp_path, frames=4)), adversary_mode="replay")
        assert [r.replay for r in result.records] == [0, 1, 1, 1]
        assert all(stages[k] == ["encode", "encrypt", "transmit"] for k in (1, 2, 3))
        assert self.written(tmp_path) == [0]
        assert "frame 000001 alarm: ReplayAlarm: seq 1 where 2 is expected" in caplog.text

    def test_malformed_wire_is_contained(self, tmp_path, monkeypatch):
        # an adversary that flips the top bit of frame 1's length field: the
        # wire fails its digest, that frame alone is tamper and the run goes on
        import emr.pipeline

        seen = []

        def flip_length_bit(adversary, wire):
            seen.append(wire)
            if len(seen) == 2:
                return wire[:40] + bytes([wire[40] ^ 0x80]) + wire[41:]
            return wire
        monkeypatch.setattr(emr.pipeline, "interpose", flip_length_bit)
        result = run_pipeline(load(workspace(tmp_path, frames=4)), adversary_mode="tamper")
        assert [(r.frame, r.tamper) for r in result.records] == [(0, 0), (1, 1), (2, 0), (3, 0)]
        assert self.written(tmp_path) == [0, 2, 3]
        assert (tmp_path / "metrics.csv").read_text() == result.metrics_text

    @pytest.mark.parametrize("mode", ["tamper", "replay", "impersonate"])
    def test_out_dir_holds_this_runs_composites_only(self, tmp_path, mode, stages):
        # after a clean run, a run under an adversary must not leave the clean
        # run's composites standing for the frames it quarantined
        cfg_path = workspace(tmp_path, frames=4)
        run_pipeline(load(cfg_path))
        assert self.written(tmp_path) == [0, 1, 2, 3]
        result = run_pipeline(load(cfg_path), adversary_mode=mode)
        wrote = [k for k, trace in stages.items() if trace[-1:] == ["write"]]
        assert self.written(tmp_path) == wrote
        assert wrote == [r.frame for r in result.records if not (r.tamper or r.replay or r.unauth)]
        assert len(wrote) == result.outputs_written < 4

    def test_clearing_removes_composites_alone(self, tmp_path):
        cfg_path = workspace(tmp_path, frames=2)
        run_pipeline(load(cfg_path))
        out = tmp_path / "out"
        others = ["out_1.ppm", "out_000001.pgm", "notes_000001.ppm", "out_0000001.ppm"]
        for name in others:
            (out / name).write_text("")
        (out / "out_000009.ppm").mkdir()
        run_pipeline(load(cfg_path), adversary_mode="tamper")
        assert sorted(p.name for p in out.iterdir()) == sorted(others + ["out_000009.ppm"])

    def test_alarm_table_covers_every_alarm(self):
        from emr.errors import SecurityAlarm
        from emr.pipeline import _ALARM_COLUMNS

        assert set(_ALARM_COLUMNS) == set(SecurityAlarm.__subclasses__())
        columns = list(_ALARM_COLUMNS.values())
        assert len(set(columns)) == len(columns)
        assert set(columns) <= set(METRICS_COLUMNS)


class TestCli:
    def test_gen_validate_run_cycle(self, tmp_path):
        gen = run_cli("gen-synthetic", "--out", str(tmp_path / "data"),
                      "--frames", "5", "--seed", "2")
        assert gen.returncode == 0
        cfg_path = tmp_path / "pipeline.cfg"
        cfg_path.write_text(BASE_CFG)
        assert run_cli("validate-config", str(cfg_path)).returncode == 0
        run = run_cli("run", "--config", str(cfg_path))
        assert run.returncode == 0
        assert len(list((tmp_path / "out").glob("out_*.ppm"))) == 5

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--frames", "0"),
                                             ("--frames", "-3")])
    def test_gen_synthetic_bad_count_exits_one(self, tmp_path, flag, value):
        args = {"--frames": "2", "--seed": "0", flag: value}
        gen = run_cli("gen-synthetic", "--out", str(tmp_path / "data"),
                      *(part for item in args.items() for part in item))
        assert gen.returncode == 1
        assert f"{flag[2:]} must be >= " in gen.stderr
        assert not (tmp_path / "data").exists()

    def test_huge_fusion_scale_runs(self, tmp_path):
        cfg_path = workspace(tmp_path, frames=2, extra="[fusion]\nscale = 1e308\n")
        assert run_cli("validate-config", str(cfg_path)).returncode == 0
        assert run_cli("run", "--config", str(cfg_path)).returncode == 0
        assert len(list((tmp_path / "out").glob("out_*.ppm"))) == 2

    def test_bad_config_exits_one(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[gmm]\nalpha_lr = 7\n")
        assert run_cli("validate-config", str(cfg)).returncode == 1

    @pytest.mark.parametrize("extra, key", [
        ("[encoding]\nlevels = -:1:1\n", "encoding.levels"),
        ("[encoding]\nlevels = :1:1\n", "encoding.levels"),
        ("[store]\nenroll_user = UNKNOWN\n", "store.enroll_user"),
        ("[store]\nenroll_user = -\n", "store.enroll_user"),
    ])
    def test_placeholder_name_exits_one(self, tmp_path, extra, key):
        cfg_path = workspace(tmp_path, frames=1, extra=extra)
        validate = run_cli("validate-config", str(cfg_path))
        assert validate.returncode == 1
        assert f"invalid value for {key}:" in validate.stderr

    def test_legacy_shard_store_exits_one(self, tmp_path):
        cfg_path = workspace(tmp_path, frames=2, extra="[store]\ndir = store\n")
        (tmp_path / "store").mkdir()
        (tmp_path / "store" / "shard_000.csv").write_text("")
        run = run_cli("run", "--config", str(cfg_path))
        assert run.returncode == 1
        assert "identities.csv" in run.stderr
        assert not (tmp_path / "metrics.csv").exists()

    def test_metrics_path_naming_a_directory_exits_one(self, tmp_path):
        cfg_path = workspace(tmp_path, frames=3)
        (tmp_path / "metrics.csv").mkdir()
        assert run_cli("validate-config", str(cfg_path)).returncode == 1
        cfg_path.write_text(BASE_CFG.replace("metrics.csv", "m.csv"))
        assert run_cli("validate-config", str(cfg_path)).returncode == 0
        run = run_cli("run", "--config", str(cfg_path), "--metrics", str(tmp_path / "metrics.csv"))
        assert run.returncode == 1
        assert "io.metrics" in run.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edit, flags, key",
        [
            (("out_dir = out", "out_dir = afile"), (), "io.out_dir"),
            (("out_dir = out", "out_dir = dangling"), (), "io.out_dir"),
            (("metrics = metrics.csv", "metrics = afile/metrics.csv"), (), "io.metrics"),
            (("seed = 11", "seed = 11\n[store]\ndir = afile/store"), (), "store.dir"),
            ((), ("--out", "afile"), "io.out_dir"),
        ],
        ids=["out_dir", "out_dir_dangling_link", "metrics", "store_dir", "out_flag"],
    )
    def test_uncreatable_output_path_exits_one(self, tmp_path, edit, flags, key):
        # an output path under (or at) a regular file or a dangling link cannot
        # be created; the run must refuse it before the first frame, not later
        cfg_path = workspace(tmp_path, frames=3)
        (tmp_path / "afile").write_text("")
        (tmp_path / "dangling").symlink_to(tmp_path / "nowhere" / "x")
        if edit:
            cfg_path.write_text(BASE_CFG.replace(*edit))
            validate = run_cli("validate-config", str(cfg_path))
            assert validate.returncode == 1
            assert f"invalid value for {key}:" in validate.stderr
        flags = tuple(str(tmp_path / f) if f == "afile" else f for f in flags)
        run = run_cli("run", "--config", str(cfg_path), *flags)
        assert run.returncode == 1
        assert f"invalid value for {key}:" in run.stderr
        assert not list(tmp_path.rglob("out_*.ppm"))
        assert not (tmp_path / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "metrics, flag",
        [
            ("data/scene.ppm", False),
            ("data/frame_000001.ppm", False),
            ("out/../data/frame_000007.ppm", False),  # not yet there: the next run would read it
            ("scene_link.ppm", False),
            ("data/scene.ppm", True),
        ],
        ids=["background", "frame", "future_frame", "link_to_background", "metrics_flag"],
    )
    def test_metrics_path_naming_an_input_exits_one(self, tmp_path, metrics, flag):
        # a metrics file written over an input breaks the next run
        cfg_path = workspace(tmp_path, frames=3)
        (tmp_path / "scene_link.ppm").symlink_to(tmp_path / "data" / "scene.ppm")
        inputs = {p: p.read_bytes() for p in (tmp_path / "data").iterdir()}
        if flag:
            run = run_cli("run", "--config", str(cfg_path), "--metrics", str(tmp_path / metrics))
        else:
            cfg_path.write_text(BASE_CFG.replace("metrics.csv", metrics))
            validate = run_cli("validate-config", str(cfg_path))
            assert validate.returncode == 1
            assert "invalid value for io.metrics:" in validate.stderr
            run = run_cli("run", "--config", str(cfg_path))
        assert run.returncode == 1
        assert "invalid value for io.metrics:" in run.stderr
        assert {p: p.read_bytes() for p in (tmp_path / "data").iterdir()} == inputs
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag, value, full, text",
        [("--seed", "77", ("run", "seed"), "77"),
         ("--policy", "qos", ("encoding", "policy"), "qos"),
         ("--out", "rel/out", ("io", "out_dir"), "{cwd}/rel/out"),
         ("--metrics", "rel/m.csv", ("io", "metrics"), "{cwd}/rel/m.csv")],
        ids=["seed", "policy", "out", "metrics"],
    )
    def test_flag_is_the_config_entry(self, tmp_path, monkeypatch, flag, value, full, text):
        # a flag yields the config its entry gives, in the file or as an
        # override; a path flag is relative to the working directory
        from emr import cli

        cfg_path = workspace(tmp_path, frames=1, extra="[encoding]\npolicy = qoe\n")
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        text = text.format(cwd=tmp_path / "cwd")
        args = cli._build_parser().parse_args(["run", "--config", str(cfg_path), flag, value])
        config, status = cli._load_config(str(cfg_path), args)
        assert status == 0
        entry = re.compile(rf"^{full[1]} = .*$", flags=re.M)
        edited = entry.sub(f"{full[1]} = {text}", cfg_path.read_text())
        assert config == parse_config(edited, base_dir=tmp_path)
        assert config == parse_config(cfg_path.read_text(), base_dir=tmp_path,
                                      overrides={full: text})
        assert config.warnings == ()

    @pytest.mark.parametrize(
        "flag, value, key",
        [("--seed", "x", "run.seed"), ("--seed", "1.5", "run.seed"), ("--seed", "-1", "run.seed"),
         ("--policy", "fastest", "encoding.policy")],
    )
    def test_bad_flag_value_exits_one(self, tmp_path, flag, value, key):
        # a flag is checked by the parser that checks the file's entry
        cfg_path = workspace(tmp_path, frames=1)
        run = run_cli("run", "--config", str(cfg_path), flag, value)
        assert run.returncode == 1
        assert f"invalid value for {key}:" in run.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", [False, True], ids=["entry", "metrics_flag"])
    def test_metrics_path_naming_the_config_exits_one(self, tmp_path, flag):
        # a metrics file written over the config breaks every later run
        cfg_path = workspace(tmp_path, frames=3)
        if flag:
            run = run_cli("run", "--config", str(cfg_path), "--metrics", str(cfg_path))
        else:
            cfg_path.write_text(BASE_CFG.replace("metrics.csv", "pipeline.cfg"))
            validate = run_cli("validate-config", str(cfg_path))
            assert validate.returncode == 1
            assert "invalid value for io.metrics:" in validate.stderr
            run = run_cli("run", "--config", str(cfg_path))
        before = cfg_path.read_bytes()
        assert run.returncode == 1
        assert "invalid value for io.metrics:" in run.stderr
        assert cfg_path.read_bytes() == before
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "metrics, extra, flag",
        [
            ("out/out_000000.ppm", "", False),
            ("composite_link.csv", "", False),
            ("out", "", False),  # not yet there, nor is out_dir
            ("st/identities.csv", "[store]\ndir = st\n", False),
            ("st", "[store]\ndir = st\n", False),
            ("out/out_000000.ppm", "", True),
        ],
        ids=["composite", "link_to_composite", "out_dir", "identity_table", "store_dir",
             "metrics_flag"],
    )
    def test_metrics_path_naming_another_output_exits_one(self, tmp_path, metrics, extra, flag):
        # the run would write a composite or the identity table over the
        # metrics, or fail to write the metrics after every frame
        cfg_path = workspace(tmp_path, frames=3, extra=extra)
        (tmp_path / "composite_link.csv").symlink_to(tmp_path / "out" / "out_000001.ppm")
        if flag:
            run = run_cli("run", "--config", str(cfg_path), "--metrics", str(tmp_path / metrics))
        else:
            cfg_path.write_text(BASE_CFG.replace("metrics.csv", metrics) + extra)
            validate = run_cli("validate-config", str(cfg_path))
            assert validate.returncode == 1
            assert "invalid value for io.metrics:" in validate.stderr
            run = run_cli("run", "--config", str(cfg_path))
        assert run.returncode == 1
        assert "invalid value for io.metrics:" in run.stderr
        assert not (tmp_path / "out").exists() and not (tmp_path / "st").exists()

    def test_policy_override_selects_the_policys_level(self, tmp_path):
        from dataclasses import replace

        from emr.qoeqos import Policy
        from test_qoeqos import oracle_select

        # with a mos floor of 1.5, qos takes med (the faster of high and med)
        # while the configured balance policy takes high
        cfg_path = workspace(tmp_path, frames=3, extra="[encoding]\nmos_min = 1.5\n")
        validate = run_cli("validate-config", str(cfg_path))
        assert validate.returncode == 0 and "policy balance" in validate.stderr
        run = run_cli("run", "--config", str(cfg_path), "--policy", "qos")
        assert run.returncode == 0
        cfg = load(cfg_path)
        want, degraded = oracle_select(
            cfg.encoding.levels, (64, 64, 3), cfg.channel, replace(cfg.encoding, policy=Policy.OPT_QOS)
        )
        configured, _ = oracle_select(cfg.encoding.levels, (64, 64, 3), cfg.channel, cfg.encoding)
        assert (want.id, degraded, configured.id) == ("med", False, "high")
        rows = [line.split(",") for line in (tmp_path / "metrics.csv").read_text().splitlines()]
        level, flag = rows[0].index("level"), rows[0].index("degraded")
        assert [(r[level], r[flag]) for r in rows[1:]] == [(want.id, "0")] * 3

    def test_unreadable_config_exits_two(self, tmp_path):
        assert run_cli("validate-config", str(tmp_path / "nope.cfg")).returncode == 2

    def test_seed_override_changes_nothing_but_seed(self, tmp_path):
        synthetic.generate(tmp_path / "data", frames=3, seed=1)
        cfg_path = tmp_path / "pipeline.cfg"
        cfg_path.write_text(BASE_CFG)
        r1 = run_cli("run", "--config", str(cfg_path), "--seed", "77",
                     "--metrics", str(tmp_path / "m1.csv"), "--out", str(tmp_path / "o1"))
        r2 = run_cli("run", "--config", str(cfg_path), "--seed", "77",
                     "--metrics", str(tmp_path / "m2.csv"), "--out", str(tmp_path / "o2"))
        assert r1.returncode == r2.returncode == 0
        assert (tmp_path / "m1.csv").read_bytes() == (tmp_path / "m2.csv").read_bytes()
