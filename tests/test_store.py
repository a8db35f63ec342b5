import builtins
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emr.raster
import emr.store

from emr.raster import Frame, to_grayscale, write_atomic
from emr.store import (
    TEMPLATE_DIM,
    TEMPLATE_SIDE,
    IdentityTemplate,
    KnowledgeStore,
    StoreParams,
    extract_template,
)


class HalfWriter:
    """A file whose write stores half of the text, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError("no space left on device")


def fail_writes_midway(monkeypatch, name=""):
    """Make each file write of ``write_atomic`` whose path holds name fail half way."""
    def half_open(path, mode="r", *args, **kwargs):
        fh = builtins.open(path, mode, *args, **kwargs)
        return HalfWriter(fh) if "w" in mode and name in str(path) else fh

    monkeypatch.setattr(emr.raster, "open", half_open, raising=False)


def region(seed=0, side=20, channels=3):
    rng = np.random.RandomState(seed)
    shape = (side, side, channels) if channels == 3 else (side, side)
    return Frame.from_array(rng.randint(0, 200, shape, dtype=np.uint8))


@st.composite
def table_text(draw):
    """Text shaped like an identity table: comma-separated records of mixed validity."""
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        user = draw(st.sampled_from(["alice", "bob"]) | st.text(max_size=4))
        count = draw(st.integers(-1, 3).map(str) | st.text(max_size=3))
        value = draw(st.floats().map(repr) | st.text(max_size=3))
        dim = draw(st.sampled_from([TEMPLATE_DIM, TEMPLATE_DIM - 1, TEMPLATE_DIM + 1]))
        lines.append(",".join([user, count] + [value] * dim))
    return draw(st.sampled_from(["\n", "\r\n", "\n\n"])).join(lines)


def random_template(rng):
    v = rng.standard_normal(TEMPLATE_DIM)
    v -= v.mean()
    return v / np.linalg.norm(v)


def region_template(frame, box):
    """Reference template: grow each side of the box to TEMPLATE_SIDE, copy the
    region into a Frame, convert all of it to gray, then sample the 16x16 grid."""

    def grow(lo, hi, limit):
        if hi - lo >= TEMPLATE_SIDE:
            return lo, hi
        lo = max(0, lo - (TEMPLATE_SIDE - (hi - lo)) // 2)
        hi = min(limit, lo + TEMPLATE_SIDE)
        return max(0, hi - TEMPLATE_SIDE), hi

    y0, y1, x0, x1 = box
    y0, y1 = grow(y0, y1, frame.height)
    x0, x1 = grow(x0, x1, frame.width)
    if y1 - y0 < TEMPLATE_SIDE or x1 - x0 < TEMPLATE_SIDE:
        return None
    region = Frame.from_array(frame.data[y0:y1, x0:x1])
    gray = to_grayscale(region) if region.channels == 3 else region
    rows = (np.arange(TEMPLATE_SIDE) * gray.height) // TEMPLATE_SIDE
    cols = (np.arange(TEMPLATE_SIDE) * gray.width) // TEMPLATE_SIDE
    vec = gray.data[:, :, 0][rows[:, None], cols[None, :]].astype(np.float64).reshape(-1)
    vec = vec - vec.mean()
    norm = np.linalg.norm(vec)
    return None if norm == 0.0 else vec / norm


def spans(limit):
    """[lo, hi) inside [0, limit): any, one pixel, or touching either edge."""
    lo = st.integers(0, limit - 1)
    return st.one_of(
        lo.flatmap(lambda a: st.integers(a + 1, limit).map(lambda b: (a, b))),
        lo.map(lambda a: (a, a + 1)),
        st.integers(1, limit).map(lambda b: (0, b)),
        lo.map(lambda a: (a, limit)),
    )


@st.composite
def frames_and_boxes(draw):
    """A frame of sides 1-40 (16 often), 1 or 3 channels, and a box inside it.

    Its samples take 1, 2 or 256 values, so flat grids occur too.
    """
    side = st.sampled_from([TEMPLATE_SIDE]) | st.integers(1, 40)
    h, w, channels = draw(side), draw(side), draw(st.sampled_from([1, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([1, 2, 256]))
    frame = Frame(rng.integers(0, levels, (h, w, channels), dtype=np.uint8))
    return frame, (*draw(spans(h)), *draw(spans(w)))


class TestExtractTemplate:
    @given(frames_and_boxes())
    @settings(max_examples=400, deadline=None)
    def test_matches_region_reference(self, case):
        frame, box = case
        got, want = extract_template(frame, box), region_template(frame, box)
        if want is None:
            assert got is None
        else:
            assert got.tobytes() == want.tobytes()

    def test_deterministic(self):
        box = (5, 9, 5, 9)
        assert np.array_equal(extract_template(region(1), box), extract_template(region(1), box))

    def test_unit_norm_and_zero_mean(self):
        t = extract_template(region(2), (0, 20, 0, 20))
        assert np.linalg.norm(t) == pytest.approx(1.0, abs=1e-12)
        assert t.mean() == pytest.approx(0.0, abs=1e-12)

    def test_offset_invariance(self):
        base = np.random.RandomState(3).randint(50, 150, (16, 16), dtype=np.uint8)
        shifted = (base + 40).astype(np.uint8)  # stays within range: no clamping
        t0 = extract_template(Frame.from_array(base), (0, 16, 0, 16))
        t1 = extract_template(Frame.from_array(shifted), (0, 16, 0, 16))
        assert np.allclose(t0, t1, atol=1e-12)

    def test_constant_region_rejected(self):
        flat = Frame.from_array(np.full((16, 16), 77, dtype=np.uint8))
        assert extract_template(flat, (0, 16, 0, 16)) is None

    def test_small_region_rejected(self):
        frame = Frame.from_array(np.random.RandomState(5).randint(0, 200, (8, 16), dtype=np.uint8))
        assert extract_template(frame, (0, 8, 0, 16)) is None

    def test_color_regions_accepted(self):
        t = extract_template(region(4, channels=3), (0, 20, 0, 20))
        assert t.shape == (TEMPLATE_DIM,)

    @pytest.mark.parametrize("box", [
        (3, 3, 0, 20), (0, 20, 7, 6), (-1, 4, 0, 4), (0, 4, -1, 4), (0, 21, 0, 4), (0, 4, 0, 21),
    ])
    def test_box_empty_or_outside_frame_rejected(self, box):
        with pytest.raises(ValueError, match="box"):
            extract_template(region(6), box)


class TestEnroll:
    def test_first_enrollment_copies_template(self):
        store = KnowledgeStore()
        rng = np.random.RandomState(0)
        t = random_template(rng)
        store.enroll("alice", t)
        entry = store.templates["alice"]
        assert entry.sample_count == 1
        assert np.array_equal(entry.centroid, t)

    def test_two_enrollments_average(self):
        store = KnowledgeStore()
        rng = np.random.RandomState(1)
        t1, t2 = random_template(rng), random_template(rng)
        store.enroll("bob", t1)
        store.enroll("bob", t2)
        entry = store.templates["bob"]
        assert entry.sample_count == 2
        assert np.allclose(entry.centroid, (t1 + t2) / 2, atol=1e-12)

    def test_incremental_equals_batch_mean(self):
        store = KnowledgeStore()
        rng = np.random.RandomState(2)
        samples = [random_template(rng) for _ in range(100)]
        for s in samples:
            store.enroll("carol", s)
        batch = np.mean(samples, axis=0)
        centroid = store.templates["carol"].centroid
        assert np.linalg.norm(centroid - batch) / np.linalg.norm(batch) <= 1e-9

    def test_non_finite_template_rejected(self):
        store = KnowledgeStore()
        store.enroll("bob", random_template(np.random.RandomState(1)))
        bad = np.full(TEMPLATE_DIM, np.nan)
        with pytest.raises(ValueError):
            store.enroll("bob", bad)  # would turn the running mean into NaN
        with pytest.raises(ValueError):
            IdentityTemplate(centroid=bad, sample_count=1)

    def test_user_id_with_comma_rejected(self):
        # and every other id that save could write but load could not read back
        store = KnowledgeStore()
        for user_id in ("a,b", "", "a\nb", "a\rb", "a\x1cb", "a\x85b", "a\u2028b", "a\n"):
            with pytest.raises(ValueError):
                store.enroll(user_id, random_template(np.random.RandomState(0)))
        assert store.templates == {}


class TestIdentify:
    def test_self_match_at_zero_distance(self):
        store = KnowledgeStore()
        t = random_template(np.random.RandomState(3))
        store.enroll("erin", t)
        assert store.identify(t, theta=0.35) == "erin"

    def test_empty_store_returns_nothing(self):
        template = random_template(np.random.RandomState(0))
        assert KnowledgeStore().identify(template, theta=0.35) is None

    def test_orthogonal_template_unmatched(self):
        store = KnowledgeStore()
        t = np.zeros(TEMPLATE_DIM)
        t[0], t[1] = 1.0, -1.0
        store.enroll("frank", t)
        q = np.zeros(TEMPLATE_DIM)
        q[2], q[3] = 1.0, -1.0  # orthogonal: distance exactly 1
        assert store.identify(q, theta=0.35) is None

    def test_tie_breaks_lexicographically(self):
        store = KnowledgeStore()
        t = random_template(np.random.RandomState(4))
        store.enroll("zoe", t)
        store.enroll("ann", t)
        assert store.identify(t, theta=0.5) == "ann"

    def test_theta_domain_enforced(self):
        with pytest.raises(ValueError):
            StoreParams(theta=2.0)


class TestStoreParams:
    @pytest.mark.parametrize(
        "kw, field",
        [
            pytest.param(dict(theta=0.0), "theta", id="kw1-ValueError"),
            pytest.param(dict(theta=math.nan), "theta", id="kw2-ValueError"),
            pytest.param(dict(enroll_user="a\nb"), "enroll_user", id="kw3-ValueError"),
            pytest.param(dict(enroll_frame=-1), "enroll_frame", id="kw4-ValueError"),
        ],
    )
    def test_invalid_params_rejected(self, kw, field):
        with pytest.raises(ValueError, match=field):
            StoreParams(**kw)

    def test_enroll_user_error_names_the_field(self):
        with pytest.raises(ValueError, match="enroll_user"):
            StoreParams(enroll_user="a,b")


class TestPersistence:
    def test_save_load_roundtrip_exact(self, tmp_path):
        store, rng = self.make_store()
        for user_id in ("a b", "a\tb", "a\x1fb", " a "):  # accepted ids that are not plain
            store.enroll(user_id, random_template(rng))
        store.save(tmp_path)
        assert [f.name for f in tmp_path.iterdir()] == ["identities.csv"]
        loaded = KnowledgeStore.load(tmp_path)
        assert sorted(loaded.templates) == sorted(store.templates)
        for user, a in store.templates.items():
            b = loaded.templates[user]
            assert a.sample_count == b.sample_count
            assert np.array_equal(a.centroid, b.centroid)  # bit-exact via repr

    def make_store(self):
        store = KnowledgeStore()
        rng = np.random.RandomState(8)
        for i in range(9):
            store.enroll(f"u{i}", random_template(rng))
        return store, rng

    def test_missing_table_loads_empty(self, tmp_path):
        assert KnowledgeStore.load(tmp_path).templates == {}
        assert KnowledgeStore.load(tmp_path / "not-yet").templates == {}

    def test_failed_save_keeps_previous_shards(self, tmp_path, monkeypatch):
        # the table is all-or-nothing: a failed save leaves the previous one,
        # byte for byte, and it reloads to the previous users and counts
        store, rng = self.make_store()
        store.save(tmp_path)
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        for i in range(9):
            store.enroll(f"u{i}", random_template(rng))
        store.enroll("newcomer", random_template(rng))
        fail_writes_midway(monkeypatch)
        with pytest.raises(OSError):
            store.save(tmp_path)
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before
        loaded = KnowledgeStore.load(tmp_path)
        assert sorted(loaded.templates) == [f"u{i}" for i in range(9)]
        assert {e.sample_count for e in loaded.templates.values()} == {1}

    def test_save_is_one_atomic_write(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(emr.store, "write_atomic", lambda *a: calls.append(a))
        self.make_store()[0].save(tmp_path)
        assert [path.name for path, _ in calls] == ["identities.csv"]

    def test_legacy_shard_files_rejected(self, tmp_path):
        store, _ = self.make_store()
        store.save(tmp_path)
        (tmp_path / "identities.csv").rename(tmp_path / "shard_000.csv")
        with pytest.raises(ValueError, match="concatenate them into identities.csv"):
            KnowledgeStore.load(tmp_path)
        (tmp_path / "shard_000.csv").rename(tmp_path / "identities.csv")
        assert sorted(KnowledgeStore.load(tmp_path).templates) == sorted(store.templates)

    def test_write_atomic_replaces_whole_file(self, tmp_path):
        target = tmp_path / "f.txt"
        target.write_text("old contents\n")
        write_atomic(target, b"new\n")
        assert target.read_text() == "new\n"
        assert [f.name for f in tmp_path.iterdir()] == ["f.txt"]

    def test_non_finite_centroid_rejected_on_load(self, tmp_path):
        # a NaN distance compared first would stay "best" and hide every match
        store = KnowledgeStore()
        store.enroll("bob", random_template(np.random.RandomState(2)))
        store.save(tmp_path)
        table = tmp_path / "identities.csv"
        bad = "aaa,1," + ",".join(["nan"] * TEMPLATE_DIM) + "\n"
        table.write_text(bad + table.read_text())
        with pytest.raises(ValueError):
            KnowledgeStore.load(tmp_path)

    def test_empty_user_id_rejected_on_load(self, tmp_path):
        (tmp_path / "identities.csv").write_text(",1," + ",".join(["0.0"] * TEMPLATE_DIM) + "\n")
        with pytest.raises(ValueError):
            KnowledgeStore.load(tmp_path)

    def test_user_listed_twice_rejected_on_load(self, tmp_path):
        values = ",".join(["0.5"] * TEMPLATE_DIM)
        path = tmp_path / "identities.csv"
        path.write_text(f"alice,3,{values}\nalice,1,{values}\n")
        with pytest.raises(ValueError, match=r"'alice' listed twice in .*identities\.csv"):
            KnowledgeStore.load(tmp_path)

    @given(st.one_of(st.text(max_size=80), st.binary(max_size=80), table_text()))
    @settings(max_examples=200, deadline=None)
    def test_any_shard_text_raises_only_value_error(self, content):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "identities.csv"
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content)
            try:
                store = KnowledgeStore.load(directory)
            except ValueError:
                return
            store.save(directory)
            again = KnowledgeStore.load(directory)
        assert sorted(again.templates) == sorted(store.templates)
