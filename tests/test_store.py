import builtins
import math

import numpy as np
import pytest

import emr.store

from emr.errors import DegenerateTemplate, InvalidShardCount, ShardUnavailable
from emr.raster import Frame
from emr.store import (
    TEMPLATE_DIM,
    IdentityTemplate,
    KnowledgeStore,
    StoreParams,
    extract_template,
    write_atomic,
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


def fail_writes_midway(monkeypatch):
    def half_open(path, mode="r", *args, **kwargs):
        fh = builtins.open(path, mode, *args, **kwargs)
        return HalfWriter(fh) if "w" in mode else fh

    monkeypatch.setattr(emr.store, "open", half_open, raising=False)


def region(seed=0, side=20, channels=3):
    rng = np.random.RandomState(seed)
    shape = (side, side, channels) if channels == 3 else (side, side)
    return Frame.from_array(rng.randint(0, 200, shape, dtype=np.uint8))


def random_template(rng):
    v = rng.standard_normal(TEMPLATE_DIM)
    v -= v.mean()
    return v / np.linalg.norm(v)


class TestExtractTemplate:
    def test_deterministic(self):
        assert np.array_equal(extract_template(region(1)), extract_template(region(1)))

    def test_unit_norm_and_zero_mean(self):
        t = extract_template(region(2))
        assert np.linalg.norm(t) == pytest.approx(1.0, abs=1e-12)
        assert t.mean() == pytest.approx(0.0, abs=1e-12)

    def test_offset_invariance(self):
        base = np.random.RandomState(3).randint(50, 150, (16, 16), dtype=np.uint8)
        shifted = (base + 40).astype(np.uint8)  # stays within range: no clamping
        t0 = extract_template(Frame.from_array(base))
        t1 = extract_template(Frame.from_array(shifted))
        assert np.allclose(t0, t1, atol=1e-12)

    def test_constant_region_rejected(self):
        flat = Frame.from_array(np.full((16, 16), 77, dtype=np.uint8))
        with pytest.raises(DegenerateTemplate):
            extract_template(flat)

    def test_small_region_rejected(self):
        with pytest.raises(ValueError):
            extract_template(Frame.from_array(np.zeros((8, 16), dtype=np.uint8)))

    def test_color_regions_accepted(self):
        t = extract_template(region(4, channels=3))
        assert t.shape == (TEMPLATE_DIM,)


class TestEnroll:
    def test_first_enrollment_copies_template(self):
        store = KnowledgeStore(4)
        rng = np.random.RandomState(0)
        t = random_template(rng)
        store.enroll("alice", t)
        entry = store.shard_for("alice").templates["alice"]
        assert entry.sample_count == 1
        assert np.array_equal(entry.centroid, t)

    def test_two_enrollments_average(self):
        store = KnowledgeStore(2)
        rng = np.random.RandomState(1)
        t1, t2 = random_template(rng), random_template(rng)
        store.enroll("bob", t1)
        store.enroll("bob", t2)
        entry = store.shard_for("bob").templates["bob"]
        assert entry.sample_count == 2
        assert np.allclose(entry.centroid, (t1 + t2) / 2, atol=1e-12)

    def test_incremental_equals_batch_mean(self):
        store = KnowledgeStore(4)
        rng = np.random.RandomState(2)
        samples = [random_template(rng) for _ in range(100)]
        for s in samples:
            store.enroll("carol", s)
        batch = np.mean(samples, axis=0)
        centroid = store.shard_for("carol").templates["carol"].centroid
        assert np.linalg.norm(centroid - batch) / np.linalg.norm(batch) <= 1e-9

    def test_offline_shard_rejected(self):
        store = KnowledgeStore(1)
        store.shards[0].online = False
        with pytest.raises(ShardUnavailable):
            store.enroll("dave", random_template(np.random.RandomState(0)))

    def test_non_finite_template_rejected(self):
        store = KnowledgeStore(1)
        store.enroll("bob", random_template(np.random.RandomState(1)))
        bad = np.full(TEMPLATE_DIM, np.nan)
        with pytest.raises(ValueError):
            store.enroll("bob", bad)  # would turn the running mean into NaN
        with pytest.raises(ValueError):
            IdentityTemplate(user_id="eve", centroid=bad, sample_count=1)

    def test_user_id_with_comma_rejected(self):
        store = KnowledgeStore(1)
        with pytest.raises(ValueError):
            store.enroll("a,b", random_template(np.random.RandomState(0)))


class TestIdentify:
    def test_self_match_at_zero_distance(self):
        store = KnowledgeStore(4)
        t = random_template(np.random.RandomState(3))
        store.enroll("erin", t)
        assert store.identify(t, theta=0.35) == "erin"

    def test_empty_store_returns_nothing(self):
        assert KnowledgeStore(4).identify(random_template(np.random.RandomState(0))) is None

    def test_orthogonal_template_unmatched(self):
        store = KnowledgeStore(2)
        t = np.zeros(TEMPLATE_DIM)
        t[0], t[1] = 1.0, -1.0
        store.enroll("frank", t)
        q = np.zeros(TEMPLATE_DIM)
        q[2], q[3] = 1.0, -1.0  # orthogonal: distance exactly 1
        assert store.identify(q, theta=0.35) is None

    def test_tie_breaks_lexicographically(self):
        store = KnowledgeStore(4)
        t = random_template(np.random.RandomState(4))
        store.enroll("zoe", t)
        store.enroll("ann", t)
        assert store.identify(t, theta=0.5) == "ann"

    def test_theta_domain_enforced(self):
        with pytest.raises(ValueError):
            StoreParams(theta=2.0)

    def test_offline_shard_fails_scatter_gather(self):
        store = KnowledgeStore(2)
        store.enroll("gina", random_template(np.random.RandomState(5)))
        store.shards[1].online = False
        with pytest.raises(ShardUnavailable):
            store.identify(random_template(np.random.RandomState(6)))


class TestStoreParams:
    @pytest.mark.parametrize(
        "kw, error",
        [
            (dict(shards=0), InvalidShardCount),
            (dict(theta=0.0), ValueError),
            (dict(theta=math.nan), ValueError),
            (dict(enroll_user="a\nb"), ValueError),
            (dict(enroll_frame=-1), ValueError),
        ],
    )
    def test_invalid_params_rejected(self, kw, error):
        with pytest.raises(error):
            StoreParams(**kw)

    def test_enroll_user_error_names_the_field(self):
        with pytest.raises(ValueError, match="enroll_user"):
            StoreParams(enroll_user="a,b")


class TestRebalance:
    def populated(self, users=20, shards=4):
        store = KnowledgeStore(shards)
        rng = np.random.RandomState(7)
        for i in range(users):
            store.enroll(f"user{i:02d}", random_template(rng))
        return store, rng

    def test_same_count_is_identity(self):
        store, _ = self.populated()
        again = store.rebalance(4)
        for s_old, s_new in zip(store.shards, again.shards):
            assert set(s_old.templates) == set(s_new.templates)

    def test_round_trip_restores_layout(self):
        store, _ = self.populated()
        back = store.rebalance(1).rebalance(4)
        for s_old, s_new in zip(store.shards, back.shards):
            assert set(s_old.templates) == set(s_new.templates)

    def test_multiset_preserved(self):
        store, _ = self.populated()
        flat = store.rebalance(7)
        assert sorted(flat.users()) == sorted(store.users())
        for user in store.users():
            a = store.shard_for(user).templates[user]
            b = flat.shard_for(user).templates[user]
            assert a.sample_count == b.sample_count
            assert np.array_equal(a.centroid, b.centroid)

    def test_identify_invariant_across_shard_counts(self):
        store, rng = self.populated()
        layouts = [store.rebalance(n) for n in (1, 2, 4)]
        for _ in range(100):
            q = random_template(rng)
            answers = {s.identify(q, theta=0.8) for s in layouts}
            assert len(answers) == 1

    def test_zero_shards_rejected(self):
        with pytest.raises(InvalidShardCount):
            self.populated()[0].rebalance(0)
        with pytest.raises(InvalidShardCount):
            KnowledgeStore(0)


class TestPersistence:
    def test_save_load_roundtrip_exact(self, tmp_path):
        store, rng = self.make_store()
        store.save(tmp_path)
        loaded = KnowledgeStore.load(tmp_path, store.shard_count)
        assert sorted(loaded.users()) == sorted(store.users())
        for user in store.users():
            a = store.shard_for(user).templates[user]
            b = loaded.shard_for(user).templates[user]
            assert a.sample_count == b.sample_count
            assert np.array_equal(a.centroid, b.centroid)  # bit-exact via repr

    def make_store(self):
        store = KnowledgeStore(3)
        rng = np.random.RandomState(8)
        for i in range(9):
            store.enroll(f"u{i}", random_template(rng))
        return store, rng

    def test_failed_save_keeps_previous_shards(self, tmp_path, monkeypatch):
        store, rng = self.make_store()
        store.save(tmp_path)
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        for i in range(9):
            store.enroll(f"u{i}", random_template(rng))
        fail_writes_midway(monkeypatch)
        with pytest.raises(OSError):
            store.save(tmp_path)
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before
        loaded = KnowledgeStore.load(tmp_path, store.shard_count)
        assert sorted(loaded.users()) == sorted(store.users())

    def test_write_atomic_replaces_whole_file(self, tmp_path):
        target = tmp_path / "f.txt"
        target.write_text("old contents\n")
        write_atomic(target, "new\n")
        assert target.read_text() == "new\n"
        assert [f.name for f in tmp_path.iterdir()] == ["f.txt"]

    def test_non_finite_centroid_rejected_on_load(self, tmp_path):
        # a NaN distance compared first would stay "best" and hide every match
        store = KnowledgeStore(1)
        store.enroll("bob", random_template(np.random.RandomState(2)))
        store.save(tmp_path)
        shard = tmp_path / "shard_000.csv"
        bad = "aaa,1," + ",".join(["nan"] * TEMPLATE_DIM) + "\n"
        shard.write_text(bad + shard.read_text())
        with pytest.raises(ValueError):
            KnowledgeStore.load(tmp_path, 1)

    def test_misplaced_record_rejected(self, tmp_path):
        store, _ = self.make_store()
        store.save(tmp_path)
        files = sorted(tmp_path.glob("shard_*.csv"))
        donor = next(f for f in files if f.read_text().strip())
        line = donor.read_text().splitlines()[0]
        victim = next(f for f in files if f != donor)
        victim.write_text(line + "\n")
        with pytest.raises(ValueError):
            KnowledgeStore.load(tmp_path, store.shard_count)
