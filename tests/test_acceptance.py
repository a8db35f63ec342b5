"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import random
import subprocess
import sys
import time

import numpy as np
import pytest

from emr import synthetic
from emr.fusion import RvoLayer, compose
from emr.layering import GmmParams, layer_init, layer_update_classify, mask_postprocess
from emr.matting import alpha_solve
from emr.netsim import Link, transmit
from emr.qoeqos import ChannelModel, EncodingParams, Policy, mos_of, select_encoding
from emr.raster import BG, FG, UNKNOWN, AlphaMatte, Frame, Trimap, load_pnm, round_u8
from emr.store import KnowledgeStore
from emr.errors import ReplayAlarm, TamperAlarm, UnauthorizedAgent
from emr.tunnel import (
    Envelope,
    decrypt_verify,
    encode_envelope,
    encrypt_envelope,
    fingerprint,
    handshake,
    keypair_gen,
)

from test_qoeqos import oracle_select, random_geometry, random_levels


def report(criterion: str, ok: bool, detail: str):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def synthetic_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthetic")
    synthetic.generate(out, frames=100, seed=5)
    return out


def f1_score(pred, truth):
    tp = np.count_nonzero(pred & truth)
    fp = np.count_nonzero(pred & ~truth)
    fn = np.count_nonzero(~pred & truth)
    denom = 2 * tp + fp + fn
    return 1.0 if denom == 0 else 2 * tp / denom


def test_a1_layering_f1(synthetic_dir):
    model = None
    f1s = []
    start = time.perf_counter()
    for i in range(100):
        frame = load_pnm(synthetic_dir / f"frame_{i:06d}.ppm", index=i)
        if model is None:
            model = layer_init(frame, GmmParams())
        mask, model = layer_update_classify(model, frame)
        mask = mask_postprocess(mask)
        truth = load_pnm(synthetic_dir / f"gt_{i:06d}.pgm").to_array()[:, :, 0] == 255
        pred = mask.to_array()[:, :, 0] == 255
        if i >= 50:
            f1s.append(f1_score(pred, truth))
    elapsed = time.perf_counter() - start
    ok = min(f1s) >= 0.9 and elapsed < 5.0
    report("A1", ok, f"min F1 frames 51-100 = {min(f1s):.4f} (>= 0.9), runtime {elapsed:.2f}s (< 5s)")


def test_a2_matting_ramp_recovery():
    h, w, bg_end, fg_start = 32, 64, 16, 48
    alpha_true = np.zeros((h, w))
    for x in range(w):
        alpha_true[:, x] = min(max((x - bg_end) / float(fg_start - bg_end), 0.0), 1.0)
    frame = Frame.from_array(round_u8(alpha_true * 255.0))  # C = a*255 + (1-a)*0
    labels = np.full((h, w), UNKNOWN, dtype=np.uint8)
    labels[:, :bg_end] = BG
    labels[:, fg_start:] = FG
    trimap = Trimap(labels)
    est = alpha_solve(frame, trimap).matte.to_array()
    unk = labels == UNKNOWN
    mae = float(np.abs(est - alpha_true)[unk].mean())
    exact = bool(np.all(est[labels == FG] == 1.0) and np.all(est[labels == BG] == 0.0))
    ok = mae <= 0.1 and exact
    report("A2", ok, f"ramp MAE = {mae:.4f} (<= 0.1), FG/BG exact = {exact}")


def test_a3_fusion_bitwise_and_depth_invariance():
    rng = np.random.default_rng(12)
    bg = Frame.from_array(rng.integers(0, 256, (16, 16, 3), dtype=np.uint8))

    pixels = rng.integers(0, 256, (5, 5, 3), dtype=np.uint8)
    opaque = RvoLayer(
        pixels=Frame.from_array(pixels),
        matte=AlphaMatte(np.ones((5, 5))), tx=4, ty=3,
    )
    out = compose(bg, [opaque]).to_array()
    inside = np.array_equal(out[3:8, 4:9], pixels)
    outside = out.copy()
    outside[3:8, 4:9] = bg.to_array()[3:8, 4:9]
    opaque_ok = inside and np.array_equal(outside, bg.to_array())

    transparent = RvoLayer(
        pixels=Frame.from_array(pixels),
        matte=AlphaMatte(np.zeros((5, 5))), tx=4, ty=3,
    )
    transparent_ok = compose(bg, [transparent]) == bg

    invariant = True
    for _ in range(100):
        layers = []
        for _ in range(int(rng.integers(1, 5))):
            side = int(rng.integers(1, 6))
            layers.append(RvoLayer(
                pixels=Frame.from_array(rng.integers(0, 256, (side, side, 3), dtype=np.uint8)),
                matte=AlphaMatte(rng.random((side, side))),
                scale=float(rng.choice([0.5, 1.0, 2.0])),
                tx=int(rng.integers(-3, 16)), ty=int(rng.integers(-3, 16)),
                depth=float(rng.normal()),
            ))
        offset = float(rng.normal() * 50)
        shifted = [
            RvoLayer(pixels=l.pixels, matte=l.matte, scale=l.scale,
                     tx=l.tx, ty=l.ty, depth=l.depth + offset)
            for l in layers
        ]
        if compose(bg, layers) != compose(bg, shifted):
            invariant = False
            break
    ok = opaque_ok and transparent_ok and invariant
    report("A3", ok, f"opaque bitwise = {opaque_ok}, transparent identity = {transparent_ok}, "
                     f"depth-offset invariance on 100 stacks = {invariant}")


def test_a4_policy_oracle_and_properties():
    at_1fps = EncodingParams(fps=1.0, b0=1e6, bmax=8e6)
    rng = random.Random(99)
    mismatches = 0
    for _ in range(1000):
        levels = random_levels(rng, rng.randrange(1, 17))
        geometry = random_geometry(rng)
        channel = ChannelModel(capacity=rng.uniform(1e5, 1e8), base_delay=rng.uniform(0, 0.1))
        mos_min, l_max = rng.uniform(1.0, 5.0), rng.uniform(0.05, 1.0)
        w = rng.random()
        params = EncodingParams(
            fps=30.0, b0=1e6, bmax=8e6, policy=rng.choice(list(Policy)), w=w,
            mos_min=mos_min, l_max=l_max,
        )
        got = select_encoding(levels, geometry, channel, params)
        want = oracle_select(levels, geometry, channel, params)
        if (got[0].id, got[1]) != (want[0].id, want[1]):
            mismatches += 1

    monotone = True
    for _ in range(1000):
        a, b = rng.uniform(0, 2e7), rng.uniform(0, 2e7)
        lo, hi = min(a, b), max(a, b)
        if mos_of(lo, at_1fps) > mos_of(hi, at_1fps) + 1e-12:
            monotone = False
            break

    invariant = True
    for _ in range(1000):
        levels = random_levels(rng, rng.randrange(1, 9))
        # doubling the source's width and height multiplies every level's bits by 4
        width, height, channels = random_geometry(rng)
        channel = ChannelModel(capacity=rng.uniform(1e6, 1e8), base_delay=0.0)
        policy = rng.choice(list(Policy))
        base, _ = select_encoding(
            levels, (width, height, channels), channel,
            EncodingParams(fps=1.0, b0=1e6, bmax=8e6, policy=policy, w=0.5,
                           mos_min=2.0, l_max=0.5))
        after, _ = select_encoding(
            levels, (2 * width, 2 * height, channels),
            ChannelModel(capacity=channel.capacity * 4, base_delay=0.0),
            EncodingParams(fps=1.0, b0=4e6, bmax=32e6, policy=policy, w=0.5,
                           mos_min=2.0, l_max=0.5))
        if base.id != after.id:
            invariant = False
            break

    ok = mismatches == 0 and monotone and invariant
    report("A4", ok, f"oracle mismatches = {mismatches}/1000, MOS monotone = {monotone}, "
                     f"scaling argmax-invariance = {invariant}")


def session_pair_61bit(seed_a, seed_b):
    priv_a, pub_a = keypair_gen(seed_a)
    priv_b, pub_b = keypair_gen(seed_b)
    registry = {fingerprint(pub_a), fingerprint(pub_b)}
    a = handshake(priv_a, pub_b, registry)
    b = handshake(priv_b, pub_a, registry)
    return a, b, registry


def test_a5_tunnel_roundtrip_and_detection():
    rng = random.Random(1234)
    sender, receiver, registry = session_pair_61bit(10, 20)

    roundtrip_failures = 0
    for _ in range(1000):
        payload = rng.randbytes(rng.randrange(0, 4097))
        env = encrypt_envelope(sender, payload)
        if decrypt_verify(receiver, encode_envelope(env), registry, sender.send_seq) != payload:
            roundtrip_failures += 1

    tamper_detected = 0
    for _ in range(1000):
        payload = rng.randbytes(rng.randrange(1, 256))
        env = encrypt_envelope(sender, payload)
        bit = rng.randrange(len(env.ciphertext) * 8)
        mutated = bytearray(env.ciphertext)
        mutated[bit // 8] ^= 1 << (bit % 8)
        try:
            decrypt_verify(receiver, encode_envelope(Envelope(env.sender_fingerprint, env.seq,
                                                              bytes(mutated), env.digest)),
                           registry, sender.send_seq)
        except TamperAlarm:
            tamper_detected += 1

    replay_detected = 0
    for _ in range(100):
        env = encrypt_envelope(sender, rng.randbytes(32))
        wire = encode_envelope(env)
        decrypt_verify(receiver, wire, registry, sender.send_seq)
        try:  # envelope k delivered in the slot that expects seq k + 1
            decrypt_verify(receiver, wire, registry, sender.send_seq + 1)
        except ReplayAlarm:
            replay_detected += 1

    impersonation_detected = 0
    for i in range(100):
        env = encrypt_envelope(sender, rng.randbytes(16))
        forged = Envelope(bytes([i % 256]) * 32, env.seq, env.ciphertext, env.digest)
        try:
            decrypt_verify(receiver, encode_envelope(forged), registry, sender.send_seq)
        except UnauthorizedAgent:
            impersonation_detected += 1

    symmetric = 0
    for i in range(100):
        a, b, _ = session_pair_61bit(1000 + 2 * i, 1001 + 2 * i)
        if a.shared_secret == b.shared_secret:
            symmetric += 1

    ok = (roundtrip_failures == 0 and tamper_detected == 1000
          and replay_detected == 100 and impersonation_detected == 100 and symmetric == 100)
    report("A5", ok, f"roundtrip failures = {roundtrip_failures}/1000, "
                     f"tamper = {tamper_detected}/1000, replay = {replay_detected}/100, "
                     f"impersonation = {impersonation_detected}/100, DH symmetry = {symmetric}/100")


def test_a6_store_shard_invariance_and_incremental_mean():
    rng = np.random.RandomState(21)

    def template():
        v = rng.standard_normal(256)
        v -= v.mean()
        return v / np.linalg.norm(v)

    enrolled = [(f"user{i:02d}", template()) for i in range(20)]
    shuffled = list(enrolled)
    random.Random(21).shuffle(shuffled)
    stores = []
    for order in (enrolled, enrolled[::-1], shuffled):
        store = KnowledgeStore()
        for user_id, t in order:
            store.enroll(user_id, t)
        stores.append(store)
    consistent = True
    matched = 0
    for q in range(100):
        query = template() if q % 2 == 0 else enrolled[q % 20][1] + rng.standard_normal(256) * 0.05
        answers = {store.identify(query, theta=0.35) for store in stores}
        if len(answers) != 1:
            consistent = False
            break
        matched += answers != {None}

    samples = [template() for _ in range(100)]
    rel_err = 0.0
    for k in (1, 10, 100):
        probe = KnowledgeStore()
        for s in samples[:k]:
            probe.enroll("probe", s)
        batch = np.mean(samples[:k], axis=0)
        centroid = probe.templates["probe"].centroid
        rel_err = max(rel_err, np.linalg.norm(centroid - batch) / np.linalg.norm(batch))

    ok = consistent and matched > 0 and rel_err <= 1e-9
    report("A6", ok, f"identify identical across forward/reversed/shuffled enrolment = "
                     f"{consistent} ({matched}/100 matched), "
                     f"max incremental-vs-batch rel err = {rel_err:.2e} (<= 1e-9)")


def test_a7_end_to_end_cli(tmp_path, synthetic_dir):
    cfg_path = tmp_path / "pipeline.cfg"
    cfg_path.write_text(f"""\
[io]
frames_dir = {synthetic_dir}
background = {synthetic_dir}/scene.ppm
out_dir = out
metrics = metrics.csv

[encoding]
policy = balance

[channel]
loss_prob = 0.02

[store]
enroll_user = subject
enroll_frame = 60

[run]
seed = 17
""")

    def run_once(out, metrics):
        return subprocess.run(
            [sys.executable, "-m", "emr", "run", "--config", str(cfg_path),
             "--out", str(tmp_path / out), "--metrics", str(tmp_path / metrics)],
            capture_output=True, text=True,
        )

    first = run_once("out1", "m1.csv")
    second = run_once("out2", "m2.csv")
    exit_ok = first.returncode == 0 and second.returncode == 0

    metrics_lines = (tmp_path / "m1.csv").read_text().splitlines()
    records = len(metrics_lines) - 1
    outputs = len(list((tmp_path / "out1").glob("out_*.ppm")))

    identical = (tmp_path / "m1.csv").read_bytes() == (tmp_path / "m2.csv").read_bytes()
    files1 = sorted((tmp_path / "out1").glob("*.ppm"))
    files2 = sorted((tmp_path / "out2").glob("*.ppm"))
    identical = identical and [f.name for f in files1] == [f.name for f in files2]
    identical = identical and all(
        a.read_bytes() == b.read_bytes() for a, b in zip(files1, files2)
    )

    ok = exit_ok and records == 100 and outputs >= 95 and identical
    report("A7", ok, f"exit 0 = {exit_ok}, records = {records}/100, "
                     f"outputs = {outputs} (>= 95), rerun byte-identical = {identical}")


def test_a8_netsim_drop_rate():
    link = Link(ChannelModel(capacity=1e7, base_delay=0.01, loss_prob=0.1), seed=2024)
    drops = sum(not transmit(link, 1000, 0.0).delivered for _ in range(10_000))
    rate = drops / 10_000
    ok = abs(rate - 0.1) <= 0.02
    report("A8", ok, f"empirical drop rate = {rate:.4f} vs 0.1 (+/- 0.02)")
