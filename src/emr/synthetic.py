"""Synthetic capture sequence: static scene, sensor noise, one moving square.

The background is a fixed vertical gradient; every frame adds i.i.d. Gaussian
noise (sigma = 2 by default) per sample.  An 8x8 bright square travels
horizontally at 1 px/frame, bouncing off the frame edges, with its vertical
position fixed at center.  Ground-truth masks mark the square's footprint.

Outputs per frame: ``frame_%06d.ppm`` and ``gt_%06d.pgm``; plus one
``scene.ppm`` target background for fusion runs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .raster import Frame, round_u8, save_pnm

WIDTH = 64
HEIGHT = 64
SQUARE = 8
NOISE_SIGMA = 2.0

_SQUARE_COLOR = (230, 90, 40)
_BASE_LOW = 90
_BASE_HIGH = 150
_SCENE_SIZE = 128


def square_position(frame_index: int, width: int = WIDTH, square: int = SQUARE) -> int:
    """Left edge of the square at a frame: triangle-wave bounce in [0, width-square]."""
    span = width - square
    period = 2 * span
    t = frame_index % period
    return t if t <= span else period - t


def _base_image() -> np.ndarray:
    rows = np.linspace(_BASE_LOW, _BASE_HIGH, HEIGHT)
    base = np.repeat(rows[:, None], WIDTH, axis=1)
    return np.stack([base, base + 5.0, base + 10.0], axis=2)


def make_frame(index: int, rng: np.random.Generator) -> tuple[Frame, Frame]:
    """One noisy frame and its ground-truth mask."""
    img = _base_image()
    x = square_position(index)
    y = (HEIGHT - SQUARE) // 2
    img[y:y + SQUARE, x:x + SQUARE] = _SQUARE_COLOR
    img = img + rng.normal(0.0, NOISE_SIGMA, img.shape)
    frame = Frame.from_array(round_u8(np.clip(img, 0.0, 255.0)), index=index)

    gt = np.zeros((HEIGHT, WIDTH), dtype=np.uint8)
    gt[y:y + SQUARE, x:x + SQUARE] = 255
    return frame, Frame.from_array(gt, index=index)


def make_scene() -> Frame:
    """A warm-toned gradient target scene, larger than the capture frames."""
    cols = np.linspace(40, 200, _SCENE_SIZE)
    r = np.repeat(cols[None, :], _SCENE_SIZE, axis=0)
    g = np.full_like(r, 80.0)
    b = 200.0 - r * 0.5
    return Frame.from_array(round_u8(np.stack([r, g, b], axis=2)))


def generate(out_dir, frames: int, seed: int = 0) -> list:
    """Write the sequence, ground truth, and target scene; returns file paths.

    Raises ``ValueError``, before anything is written, unless ``frames >= 1``
    and ``seed >= 0``.
    """
    if not frames >= 1:
        raise ValueError(f"frames must be >= 1, got {frames}")
    if not seed >= 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.Generator(np.random.PCG64(seed))
    written = []
    for i in range(frames):
        frame, gt = make_frame(i, rng)
        frame_path = out / f"frame_{i:06d}.ppm"
        gt_path = out / f"gt_{i:06d}.pgm"
        save_pnm(frame, frame_path)
        save_pnm(gt, gt_path)
        written += [frame_path, gt_path]
    scene_path = out / "scene.ppm"
    save_pnm(make_scene(), scene_path)
    written.append(scene_path)
    return written
