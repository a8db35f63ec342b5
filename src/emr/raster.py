"""Raster primitives: 8-bit frames, alpha mattes, trimaps, and PNM codecs.

Conventions used throughout the package:

* samples are unsigned 8-bit, maxval fixed at 255;
* whenever a real value is stored back to 8 bits it is rounded half away
  from zero (for non-negative values: ``floor(x + 0.5)``), then clamped;
  the raster types themselves round and wrap nothing: a value that is not
  a whole number in range is refused with ``ValueError``;
* grayscale conversion uses the 0.299 / 0.587 / 0.114 luma weights;
* every raster value is one read-only numpy array and nothing else, so it
  is an immutable value, safe to share between threads and to read
  uncopied: a frame's ``data`` is (height, width, channels) uint8, a
  matte's ``alpha`` (height, width) float64 and a trimap's ``labels``
  (height, width) uint8.  ``width``, ``height`` and a frame's ``channels``
  are read from the array's shape.  The constructor copies its source, and
  ``to_array()`` returns a writable copy of the field.

``bytes`` appear only at the file codec, binary PPM (``P6``, 3 channels) and
PGM (``P5``, 1 channel), bit-exact: ``decode(encode(frame)) == frame``.
Every output file of a run (composites, metrics, the identity table) is
written whole by ``write_atomic``, or not at all.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, MalformedImage

# Trimap label values.
BG = 0
UNKNOWN = 1
FG = 2

_GRAY_WEIGHTS = (0.299, 0.587, 0.114)


def round_u8(values) -> np.ndarray:
    """Round non-negative reals half away from zero, clamp to [0, 255], as uint8."""
    arr = np.asarray(values, dtype=np.float64)
    return np.minimum(np.floor(arr + 0.5), 255.0).astype(np.uint8)


def _frozen(values, ndim: int, dtype, what: str, upper) -> np.ndarray:
    """A read-only ``dtype`` copy of the non-empty ``ndim``-d ``values``, each in [0, upper].

    The copy keeps later writes to the source from reaching the value that
    holds it.  NaN and ±inf fail the range check, and a value the cast would
    change, such as a fraction bound for uint8, is refused rather than
    truncated.  A uint8 source needs no scan for a bound of 255.
    """
    a = np.asarray(values)
    if a.ndim != ndim or a.size == 0:
        raise ValueError(f"{what} must be a non-empty {ndim}-d array, got shape {a.shape}")
    if not (a.dtype == np.uint8 and upper >= 255) and not (a.min() >= 0 and a.max() <= upper):
        raise ValueError(f"{what} values must lie in [0, {upper}]")
    held = a.astype(dtype)
    if a.dtype != dtype and not np.array_equal(held, a):
        raise ValueError(f"{what} values must be whole numbers")
    held.flags.writeable = False
    return held


class _Raster:
    """One read-only array, the field named ``_field``, whose shape gives the dimensions.

    Equal if of one type with equal fields, arrays by value; ``__eq__``
    makes it unhashable.
    """

    _field: str

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(v, vars(other)[k]) for k, v in vars(self).items())

    @property
    def height(self) -> int:
        return getattr(self, self._field).shape[0]

    @property
    def width(self) -> int:
        return getattr(self, self._field).shape[1]

    def to_array(self) -> np.ndarray:
        """A writable copy of the array."""
        return getattr(self, self._field).copy()


@dataclass(frozen=True, eq=False)
class Frame(_Raster):
    """A row-major 8-bit raster with 1 (gray) or 3 (RGB) channels, as (height, width, channels)."""

    _field = "data"
    data: np.ndarray
    index: int = 0

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("frame index must be >= 0")
        object.__setattr__(self, "data", _frozen(self.data, 3, np.uint8, "data", 255))
        if self.channels not in (1, 3):
            raise ValueError("channels must be 1 or 3")

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    @classmethod
    def from_array(cls, arr, index: int = 0) -> "Frame":
        """A frame from a (h, w) or (h, w, c) array; a 2-d one gets one channel."""
        a = np.asarray(arr)
        return cls(a[:, :, None] if a.ndim == 2 else a, index)


@dataclass(frozen=True, eq=False)
class AlphaMatte(_Raster):
    """Per-pixel opacity in [0, 1] as a (height, width) float64 array."""

    _field = "alpha"
    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", _frozen(self.alpha, 2, np.float64, "alpha", 1.0))


@dataclass(frozen=True, eq=False)
class Trimap(_Raster):
    """Per-pixel FG / BG / UNKNOWN labeling as a (height, width) uint8 array."""

    _field = "labels"
    labels: np.ndarray

    def __post_init__(self):
        # BG, UNKNOWN and FG are 0, 1 and 2
        object.__setattr__(self, "labels", _frozen(self.labels, 2, np.uint8, "labels", FG))


def to_grayscale(frame: Frame) -> Frame:
    """Convert a 3-channel frame to grayscale by the fixed luma weights."""
    if frame.channels != 3:
        raise ValueError("to_grayscale requires a 3-channel frame")
    arr = frame.data.astype(np.float64)
    gray = arr[:, :, 0] * _GRAY_WEIGHTS[0] + arr[:, :, 1] * _GRAY_WEIGHTS[1] + arr[:, :, 2] * _GRAY_WEIGHTS[2]
    return Frame.from_array(round_u8(gray), index=frame.index)


def downsample(frame: Frame, factor: int) -> Frame:
    """Reduce resolution by the rounded mean of each factor x factor block."""
    if not isinstance(factor, int) or factor < 1:
        raise ValueError(f"factor must be an integer >= 1, got {factor!r}")
    if factor == 1:
        return frame
    if frame.width % factor or frame.height % factor:
        raise DimensionMismatch(
            f"{frame.width}x{frame.height} not divisible by factor {factor}"
        )
    arr = frame.data.astype(np.uint64)
    h, w = frame.height // factor, frame.width // factor
    blocks = arr.reshape(h, factor, w, factor, frame.channels)
    sums = blocks.sum(axis=(1, 3))
    n = factor * factor
    # integer half-away-from-zero rounding of sums / n
    means = (2 * sums + n) // (2 * n)
    return Frame.from_array(means.astype(np.uint8), index=frame.index)


def quantize(frame: Frame, step: int) -> Frame:
    """Snap each sample to the nearest multiple of ``step``, clamped to 255."""
    if not isinstance(step, int) or step < 1 or step > 128:
        raise ValueError(f"step must be an integer in [1, 128], got {step!r}")
    if step == 1:
        return frame
    lut = np.minimum(((2 * np.arange(256, dtype=np.uint32) + step) // (2 * step)) * step, 255)
    arr = lut.astype(np.uint8)[frame.data]
    return Frame.from_array(arr, index=frame.index)


# --- PNM codec ----------------------------------------------------------------
#
# Layout: magic ("P6" or "P5"), width, height, maxval (always 255), each token
# followed by whitespace, then exactly width*height*channels raw bytes.  The
# encoder emits "P6\n{w} {h}\n255\n"; the decoder accepts any run of blank
# characters between header tokens but exactly one after the maxval.

_WHITESPACE = b" \t\r\n\x0b\x0c"


def encode_pnm(frame: Frame) -> bytes:
    """Serialize a frame as binary PPM (3-channel) or PGM (1-channel)."""
    magic = b"P6" if frame.channels == 3 else b"P5"
    header = magic + b"\n%d %d\n255\n" % (frame.width, frame.height)
    return header + frame.data.tobytes()


def decode_pnm(data: bytes, index: int = 0) -> Frame:
    """Parse binary PPM/PGM bytes into a frame; raise MalformedImage otherwise."""
    if len(data) < 2:
        raise MalformedImage("too short for a magic number")
    magic = data[:2]
    if magic == b"P6":
        channels = 3
    elif magic == b"P5":
        channels = 1
    else:
        raise MalformedImage(f"unsupported magic {magic!r}")
    if len(data) < 3 or data[2] not in _WHITESPACE:
        raise MalformedImage("no whitespace after the magic number")

    pos = 2
    fields = []
    for _ in range(3):
        while pos < len(data) and data[pos] in _WHITESPACE:
            pos += 1
        start = pos
        while pos < len(data) and data[pos] not in _WHITESPACE:
            pos += 1
        token = data[start:pos]
        # int() refuses thousands of digits; over 18 describe no raster that fits in memory
        if not token.isdigit() or len(token.lstrip(b"0")) > 18:
            raise MalformedImage(f"bad header token {token[:32]!r}")
        fields.append(int(token))
    if pos >= len(data):
        raise MalformedImage("missing payload")
    pos += 1  # the single whitespace byte terminating the header

    width, height, maxval = fields
    if maxval != 255:
        raise MalformedImage(f"unsupported maxval {maxval}")
    if width < 1 or height < 1:
        raise MalformedImage("dimensions must be >= 1")
    size = len(data) - pos
    expected = width * height * channels
    if size < expected:
        raise MalformedImage(f"payload has {size} bytes, expected {expected}")
    if size > expected:
        raise MalformedImage("trailing bytes after payload")
    payload = np.frombuffer(data, np.uint8, offset=pos)
    return Frame(payload.reshape(height, width, channels), index)


def load_pnm(path, index: int = 0) -> Frame:
    with open(path, "rb") as fh:
        return decode_pnm(fh.read(), index=index)


def write_atomic(path, data: bytes) -> None:
    """Replace the file at path with data, or leave it as it was.

    The data goes to a temporary file in the same directory, which
    ``os.replace`` then renames over the target in one step.  A failure
    before the rename removes the temporary file and leaves the target
    untouched.  Nothing is fsynced: the guarantee covers a process that
    fails mid-write, not a power cut.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_pnm(frame: Frame, path) -> None:
    write_atomic(path, encode_pnm(frame))
