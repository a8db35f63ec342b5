import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emr.errors import DimensionMismatch, MalformedImage
from emr.raster import (
    _frozen,
    AlphaMatte,
    Frame,
    Trimap,
    decode_pnm,
    downsample,
    encode_pnm,
    quantize,
    round_u8,
    to_grayscale,
)


def rgb(*pixels):
    arr = np.array(pixels, dtype=np.uint8).reshape(1, len(pixels), 3)
    return Frame.from_array(arr)


def frames_strategy(max_side=8):
    return st.builds(
        lambda w, h, c, seed: Frame.from_array(
            np.random.RandomState(seed).randint(0, 256, size=(h, w, c), dtype=np.uint8)
        ),
        st.integers(1, max_side),
        st.integers(1, max_side),
        st.sampled_from([1, 3]),
        st.integers(0, 2**31),
    )


_PNM_TOKENS = st.one_of(
    st.integers(0, 12).map(lambda n: str(n).encode()),
    st.just(b"255"),
    st.text("0123456789", min_size=1, max_size=40).map(str.encode),
    st.binary(max_size=4),
)


@st.composite
def pnm_like(draw):
    """Bytes shaped like a PNM file: a magic, header tokens, separators, a payload."""
    parts = [draw(st.sampled_from([b"P5", b"P6", b"P4", b"P"]))]
    for _ in range(draw(st.integers(0, 4))):
        parts.append(draw(st.sampled_from([b" ", b"\n", b"\t\r", b""])))
        parts.append(draw(_PNM_TOKENS))
    parts.append(draw(st.sampled_from([b"\n", b" ", b"", b"  "])))
    parts.append(draw(st.binary(max_size=450)))
    return b"".join(parts)


_PNM_WHITESPACE = b" \t\r\n\x0b\x0c"


def reference_decode_pnm(data, index=0):
    """decode_pnm as a hand tokenizer: a cursor and one loop per header token."""
    if len(data) < 2:
        raise MalformedImage("too short for a magic number")
    magic = data[:2]
    if magic == b"P6":
        channels = 3
    elif magic == b"P5":
        channels = 1
    else:
        raise MalformedImage(f"unsupported magic {magic!r}")
    if len(data) < 3 or data[2] not in _PNM_WHITESPACE:
        raise MalformedImage("no whitespace after the magic number")

    pos = 2
    fields = []
    for _ in range(3):
        while pos < len(data) and data[pos] in _PNM_WHITESPACE:
            pos += 1
        start = pos
        while pos < len(data) and data[pos] not in _PNM_WHITESPACE:
            pos += 1
        token = data[start:pos]
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


# runs of 0-3 whitespace bytes, mostly one byte long
_WHITESPACE_RUNS = st.sampled_from([1, 1, 1, 2, 3, 0]).flatmap(
    lambda n: st.lists(st.sampled_from(list(_PNM_WHITESPACE)), min_size=n, max_size=n).map(bytes)
)


@st.composite
def pnm_header_token(draw, value):
    """Mostly ``value`` in decimal; else 18 or 19 significant digits, or more
    than int() parses (4300); at times with a non-digit; 0-3 leading zeros."""
    digits = draw(st.sampled_from([str(value)] * 20 + ["9" * 18, "1" + "0" * 18, "7" * 4301]))
    if draw(st.sampled_from([False] * 9 + [True])):
        at = draw(st.integers(0, len(digits)))
        digits = digits[:at] + draw(st.sampled_from("x+-.#P")) + digits[at:]
    return b"0" * draw(st.integers(0, 3)) + digits.encode()


@st.composite
def pnm_near_grammar(draw):
    """A PNM file at the edges of the header grammar, now and then cut at any offset.

    Tokens sit between runs of 0-3 whitespace bytes.  Whitespace past the
    first after the maxval opens the payload, whose size is mostly the
    declared one, else one byte either side.
    """
    magic = draw(st.sampled_from([b"P5", b"P6"]))
    sides = st.sampled_from([1, 2, 3, 1, 2, 3, 0])
    width, height = draw(sides), draw(sides)
    parts = [magic]
    for value in (width, height, draw(st.sampled_from([255] * 6 + [254, 0]))):
        parts += [draw(_WHITESPACE_RUNS), draw(pnm_header_token(value))]
    parts.append(draw(_WHITESPACE_RUNS))
    size = width * height * (3 if magic == b"P6" else 1) - max(len(parts[-1]) - 1, 0)
    size = max(size + draw(st.sampled_from([0, 0, 0, -1, 1])), 0)
    payload = draw(_WHITESPACE_RUNS) + draw(st.binary(min_size=size, max_size=size))
    data = b"".join(parts) + payload[:size]
    return data[:draw(st.integers(0, len(data)))] if draw(st.sampled_from([False] * 3 + [True])) else data


def decoded_or_none(decode, data):
    """decode(data), or None where it raises MalformedImage."""
    try:
        return decode(data)
    except MalformedImage:
        return None


class TestFrame:
    def test_channels_enforced(self):
        with pytest.raises(ValueError, match="channels"):
            Frame(np.zeros((1, 1, 2), dtype=np.uint8))

    def test_zero_dimensions_rejected(self):
        for shape in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
            with pytest.raises(ValueError):
                Frame(np.zeros(shape, dtype=np.uint8))

    def test_data_must_be_3d(self):
        # Frame.from_array adds the channel axis; the constructor does not
        with pytest.raises(ValueError, match="3-d"):
            Frame(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError, match="3-d"):
            Frame.from_array(np.zeros(4, dtype=np.uint8))

    @pytest.mark.parametrize("bad", [-1, 256, 300, 2.7, float("nan"), float("inf")])
    def test_samples_are_neither_wrapped_nor_truncated(self, bad):
        arr = np.array([[0, bad]])
        with pytest.raises(ValueError):
            Frame.from_array(arr)
        with pytest.raises(ValueError):
            Frame(arr[:, :, None])

    def test_whole_samples_of_any_dtype_accepted(self):
        for arr in (np.array([[0, 255]]), np.array([[0.0, 255.0]]), np.array([[False, True]])):
            assert Frame.from_array(arr).data.reshape(-1).tolist() == [0, int(arr[0, 1])]

    def test_array_roundtrip(self):
        arr = np.arange(24, dtype=np.uint8).reshape(2, 4, 3)
        f = Frame.from_array(arr, index=7)
        assert f.index == 7
        assert np.array_equal(f.to_array(), arr)


class TestGrayscale:
    def test_black_maps_to_zero(self):
        f = rgb((0, 0, 0))
        assert to_grayscale(f).data.tobytes() == b"\x00"

    def test_white_maps_to_max(self):
        f = rgb((255, 255, 255))
        assert to_grayscale(f).data.tobytes() == b"\xff"

    def test_pure_red(self):
        # 0.299 * 255 = 76.245 -> 76
        f = rgb((255, 0, 0))
        assert to_grayscale(f).data.tobytes() == bytes([76])

    def test_single_channel_rejected(self):
        f = Frame(np.array([[[16]]], dtype=np.uint8))
        with pytest.raises(ValueError, match="3-channel"):
            to_grayscale(f)

    def test_index_preserved(self):
        f = Frame.from_array(np.zeros((2, 2, 3), dtype=np.uint8), index=5)
        assert to_grayscale(f).index == 5

    @given(frames_strategy())
    def test_within_channel_extremes(self, f):
        # convex weights: even after rounding, gray cannot escape [min, max]
        if f.channels != 3:
            f = Frame.from_array(np.repeat(f.to_array(), 3, axis=2), index=f.index)
        arr = f.to_array().astype(int)
        gray = to_grayscale(f).to_array()[:, :, 0].astype(int)
        assert np.all(gray >= arr.min(axis=2))
        assert np.all(gray <= arr.max(axis=2))


class TestDownsample:
    def test_factor_one_is_identity(self):
        f = rgb((1, 2, 3), (4, 5, 6))
        assert downsample(f, 1) == f

    def test_block_mean(self):
        f = Frame.from_array(np.array([[10, 20], [30, 40]], dtype=np.uint8))
        out = downsample(f, 2)
        assert out.width == out.height == 1
        assert out.data.tobytes() == bytes([25])

    def test_half_rounds_away_from_zero(self):
        f = Frame.from_array(np.array([[1, 2], [3, 4]], dtype=np.uint8))
        assert downsample(f, 2).data.tobytes() == bytes([3])  # mean 2.5 -> 3

    def test_non_divisible_rejected(self):
        f = Frame.from_array(np.zeros((3, 3), dtype=np.uint8))
        with pytest.raises(DimensionMismatch):
            downsample(f, 2)

    def test_zero_factor_rejected(self):
        f = Frame.from_array(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError, match="factor"):
            downsample(f, 0)


class TestQuantize:
    def test_step_one_is_identity(self):
        f = Frame.from_array(np.arange(4, dtype=np.uint8).reshape(2, 2))
        assert quantize(f, 1) == f

    def test_snaps_to_multiples(self):
        # round(100/32) = 3 -> 96
        f = Frame.from_array(np.array([[100]], dtype=np.uint8))
        assert quantize(f, 32).data.tobytes() == bytes([96])

    def test_clamps_overshoot(self):
        # round(255/2)*2 = 256, clamped
        f = Frame.from_array(np.array([[255]], dtype=np.uint8))
        assert quantize(f, 2).data.tobytes() == bytes([255])

    @pytest.mark.parametrize("step", [0, 129, -3])
    def test_step_range_enforced(self, step):
        f = Frame.from_array(np.array([[1]], dtype=np.uint8))
        with pytest.raises(ValueError, match="step"):
            quantize(f, step)

    @given(frames_strategy(), st.integers(1, 128))
    @settings(max_examples=50)
    def test_idempotent(self, f, step):
        once = quantize(f, step)
        assert quantize(once, step) == once


class TestPnmCodec:
    def test_minimal_ppm_decodes(self):
        data = b"P6 2 1 255\n" + bytes([1, 2, 3, 4, 5, 6])
        f = decode_pnm(data)
        assert (f.width, f.height, f.channels) == (2, 1, 3)
        assert f.data.tobytes() == bytes([1, 2, 3, 4, 5, 6])
        assert not f.data.flags.writeable

    def test_pgm_decodes(self):
        f = decode_pnm(b"P5 1 2 255\n" + bytes([9, 8]))
        assert (f.width, f.height, f.channels) == (1, 2, 1)

    @given(frames_strategy())
    @settings(max_examples=60)
    def test_roundtrip_bit_exact(self, f):
        assert decode_pnm(encode_pnm(f), index=f.index) == f

    def test_truncated_payload_rejected(self):
        with pytest.raises(MalformedImage):
            decode_pnm(b"P6 2 2 255\n" + b"\x00" * 11)

    def test_trailing_bytes_rejected(self):
        with pytest.raises(MalformedImage):
            decode_pnm(b"P5 1 1 255\n\x00\x00")

    def test_wrong_magic_rejected(self):
        with pytest.raises(MalformedImage):
            decode_pnm(b"P3 1 1 255\n0 0 0")

    def test_wrong_maxval_rejected(self):
        with pytest.raises(MalformedImage):
            decode_pnm(b"P5 1 1 254\n\x00")

    def test_garbage_header_rejected(self):
        with pytest.raises(MalformedImage):
            decode_pnm(b"P6 two 1 255\n\x00\x00\x00")

    def test_overlong_header_number_rejected(self):
        # int() refuses a string of more than a few thousand digits
        with pytest.raises(MalformedImage, match="bad header token"):
            decode_pnm(b"P6 " + b"1" * 5000 + b" 1 255\n\x00\x00\x00")

    @pytest.mark.parametrize("magic, payload", [(b"P5", bytes(2)), (b"P6", bytes(6))], ids=["P5", "P6"])
    def test_no_whitespace_after_magic_rejected(self, magic, payload):
        # netpbm requires whitespace between the magic number and the width
        with pytest.raises(MalformedImage, match="whitespace after the magic"):
            decode_pnm(magic + b"2 1 255\n" + payload)

    def test_zero_padded_header_number_accepted(self):
        f = decode_pnm(b"P5 " + b"0" * 30 + b"1 1 255\n\x07")
        assert (f.width, f.height, f.data.tobytes()) == (1, 1, b"\x07")

    @given(st.one_of(st.binary(max_size=64), pnm_like()))
    @settings(max_examples=300)
    def test_any_bytes_raise_only_malformed_image(self, data):
        try:
            frame = decode_pnm(data)
        except MalformedImage:
            return
        assert decode_pnm(encode_pnm(frame)) == frame

    @given(pnm_near_grammar())
    @settings(max_examples=500, deadline=None)
    @example(b"P5 11 255\n\x07")  # no whitespace between width and height
    @example(b"P5 " + b"7" * 4301 + b" 1 255\n\x07")  # more digits than int() parses
    def test_matches_the_reference_tokenizer(self, data):
        # both refuse the same inputs, and decode the others to equal frames
        assert decoded_or_none(decode_pnm, data) == decoded_or_none(reference_decode_pnm, data)


class TestMatteAndTrimap:
    def test_alpha_bounds_enforced(self):
        with pytest.raises(ValueError):
            AlphaMatte(np.array([[1.5]]))

    def test_nan_alpha_rejected(self):
        with pytest.raises(ValueError):
            AlphaMatte(np.array([[float("nan")]]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_alpha_rejected(self, bad):
        with pytest.raises(ValueError):
            AlphaMatte(np.array([[0.5, bad]]))

    def test_to_array_is_a_read_only_view(self):
        # the read-only view is the field; to_array() hands out a writable copy
        m = AlphaMatte(np.array([[0.0, 0.25], [0.5, 1.0]]))
        assert not m.alpha.flags.writeable
        with pytest.raises(ValueError):
            m.alpha[0, 0] = 1.0
        arr = m.to_array()
        arr[0, 0] = 1.0
        assert m.alpha[0, 0] == 0.0 and not np.shares_memory(arr, m.alpha)

    def test_source_array_is_copied(self):
        src = np.array([[0.0, 0.25], [0.5, 1.0]])
        m = AlphaMatte(src)
        src[0, 0] = 0.75
        assert m.alpha[0, 0] == 0.0
        assert m == AlphaMatte(np.array([[0.0, 0.25], [0.5, 1.0]]))

    @pytest.mark.parametrize("cls", [AlphaMatte, Trimap])
    def test_matte_and_trimap_are_2d(self, cls):
        for shape in [(4,), (2, 2, 1), (0, 2)]:
            with pytest.raises(ValueError):
                cls(np.zeros(shape, dtype=np.uint8))

    def test_trimap_label_domain_enforced(self):
        # only the last label is out of range, or not a whole number
        for bad in (3, 255, 258, -1, 1.5):
            with pytest.raises(ValueError):
                Trimap(np.array([[0, 1], [2, bad]]))
        for bad in (3, 255):
            with pytest.raises(ValueError):
                Trimap(np.array([[0, 1], [2, bad]], dtype=np.uint8))


def _arrays_at_the_bounds(upper):
    """Float64, integer and bool arrays holding NaN, ±inf, -0.0 and values at 0 and ``upper``."""
    edges = [0.0, -0.0, upper, np.nextafter(upper, np.inf), np.nextafter(0.0, -np.inf), -1.0,
             np.nan, np.inf, -np.inf]
    floats = st.lists(st.one_of(st.sampled_from(edges), st.floats()), min_size=1, max_size=6)
    ints = st.lists(st.sampled_from([0, 1, int(upper), int(upper) + 1, -1, 300]),
                    min_size=1, max_size=6)
    return st.one_of(
        floats.map(lambda v: np.array(v, dtype=np.float64)),
        st.tuples(ints, st.sampled_from([np.int64, np.int16, np.uint8])).map(
            lambda t: np.array(t[0]).astype(t[1])
        ),
        st.lists(st.booleans(), min_size=1, max_size=6).map(np.array),
    )


@given(st.sampled_from([1.0, 2, 255]).flatmap(lambda u: st.tuples(st.just(u), _arrays_at_the_bounds(u))))
@example((1.0, np.array([np.nan, 0.5])))  # a check that skips NaN would take these
@example((2, np.array([0.0, np.inf])))
@example((255, np.array([-np.inf, 255.0])))
@example((1.0, np.array([-0.0, 1.0])))
@example((1.0, np.array([0.0, np.nextafter(1.0, 2.0)])))
@settings(max_examples=300, deadline=None)
def test_range_check_agrees_with_the_elementwise_form(case):
    # _frozen checks the range through min and max; the elementwise form it
    # replaced must accept and refuse the same arrays, and neither may warn
    upper, a = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        in_range = bool(((a >= 0) & (a <= upper)).all())
        try:
            _frozen(a, 1, np.float64, "values", upper)
            refused = False
        except ValueError as exc:
            refused = "must lie in" in str(exc)
    assert refused is not in_range


@pytest.mark.parametrize("cls, field, source", [
    (Frame, "data", np.arange(18, dtype=np.uint8).reshape(2, 3, 3)),
    (AlphaMatte, "alpha", np.array([[0.0, 0.25, 0.5], [0.75, 1.0, 0.5]])),
    (Trimap, "labels", np.array([[0, 1, 2], [2, 1, 0]], dtype=np.uint8)),
], ids=["Frame", "AlphaMatte", "Trimap"])
def test_value_is_one_read_only_array(cls, field, source):
    src = source.copy()
    value = cls(src)
    held = getattr(value, field)
    assert list(vars(value)) == [field] + (["index"] if cls is Frame else [])
    # the field is read-only and the source was copied
    assert not held.flags.writeable
    with pytest.raises(ValueError):
        held[0, 0] = 1
    src[0, 0] = 1
    assert np.array_equal(held, source) and not np.shares_memory(held, src)
    assert value == cls(source) and value != cls(src)
    # to_array hands out a writable copy
    arr = value.to_array()
    arr[0, 0] = 1
    assert np.array_equal(held, source) and not np.shares_memory(arr, held)
    # the dimensions are the array's, and cannot be set
    assert (value.height, value.width) == (2, 3)
    if cls is Frame:
        assert value.channels == 3
    with pytest.raises(AttributeError):
        value.width = 4


def test_round_u8_half_away():
    assert round_u8(np.array([0.5, 1.5, 2.4, 254.5, 300.0])).tolist() == [1, 2, 2, 255, 255]
