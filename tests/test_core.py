import random

import pytest

from reference_transform import CountMismatch, NonzeroMask, QuantizedBlock

from nlts.core import read_varints, write_varints
from nlts.errors import CorruptStream

PAPER_DEVIATIONS = [10, -2, 0, 0, 0, -1, 2, 3, 0, 1, 0, 0, 3, 4, 0, 1]
PAPER_NONZEROS = [10, -2, -1, 2, 3, 1, 3, 4, 1]


class TestNonzeroMask:
    def test_worked_example_value(self):
        # 16-entry deviation block whose bitmap reads 1100011101001101
        mask = NonzeroMask.from_values(PAPER_DEVIATIONS)
        assert mask.value == 51021
        assert mask.width == 16
        assert mask.popcount() == 9

    def test_all_zero(self):
        assert NonzeroMask.from_values([0, 0, 0, 0]).value == 0

    def test_all_nonzero(self):
        assert NonzeroMask.from_values([1] * 8).value == 255

    def test_expand_worked_example(self):
        mask = NonzeroMask(51021, 16)
        assert mask.expand(PAPER_NONZEROS) == PAPER_DEVIATIONS

    def test_expand_empty(self):
        assert NonzeroMask(0, 4).expand([]) == [0, 0, 0, 0]

    def test_expand_hand_traced(self):
        assert NonzeroMask(0b1010, 4).expand([7, -3]) == [7, 0, -3, 0]

    def test_expand_count_mismatch(self):
        with pytest.raises(CountMismatch):
            NonzeroMask(0b1010, 4).expand([7])
        with pytest.raises(CountMismatch):
            NonzeroMask(0, 4).expand([1])

    def test_first_sample_is_most_significant_bit(self):
        mask = NonzeroMask.from_values([5, 0, 0, 0])
        assert mask.value == 0b1000

    def test_value_bounded_by_width(self):
        rng = random.Random(401)
        for _ in range(500):
            w = rng.randrange(1, 130)
            values = [rng.choice([0, 0, 1, -9]) for _ in range(w)]
            mask = NonzeroMask.from_values(values)
            assert 0 <= mask.value < (1 << w)

    def test_pack_expand_round_trip(self):
        rng = random.Random(402)
        for _ in range(2000):
            w = rng.randrange(1, 70)
            values = [rng.choice([0, 0, 0, rng.randrange(-99, 99)]) for _ in range(w)]
            mask = NonzeroMask.from_values(values)
            nonzeros = [v for v in values if v]
            assert mask.expand(nonzeros) == values

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            NonzeroMask(0, 0)
        with pytest.raises(ValueError):
            NonzeroMask(16, 4)


def zigzag_encode(v: int) -> int:
    """The unsigned varint value a signed value travels as."""
    out = bytearray()
    write_varints([v], out)
    u = []
    read_varints(out, 0, 1, u, signed=False)
    return u[0]


def zigzag_decode(u: int) -> int:
    """The signed value an unsigned varint value reads back as."""
    out = bytearray()
    write_varints([u], out, signed=False)
    v = []
    read_varints(out, 0, 1, v)
    return v[0]


def read_one(data, max_bits=64):
    values = []
    pos = read_varints(data, 0, 1, values, signed=False, max_bits=max_bits)
    return values[0], pos


class TestZigzag:
    @pytest.mark.parametrize(
        "v,u",
        [(0, 0), (-1, 1), (1, 2), (-2, 3), (2, 4), (300, 600), (-300, 599)],
    )
    def test_known_pairs(self, v, u):
        assert zigzag_encode(v) == u
        assert zigzag_decode(u) == v

    def test_64bit_boundaries(self):
        for v in (2**63 - 1, -(2**63), 2**62, -(2**62) - 1):
            assert zigzag_decode(zigzag_encode(v)) == v
        assert zigzag_encode(2**63 - 1) == 2**64 - 2
        assert zigzag_encode(-(2**63)) == 2**64 - 1

    def test_round_trip_random(self):
        rng = random.Random(403)
        for _ in range(5000):
            v = rng.randrange(-(2**63), 2**63)
            assert zigzag_decode(zigzag_encode(v)) == v


class TestVarint:
    @pytest.mark.parametrize(
        "u,expected",
        [
            (0, bytes([0x00])),
            (127, bytes([0x7F])),
            (128, bytes([0x80, 0x01])),
            (600, bytes([0xD8, 0x04])),
        ],
    )
    def test_known_encodings(self, u, expected):
        out = bytearray()
        write_varints([u], out, signed=False)
        assert bytes(out) == expected
        value, pos = read_one(out)
        assert value == u and pos == len(expected)

    def test_truncated(self):
        truncated = "^byte source ended inside a varint$"
        with pytest.raises(CorruptStream, match=truncated):
            read_one(bytes([0x80]))
        with pytest.raises(CorruptStream, match=truncated):
            read_one(b"")
        with pytest.raises(CorruptStream, match=truncated):
            read_varints(bytes([0x02, 0x04]), 0, 3, [])

    def test_overlong_continuation(self):
        overlong = "^varint exceeds 10 bytes for 64-bit range$"
        with pytest.raises(CorruptStream, match=overlong):
            read_one(bytes([0x80] * 10 + [0x01]))
        with pytest.raises(CorruptStream, match=overlong):
            read_varints(bytes([0x02] + [0x80] * 10 + [0x01]), 0, 2, [])

    def test_overlong_value(self):
        # 10 bytes can carry up to 70 bits; values past 2^64 are rejected
        with pytest.raises(OverflowError, match="^value needs more than 64 bits$"):
            write_varints([1 << 64], bytearray(), signed=False)
        encoded = bytes([0xFF] * 9 + [0x7F])
        overlong = "^decoded value needs more than 64 bits$"
        with pytest.raises(CorruptStream, match=overlong):
            read_one(encoded)
        with pytest.raises(CorruptStream, match=overlong):
            read_varints(encoded, 0, 1, [])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            write_varints([-1], bytearray(), signed=False)

    def test_wide_values_with_max_bits(self):
        for width in (65, 128, 1024):
            u = (1 << width) - 1
            out = bytearray()
            write_varints([u], out, signed=False, max_bits=width)
            value, pos = read_one(bytes(out), max_bits=width)
            assert value == u and pos == len(out)
        with pytest.raises(OverflowError, match="^value needs more than 64 bits$"):
            write_varints([1 << 64], bytearray(), signed=False, max_bits=64)

    def test_serialization_round_trip_random(self):
        rng = random.Random(404)
        values = [rng.randrange(-(2**63), 2**63) for _ in range(3000)]
        values += [0, 1, -1, 2**63 - 1, -(2**63)]
        data = bytearray()
        write_varints(values, data)
        decoded = []
        assert read_varints(data, 0, len(values), decoded) == len(data)
        assert decoded == values


class TestBlocks:
    def test_quantized_block_requires_codes(self):
        with pytest.raises(ValueError):
            QuantizedBlock(codes=(), scale_exp=3)
        assert QuantizedBlock(codes=(5,), scale_exp=None).length == 1
