import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msss.codec import TAG_BYTES, encode_fixed, mask_width, tag, xor_combine

from oracles import bytewise_xor

# Digests computed with a standalone sha256 tool over the exact message
# bytes, e.g. printf 'MSSS-v1\x00\x00' | sha256sum
TAG_0_0_W1 = "be4157b7a6d64582180e62cabc67c41a107212986ca53c54edc46262a0285b1d"
TAG_100_7_W1 = "926615efb9514c8aefd6ded9d2423df2c10928a17c695cef2e37c8bb499be00d"
TAG_100_8_W1 = "dc024ab793d41b3d95ba06b23da486c2df74105062b24f184a5ce69883d01e77"


class TestEncodeFixed:
    def test_single_byte(self):
        assert encode_fixed(135, 1) == b"\x87"

    def test_zero_padding(self):
        assert encode_fixed(135, 2) == b"\x00\x87"

    def test_overflow(self):
        with pytest.raises(OverflowError):
            encode_fixed(300, 1)
        with pytest.raises(OverflowError):
            encode_fixed(-1, 4)

    def test_injective_over_the_range(self):
        width = 2
        seen = {encode_fixed(v, width) for v in range(0, 256**width, 97)}
        assert len(seen) == len(range(0, 256**width, 97))


class TestXorCombine:
    def test_worked_value(self):
        assert xor_combine(135, [111, 80], 1) == 184

    def test_involution_on_worked_value(self):
        assert xor_combine(184, [111, 80], 1) == 135

    def test_empty_mask_list(self):
        assert xor_combine(77, [], 1) == 77

    def test_mask_order_is_irrelevant(self):
        masks = [3, 250, 77, 128]
        results = {xor_combine(66, list(p), 2) for p in itertools.permutations(masks)}
        assert len(results) == 1

    def test_overflow_propagates(self):
        with pytest.raises(OverflowError):
            xor_combine(5, [300], 1)

    @given(
        v=st.integers(min_value=0, max_value=2**32 - 1),
        masks=st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_involution(self, v, masks):
        assert xor_combine(xor_combine(v, masks, 4), masks, 4) == v

    @given(
        width=st.integers(min_value=1, max_value=64),
        operands=st.lists(st.integers(min_value=-1, max_value=2**520), min_size=1, max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_bytewise_reference(self, width, operands):
        def outcome(fn):
            try:
                return fn(operands[0], operands[1:], width)
            except OverflowError:
                return OverflowError
        assert outcome(xor_combine) == outcome(bytewise_xor)


class TestTag:
    def test_known_answers(self):
        assert tag(0, 0, 1).hex() == TAG_0_0_W1
        assert tag(100, 7, 1).hex() == TAG_100_7_W1
        assert tag(100, 8, 1).hex() == TAG_100_8_W1

    def test_deterministic(self):
        assert tag(42, 9, 3) == tag(42, 9, 3)

    def test_inputs_matter(self):
        assert tag(100, 7, 1) != tag(100, 8, 1)
        assert tag(100, 7, 1) != tag(101, 7, 1)
        # the width changes the message layout, so the digest too
        assert tag(100, 7, 1) != tag(100, 7, 2)

    def test_single_bit_flip_changes_digest(self):
        base = tag(0b1010, 0b0101, 2)
        for flipped in (0b1011, 0b1000, 0b11010):
            assert tag(flipped, 0b0101, 2) != base
            assert tag(0b1010, flipped, 2) != base

    def test_length(self):
        assert len(tag(1, 2, 4)) == TAG_BYTES == 32


class TestMaskWidth:
    @pytest.mark.parametrize(
        "m,width", [(149, 1), (255, 1), (256, 2), (65535, 2), (65537, 3), (2**32 + 1, 5)]
    )
    def test_widths(self, m, width):
        assert mask_width(m) == width

    @given(m=st.integers(min_value=2, max_value=2**128))
    @settings(max_examples=60, deadline=None)
    def test_everything_in_field_fits(self, m):
        width = mask_width(m)
        encode_fixed(m - 1, width)  # must not overflow
