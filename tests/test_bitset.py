import random
from itertools import count

import pytest

from helpers import reference_pick_bit
from hampower.bitset import (
    _CLEAR_BELOW,
    _WIDE,
    mask_of,
    nth_bit,
    pick_bit,
    randbelow,
    select,
)

# every size up to 300, and each side of the powers of two up to 2^70, where
# getrandbits takes one more bit or one more 32-bit word
SIZES = sorted(set(range(1, 301)) | {(1 << j) + d for j in range(1, 71) for d in (-1, 1)})
SEEDS = (0, 1, 90, 2**31 + 7)


def assert_same_pick(mask, seed, draws=3):
    """Same bits and same generator state as the full-walk reference."""
    ours, ref = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        assert pick_bit(mask, ours) == reference_pick_bit(mask, ref), (mask.bit_length(), seed)
        assert ours.getstate() == ref.getstate()


class TestRandbelow:
    def test_same_values_and_state_as_randrange(self):
        for seed in SEEDS:
            ours, ref = random.Random(seed), random.Random(seed)
            for n in SIZES:
                assert [randbelow(n, ours.getrandbits) for _ in range(3)] == [
                    ref.randrange(n) for _ in range(3)
                ], (n, seed)
                assert ours.getstate() == ref.getstate()

    @pytest.mark.parametrize("n", [0, -3])
    def test_empty_range_raises_without_drawing(self, n):
        # the rule would draw 0 bits (n = 0) or values never below n forever
        rng = random.Random(5)
        state = rng.getstate()
        with pytest.raises(ValueError):
            randbelow(n, rng.getrandbits)
        with pytest.raises(ValueError):
            random.Random(5).randrange(n)
        assert rng.getstate() == state


def assert_every_rank(mask):
    """nth_bit of every rank, with and without the popcount given, is the
    reference's: the list of every set bit of the mask, read at that rank
    (``reference_nth_bit``, listed once for all ranks)."""
    total = mask.bit_count()
    want = list(select(mask, count()))
    assert [nth_bit(mask, idx) for idx in range(total)] == want, mask.bit_length()
    assert [nth_bit(mask, idx, total) for idx in range(total)] == want, mask.bit_length()


# widths on both sides of the halving's word, of the cut's threshold and of
# the cut's word steps, up to 8192 bits
WIDE_WIDTHS = sorted({65, 127, 128, 129, _WIDE - 1, _WIDE, _WIDE + 1, _WIDE + 2,
                      300, 511, 512, 513, 1000, 1024, 1025, 2000, 4096, 8192})
DENSITIES = (1 / 64, 1 / 8, 1 / 2, 7 / 8, 1)


def random_mask(rng, width, density):
    """A mask of the given width whose other bits are each set with the
    given probability."""
    bits = (v for v in range(width - 1) if rng.random() < density)
    return mask_of(bits) | 1 << (width - 1)


def far_from_the_cut(width):
    """Masks of the given width whose set bits lie far from where an even
    spread puts them, so that the cut misses their rank by many words."""
    word = (1 << 64) - 1
    block = (1 << 512) - 1
    top = 1 << (width - 1)
    blocks = mask_of(range(0, width, 1024))  # bit 0 of every other 512-bit block
    return {
        "top word": word << (width - 64),
        "bottom word": word | top,
        "single bit": top,
        "bottom half": (1 << (width // 2)) - 1 | top,
        "two ends": word | word << (width - 64),
        "full blocks first": (blocks * block) & ((1 << width) - 1) | top,
        "empty blocks first": (blocks * block << 512) & ((1 << width) - 1) | top,
    }


class TestNthBit:
    def test_every_rank_at_every_width_up_to_300(self):
        # full masks hold every rank on both sides of the clear/walk cut-off,
        # in a word and in the words that halving leaves of wider masks
        rng = random.Random(83)
        for width in range(1, 301):
            top = 1 << (width - 1)
            for mask in (
                top,
                1 << rng.randrange(width),
                top | rng.getrandbits(width),
                (1 << width) - 1,
            ):
                assert_every_rank(mask)

    def test_ranks_beside_the_cut_offs(self):
        # the last cleared rank and the first walked one, in a mask of one
        # word (64 bits) and in one that is halved first (65 and 129 bits)
        for width in (_CLEAR_BELOW + 1, 63, 64, 65, 128, 129):
            mask = (1 << width) - 1
            for idx in (_CLEAR_BELOW - 1, _CLEAR_BELOW):
                assert nth_bit(mask, idx) == idx
                assert nth_bit(mask << 7, idx) == idx + 7

    @pytest.mark.parametrize("width", WIDE_WIDTHS)
    def test_every_rank_of_wide_masks_at_every_density(self, width):
        rng = random.Random(width)
        for density in DENSITIES:
            assert_every_rank(random_mask(rng, width, density))

    @pytest.mark.parametrize("width", [_WIDE + 1, 1000, 2000, 8192])
    @pytest.mark.parametrize("kind", list(far_from_the_cut(8192)))
    def test_every_rank_where_the_cut_misses_by_many_words(self, width, kind):
        mask = far_from_the_cut(width)[kind]
        assert mask.bit_length() == width
        assert_every_rank(mask)

    def test_dense_and_sparse_2000_bit_masks(self):
        rng = random.Random(84)
        for _ in range(10):
            holes = sum(1 << v for v in rng.sample(range(2000), 60))
            assert_every_rank(((1 << 2000) - 1) & ~holes)
            assert_every_rank(holes | 1 << 1999)


class TestPickBit:
    def test_same_rank_and_state_as_randrange(self):
        # n set bits spread over a mask up to about 10 000 bits wide; the
        # rank is one randrange(n)
        gen = random.Random(82)
        for seed in SEEDS:
            ours, ref = random.Random(seed), random.Random(seed)
            for n in (n for n in SIZES if n < 5000):
                bits = sorted(gen.sample(range(2 * n + 5), n))
                mask = sum(1 << v for v in bits)
                assert pick_bit(mask, ours) == bits[ref.randrange(n)], (n, seed)
                assert ours.getstate() == ref.getstate()

    def test_every_width_up_to_300(self):
        # covers the 64-bit cut-off of the halving: widths 63, 64, 65, 128, 129
        rng = random.Random(80)
        for width in range(1, 301):
            top = 1 << (width - 1)
            for mask in (
                top,
                1 << rng.randrange(width),
                top | rng.getrandbits(width),
                (1 << width) - 1,
            ):
                assert_same_pick(mask, rng.getrandbits(32))

    def test_dense_2000_bit_masks(self):
        rng = random.Random(81)
        for _ in range(20):
            mask = (1 << 2000) - 1
            for _ in range(60):
                mask &= ~(1 << rng.randrange(2000))
            assert_same_pick(mask, rng.getrandbits(32), draws=20)

    @pytest.mark.parametrize("width", [2000, 2048, 4096, 8192])
    def test_wide_masks_at_every_density(self, width):
        rng = random.Random(width)
        for density in DENSITIES:
            assert_same_pick(random_mask(rng, width, density), rng.getrandbits(32), draws=40)

    @pytest.mark.parametrize("kind", list(far_from_the_cut(8192)))
    def test_wide_masks_far_from_the_cut(self, kind):
        for width in (2000, 8192):
            assert_same_pick(far_from_the_cut(width)[kind], width, draws=40)

    def test_empty_mask_raises(self):
        with pytest.raises(ValueError):
            pick_bit(0, random.Random(6))
