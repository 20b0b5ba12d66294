import random

from helpers import reference_pick_bit
from hampower.bitset import pick_bit


def assert_same_pick(mask, seed, draws=3):
    """Same bits and same generator state as the full-walk reference."""
    ours, ref = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        assert pick_bit(mask, ours) == reference_pick_bit(mask, ref), (mask.bit_length(), seed)
        assert ours.getstate() == ref.getstate()


class TestPickBit:
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
