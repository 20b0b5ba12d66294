"""Vertex-set helpers on Python int bitmasks.

Vertex sets are manipulated as arbitrary-precision ints throughout the hot
paths (neighbourhood intersections, degree counts); these helpers keep the
bit fiddling in one place.
"""

from __future__ import annotations

import random
from itertools import compress, count, islice
from typing import Callable, Iterable, Iterator, Optional, TypeVar

T = TypeVar("T")

_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def select(mask: int, items: Iterable[T]) -> Iterator[T]:
    """The items at the set bit positions of ``mask``, in increasing order.

    The mask is decoded in C through its binary string; with
    ``itertools.count()`` as the items it yields the set bit positions.
    """
    return compress(items, bin(mask)[:1:-1].encode().translate(_BIT_FLAGS))


def lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def randbelow(n: int, getrandbits: Callable[[int], int]) -> int:
    """Uniform draw from ``range(n)`` by CPython's
    ``Random._randbelow_with_getrandbits`` rule: b = n.bit_length() bits,
    redrawn while the value is >= n.  For ``random.Random`` the value and
    the final state are those of ``rng.randrange(n)``, and draws below
    len(x), ..., 3, 2, each swapped into its slot, are ``rng.shuffle(x)``.
    Raises ``ValueError`` for n < 1, as ``randrange(0)`` does, where the
    rule would draw 0 bits forever.
    """
    if n < 1:
        raise ValueError(f"empty range: randbelow({n})")
    b = n.bit_length()
    x = getrandbits(b)
    while x >= n:
        x = getrandbits(b)
    return x


# below this rank, clearing the lowest set bit idx times beats decoding
# the word; measured on random 64-bit words, the two meet near rank 18
_CLEAR_BELOW = 18

# above this width one interpolated cut replaces the halving.  On random
# masks of density 1/64 to 3/4, with the popcount given, the cut is the
# faster from about 192 bits on; the path builder's level masks (at most
# about 100 bits) and the 150-vertex rainbow workload's stay below it
_WIDE = 256

# the cut falls this many bits below the rank's interpolated position, so
# that the rank mostly lies in the word just above it and low in that word;
# on the absorber walk's pools (about 2 000 bits, density near 1/2) 16 was
# about 8% faster than 32, and 8 no faster than 16
_CUT_BELOW = 16

_WORD = (1 << 64) - 1


def nth_bit(mask: int, idx: int, total: Optional[int] = None) -> int:
    """Position of the set bit of rank ``idx`` (0-based, from the lowest)
    in ``mask``, for 0 <= idx < mask.bit_count(); ``total``, when given,
    must be ``mask.bit_count()``.

    Only a word is decoded instead of the whole mask.  A mask up to
    ``_WIDE`` bits wide is halved, keeping the half that holds that rank,
    until at most 64 bits are left.  A wider one is cut once, by one shift
    and one popcount, ``_CUT_BELOW`` bits below where the rank would lie if
    its set bits were spread evenly; then the 64-bit words above the cut,
    or below it if the cut overshot, are counted until the one holding the
    rank.  In that word a small rank clears the lowest set bit idx times;
    a larger one walks the set bits with :func:`select`.
    """
    base = 0
    if (width := mask.bit_length()) > _WIDE:
        if total is None:
            total = mask.bit_count()
        base = max(0, (2 * idx + 1) * width // (2 * total) - _CUT_BELOW)
        above = mask >> base
        idx -= total - above.bit_count()  # the rank among the bits from base up
        if idx < 0:  # the cut overshot: count the words below it
            while idx < 0:
                step = min(64, base)
                base -= step
                word = (mask >> base) & ((1 << step) - 1)
                idx += word.bit_count()
        else:
            while idx >= (c := (word := above & _WORD).bit_count()):
                idx -= c
                above >>= 64
                base += 64
        mask = word
    else:
        while width > 64:
            half = width >> 1
            low = mask & ((1 << half) - 1)
            below = low.bit_count()
            if idx < below:
                mask = low
            else:
                idx -= below
                mask >>= half
                base += half
            width = mask.bit_length()
    if idx < _CLEAR_BELOW:
        for _ in range(idx):
            mask &= mask - 1
        return base + (mask & -mask).bit_length() - 1
    return next(islice(select(mask, count(base)), idx, None))


def pick_bit(mask: int, rng: random.Random) -> int:
    """Uniformly random set bit of a nonzero mask: one :func:`randbelow`
    draw, the same as ``randrange``, picks the rank of the bit, and
    :func:`nth_bit` finds it, given the popcount that the draw took.
    Raises ``ValueError`` on an empty mask.
    """
    total = mask.bit_count()
    return nth_bit(mask, randbelow(total, rng.getrandbits), total)
