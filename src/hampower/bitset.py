"""Vertex-set helpers on Python int bitmasks.

Vertex sets are manipulated as arbitrary-precision ints throughout the hot
paths (neighbourhood intersections, degree counts); these helpers keep the
bit fiddling in one place.
"""

from __future__ import annotations

import random
from itertools import compress, count, islice
from typing import Callable, Iterable, Iterator, TypeVar

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


def nth_bit(mask: int, idx: int) -> int:
    """Position of the set bit of rank ``idx`` (0-based, from the lowest)
    in ``mask``, for 0 <= idx < mask.bit_count().

    The mask is halved, keeping the half that holds that rank, until at
    most 64 bits are left, so only a word is read instead of the whole
    mask.  In that word a small rank clears the lowest set bit idx times;
    a larger one walks the set bits with :func:`select`.
    """
    base = 0
    while (width := mask.bit_length()) > 64:
        half = width >> 1
        low = mask & ((1 << half) - 1)
        below = low.bit_count()
        if idx < below:
            mask = low
        else:
            idx -= below
            mask >>= half
            base += half
    if idx < _CLEAR_BELOW:
        for _ in range(idx):
            mask &= mask - 1
        return base + (mask & -mask).bit_length() - 1
    return next(islice(select(mask, count(base)), idx, None))


def pick_bit(mask: int, rng: random.Random) -> int:
    """Uniformly random set bit of a nonzero mask: one :func:`randbelow`
    draw, the same as ``randrange``, picks the rank of the bit, and
    :func:`nth_bit` finds it.  Raises ``ValueError`` on an empty mask.
    """
    return nth_bit(mask, randbelow(mask.bit_count(), rng.getrandbits))
