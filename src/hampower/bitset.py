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
    """Uniform draw from ``range(n)``, n >= 1, by CPython's
    ``Random._randbelow_with_getrandbits`` rule: b = n.bit_length() bits,
    redrawn while the value is >= n.  For ``random.Random`` the value and
    the final state are those of ``rng.randrange(n)``, and draws below
    len(x), ..., 3, 2, each swapped into its slot, are ``rng.shuffle(x)``.
    """
    b = n.bit_length()
    x = getrandbits(b)
    while x >= n:
        x = getrandbits(b)
    return x


def pick_bit(mask: int, rng: random.Random) -> int:
    """Uniformly random set bit of a nonzero mask.

    One :func:`randbelow` draw, the same as ``randrange``, picks the rank
    of the bit.  The mask is then halved, keeping the half that holds that
    rank, until at most 64 bits are left, so only a word is decoded
    instead of the whole mask.
    """
    idx = randbelow(mask.bit_count(), rng.getrandbits)
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
    return next(islice(select(mask, count(base)), idx, None))
