"""Bitset helpers: subsets of [0, limit] packed into a single Python int.

Bit x of a bitset is set iff x belongs to the subset.  All the heavy
arithmetic of the package (the closure at construction, the order
filtration) runs on these, because shifting an int by a generator and
AND/OR-ing is a whole-window operation at C speed.

Never test one bit per loop step: ``(bits >> x) & 1`` copies the whole
window, so a loop over x costs O(window^2).  Intersect, count and read sets
out whole: ``bits_to_tuple`` cuts the int into 64-bit words once and, on a
sparse int, steps only through the nonzero ones; many point reads go through
one ``to_bytes`` of the int.  A fold through ``add_generator`` tests one
membership per generator inside a closure step, not one per position.
"""

from __future__ import annotations

import struct
from array import array
from itertools import compress
from typing import Iterable, Sequence


def window_mask(limit: int) -> int:
    """Mask selecting bits 0..limit inclusive."""
    return (1 << (limit + 1)) - 1


def closure_bits(gens: Iterable[int], limit: int, bits: int = 1) -> int:
    """Additive closure of ``gens`` (including 0), intersected with [0, limit].

    For each generator the shift doubles (g, 2g, 4g, ...), which reaches every
    multiple of g inside the window in O(log(limit/g)) big-int operations.
    ``bits`` may already hold a windowed monoid; the result is then that
    monoid grown by ``gens``, so a closure can be extended one generator at a
    time.
    """
    mask = window_mask(limit)
    for g in gens:
        shift = g
        while shift <= limit:
            bits |= (bits << shift) & mask
            shift <<= 1
    return bits


def add_generator(bits: int, gen_bits: int, x: int, limit: int) -> int:
    """The monoid ``bits`` over [0, limit] grown by x <= limit, or 0 when x
    is a member or makes some h in ``gen_bits`` x plus a member.

    Only a sum that uses x can make a generator h redundant, and h - x is
    its rest, so a fold through this step succeeds iff the set is minimal,
    in any order.  A sum has its terms below it: an ascending fold may pass
    0 for ``gen_bits``, and it fails first at the smallest redundant value.
    """
    # closure_bits((x,), limit, bits), inlined: one call per generator.
    mask = (2 << limit) - 1
    grown, shift = bits, x
    while shift <= limit:
        grown |= (grown << shift) & mask
        shift <<= 1
    # x is a member iff it adds nothing.
    return 0 if grown == bits or gen_bits >> x & grown else grown


def frobenius_window(bits: int, gens: Sequence[int], limit: int) -> tuple[int, int]:
    """(bits, limit): the closure ``bits`` of the ascending ``gens``, exact
    over [0, limit] for some limit >= max(gens), grown to a window that holds
    f + e, so that f is ``largest_missing`` of the returned pair.

    The window doubles from ``limit`` until its top e bits are all members,
    so that every larger integer is one too; it stops at the cap
    max(e - 1, 1) * max(gens) + 1, which holds f + e when the gcd is 1 (every
    class mod e is reached with at most e - 1 generators).
    """
    e, top = gens[0], gens[-1]
    cap = max(e - 1, 1) * top + 1
    while limit < cap and bits >> (limit - e + 1) != (1 << e) - 1:
        limit = min(2 * limit, cap)
        bits = closure_bits(gens, limit, bits)
    return bits, limit


def shift_sum(bits: int, gens: Iterable[int], mask: int) -> int:
    """Minkowski sum of the set ``bits`` with the generator set, windowed.

    Correct for saturated sets: if ``bits`` encodes h*M for the semigroup
    generated by ``gens`` then the result encodes (h+1)*M, because every
    element of M is a generator plus a semigroup element.
    """
    out = 0
    for g in gens:
        out |= bits << g
    return out & mask


def largest_missing(bits: int, limit: int) -> int:
    """Largest x in [0, limit] whose bit is clear, or -1 if none."""
    comp = ~bits & window_mask(limit)
    return comp.bit_length() - 1


def fold_classes(bits: int, e: int) -> int:
    """The residues mod e of the members of ``bits``, as a set of [0, e).

    Two members of one class leave one bit, so the count falls short of
    ``bits.bit_count()`` exactly when some class holds two.  The window of
    L blocks of e bits is cut after ceil(L/2) blocks and its top OR-ed onto
    its bottom until one block is left: O(log L) whole-int steps on a
    shrinking int.
    """
    width = bits.bit_length()
    while width > e:
        half = -(-width // (2 * e)) * e
        bits = bits & ((1 << half) - 1) | bits >> half
        width = half
    return bits


def class_table(column: int, e: int) -> array:
    """The element of each class mod e of ``column``, which holds at most one
    per class, indexed by class and packed 4 bytes a class (``ResourceLimit``
    keeps every Apery element below 2**25); an empty class reads 0."""
    table = array("i", bytes(4 * e))
    for w in bits_to_tuple(column):
        table[w % e] = w
    return table


def bits_to_tuple(bits: int) -> tuple[int, ...]:
    """The set bit positions of a non-negative int, in increasing order.

    The int is cut once into 64-bit words and each set bit is peeled off its
    own word, never off the whole int.  When fewer than one bit in eight
    words is set, only the nonzero words are visited (found by ``compress``
    at C speed), so a sparse set in a wide window costs its size, not the
    window's; a denser int steps through every word, which is faster there.
    A single bit is read off ``bit_length`` without a cut.  Ints of at most
    four words (empty sets included) are peeled whole: at that size the
    fixed cost of the cut outweighs what it saves.
    """
    if not bits:
        return ()
    if bits.bit_length() <= 256:
        out = []
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return tuple(out)
    count = bits.bit_count()
    if count == 1:
        return (bits.bit_length() - 1,)
    n = (bits.bit_length() + 63) // 64
    words = struct.unpack("<%dQ" % n, bits.to_bytes(8 * n, "little"))
    out = []
    if 8 * count < len(words):
        for i in compress(range(len(words)), words):
            w, base = words[i], i << 6
            while w:
                low = w & -w
                out.append(base + low.bit_length() - 1)
                w ^= low
        return tuple(out)
    base = 0
    for w in words:
        while w:
            low = w & -w
            out.append(base + low.bit_length() - 1)
            w ^= low
        base += 64
    return tuple(out)
