"""The n-equals partition lattice and its point-count polynomial.

Elements are set partitions of a column-tagged ground set {(k, i)} in which
every block is a singleton or contains at least n elements from each of the m
columns, ordered by refinement (bottom = all singletons).  The Mobius
function from the bottom turns block counts into the exact number of
F_q-points of the ordered 0-cycle space over affine space, by
inclusion-exclusion over the arrangement's intersection poset.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations
from math import prod
from operator import or_

from .errors import GuardError, StructureError, ValidationError
from .record import Record

# The |d| guard, never lifted: the lattice grows with the Bell number of |d|,
# and generation recurses once per ground point.  Read at call time, so tests
# can lower it.
LATTICE_GUARD = 10
# dim_x * |d| is the degree of the point-count polynomial and bounds the top
# Betti degree: both list that many entries.
DIMENSION_GUARD = 10 ** 6


@lru_cache(maxsize=None)
def bell_number(n: int) -> int:
    row = [1]
    for _ in range(n):
        new = [row[-1]]
        for x in row:
            new.append(new[-1] + x)
        row = new
    return row[0]


def bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# Posets as below masks (lattices, their intervals, order complexes)
# ---------------------------------------------------------------------------


def cover_pairs(below) -> list:
    """The sorted pairs (i, j) with i < j and nothing strictly between, from
    below[j], the bitmask of {i : i < j}, of a poset numbered along a linear
    extension: i < j only if i < j as integers.

    A transitive reduction in one step per cover: the highest element left
    below j is maximal there, so it is covered by j, and clearing it with
    everything below it leaves only elements that no cover found so far lies
    above.  Raises unless the numbering is a linear extension, which the
    highest-first order relies on.
    """
    for j, mask in enumerate(below):
        if mask >> j:
            raise StructureError(
                f"element {j} lies above an element numbered at or after it")
    uppers = [[] for _ in below]  # uppers[i]: the j covering i, ascending
    for j, rest in enumerate(below):
        while rest:
            c = rest.bit_length() - 1
            uppers[c].append(j)
            rest = (rest ^ (1 << c)) & ~below[c]
    return [(i, j) for i, js in enumerate(uppers) for j in js]


class NEqualsLattice(Record):
    __slots__ = {
        "d": "the degree vector", "n": "the threshold",
        "dim_x": "the dimension of the affine space X the points lie in",
        "elements": "canonical block tuples, bottom first, by rank: each "
                    "block a sorted tuple of (column, index) points, blocks "
                    "ordered by their least point",
        "below": "below[j] = bitmask of {i : elements[i] < elements[j]}",
        "covers": "(lower index, upper index) pairs",
    }

    @property
    def m(self) -> int:
        return len(self.d)

    @property
    def ground_size(self) -> int:
        return sum(self.d)

    @property
    def size(self) -> int:
        return len(self.elements)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def build_lattice(d, n: int, dim_x: int = 1) -> NEqualsLattice:
    """Generate the n-equals partition lattice for the degree vector d, of
    the 0-cycles on affine dim_x-space.

    d, n and dim_x are checked, then the dimension and lattice guards, all
    before any element is generated.  Admissible partitions are assembled
    depth-first with canonical block ordering (blocks indexed by their least
    element), pruning branches whose deficient blocks can no longer collect
    n elements per column.
    """
    d = tuple(int(x) for x in d)
    if not d or any(x < 0 for x in d):
        raise ValidationError(f"bad degree vector {d}")
    if n < 1:
        raise ValidationError("threshold n must be >= 1")
    if dim_x < 1:
        raise ValidationError("dim_x must be >= 1")
    total = sum(d)
    if (dimension := dim_x * total) > DIMENSION_GUARD:
        raise GuardError(
            f"dim_x * |d| = {dimension} exceeds the dimension guard {DIMENSION_GUARD}")
    if total > LATTICE_GUARD:  # the Bell number is cheap only for a small |d|
        bound = f"; up to ~{bell_number(total)} set partitions" if total <= 100 else ""
        raise GuardError(
            f"|d| = {total} exceeds the lattice guard {LATTICE_GUARD}{bound}")

    m = len(d)
    ground = [(k + 1, i + 1) for k, dk in enumerate(d) for i in range(dk)]
    col_of = [k for k, dk in enumerate(d) for _ in range(dk)]
    # suffix[idx][k] = number of ground points with position >= idx in column k
    suffix = [[0] * m for _ in range(total + 1)]
    for idx in range(total - 1, -1, -1):
        suffix[idx] = list(suffix[idx + 1])
        suffix[idx][col_of[idx]] += 1

    found: list[tuple] = []
    blocks: list[list[int]] = []
    counts: list[list[int]] = []

    def feasible(idx: int) -> bool:
        need = [0] * m
        for block, cnt in zip(blocks, counts):
            if len(block) >= 2:
                for k in range(m):
                    if cnt[k] < n:
                        need[k] += n - cnt[k]
        rem = suffix[idx]
        return all(need[k] <= rem[k] for k in range(m))

    def rec(idx: int) -> None:
        if not feasible(idx):
            return
        if idx == total:
            found.append(tuple(tuple(ground[i] for i in block) for block in blocks))
            return
        k = col_of[idx]
        for block, cnt in zip(blocks, counts):
            block.append(idx)
            cnt[k] += 1
            rec(idx + 1)
            cnt[k] -= 1
            block.pop()
        blocks.append([idx])
        fresh = [0] * m
        fresh[k] = 1
        counts.append(fresh)
        rec(idx + 1)
        blocks.pop()
        counts.pop()

    rec(0)
    found.sort(key=lambda part: (total - len(part), part))

    # Refinement order by bitsets over the elements: together[a, b] marks
    # the elements in which points a < b share a block.  I <= J iff I keeps
    # apart every pair that J keeps apart, so below[j] is everything outside
    # the OR of the sets of the pairs apart in J, except J itself.
    index_of_point = {pt: i for i, pt in enumerate(ground)}
    point_blocks = [[[index_of_point[pt] for pt in block]
                     for block in part if len(block) > 1]
                    for part in found]
    together: dict = {}
    for j, blocks_j in enumerate(point_blocks):
        bit = 1 << j
        for block in blocks_j:
            for pair in combinations(block, 2):
                together[pair] = together.get(pair, 0) | bit

    size = len(found)
    everything = (1 << size) - 1
    below = []
    for j, blocks_j in enumerate(point_blocks):
        kept = {pair for block in blocks_j for pair in combinations(block, 2)}
        below.append(everything ^ (1 << j) ^ reduce(
            or_, (mask for pair, mask in together.items() if pair not in kept), 0))
    return NEqualsLattice(d=d, n=n, dim_x=dim_x, elements=tuple(found),
                          below=tuple(below), covers=tuple(cover_pairs(below)))


# ---------------------------------------------------------------------------
# Mobius function
# ---------------------------------------------------------------------------


def mobius(L: NEqualsLattice) -> tuple:
    """mu(0-hat, I) per element index, by the defining recursion, checked by
    multiplicativity (`_check_multiplicative`).

    The sum over below[j] is taken one value at a time: with_value[v] is the
    bitmask of the elements found so far to have value v, so the sum is that
    of v times the number of them in below[j].
    """
    below = L.below
    values = [0] * L.size
    values[0] = 1  # bottom comes first in element order
    with_value = {1: 1 << 0}  # the bottom, element 0
    for j in range(1, L.size):
        mask = below[j]
        value = -sum(v * (mask & marked).bit_count()
                     for v, marked in with_value.items())
        values[j] = value
        with_value[value] = with_value.get(value, 0) | 1 << j
    _check_multiplicative(L, values)
    return tuple(values)


def block_shapes(L: NEqualsLattice) -> list:
    """Per element, the column counts of its non-singleton blocks, in block
    order, each a tuple.  [0-hat, I] is the product of the intervals below
    the one-block elements of I's shapes (`_check_multiplicative`)."""
    columns = range(1, L.m + 1)
    return [[tuple(sum(k == c for k, _i in block) for c in columns)
             for block in part if len(block) > 1]
            for part in L.elements]


def _check_multiplicative(L: NEqualsLattice, values) -> None:
    """Raise unless mu(0-hat, I) = prod_B mu(0-hat, I_B) over I's
    non-singleton blocks B, I_B having B as its one non-singleton block.

    Admissibility is block by block, so [0-hat, I] is the product of the
    intervals [0-hat, I_B], and [0-hat, I_B] depends only on B's column
    counts: every element with one non-singleton block must agree with the
    others of its counts, and every other element with the product.  Each
    I_B has a lower rank than I, so it comes first in element order.
    """
    by_counts: dict = {}
    for j, (shape, value) in enumerate(zip(block_shapes(L), values)):
        if len(shape) == 1:
            if by_counts.setdefault(shape[0], value) != value:
                raise StructureError(
                    f"Mobius values differ on one-block elements of counts {shape[0]}")
        elif value != prod(by_counts.get(c, 0) for c in shape):
            raise StructureError(
                f"Mobius value {value} at element {j} is not the product over its blocks")


# ---------------------------------------------------------------------------
# Cover-edge taxonomy
# ---------------------------------------------------------------------------


def classify_edges(L: NEqualsLattice) -> dict:
    """Count every cover edge by type ("block_creation", "singleton_adding",
    "block_merging"); unclassifiable edges raise.

    Blocks are bitmasks over the ground points.  A cover makes exactly one
    new block, the union of the blocks it merges; their sizes give the type,
    and a creation cover must make a minimal admissible block: exactly n
    points per column, except that for n = m = 1 minimality means size 2 (a
    1-element "block" would just be a singleton).
    """
    offsets = [0]
    for dk in L.d:
        offsets.append(offsets[-1] + dk)
    columns = [((1 << dk) - 1) << offset for dk, offset in zip(L.d, offsets)]
    block_sets = [frozenset(sum(1 << (offsets[k - 1] + i - 1) for k, i in block)
                            for block in part)
                  for part in L.elements]
    counts = {"block_creation": 0, "singleton_adding": 0, "block_merging": 0}
    for lower, upper in L.covers:
        fine = block_sets[lower]
        coarse = block_sets[upper]
        made = coarse - fine
        merged = fine - coarse
        if len(made) != 1:
            raise StructureError(
                f"cover {lower} -> {upper} makes {len(made)} new blocks")
        (block,) = made
        union = 0
        bigs = 0
        for part in merged:
            union |= part
            bigs += part.bit_count() > 1
        if union != block:
            raise StructureError(
                f"cover {lower} -> {upper} makes a block that is not the union "
                "of the blocks it merges")
        singles = len(merged) - bigs
        if bigs == 0:
            per_column = [(block & column).bit_count() for column in columns]
            if L.n * L.m >= 2:
                minimal = all(c == L.n for c in per_column)
            else:
                minimal = block.bit_count() == 2
            if not minimal:
                raise StructureError(
                    f"creation cover {lower} -> {upper} has column counts {per_column}")
            counts["block_creation"] += 1
        elif bigs == 1 and singles == 1:
            counts["singleton_adding"] += 1
        elif bigs == 2 and singles == 0:
            counts["block_merging"] += 1
        else:
            raise StructureError(
                f"cover {lower} -> {upper} fits no edge type "
                f"({bigs} non-singletons, {singles} singletons merged)")
    return counts


# ---------------------------------------------------------------------------
# Point counts and intervals
# ---------------------------------------------------------------------------


def point_count_polynomial(L: NEqualsLattice, mob: tuple | None = None) -> tuple:
    """N(q) = sum_I mu(0,I) q^(dim_x * #blocks(I)), low-to-high coefficients,
    from `mob`, L's Mobius values `mobius(L)`, when the caller has them.

    For every prime power q this is the number of F_q-points of the ordered
    0-cycle space over affine dim_x-space.
    """
    if mob is None:
        mob = mobius(L)
    dim_x = L.dim_x
    # the top coefficient is mu(0-hat, 0-hat) = 1, so nothing needs trimming
    coeffs = [0] * (dim_x * L.ground_size + 1)
    for i, part in enumerate(L.elements):
        coeffs[dim_x * len(part)] += mob[i]
    return tuple(coeffs)


def eval_int_poly(coeffs, q: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * q + c
    return acc


def lower_interval(L: NEqualsLattice, idx: int) -> tuple:
    """The open interval (0-hat, I) below the element of index idx, as the
    below masks of its elements, renumbered in lattice order."""
    if not 0 <= idx < L.size:
        raise ValidationError(f"element index {idx} out of range")
    below = L.below
    members = [x for x in bits(below[idx]) if x != 0]  # without the bottom, bit 0
    bit = {orig: 1 << new for new, orig in enumerate(members)}
    return tuple(sum(bit[x] for x in bits(below[orig] & ~1)) for orig in members)
