from functools import reduce
from itertools import product
from operator import and_, or_

import pytest
from hypothesis import given, settings, strategies as st

from zcc.errors import GuardError, StructureError, ValidationError
from zcc import nlattice
from zcc.nlattice import (NEqualsLattice, _check_multiplicative, bell_number, bits,
                          build_lattice, classify_edges, cover_pairs, eval_int_poly,
                          lower_interval, mobius, point_count_polynomial)

from topology_inputs import from_less_pairs, less

# lattices used for structure checks: everything in scope at |d| <= 6
GRID = ([((dd,), n) for dd in range(1, 7) for n in (1, 2, 3)]
        + [(dv, n)
           for dv in [(1, 1), (2, 1), (3, 1), (2, 2), (4, 1), (3, 2), (5, 1),
                      (4, 2), (3, 3)]
           for n in (1, 2, 3)])


def test_build_examples():
    L = build_lattice((2,), 2)
    assert L.size == 2
    assert [len(e) for e in L.elements] == [2, 1]

    L = build_lattice((1, 1), 1)
    assert L.size == 2
    assert L.elements[1] == (((1, 1), (2, 1)),)

    L = build_lattice((3,), 2)
    assert L.size == 5  # every partition of a 3-set qualifies


def test_bottom_is_first_and_all_singletons():
    for dv, n in GRID:
        L = build_lattice(dv, n)
        assert all(len(b) == 1 for b in L.elements[0])
        assert all(L.ground_size - len(L.elements[i]) > 0
                   for i in range(1, L.size))


def test_block_admissibility():
    for dv, n in [((4,), 2), ((2, 2), 1), ((2, 2), 2), ((3, 2), 2)]:
        L = build_lattice(dv, n)
        m = len(dv)
        for part in L.elements:
            for block in part:
                counts = [sum(k == c for k, _i in block) for c in range(1, m + 1)]
                assert len(block) == 1 or all(c >= n for c in counts)


def test_n2_m1_is_full_partition_lattice():
    for dd in range(1, 7):
        assert build_lattice((dd,), 2).size == bell_number(dd)


def test_guard(monkeypatch):
    with pytest.raises(GuardError, match="guard"):
        build_lattice((11,), 2)
    monkeypatch.setattr(nlattice, "LATTICE_GUARD", 8)
    build_lattice((4, 4), 2)
    with pytest.raises(GuardError, match="exceeds the lattice guard 8"):
        build_lattice((4, 5), 2)


def test_covers_generate_order():
    for dv, n in [((4,), 2), ((2, 2), 1), ((3, 2), 1), ((5,), 2), ((2, 2), 2)]:
        L = build_lattice(dv, n)
        assert from_less_pairs(L.size, L.covers) == L.below


def test_mobius_examples():
    assert mobius(build_lattice((2,), 2)) == (1, -1)
    assert mobius(build_lattice((3,), 2))[-1] == 2
    assert mobius(build_lattice((1, 1), 1)) == (1, -1)


def test_mobius_recursion_vanishes_everywhere():
    for dv, n in GRID:
        L = build_lattice(dv, n)
        mob = mobius(L)  # raises internally if a value is not multiplicative
        below = L.below
        for j in range(1, L.size):
            total = mob[j] + sum(mob[x] for x in range(j) if below[j] >> x & 1)
            assert total == 0


def _multi_block_element(L):
    return next(j for j, part in enumerate(L.elements)
                if sum(len(block) > 1 for block in part) == 2)


def test_corrupted_mobius_value_is_caught():
    L = build_lattice((4, 4), 1)
    values = list(mobius(L))
    _check_multiplicative(L, values)
    j = _multi_block_element(L)
    values[j] += 1
    with pytest.raises(StructureError, match=f"element {j} is not the product"):
        _check_multiplicative(L, values)
    # a one-block element disagreeing with another of its column counts
    values = list(mobius(L))
    one_block = [j for j, part in enumerate(L.elements)
                 if [len(b) for b in part if len(b) > 1] == [2]]
    values[one_block[1]] = 5
    with pytest.raises(StructureError, match="one-block elements"):
        _check_multiplicative(L, values)


def _refinement_order(L) -> list:
    """Per element j, the bitmask of the elements i that strictly refine it:
    i != j and every block of i lies inside one block of j."""
    size = L.size
    inside = {}  # (point, v) -> the elements whose block number v holds the point
    for j, part in enumerate(L.elements):
        for v, block in enumerate(part):
            for point in block:
                inside[point, v] = inside.get((point, v), 0) | 1 << j
    labels = range(L.ground_size)
    below = [0] * size
    for i, part in enumerate(L.elements):
        coarser = ((1 << size) - 1) ^ (1 << i)  # the j that i strictly refines
        for block in part:
            if len(block) > 1:  # a singleton lies inside some block of every j
                coarser &= reduce(or_, (reduce(and_, (inside.get((p, v), 0) for p in block))
                                        for v in labels))
        for j in bits(coarser):
            below[j] |= 1 << i
    return below


def test_below_matches_naive_refinement():
    for dv, n in GRID:
        L = build_lattice(dv, n)
        assert list(L.below) == _refinement_order(L), (dv, n)


@pytest.mark.parametrize("dv, n", [((4, 4), 1), ((3, 3, 2), 1), ((7,), 3),
                                   ((2, 2, 2), 1), ((5,), 1), ((3, 3), 2)])
def test_below_masks_from_pair_masks_match_the_order(dv, n):
    L = build_lattice(dv, n)
    below = _refinement_order(L)
    assert list(L.below) == below
    # (0-hat, I): the elements other than 0-hat that strictly refine I, in
    # lattice order, each with the members of the interval that refine it
    for idx in range(L.size):
        members = [i for i in range(1, L.size) if below[idx] >> i & 1]
        bit = {x: 1 << a for a, x in enumerate(members)}
        expected = tuple(sum(bit[x] for x in bits(below[y]) if x in bit) for y in members)
        assert lower_interval(L, idx) == expected, idx


def test_corrupted_below_mask_is_caught():
    L = build_lattice((3, 3), 1)
    j = _multi_block_element(L)
    below = list(L.below)
    below[j] &= ~1  # drop the bottom, whose Mobius value is 1
    with pytest.raises(StructureError, match="Mobius value"):
        mobius(NEqualsLattice(L.d, L.n, L.dim_x, L.elements, tuple(below), L.covers))


def test_classify_edges_examples():
    counts = classify_edges(build_lattice((2,), 2))
    assert counts == {"block_creation": 1, "singleton_adding": 0, "block_merging": 0}
    counts = classify_edges(build_lattice((3,), 2))
    assert counts == {"block_creation": 3, "singleton_adding": 3, "block_merging": 0}
    counts = classify_edges(build_lattice((4,), 2))
    assert counts["block_merging"] == 3  # the {12}{34} -> {1234} merges


def test_classification_total_on_grid():
    for dv, n in GRID:
        L = build_lattice(dv, n)
        counts = classify_edges(L)
        assert sum(counts.values()) == len(L.covers)


def _partition(*blocks):
    """The partition of points of column 1 with these blocks of row indices."""
    return tuple(tuple((1, i) for i in b) for b in blocks)


# covers of d = (4,), n = 2 that no lattice has; the last upper element
# lacks the point (1, 4), so its new block is not the union of merged ones
@pytest.mark.parametrize("lower, upper, message", [
    (((1,), (2,), (3,), (4,)), ((1, 2), (3, 4)), "makes 2 new blocks"),
    (((1,), (2,), (3,), (4,)), ((1, 2, 3), (4,)),
     r"creation cover .* has column counts \[3\]"),
    (((1, 2), (3,), (4,)), ((1, 2, 3, 4),),
     r"fits no edge type \(1 non-singletons, 2 singletons merged\)"),
    (((1,), (2,), (3,), (4,)), ((1, 2), (3,)),
     "makes a block that is not the union of the blocks it merges"),
])
def test_corrupt_cover_is_caught(lower, upper, message):
    elements = (_partition(*lower), _partition(*upper))
    corrupt = NEqualsLattice((4,), 2, 1, elements, (0, 0b1), ((0, 1),))
    with pytest.raises(StructureError, match=message):
        classify_edges(corrupt)


def test_point_count_examples():
    assert point_count_polynomial(build_lattice((2,), 2)) == (0, -1, 1)
    assert point_count_polynomial(build_lattice((1, 1), 1)) == (0, -1, 1)
    assert point_count_polynomial(build_lattice((3,), 2)) == (0, 2, -3, 1)


def test_point_count_matches_brute_force():
    for dv, n in [((2,), 2), ((3,), 2), ((1, 1), 1), ((2, 1), 1), ((2, 2), 1),
                  ((2, 2), 2), ((3, 1), 2)]:
        L = build_lattice(dv, n)
        coeffs = point_count_polynomial(L)
        for q in (2, 3, 5):
            count = 0
            for tup in product(range(q), repeat=sum(dv)):
                cols = []
                pos = 0
                for dk in dv:
                    cols.append(tup[pos:pos + dk])
                    pos += dk
                if not any(all(col.count(v) >= n for col in cols)
                           for v in set(tup)):
                    count += 1
            assert count == eval_int_poly(coeffs, q), (dv, n, q)


def test_point_count_dimx_scaling():
    L = build_lattice((2,), 2, 2)
    assert point_count_polynomial(L) == (0, 0, -1, 0, 1)  # q^4 - q^2


def test_lower_interval_examples():
    L2 = build_lattice((2,), 2)
    assert lower_interval(L2, 1) == ()
    assert lower_interval(L2, 0) == ()  # open interval below the bottom
    L3 = build_lattice((3,), 2)
    assert lower_interval(L3, L3.size - 1) == (0, 0, 0)  # the three pair-partitions
    for idx in (-1, L3.size):
        with pytest.raises(ValidationError, match="out of range"):
            lower_interval(L3, idx)


def test_finite_poset_closure_and_antisymmetry():
    P = from_less_pairs(3, [(0, 1), (1, 2)])
    assert P == (0, 0b1, 0b11)
    assert less(P, 0, 2)
    with pytest.raises(ValidationError):
        from_less_pairs(2, [(0, 1), (1, 0)])


@given(st.integers(0, 1 << 300))
@settings(max_examples=200, deadline=None)
def test_bits_matches_naive(mask):
    assert list(bits(mask)) == [i for i in range(mask.bit_length()) if mask >> i & 1]


@st.composite
def random_posets(draw):
    n = draw(st.integers(0, 9))
    pairs = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                    st.integers(0, max(n - 1, 0))), max_size=20))
    # orient every pair upward so the closure is antisymmetric
    pairs = [(min(i, j), max(i, j)) for i, j in pairs if i != j]
    return from_less_pairs(n, pairs)


def naive_cover_pairs(below):
    """The cover relation by its definition, over every comparable pair:
    i < j with no k such that i < k < j."""
    size = len(below)
    above = [sum(1 << j for j in range(size) if less(below, i, j))
             for i in range(size)]
    return [(i, j) for i in range(size) for j in bits(above[i])
            if not above[i] & below[j]]


@given(random_posets())
@settings(max_examples=150, deadline=None)
def test_cover_pairs_match_naive(below):
    assert cover_pairs(below) == naive_cover_pairs(below)


# the lattices whose covers and interval homology are checked element by element
PRODUCT_LATTICES = [((2, 2, 2), 1), ((3, 3, 2), 1), ((4, 4), 2), ((7,), 3), ((5,), 2)]


@pytest.mark.parametrize("dv, n", PRODUCT_LATTICES)
def test_lattice_covers_match_naive(dv, n):
    L = build_lattice(dv, n)
    assert list(L.covers) == naive_cover_pairs(L.below)


def test_cover_pairs_need_a_linear_extension():
    with pytest.raises(StructureError, match="element 0 lies above an element "
                                             "numbered at or after it"):
        cover_pairs((0b10, 0))
    # a lattice numbered top first: the same order, not a linear extension
    L = build_lattice((3,), 2)
    top = L.size - 1
    flipped = [0] * L.size
    for j, mask in enumerate(L.below):
        flipped[top - j] = sum(1 << (top - i) for i in bits(mask))
    with pytest.raises(StructureError, match="numbered at or after it"):
        cover_pairs(flipped)
