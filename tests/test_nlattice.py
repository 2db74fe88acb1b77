from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from zcc.errors import GuardError, StructureError, ValidationError
from zcc.nlattice import (EdgeType, FinitePoset, LatticePartition,
                          NEqualsLattice, _check_multiplicative, bell_number, bits,
                          build_lattice, classify_edges, eval_int_poly,
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
    assert [e.num_blocks for e in L.elements] == [2, 1]

    L = build_lattice((1, 1), 1)
    assert L.size == 2
    assert L.elements[1].blocks == (((1, 1), (2, 1)),)

    L = build_lattice((3,), 2)
    assert L.size == 5  # every partition of a 3-set qualifies


def test_bottom_is_first_and_all_singletons():
    for dv, n in GRID:
        L = build_lattice(dv, n)
        assert all(len(b) == 1 for b in L.elements[0].blocks)
        assert all(L.ground_size - L.elements[i].num_blocks > 0
                   for i in range(1, L.size))


def test_block_admissibility():
    for dv, n in [((4,), 2), ((2, 2), 1), ((2, 2), 2), ((3, 2), 2)]:
        L = build_lattice(dv, n)
        m = len(dv)
        for part in L.elements:
            for block, counts in zip(part.blocks, part.column_counts(m)):
                assert len(block) == 1 or all(c >= n for c in counts)


def test_n2_m1_is_full_partition_lattice():
    for dd in range(1, 7):
        assert build_lattice((dd,), 2).size == bell_number(dd)


def test_guard():
    with pytest.raises(GuardError, match="guard"):
        build_lattice((11,), 2)
    build_lattice((4, 4), 2, guard=8)


def test_covers_generate_order():
    for dv, n in [((4,), 2), ((2, 2), 1), ((3, 2), 1), ((5,), 2), ((2, 2), 2)]:
        L = build_lattice(dv, n)
        reach = [0] * L.size
        for lo, hi in L.covers:
            reach[lo] |= 1 << hi
        changed = True
        while changed:
            changed = False
            for i in range(L.size):
                mask, extra = reach[i], 0
                for j in range(L.size):
                    if mask >> j & 1:
                        extra |= reach[j]
                if extra | mask != mask:
                    reach[i] |= extra
                    changed = True
        assert tuple(reach) == L.above


def test_above_matches_naive_refinement():
    # I < J iff I != J and every block of I lies inside one block of J
    for dv, n in GRID + [((3, 3, 2), 1)]:
        L = build_lattice(dv, n)
        for i in range(L.size):
            fine = [set(block) for block in L.elements[i].blocks]
            for j in range(L.size):
                coarse = [set(block) for block in L.elements[j].blocks]
                refines = all(any(b <= c for c in coarse) for b in fine)
                assert bool(L.above[i] >> j & 1) == (i != j and refines), (dv, n, i, j)


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
                if sum(len(block) > 1 for block in part.blocks) == 2)


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
                 if [len(b) for b in part.blocks if len(b) > 1] == [2]]
    values[one_block[1]] = 5
    with pytest.raises(StructureError, match="one-block elements"):
        _check_multiplicative(L, values)


@pytest.mark.parametrize("dv, n", [((4, 4), 1), ((3, 3, 2), 1), ((7,), 3),
                                   ((2, 2, 2), 1), ((5,), 1), ((3, 3), 2)])
def test_below_masks_from_pair_masks_match_the_order(dv, n):
    L = build_lattice(dv, n)
    assert L.below == FinitePoset(L.elements, L.above).below_masks()


def test_corrupted_below_mask_is_caught():
    L = build_lattice((3, 3), 1)
    j = _multi_block_element(L)
    below = list(L.below)
    below[j] &= ~1  # drop the bottom, whose Mobius value is 1
    with pytest.raises(StructureError, match="Mobius value"):
        mobius(NEqualsLattice(L.d, L.n, L.elements, L.above, tuple(below), L.covers))


def test_classify_edges_examples():
    counts = classify_edges(build_lattice((2,), 2))
    assert counts == {EdgeType.BLOCK_CREATION: 1, EdgeType.SINGLETON_ADDING: 0,
                      EdgeType.BLOCK_MERGING: 0}
    counts = classify_edges(build_lattice((3,), 2))
    assert counts[EdgeType.BLOCK_CREATION] == 3
    assert counts[EdgeType.SINGLETON_ADDING] == 3
    assert counts[EdgeType.BLOCK_MERGING] == 0
    counts = classify_edges(build_lattice((4,), 2))
    assert counts[EdgeType.BLOCK_MERGING] == 3  # the {12}{34} -> {1234} merges


def test_classification_total_on_grid():
    for dv, n in GRID:
        L = build_lattice(dv, n)
        counts = classify_edges(L)
        assert sum(counts.values()) == len(L.covers)


def _partition(*blocks):
    """The partition of points of column 1 with these blocks of row indices."""
    return LatticePartition(tuple(tuple((1, i) for i in b) for b in blocks))


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
    corrupt = NEqualsLattice((4,), 2, elements, (0b10, 0), (0, 0b1), ((0, 1),))
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
        coeffs = point_count_polynomial(L, 1)
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
    L = build_lattice((2,), 2)
    assert point_count_polynomial(L, 2) == (0, 0, -1, 0, 1)  # q^4 - q^2


def test_lower_interval_examples():
    L2 = build_lattice((2,), 2)
    assert lower_interval(L2, 1).size == 0
    assert lower_interval(L2, 0).size == 0  # open interval below the bottom
    L3 = build_lattice((3,), 2)
    iv = lower_interval(L3, L3.size - 1)
    assert iv.size == 3
    assert iv.above == (0, 0, 0)  # antichain of the three pair-partitions
    for idx in (-1, L3.size):
        with pytest.raises(ValidationError, match="out of range"):
            lower_interval(L3, idx)


def test_finite_poset_closure_and_antisymmetry():
    P = from_less_pairs("abc", [(0, 1), (1, 2)])
    assert less(P, 0, 2)
    with pytest.raises(ValidationError):
        from_less_pairs("ab", [(0, 1), (1, 0)])


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
    return from_less_pairs(list(range(n)), pairs)


def naive_cover_pairs(P):
    """The cover relation by its definition, over every comparable pair:
    i < j with no k such that i < k < j."""
    below = [sum(1 << i for i in range(P.size) if less(P, i, j))
             for j in range(P.size)]
    return [(i, j) for i in range(P.size) for j in bits(P.above[i])
            if not P.above[i] & below[j]]


@given(random_posets())
@settings(max_examples=150, deadline=None)
def test_cover_pairs_match_naive(P):
    assert P.cover_pairs() == naive_cover_pairs(P)


# the lattices whose covers and interval homology are checked element by element
PRODUCT_LATTICES = [((2, 2, 2), 1), ((3, 3, 2), 1), ((4, 4), 2), ((7,), 3), ((5,), 2)]


@pytest.mark.parametrize("dv, n", PRODUCT_LATTICES)
def test_lattice_covers_match_naive(dv, n):
    L = build_lattice(dv, n)
    assert list(L.covers) == naive_cover_pairs(FinitePoset(L.elements, L.above))


def test_cover_pairs_need_a_linear_extension():
    with pytest.raises(StructureError, match="element 1 lies below an element "
                                             "numbered at or before it"):
        FinitePoset("ab", (0, 0b1)).cover_pairs()
    # a lattice numbered top first: the same order, not a linear extension
    L = build_lattice((3,), 2)
    top = L.size - 1
    flipped = [0] * L.size
    for i, mask in enumerate(L.above):
        flipped[top - i] = sum(1 << (top - j) for j in bits(mask))
    with pytest.raises(StructureError, match="numbered at or before it"):
        FinitePoset(L.elements[::-1], tuple(flipped)).cover_pairs()
