"""Small posets and complexes for the tests, built from plain relations.

zcc builds its posets from lattices and its complexes from posets; these
reach the same types directly: a poset's below masks from generating strict
relations, the order relation they encode, and a complex from its facets.
Also the Betti numbers of a lattice's complement in one call.
"""

from zcc.errors import ValidationError
from zcc.homology import (SimplicialComplex, betti_from_contributions,
                          complement_contributions)
from zcc.nlattice import NEqualsLattice, bits


def from_less_pairs(size: int, pairs) -> tuple:
    """The below masks of the poset on 0 .. size - 1 generated by the strict
    relations `pairs`; takes the transitive closure."""
    below = [0] * size
    for i, j in pairs:
        below[j] |= 1 << i
    changed = True
    while changed:
        changed = False
        for j in range(size):
            mask = below[j]
            extra = 0
            for i in bits(mask):
                extra |= below[i]
            if extra | mask != mask:
                below[j] = mask | extra
                changed = True
    for j in range(size):
        if below[j] >> j & 1:
            raise ValidationError("relation is not antisymmetric")
    return tuple(below)


def antichain(size: int) -> tuple:
    return (0,) * size


def less(below, i: int, j: int) -> bool:
    return bool(below[j] >> i & 1)


def from_facets(num_vertices: int, facets) -> SimplicialComplex:
    """The complex with these facets; non-maximal ones are dropped."""
    cleaned = sorted({tuple(sorted(set(f))) for f in facets if f})
    maximal = [f for f in cleaned
               if not any(set(f) < set(g) for g in cleaned if g != f)]
    for f in maximal:
        if f and (f[0] < 0 or f[-1] >= num_vertices):
            raise ValidationError(f"facet {f} out of vertex range")
    return SimplicialComplex(num_vertices, tuple(maximal))


def complement_betti(L: NEqualsLattice) -> list:
    """Betti numbers of the ordered 0-cycle space over complex affine space,
    from degree 0 to the top nonzero one."""
    return betti_from_contributions(complement_contributions(L))
