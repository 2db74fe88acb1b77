"""Small posets and complexes for the tests, built from plain relations.

zcc builds its posets from lattices and its complexes from posets; these
reach the same types directly: a poset from generating strict relations, the
order relation of a built poset, and a complex from its facets.  Also the
Betti numbers of a lattice's complement in one call.
"""

from zcc.errors import ValidationError
from zcc.homology import (DEFAULT_FACE_GUARD, BettiVector, SimplicialComplex,
                          betti_from_contributions, complement_contributions)
from zcc.nlattice import FinitePoset, NEqualsLattice, bits


def from_less_pairs(payloads, pairs) -> FinitePoset:
    """The poset generated by the strict relations `pairs`; takes the
    transitive closure."""
    n = len(payloads)
    above = [0] * n
    for i, j in pairs:
        above[i] |= 1 << j
    changed = True
    while changed:
        changed = False
        for i in range(n):
            mask = above[i]
            extra = 0
            for j in bits(mask):
                extra |= above[j]
            if extra | mask != mask:
                above[i] = mask | extra
                changed = True
    for i in range(n):
        if above[i] >> i & 1:
            raise ValidationError("relation is not antisymmetric")
    return FinitePoset(tuple(payloads), tuple(above))


def antichain(payloads) -> FinitePoset:
    return FinitePoset(tuple(payloads), (0,) * len(payloads))


def less(poset: FinitePoset, i: int, j: int) -> bool:
    return bool(poset.above[i] >> j & 1)


def from_facets(num_vertices: int, facets) -> SimplicialComplex:
    """The complex with these facets; non-maximal ones are dropped."""
    cleaned = sorted({tuple(sorted(set(f))) for f in facets if f})
    maximal = [f for f in cleaned
               if not any(set(f) < set(g) for g in cleaned if g != f)]
    for f in maximal:
        if f and (f[0] < 0 or f[-1] >= num_vertices):
            raise ValidationError(f"facet {f} out of vertex range")
    return SimplicialComplex(num_vertices, tuple(maximal))


def complement_betti(L: NEqualsLattice, dim_x: int = 1,
                     guard: int = DEFAULT_FACE_GUARD) -> BettiVector:
    """Betti numbers of the ordered 0-cycle space over complex affine space."""
    return betti_from_contributions(complement_contributions(L, dim_x, guard))
