"""Reduced rational homology of order complexes, and complement Betti numbers.

Every boundary matrix is ranked over GF(2), on bitmask rows.  For an integer
matrix the rank over Q is at least the rank over GF(2), and every Betti
number over Q is at least 0, so a degree whose mod-2 Betti number is 0 pins
the ranks over Q of both its boundaries to their mod-2 ranks.  Only a
boundary between two degrees with mod-2 homology is ranked again over Q, by
elimination on each row's largest column, a pivot other than +-1 dividing its
row into Fractions.  Each rank over Q is witnessed modulo two word-size
primes by `rank_mod_p`, which shares no code with `exact_rank`: a rank mod p
never exceeds it, so it is refuted when both primes give another rank.  The
Betti numbers of the ordered 0-cycle space over complex affine space are
assembled from the homology of the open lattice intervals (0-hat, I).

Only a few intervals are computed directly: one per one-block column-count
shape (the first element whose only non-singleton block has those counts),
and, as a run-time spot check, the first element with two or more
non-singleton blocks.  [0-hat, I] is the product of the intervals below its
blocks' one-block elements, and the open interval of a product of bounded
posets is the suspension of the join of its factors' (Walker, "Canonical
homeomorphisms of posets", 1988), so every other interval's homology follows
by the product rule H~_r = sum_{i + j = r - 2} h_i * h'_j.  The spot check
raises if the rule disagrees with the direct computation, and every
interval's reduced Euler characteristic is checked against its Mobius value
(Philip Hall's theorem) at run time.  When every subspace is an
intersection of hyperplanes (n * m <= 2, dim_x = 1) the Betti numbers must
also be those Orlik-Solomon read off the point count N(q).

An element I of codimension cd (real codimension of its subspace,
2 * dim_x * (|d| - #blocks)) contributes its reduced homology in degree
cd - i - 2 to cohomology degree i.  The offset is pinned by two anchor cases
(a single hyperplane in C^2 and ordered 3-point configuration space in C)
and frozen by tests.

Coefficients are rationals throughout; orientation modules of the subspaces
are canonically trivial for affine space and are not tracked.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import GuardError, StructureError, ValidationError
from .nlattice import (NEqualsLattice, bits, block_shapes, cover_pairs,
                       lower_interval, mobius, point_count_polynomial)
from .record import Record

# The face guard on every order complex, never lifted.  Read at call time, so
# tests can lower it.
FACE_GUARD = 10 ** 5
# Every rank over Q is checked modulo these primes (see reduced_homology_ranks).
WITNESS_PRIMES = (2 ** 31 - 1, 2 ** 31 - 19)


class SimplicialComplex(Record):
    """Facet description of a finite complex; faces are implied downward."""

    __slots__ = {"num_vertices": "the vertices are 0 .. num_vertices - 1",
                 "facets": "sorted tuples of vertex indices, inclusion-maximal"}


# ---------------------------------------------------------------------------
# Order complexes
# ---------------------------------------------------------------------------


def order_complex(below) -> SimplicialComplex:
    """Vertices = poset elements, faces = chains, facets = maximal chains, of
    the poset with below masks `below` (see `nlattice.cover_pairs`)."""
    n = len(below)
    if n == 0:
        return SimplicialComplex(0, ())
    successors = [[] for _ in range(n)]  # minimal elements strictly above i
    for i, j in cover_pairs(below):
        successors[i].append(j)

    chains_from: dict = {}

    def chains(i: int) -> list:
        if i in chains_from:
            return chains_from[i]
        succ = successors[i]
        if not succ:
            result = [(i,)]
        else:
            result = [(i,) + tail for j in succ for tail in chains(j)]
        chains_from[i] = result
        return result

    minimal = [i for i in range(n) if below[i] == 0]
    facets = [c for i in minimal for c in chains(i)]
    return SimplicialComplex(n, tuple(sorted(facets)))


# ---------------------------------------------------------------------------
# Exact rank computation
# ---------------------------------------------------------------------------


def exact_rank(rows: list) -> int:
    """Rank over Q of a sparse matrix given as row dicts {col: value}.

    Elimination on each row's largest column: rows are taken shortest first,
    their zero entries dropped, and each is reduced against the stored row
    whose pivot is in its largest column.  A new pivot row is scaled so its
    pivot entry is 1, negated for -1 and divided into Fractions otherwise.
    """
    pivots: dict = {}  # pivot column -> its row, scaled so that entry is 1
    for row in sorted(({c: v for c, v in r.items() if v} for r in rows), key=len):
        while row:
            col = max(row)
            pivot = pivots.get(col)
            if pivot is None:
                if row[col] == -1:
                    row = {c: -v for c, v in row.items()}
                elif row[col] != 1:
                    scale = Fraction(1, row[col])
                    row = {c: v * scale for c, v in row.items()}
                pivots[col] = row
                break
            factor = row[col]
            for c, v in pivot.items():
                new = row.get(c, 0) - factor * v
                if new:
                    row[c] = new
                else:
                    del row[c]
    return len(pivots)


def rank_mod2(rows) -> int:
    """Rank over GF(2) of row bitmasks, by XOR elimination on leading bits."""
    pivots: dict = {}  # leading bit -> the stored row that has it
    for row in rows:
        while row:
            top = row.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = row
                break
            row ^= pivot
    return len(pivots)


def rank_mod_p(rows, p: int) -> int:
    """Rank over GF(p) of integer row dicts {col: value}, by elimination on
    each row's largest column; never above the rank over Q."""
    pivots: dict = {}  # pivot column -> its row, scaled so that entry is 1
    for row in sorted(rows, key=len):
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            col = max(row)
            pivot = pivots.get(col)
            if pivot is None:
                inverse = pow(row[col], -1, p)
                pivots[col] = {c: v * inverse % p for c, v in row.items()}
                break
            factor = row[col]
            for c, v in pivot.items():
                new = (row.get(c, 0) - factor * v) % p
                if new:
                    row[c] = new
                else:
                    del row[c]
    return len(pivots)


def _betti(counts, ranks) -> list:
    """Betti numbers from degree -1, from face counts and boundary ranks."""
    betti = [c - ranks[i] - ranks[i + 1] for i, c in enumerate(counts)]
    if min(betti) < 0:
        raise StructureError(f"boundary ranks give negative Betti numbers {betti}")
    return betti


def reduced_homology_ranks(K: SimplicialComplex) -> dict:
    """The nonzero ranks {degree: rank} of reduced homology over Q; the empty
    complex has rank 1 in degree -1.  One top-down pass indexes each k-face's
    boundary (k-1)-faces the first time they appear and ranks that boundary
    mod 2 as bitmasks; the mod-2 ranks are used where they are pinned (see
    the module docstring)."""
    if not K.facets:
        return {-1: 1}
    if len(K.facets) > FACE_GUARD:
        raise GuardError(f"face count exceeds guard {FACE_GUARD}")
    maxdim = max(map(len, K.facets)) - 1
    faces = [[] for _ in range(maxdim + 1)]  # faces[k]: the k-faces
    for facet in K.facets:
        faces[len(facet) - 1].append(facet)
    # ranks[k + 1] is the rank of the k-th boundary; the augmentation's is 1
    ranks = [0, 1] + [0] * (maxdim + 1)
    for k in range(maxdim, 0, -1):
        lower = faces[k - 1]
        index = {face: i for i, face in enumerate(lower)}
        rows = []  # per k-face, its boundary mod 2 as a bitmask over lower
        for face in faces[k]:
            row = 0
            for i in range(k + 1):
                sub = face[:i] + face[i + 1:]
                j = index.get(sub)
                if j is None:
                    j = index[sub] = len(lower)
                    lower.append(sub)
                row |= 1 << j
            rows.append(row)
        if sum(map(len, faces)) > FACE_GUARD:
            raise GuardError(f"face count exceeds guard {FACE_GUARD}")
        ranks[k + 1] = rank_mod2(rows)

    counts = [1] + [len(level) for level in faces]  # by degree + 1, like ranks
    betti_mod2 = _betti(counts, ranks)
    ranked = {}  # boundary -> its integer rows, ranked over Q
    for k in range(1, maxdim + 1):
        if betti_mod2[k] and betti_mod2[k + 1]:
            index = {face: i for i, face in enumerate(faces[k - 1])}
            ranked[k + 1] = [{index[face[:i] + face[i + 1:]]: (-1) ** i
                              for i in range(k + 1)} for face in faces[k]]
            ranks[k + 1] = exact_rank(ranked[k + 1])
    betti = _betti(counts, ranks)
    # rank mod p never exceeds the rank over Q and equals it for all but
    # finitely many p, so two primes that both disagree refute the rank
    for j, rows in ranked.items():
        witnesses = {}
        for p in WITNESS_PRIMES:
            witnesses[p] = rank_mod_p(rows, p)
            if witnesses[p] == ranks[j]:
                break
        else:
            found = " and ".join(f"{r} modulo {p}" for p, r in witnesses.items())
            raise StructureError(
                f"a boundary of rank {ranks[j]} over Q has rank {found}")
    return {k - 1: b for k, b in enumerate(betti) if b}


# ---------------------------------------------------------------------------
# Interval homology and complement Betti numbers
# ---------------------------------------------------------------------------


def interval_homology(L: NEqualsLattice, idx: int) -> dict:
    """Reduced homology ranks {degree: rank} of the order complex of the open
    interval (0-hat, I), I the element of index idx."""
    if idx == 0:
        raise ValidationError("interval homology below the bottom is undefined")
    return reduced_homology_ranks(order_complex(lower_interval(L, idx)))


def codimension(L: NEqualsLattice, idx: int) -> int:
    """Real codimension in (C^dim_x)^d of the subspace indexed by I."""
    return 2 * L.dim_x * (L.ground_size - len(L.elements[idx]))


def interval_face_counts(L: NEqualsLattice) -> list:
    """Per element I, the face count of the order complex of (0-hat, I), that
    is its number of nonempty chains: the sum over 0-hat < J < I of 1 + the
    count of J, a chain being counted by its top J (-1 at the bottom)."""
    below = L.below
    faces = [-1] * L.size  # so the bottom drops out of every sum
    for i in range(1, L.size):
        faces[i] = sum(faces[j] + 1 for j in bits(below[i]))
    return faces


def product_rule(factors) -> dict:
    """Reduced homology ranks {degree: rank} of the open interval (0-hat, I)
    of a product of bounded posets, from those of its factors' intervals.

    (0-hat, (x, y)) is the suspension of the join of (0-hat, x) and
    (0-hat, y) (Walker, "Canonical homeomorphisms of posets", 1988), so over
    Q its H~_r is the sum over i + j = r - 2 of h_i * h'_j.
    """
    ranks = factors[0]
    for other in factors[1:]:
        joined: dict = {}
        for i, a in ranks.items():
            for j, b in other.items():
                joined[i + j + 2] = joined.get(i + j + 2, 0) + a * b
        ranks = joined
    return ranks


def complement_contributions(L: NEqualsLattice) -> list:
    """Per-element Betti contributions: (index, cd, {cohomological degree: rank}).

    The face guard is checked on every interval before any homology runs.
    [0-hat, I] is the product of the intervals below the one-block elements
    of I's block shapes, so homology is computed once per one-block shape and
    every other interval follows by `product_rule`; the first element with
    two or more non-singleton blocks is also computed directly, and must
    agree.  Every interval is checked against Philip Hall's theorem: the
    reduced Euler characteristic of (0-hat, I) equals mu(0-hat, I).  For a
    hyperplane arrangement the summed Betti numbers are checked against
    Orlik-Solomon, which catches an error that keeps every Euler
    characteristic.
    """
    if max(interval_face_counts(L)) > FACE_GUARD:
        raise GuardError(f"face count exceeds guard {FACE_GUARD}")
    mu = mobius(L)
    shapes = block_shapes(L)
    one_block: dict = {}  # one-block column counts -> reduced homology ranks
    for idx, shape in enumerate(shapes):
        if len(shape) == 1 and shape[0] not in one_block:
            one_block[shape[0]] = interval_homology(L, idx)
    spot = next((idx for idx, shape in enumerate(shapes) if len(shape) > 1), None)
    by_shapes: dict = {}  # sorted block shapes -> reduced homology ranks
    out = []
    for idx in range(1, L.size):
        key = tuple(sorted(shapes[idx]))
        if key not in by_shapes:
            by_shapes[key] = product_rule([one_block[c] for c in key])
        iv = by_shapes[key]
        if idx == spot:
            direct = interval_homology(L, idx)
            if iv != direct:
                raise StructureError(
                    f"the product rule gives reduced homology {iv} below element "
                    f"{idx}, computed directly {direct}")
        euler = sum(-r if t % 2 else r for t, r in iv.items())
        if euler != mu[idx]:
            raise StructureError(
                f"interval below element {idx} has reduced Euler "
                f"characteristic {euler} but mu(0-hat, I) = {mu[idx]}")
        cd = codimension(L, idx)
        contrib = {}
        for t, r in iv.items():
            i = cd - t - 2
            if i < 1:
                raise StructureError(
                    f"interval homology of element {idx} in degree {t} "
                    f"lands in cohomological degree {i}")
            contrib[i] = contrib.get(i, 0) + r
        out.append((idx, cd, contrib))
    if L.dim_x == 1 and L.m * L.n <= 2:
        # every subspace is then an intersection of hyperplanes, whose Betti
        # numbers Orlik-Solomon read off the point count N(q) from mu:
        # b_c = (-1)^c [q^(|d| - c)] N(q)
        N = point_count_polynomial(L, mu)
        expected = [(-1) ** c * N[-1 - c] for c in range(len(N))]
        while expected[-1] == 0:
            expected.pop()
        betti = betti_from_contributions(out)
        if betti != expected:
            raise StructureError(f"Betti numbers {betti}, but Orlik-Solomon "
                                 f"gives {expected} from the Mobius function")
    return out


def betti_from_contributions(contributions) -> list:
    """Sum per-element contributions, plus H^0 = 1, into the Betti numbers
    from degree 0 to the top nonzero one."""
    total: dict = {0: 1}
    for _idx, _cd, contrib in contributions:
        for i, r in contrib.items():
            total[i] = total.get(i, 0) + r
    return [total.get(i, 0) for i in range(max(total) + 1)]
