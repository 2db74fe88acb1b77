import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from zcc import homology
from zcc.errors import GuardError, StructureError, ValidationError
from zcc.cli import run
from zcc.homology import (WITNESS_PRIMES, codimension, complement_contributions,
                          exact_rank, interval_face_counts, interval_homology,
                          order_complex, product_rule, rank_mod2, rank_mod_p,
                          reduced_homology_ranks)
from zcc.nlattice import (block_shapes, build_lattice, lower_interval, mobius,
                          point_count_polynomial)

from topology_inputs import (antichain, complement_betti, from_facets,
                             from_less_pairs, less)
from test_nlattice import GRID, PRODUCT_LATTICES


# -- references: brute-force faces, sympy ranks, and exact ranks throughout ----


def faces_by_dim(facets):
    """Every face of the complex with these facets, as dim -> sorted tuples."""
    faces = set()
    for f in facets:
        f = tuple(sorted(set(f)))
        for r in range(1, len(f) + 1):
            faces.update(combinations(f, r))
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    for k in by_dim:
        by_dim[k].sort()
    return by_dim


def _ranks_from(by_dim, boundary_rank):
    """Reduced homology ranks {degree: rank} from the faces and a function
    ranking the boundary of the k-faces from its integer matrix, given as
    one {(k-1)-face index: sign} dict per k-face."""
    if not by_dim:
        return {-1: 1}
    maxdim = max(by_dim)
    rank = {0: 1, maxdim + 1: 0}
    for k in range(1, maxdim + 1):
        index = {f: i for i, f in enumerate(by_dim[k - 1])}
        rank[k] = boundary_rank(
            [{index[f[:i] + f[i + 1:]]: (-1) ** i for i in range(k + 1)}
             for f in by_dim[k]], len(by_dim[k - 1]))
    out = {-1: 1 - rank[0]}
    for k in range(0, maxdim + 1):
        out[k] = len(by_dim[k]) - rank[k] - rank[k + 1]
    return {k: v for k, v in out.items() if v}


def oracle_ranks(num_vertices, facets):
    from sympy import Matrix

    def sympy_rank(rows, width):
        return Matrix([[row.get(c, 0) for c in range(width)] for row in rows]).rank()

    return _ranks_from(faces_by_dim(facets), sympy_rank)


def exact_reference_ranks(K):
    """Every boundary ranked over Q by exact_rank: the route that the mod-2
    pinning must reproduce."""
    return _ranks_from(faces_by_dim(K.facets), lambda rows, _width: exact_rank(rows))


# -- basic complexes -----------------------------------------------------------


def test_named_complexes():
    empty = from_facets(0, [])
    assert reduced_homology_ranks(empty) == {-1: 1}
    pts = from_facets(3, [(0,), (1,), (2,)])
    assert reduced_homology_ranks(pts) == {0: 2}
    circle = from_facets(3, [(0, 1), (1, 2), (0, 2)])
    assert reduced_homology_ranks(circle) == {1: 1}
    disk = from_facets(3, [(0, 1, 2)])
    assert reduced_homology_ranks(disk) == {}
    sphere = from_facets(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert reduced_homology_ranks(sphere) == {2: 1}


def test_from_facets_drops_non_maximal():
    K = from_facets(3, [(0, 1), (0,), (1, 0)])
    assert K.facets == ((0, 1),)


def test_face_guard(monkeypatch):
    monkeypatch.setattr(homology, "FACE_GUARD", 100)
    big = from_facets(20, [tuple(range(20))])
    with pytest.raises(GuardError, match="face count exceeds guard 100"):
        reduced_homology_ranks(big)


def test_interval_face_counts_match_faces():
    for dv, n in GRID:
        L = build_lattice(dv, n)
        counts = interval_face_counts(L)
        for i in range(1, L.size):
            faces = faces_by_dim(order_complex(lower_interval(L, i)).facets)
            assert counts[i] == sum(len(f) for f in faces.values()), (dv, n, i)


def test_face_guard_runs_before_any_homology(monkeypatch):
    def no_homology(*_args, **_kwargs):
        raise AssertionError("interval homology ran before the face guard")

    monkeypatch.setattr(homology, "interval_homology", no_homology)
    L = build_lattice((3, 3), 1)
    largest = max(interval_face_counts(L))
    with pytest.raises(GuardError, match="face count exceeds guard"):
        complement_contributions(build_lattice((3, 3, 3), 1))
    monkeypatch.setattr(homology, "FACE_GUARD", largest - 1)
    with pytest.raises(GuardError, match=f"face count exceeds guard {largest - 1}"):
        complement_contributions(L)


def test_bad_dim_x_refused_before_any_work(monkeypatch):
    # complement_contributions reads L.dim_x, which build_lattice checks, so
    # no lattice with a bad dim_x reaches the face counts
    def no_faces(*_args, **_kwargs):
        raise AssertionError("face counts ran before the dim_x check")

    monkeypatch.setattr(homology, "interval_face_counts", no_faces)
    for dim_x in (0, -1):
        with pytest.raises(ValidationError, match="dim_x must be >= 1"):
            complement_contributions(build_lattice((2, 2), 1, dim_x))


def test_order_complex_examples():
    assert order_complex(antichain(0)).facets == ()
    assert order_complex(antichain(3)).facets == ((0,), (1,), (2,))
    chain = from_less_pairs(2, [(0, 1)])
    assert order_complex(chain).facets == ((0, 1),)
    # diamond: bottom < x, y < top gives two maximal 2-chains
    diamond = from_less_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert order_complex(diamond).facets == ((0, 1, 3), (0, 2, 3))


def test_order_complex_faces_are_chains():
    # brute-force: faces must be exactly the chains of the poset
    L = build_lattice((4,), 2)
    top = L.size - 1
    poset = lower_interval(L, top)
    K = order_complex(poset)
    chains = set()
    for r in range(1, len(poset) + 1):
        for sub in combinations(range(len(poset)), r):
            if all(less(poset, a, b) for a, b in combinations(sub, 2)):
                chains.add(sub)
    faces = set()
    for f in K.facets:
        for r in range(1, len(f) + 1):
            faces.update(combinations(f, r))
    assert faces == chains


def test_exact_rank_small():
    assert exact_rank([]) == 0
    assert exact_rank([{0: 1, 1: 1}, {0: 2, 1: 2}]) == 1
    assert exact_rank([{0: 1}, {1: 1}, {0: 1, 1: 1}]) == 2


@pytest.mark.parametrize("rows", [
    [{0: 1, 1: -1}, {0: 2, 1: -1}],         # a largest-column entry of -1
    [{0: 1, 1: -1}, {0: -1, 1: 1}],
    [{0: 1, 1: 2}, {0: 2, 1: 4}],           # a largest-column entry of 2
    [{0: 1, 1: 2}, {0: 3, 1: 2}],
    [{0: 0, 1: 2}],                          # explicit zeros, on either side
    [{0: 2, 1: 0}],
    [{0: 2, 1: 0}, {0: 0, 1: 0}],
    [{1: 2, 0: 1}, {1: 1, 0: 1}],           # the pivot 1/2 appears on elimination
    [{2: 2, 1: 1}, {2: 1, 0: 1}, {1: 1, 0: 3}],
], ids=["minus-one", "minus-one-dependent", "two-dependent", "two", "zero-first",
        "zero-last", "zero-row", "fraction-pivot", "fraction-pivot-3x3"])
def test_exact_rank_pivots_match_sympy(rows):
    from sympy import Matrix
    width = 1 + max(c for row in rows for c in row)
    dense = Matrix([[row.get(c, 0) for c in range(width)] for row in rows])
    assert exact_rank(rows) == dense.rank()


@given(st.integers(1, 7), st.integers(1, 7),
       st.sampled_from([(-1, 1), (-3, -2, 2, 3), (-3, -2, -1, 1, 2, 3)]),
       st.data())
@settings(max_examples=150, deadline=None)
def test_exact_rank_matches_sympy(nrows, ncols, values, data):
    # entries from {+-2, +-3} leave no unit pivot, so pivot rows become Fractions
    from sympy import Matrix
    rows = []
    for _ in range(nrows):
        cols = data.draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
        rows.append({c: data.draw(st.sampled_from(values)) for c in sorted(cols)})
    dense = Matrix([[row.get(c, 0) for c in range(ncols)] for row in rows])
    assert exact_rank(rows) == dense.rank()
    # every minor of a 7 x 7 matrix with entries of size <= 3 is below
    # 3^7 * 7^(7/2) < 2^21 (Hadamard), so no witness prime divides one
    for p in WITNESS_PRIMES:
        assert rank_mod_p(rows, p) == dense.rank()


def test_rank_mod_p_small():
    assert rank_mod_p([], 3) == 0
    assert rank_mod_p([{0: 2, 1: 4}, {0: 1, 1: 2}], 7) == 1
    assert rank_mod_p([{0: 3}, {1: 1}], 3) == 1  # 3 vanishes modulo 3
    assert rank_mod_p([{0: 1, 1: 1}, {0: 1, 1: -1}], 2) == 1


# -- anchors and assembly --------------------------------------------------------


def test_anchor_single_hyperplane():
    L = build_lattice((1, 1), 1)
    assert complement_betti(L) == [1, 1]


def test_anchor_conf3():
    L = build_lattice((3,), 2)
    assert complement_betti(L) == [1, 3, 2]


def test_anchor_conf2_c2():
    L = build_lattice((2,), 2, 2)
    assert complement_betti(L) == [1, 0, 0, 1]


def test_interval_homology_examples():
    L2 = build_lattice((2,), 2)
    assert interval_homology(L2, 1) == {-1: 1}
    L3 = build_lattice((3,), 2)
    assert interval_homology(L3, L3.size - 1) == {0: 2}
    with pytest.raises(ValidationError):
        interval_homology(L3, 0)


def test_atom_intervals_are_empty():
    for dv, n in [((4,), 2), ((2, 2), 1), ((3, 2), 1), ((2, 2), 2)]:
        L = build_lattice(dv, n)
        atoms = [hi for lo, hi in L.covers if lo == 0]
        assert atoms
        for i in atoms:
            assert interval_homology(L, i) == {-1: 1}


def test_conf_betti_are_stirling_numbers():
    # b_i(Conf_d(C)) = unsigned Stirling numbers of the first kind
    expected = {
        4: [1, 6, 11, 6],
        5: [1, 10, 35, 50, 24],
    }
    for d, b in expected.items():
        L = build_lattice((d,), 2)
        assert complement_betti(L) == b


def test_characteristic_polynomial_identity_hyperplane_case():
    # n * m <= 2: N(q) = sum_i (-1)^i b_i q^(|d|-i), exact for |d| <= 6
    for dv, n in [((1, 1), 1), ((2, 1), 1), ((2, 2), 1), ((3, 1), 1), ((3, 2), 1),
                  ((4, 1), 1), ((3, 3), 1), ((4, 2), 1), ((5, 1), 1), ((3,), 2),
                  ((5,), 2), ((4,), 1), ((0, 2), 1)]:
        L = build_lattice(dv, n)
        b = complement_betti(L)
        coeffs = point_count_polynomial(L)
        total = sum(dv)
        b += [0] * (total + 1 - len(b))
        signed = [(-1) ** i * b[i] for i in range(total + 1)]
        from_poly = [coeffs[total - i] if total - i < len(coeffs) else 0
                     for i in range(total + 1)]
        assert signed == from_poly, dv


def test_hall_theorem_checked_on_every_interval(monkeypatch):
    # complement_contributions compares each interval's reduced Euler
    # characteristic with mu(0-hat, I); wrong Mobius values must be caught
    def wrong_mobius(L):
        return tuple(-v for v in mobius(L))

    monkeypatch.setattr(homology, "mobius", wrong_mobius)
    with pytest.raises(StructureError, match="Euler characteristic"):
        complement_contributions(build_lattice((3, 3), 1))


def test_wrong_rank_is_caught(monkeypatch):
    # the Euler characteristic does not depend on the boundary ranks, so an
    # inflated rank is caught by the negative Betti number it leaves behind:
    # over GF(2) on (3,3)/1, which never reaches exact_rank, and over Q on
    # RP^2, whose 2-boundary is ranked again over Q
    for name, original, run in [
            ("rank_mod2", rank_mod2,
             lambda: complement_contributions(build_lattice((3, 3), 1))),
            ("exact_rank", exact_rank, lambda: reduced_homology_ranks(RP2))]:
        with monkeypatch.context() as patch:
            patch.setattr(homology, name, lambda rows, original=original: original(rows) + 1)
            with pytest.raises(StructureError, match="negative Betti"):
                run()


def test_overcounted_exact_rank_exits_2(capsys, monkeypatch):
    # one more than the true rank leaves every Betti number of (7)/3
    # nonnegative and the Euler characteristic unchanged; both witness
    # primes rank the boundary lower
    original = exact_rank
    monkeypatch.setattr(homology, "exact_rank", lambda rows: original(rows) + 1)
    assert run(["betti", "--d", "7", "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: a boundary of rank ")


def test_euler_preserving_corruption_fails_orlik_solomon(capsys, monkeypatch):
    # one more rank in each of the top two degrees below the top element of
    # (3,3)/1 keeps its Euler characteristic, so Philip Hall's check passes,
    # but the Betti numbers are no longer those of a hyperplane arrangement
    original = interval_homology

    def bumped(L, idx):
        ranks = dict(original(L, idx))
        if idx == L.size - 1:
            top = max(ranks)
            for t in (top, top - 1):
                ranks[t] = ranks.get(t, 0) + 1
        return ranks

    monkeypatch.setattr(homology, "interval_homology", bumped)
    assert run(["betti", "--d", "3,3", "--n", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: Betti numbers [1, 9, 36, 75, 78, 32, 1], but "
                            "Orlik-Solomon gives [1, 9, 36, 75, 78, 31] from the "
                            "Mobius function\n")


def _direct_contributions(L, ranks):
    """The contributions of every element from its interval's directly
    computed ranks: what complement_contributions must reproduce."""
    out = []
    for idx in range(1, L.size):
        cd = codimension(L, idx)
        contrib = {}
        for t, r in ranks[idx].items():
            contrib[cd - t - 2] = contrib.get(cd - t - 2, 0) + r
        out.append((idx, cd, contrib))
    return out


@pytest.mark.parametrize("dv, n", PRODUCT_LATTICES)
def test_product_rule_matches_every_interval(dv, n):
    L = build_lattice(dv, n)
    ranks = {idx: interval_homology(L, idx) for idx in range(1, L.size)}
    shapes = block_shapes(L)
    one_block = {}
    for idx in range(1, L.size):
        if len(shapes[idx]) == 1:
            one_block.setdefault(shapes[idx][0], ranks[idx])
    for idx in range(1, L.size):
        assert product_rule([one_block[c] for c in shapes[idx]]) == ranks[idx], idx
    for dim_x in (1, 2):
        L = build_lattice(dv, n, dim_x)
        assert complement_contributions(L) == _direct_contributions(L, ranks)


def test_product_rule_degrees():
    # homology in two degrees, so the convolution has more than one term
    L = build_lattice((4, 4), 2)
    assert sorted(interval_homology(L, L.size - 1)) == [1, 3]
    # two empty intervals make a 0-sphere; two 0-spheres make the
    # suspension of a circle
    assert product_rule([{-1: 1}, {-1: 1}]) == {0: 1}
    assert product_rule([{0: 1}, {0: 1}]) == {2: 1}
    assert product_rule([{0: 2}, {1: 3}, {-1: 1}]) == {4: 6}  # an empty factor suspends


def test_product_rule_is_checked_directly(monkeypatch):
    # adding one rank to each of two adjacent degrees of every product of two
    # or more factors keeps every Euler characteristic, so only the direct
    # spot check can catch it
    original = homology.product_rule

    def shifted(factors):
        ranks = dict(original(factors))
        if len(factors) > 1:
            top = max(ranks)
            ranks[top + 1] = ranks.get(top + 1, 0) + 1
            ranks[top + 2] = ranks.get(top + 2, 0) + 1
        return ranks

    monkeypatch.setattr(homology, "product_rule", shifted)
    with pytest.raises(StructureError, match="the product rule gives reduced homology"):
        complement_contributions(build_lattice((3, 3), 1))


def test_contributions_degrees_positive():
    L = build_lattice((2, 2), 1)
    for _idx, cd, contrib in complement_contributions(L):
        assert cd >= 2
        assert all(i >= 1 for i in contrib)


def test_oracle_agreement_on_lattice_intervals():
    for dv, n in [((4,), 2), ((2, 2), 1), ((3, 2), 1), ((5,), 2)]:
        L = build_lattice(dv, n)
        for i in range(1, L.size):
            poset = lower_interval(L, i)
            if len(poset) > 8:
                continue
            K = order_complex(poset)
            assert reduced_homology_ranks(K) == oracle_ranks(
                K.num_vertices, K.facets), (dv, n, i)


def test_oracle_agreement_random_complexes():
    rng = random.Random(20260809)
    for _trial in range(40):
        nv = rng.randint(0, 8)
        facets = []
        for _f in range(rng.randint(0, 6)):
            size = rng.randint(1, min(4, nv) if nv else 1)
            if nv == 0:
                continue
            facets.append(tuple(rng.sample(range(nv), size)))
        K = from_facets(nv, facets)
        ranks = reduced_homology_ranks(K)
        assert ranks == oracle_ranks(nv, K.facets) == exact_reference_ranks(K)


@given(st.integers(2, 8), st.data())
@settings(max_examples=25, deadline=None)
def test_oracle_agreement_hypothesis(nv, data):
    facets = data.draw(st.lists(
        st.lists(st.integers(0, nv - 1), min_size=1, max_size=4, unique=True),
        min_size=0, max_size=6))
    K = from_facets(nv, [tuple(f) for f in facets])
    ranks = reduced_homology_ranks(K)
    assert ranks == oracle_ranks(nv, K.facets) == exact_reference_ranks(K)


# one interval of each block shape with at most this many faces is also
# ranked by sympy, whose dense ranks are slow past a few hundred faces
SYMPY_FACES = 160


@pytest.mark.parametrize("dv, n", PRODUCT_LATTICES)
def test_mod2_pinning_matches_exact_ranks_on_every_interval(dv, n):
    L = build_lattice(dv, n)
    faces = interval_face_counts(L)
    shapes = block_shapes(L)
    seen = set()
    for idx in range(1, L.size):
        K = order_complex(lower_interval(L, idx))
        ranks = reduced_homology_ranks(K)
        assert ranks == exact_reference_ranks(K), (dv, n, idx)
        shape = tuple(sorted(shapes[idx]))
        if faces[idx] <= SYMPY_FACES and shape not in seen:
            seen.add(shape)
            assert ranks == oracle_ranks(K.num_vertices, K.facets), (dv, n, idx)


# the 6-vertex real projective plane: H~ over Q is 0, but mod 2 H1 = H2 = 1
RP2 = from_facets(6, [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
                      (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)])


def _counting_exact_rank(monkeypatch):
    calls = []
    original = homology.exact_rank

    def counting(rows):
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(homology, "exact_rank", counting)
    return calls


def test_torsion_is_ranked_again_over_q(monkeypatch):
    # the mod-2 ranks leave H1 = H2 = 1, so the 2-boundary (10 triangles)
    # is ranked over Q, and the rational answer is that of a point
    mod2 = _ranks_from(faces_by_dim(RP2.facets), lambda rows, _width: rank_mod2(
        [sum(1 << c for c in row) for row in rows]))
    assert mod2 == {1: 1, 2: 1}
    calls = _counting_exact_rank(monkeypatch)
    assert reduced_homology_ranks(RP2) == {}
    assert calls == [10]
    assert oracle_ranks(RP2.num_vertices, RP2.facets) == {}
    assert exact_reference_ranks(RP2) == {}


def test_exact_rank_reached_only_between_two_mod2_degrees(monkeypatch):
    calls = _counting_exact_rank(monkeypatch)
    complement_contributions(build_lattice((3, 3), 1))
    assert calls == []
    complement_contributions(build_lattice((7,), 3))
    assert len(calls) == 2


def test_rank_mod2_small():
    assert rank_mod2([]) == 0
    assert rank_mod2([0b11, 0b11]) == 1
    assert rank_mod2([0b01, 0b10, 0b11]) == 2
    # the circle's boundary has rank 2 over both fields
    assert rank_mod2([0b011, 0b110, 0b101]) == 2

