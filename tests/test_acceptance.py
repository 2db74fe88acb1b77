"""Acceptance suite: one test per criterion, printing a PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything here is exact: no tolerances anywhere.
"""

import json
import random
from fractions import Fraction
from itertools import combinations

from zcc.census import (burnside_count, enumerate_ordered, enumerate_unordered,
                        run_census)
from zcc.charpoly import (ONE, all_partitions, evaluate, free_module_character,
                          inner_product, irreducible_character_value,
                          parse_charpoly, partitions_of)
from zcc.cli import run
from zcc.ffield import make_field
from zcc.homology import interval_homology, order_complex, reduced_homology_ranks
from zcc.nlattice import (build_lattice, classify_edges, eval_int_poly,
                          lower_interval, mobius, point_count_polynomial)
from zcc.stabkit import interpolate_in_q, lefschetz_report

from topology_inputs import complement_betti, from_facets

X11 = parse_charpoly("X[1,1]")
X12 = parse_charpoly("X[1,2]")
X11X21 = parse_charpoly("X[1,1]*X[2,1]")

ACCEPTANCE_QS = (2, 3, 5)


def _degree_vectors(max_total=6):
    out = [(d,) for d in range(1, max_total + 1)]
    out += [(a, b) for a in range(1, max_total) for b in range(1, max_total)
            if a + b <= max_total]
    return out


def test_criterion_1_oracle_triangle():
    """Ordered = lattice polynomial; unordered = burnside = euler; all exact."""
    checks = 0
    for q in ACCEPTANCE_QS:
        field = make_field(q)
        for dv in _degree_vectors():
            for n in (1, 2, 3):
                ordered = enumerate_ordered(dv, n, field)
                if not (len(dv) == 1 and n == 1):
                    # the m = n = 1 corner has an empty space but a nonempty
                    # lattice (no proper subspace cuts out the big diagonal
                    # there); the arrangement identity is asserted wherever
                    # the complement is an arrangement complement, n*m >= 2
                    lattice = build_lattice(dv, n)
                    predicted = eval_int_poly(point_count_polynomial(lattice), q)
                    assert ordered[1] == predicted, (dv, n, q)
                    checks += 1
                polys = [ONE, X11, X12] + ([X11X21] if len(dv) == 2 else [])
                for P in polys:
                    unordered = enumerate_unordered(dv, n, field, P)
                    burnside = burnside_count(dv, n, field, P)
                    assert unordered == burnside, (dv, n, q, str(P))
                    euler = run_census(dv, n, field, P, "euler")
                    assert euler == unordered, (dv, n, q, str(P))
                    checks += 1
    # the degenerate corner still satisfies the census triangle (empty space)
    for q in ACCEPTANCE_QS:
        field = make_field(q)
        for d in range(1, 7):
            o = enumerate_ordered((d,), 1, field)
            u = enumerate_unordered((d,), 1, field, ONE)
            b = burnside_count((d,), 1, field, ONE)
            e = run_census((d,), 1, field, ONE, "euler")
            assert o[1] == u[1] == b[1] == e[1] == 0
            checks += 1
    print(f"\nPASS criterion 1: oracle triangle and Euler route exact on {checks} checks "
          f"(m<=2, |d|<=6, n in 1..3, q in {ACCEPTANCE_QS}; lattice identity "
          f"asserted for n*m>=2, censuses all zero on the degenerate corner)")


def test_criterion_2_configuration_space_regression():
    """n=2, m=1 reproduces |UConf_d(A^1)(F_q)| = q^d - q^(d-1)."""
    for q in ACCEPTANCE_QS:
        field = make_field(q)
        for d in (2, 3, 4):
            w = enumerate_unordered((d,), 2, field, ONE)
            assert w[1] == q ** d - q ** (d - 1), (q, d)
    print("PASS criterion 2: unordered configuration counts equal "
          "q^d - q^(d-1) for d in {2,3,4}, q in {2,3,5}")


def test_criterion_3_rational_maps_stabilization():
    """m=2, n=1 sweep: P=1 stabilizes immediately; X[1,1] from d=2 on c_0..c_2."""
    primes = [2, 3, 5, 7, 11, 13, 17]
    rep = lefschetz_report([1, 2, 3], 1, 2, ONE, primes)
    vectors = [[Fraction(c) for c in pt["normalized"]] for pt in rep["points"]]
    width = max(map(len, vectors))
    padded = [v + [Fraction(0)] * (width - len(v)) for v in vectors]
    assert padded[0] == padded[1] == padded[2]
    assert rep["stabilization"]["onset_d"] == 1
    assert padded[0][:2] == [1, -1]

    rep_w = lefschetz_report([1, 2, 3], 1, 2, X11, primes)
    vec2 = [Fraction(c) for c in rep_w["points"][1]["normalized"]]
    vec3 = [Fraction(c) for c in rep_w["points"][2]["normalized"]]
    assert vec2[:3] == vec3[:3]
    # regression constants frozen from the first exact computation
    assert vec2[:3] == [Fraction(1), Fraction(-2), Fraction(2)]
    print("PASS criterion 3: P=1 vectors identical for d=1,2,3 (onset d=1, "
          "leading (1,-1)); P=X[1,1] agrees on c_0..c_2 = (1,-2,2) for d=2,3")


def test_criterion_4_hyperplane_lefschetz_identity():
    """q^(-2d) |Ztilde(F_q)| = sum_i (-1)^i b_i q^(-i), exactly."""
    for dv in ((1, 1), (2, 2)):
        lattice = build_lattice(dv, 1)
        betti = complement_betti(lattice)
        total_deg = sum(dv)
        for q in ACCEPTANCE_QS:
            field = make_field(q)
            count = enumerate_ordered(dv, 1, field)[1]
            lhs = Fraction(count, q ** total_deg)
            rhs = sum(Fraction((-1) ** i * b, q ** i) for i, b in enumerate(betti))
            assert lhs == rhs, (dv, q, lhs, rhs)
            assert lhs - rhs == 0
    print("PASS criterion 4: hyperplane Lefschetz identity exact "
          "(zero residual) for d=(1,1),(2,2), q in {2,3,5}")


def _oracle_ranks(num_vertices, facets):
    from sympy import Matrix
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
    if not by_dim:
        return {-1: 1}
    maxdim = max(by_dim)
    rank = {0: 1 if by_dim.get(0) else 0, maxdim + 1: 0}
    for k in range(1, maxdim + 1):
        idx = {f: i for i, f in enumerate(by_dim[k - 1])}
        M = [[0] * len(by_dim[k]) for _ in by_dim[k - 1]]
        for c, face in enumerate(by_dim[k]):
            for i in range(len(face)):
                M[idx[face[:i] + face[i + 1:]]][c] = (-1) ** i
        rank[k] = Matrix(M).rank()
    out = {-1: 1 - rank[0]}
    for k in range(0, maxdim + 1):
        out[k] = len(by_dim.get(k, ())) - rank[k] - rank[k + 1]
    return {k: v for k, v in out.items() if v}


def test_criterion_5_homology_anchors():
    """Betti anchors, atom intervals, and the brute-force rank oracle."""
    assert complement_betti(build_lattice((1, 1), 1)) == [1, 1]
    assert complement_betti(build_lattice((3,), 2)) == [1, 3, 2]
    for dv, n in [((4,), 2), ((2, 2), 1), ((3, 2), 1), ((2, 2), 2)]:
        lattice = build_lattice(dv, n)
        atoms = [hi for lo, hi in lattice.covers if lo == 0]
        for i in atoms:
            assert interval_homology(lattice, i) == {-1: 1}
    rng = random.Random(1729)
    oracle_checks = 0
    for _trial in range(30):
        nv = rng.randint(1, 8)
        facets = [tuple(rng.sample(range(nv), rng.randint(1, min(4, nv))))
                  for _f in range(rng.randint(0, 6))]
        K = from_facets(nv, facets)
        assert reduced_homology_ranks(K) == _oracle_ranks(nv, K.facets)
        oracle_checks += 1
    lattice = build_lattice((4,), 2)
    for i in range(1, lattice.size):
        poset = lower_interval(lattice, i)
        if len(poset) <= 8:
            K = order_complex(poset)
            assert reduced_homology_ranks(K) == _oracle_ranks(
                K.num_vertices, K.facets)
            oracle_checks += 1
    print(f"PASS criterion 5: anchors (1,1) and (1,3,2); atom intervals rank 1 "
          f"in degree -1; rank oracle agreement on {oracle_checks} complexes")


def test_criterion_6_character_algebra():
    """MN orthogonality d<=5; stable <X11,X11>; free-module dimensions."""
    for d in range(1, 6):
        lams = all_partitions(d)
        table = {lam: {mu: irreducible_character_value(lam, mu)
                       for mu, _z in partitions_of(d)} for lam in lams}
        for l1 in lams:
            for l2 in lams:
                s = sum(Fraction(1, z) * table[l1][mu] * table[l2][mu]
                        for mu, z in partitions_of(d))
                assert s == (1 if l1 == l2 else 0)
        for mu1, z1 in partitions_of(d):
            for mu2, _z2 in partitions_of(d):
                s = sum(table[lam][mu1] * table[lam][mu2] for lam in lams)
                assert s == (z1 if mu1 == mu2 else 0)
    for d in range(2, 9):
        assert inner_product(X11, X11, (d,)) == 2
    assert inner_product(X11, X11, (1,)) == 1  # so the value is stable from d = 2
    fm2 = free_module_character((2,))
    for d in range(1, 9):
        assert evaluate(fm2, ((1,) * d,)) == d * (d - 1)
    print("PASS criterion 6: both orthogonality relations exact for d<=5; "
          "<X[1,1],X[1,1]>=2 for 2<=d<=8 with stable onset (2); "
          "free-module dimensions d(d-1)")


def test_criterion_7_lattice_structure():
    """Every cover classifies into exactly one type; Mobius sums vanish."""
    lattices = 0
    edges = 0
    for dv in _degree_vectors():
        for n in (1, 2, 3):
            lattice = build_lattice(dv, n)
            counts = classify_edges(lattice)  # raises on any unclassifiable edge
            assert sum(counts.values()) == len(lattice.covers)
            mob = mobius(lattice)  # raises if any closed-interval sum is nonzero
            assert mob[0] == 1
            lattices += 1
            edges += len(lattice.covers)
    print(f"PASS criterion 7: {edges} cover edges across {lattices} lattices "
          f"(|d|<=6) each classify into exactly one type; Mobius recursion "
          f"sums vanish everywhere")


def test_criterion_8_determinism(tmp_path, capsys):
    """Repeated verify runs and censuses produce byte-identical JSON."""
    out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
    assert run(["verify", "--output", str(out1)]) == 0
    assert run(["verify", "--output", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    blobs = []
    for _ in range(2):
        rc = run(["weighted", "--d", "2,2", "--n", "1", "--q", "5",
                  "--poly", "X[1,1]*X[2,1]"])
        assert rc == 0
        blobs.append(capsys.readouterr().out.encode())
    assert blobs[0] == blobs[1]
    payload = json.loads(blobs[0])
    assert isinstance(payload["point_count"], int)
    assert isinstance(payload["total"], str)
    print("PASS criterion 8: verify and weighted census outputs are "
          "byte-identical across runs; no floating point in persisted JSON")
