"""The weighted census as one coefficient of an Euler product over the monic
irreducibles: a fourth census route, with no field, polynomial or record.

An m-tuple y of monic polynomials factors over the monic irreducibles, each
entering column k with some multiplicity e_k; y is a member exactly when no
irreducible has every e_k >= n.  The coset-averaged statistic (census.py's
weighting note) takes its parts factor by factor, so with u[k,j] marking the
j-cycles of column k,

    G(t, u) = sum_y t^deg(y) avg prod u[k,j]^X[k,j] = prod_r L_r^M_r(q),
    L_r = prod_k Z_k(r) - prod_k Z_k^{>=n}(r),
    Z_k(r) = sum_e t_k^(re) h_e(u[k,r], u[k,2r], ...),

where h_e is the complete homogeneous symmetric function in power sums (the
sum over partitions lam of e of prod u[k, r lam_i] / z_lam), Z^{>=n} keeps
the terms e >= n, and M_r(q) is the necklace number.

With u = 1 + w, [t^d w^b] G is the sum over the members of prod binom(X[k,j],
b_kj), and P is rewritten in that basis by x^e = sum_s S(e, s) s! binom(x, s).
Only the marks (k, j) that P reads carry a w, truncated to P's exponents and
to d_k // j.  A w-exponent b of column k comes with t_k^e, e >= sum_j j b_kj,
so every series here lives on the states with sum_j j b_kj <= t_k <= d_k.

The factors are not multiplied out.  With the Euler operator E t^a w^b =
|a| t^a w^b (|a| the total t-degree), K_r = E(L_r) / L_r does not depend on
q, and E(G) = G K with K = sum_r M_r(q) K_r, so per q one pass over the
states gives

    |a| G_a = sum_{0 < b <= a} K_b G_(a - b),   G_0 = 1,

and K_r comes from K_r L_r = E(L_r) the same way.  Every state but 0 has
|a| >= 1.

Series are exact: dicts from packed exponent vectors to ints, every
coefficient scaled by D = prod j^lim lim! over the marks (k, j) and their
w-limits.  The coefficient of w^b of h_e is prod_i 1 / (i^b_i b_i!), the
moments of cycle counts in S_e, and b'! b''! divides (b' + b'')!, so every
coefficient of every series built here times D is an integer and both
recurrences divide exactly; every division is checked.  For P = 1, D = 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, isqrt, prod

from .census import necklace_count
from .errors import GuardError, InconsistencyError
from .guards import DEFAULT


class _Box:
    """Exponent vectors with 0 <= x_v <= limits[v], packed into one int.

    Each variable gets a field with a spare top bit, `high` holding those
    bits: for a and b in the box, b <= a fieldwise exactly when a + high - b
    keeps every bit of `high`, and then a - b is that minus `high`.
    """

    def __init__(self, limits):
        self.limits = limits
        self.units = []
        self.high = 0
        shift = 0
        for lim in limits:
            bits = lim.bit_length() + 1
            self.units.append(1 << shift)
            self.high += 1 << bits - 1 + shift
            shift += bits


def _layout(d: tuple, P) -> tuple:
    """(box, marks): the variables t_1..t_m, then one w per mark (k, j) that
    P reads and that can be nonzero, marks mapping (k, j) to its index."""
    reads: dict = {}
    for mono, _c in P.terms:
        for (k, j), e in mono:
            reads[k, j] = max(reads.get((k, j), 0), min(e, d[k - 1] // j))
    marks = {var: len(d) + i for i, var in
             enumerate(sorted(var for var, lim in reads.items() if lim))}
    return _Box(list(d) + [reads[var] for var in marks]), marks


def _wvectors(box: _Box, marks: dict, col: int, r: int, cap: int,
              limit: int | None = None):
    """(packed w-exponents, sum_i i b_i, prod_i i^b_i b_i!) of each vector b
    on column col's marks (col, j) with r | j, i = j / r, each b_i within its
    mark's limit and sum_i i b_i <= cap; None once more than `limit` exist."""
    out = [(0, 0, 1)]
    for (k, j), v in marks.items():
        if k == col and j % r == 0:
            i = j // r
            out = [(key + b * box.units[v], size + i * b, den * i ** b * factorial(b))
                   for key, size, den in out
                   for b in range(min(box.limits[v], (cap - size) // i) + 1)]
            if limit is not None and len(out) > limit:
                return None
    return out


def _words(d, qs) -> int:
    """64-bit words of a coefficient of size q^|d| at the largest q."""
    return 1 + sum(d) * max(qs).bit_length() // 64


def check_series_guard(d, P, qs, guard: int = DEFAULT.series) -> None:
    """Refuse, before any series exists, the work of euler_totals: states^2
    coefficient products in each of its passes (one for the K_r, one per q),
    each product of _words words.  The state count is multiplied out only
    until it passes its share of the guard."""
    d = tuple(d)
    box, marks = _layout(d, P)
    passes, words = len(qs) + 1, _words(d, qs)
    limit = isqrt(guard // (passes * words))
    states = 1
    for k, dk in enumerate(d, 1):
        vectors = _wvectors(box, marks, k, 1, dk, limit)
        if vectors is None:
            states, bound = limit + 1, "at least "
        else:
            states *= sum(dk - size + 1 for _key, size, _den in vectors)
            bound = "" if k == len(d) else "at least "
        if states > limit:
            raise GuardError(f"series work of {bound}{states}^2 states x {passes} passes "
                             f"x {words} words exceeds guard {guard}")


def _exact(value: int, scale: int) -> int:
    quotient, rest = divmod(value, scale)
    if rest:
        raise InconsistencyError(f"series coefficient {value} is not a multiple of {scale}")
    return quotient


@lru_cache(maxsize=None)
def _stirling2(e: int, s: int) -> int:
    if e == s:
        return 1
    if s == 0 or s > e:
        return 0
    return s * _stirling2(e - 1, s) + _stirling2(e - 1, s - 1)


def _binomial_weights(P, marks: dict, box: _Box) -> dict:
    """P in the prod binom(X[k,j], b_kj) basis: packed w-exponents -> weight.
    A mark outside `marks` has X[k,j] = 0 on every member, so its monomials
    vanish; so does every binom(X, s) past the mark's limit."""
    weights: dict = {}
    for mono, coef in P.terms:
        options = []
        for var, e in mono:
            top = box.limits[marks[var]] if var in marks else 0
            options.append([(s * box.units[marks[var]], _stirling2(e, s) * factorial(s))
                            for s in range(1, min(e, top) + 1)])
        for choice in product(*options):
            key = sum(k for k, _c in choice)
            weights[key] = weights.get(key, 0) + coef * prod(c for _k, c in choice)
    return weights


def _euler_factor(box: _Box, marks: dict, d: tuple, n: int, r: int,
                  scales: list) -> tuple:
    """(L_r, states_r): L_r, each coefficient times D (scales[k] is column
    k's share of D), and the sorted (packed state, |a|) of the states whose
    t-exponents are multiples of r and whose w sits on marks (k, j) with
    r | j, the terms of prod_k Z_k(r).

    The coefficient of prod_i w[k, ri]^b_i in h_e is the mean over S_e of
    prod_i binom(c_i, b_i), c_i the number of i-cycles: prod_i 1 / (i^b_i b_i!)
    when sum_i i b_i <= e, and 0 otherwise.  The columns share no variable,
    so their products never collide or leave the box.
    """
    full, tail = {0: (1, 0)}, {0: 1}  # full: key -> (coefficient, |a|)
    for k, dk in enumerate(d):
        unit = box.units[k]
        column, column_tail = {}, {}
        for key, size, den in _wvectors(box, marks, k + 1, r, dk // r):
            c = _exact(scales[k], den)
            for e in range(size, dk // r + 1):
                column[key + r * e * unit] = c, r * e
                if e >= n:
                    column_tail[key + r * e * unit] = c
        full = {a + b: (x * y, s + t) for a, (x, s) in full.items()
                for b, (y, t) in column.items()}
        tail = {a + b: x * y for a, x in tail.items() for b, y in column_tail.items()}
    L = {key: c for key, (x, _s) in full.items() if (c := x - tail.get(key, 0))}
    if L.get(0) != prod(scales):
        raise InconsistencyError(f"L_{r} does not start with 1")
    return L, sorted((key, s) for key, (_x, s) in full.items())


def _log_derivative(L: dict, states: list, box: _Box, scale: int) -> dict:
    """K = E(L) / L from K L = E(L), for L[0] = scale, both scaled by it."""
    high = box.high
    terms = [(c, x) for c, x in L.items() if c]
    K: dict = {}
    for a, degree in states[1:]:
        top = a + high
        acc = sum(K.get(s - high, 0) * x for c, x in terms
                  if (s := top - c) & high == high)
        if value := degree * L.get(a, 0) - _exact(acc, scale):
            K[a] = value
    return K


def _exp_pass(K: dict, states: list, box: _Box, scale: int) -> dict:
    """G with E(G) = G K and G[0] = scale, both scaled by it."""
    high = box.high
    terms = list(K.items())
    G = {0: scale}
    for a, degree in states[1:]:
        top = a + high
        acc = sum(x * G.get(s - high, 0) for b, x in terms
                  if (s := top - b) & high == high)
        if acc:
            G[a] = _exact(acc, scale * degree)
    return G


def euler_totals(d, n: int, P, qs, guard: int = DEFAULT.series,
                 spare=()) -> list:
    """[(sum of P over the members, member count)] of the unordered space of
    degrees d and threshold n, one pair per q in qs, then one per q in
    spare; d, n and P are taken as validated (run_census, lefschetz_report).

    The series guard runs before any series exists.  It counts the passes
    of qs only: a spare q is at most max(qs), so its pass costs no more
    than one of those.  Checked at run time:
    the exact divisions by D and by |a|, L_r's constant term, and the member
    count against q^|d| - q^(|d| - mn + 1) (q^|d| when some d_k < n).
    """
    d = tuple(d)
    check_series_guard(d, P, qs, guard)
    box, marks = _layout(d, P)
    weights = _binomial_weights(P, marks, box)
    scales = [prod(j ** box.limits[v] * factorial(box.limits[v])
                   for (col, j), v in marks.items() if col == k)
              for k in range(1, len(d) + 1)]
    scale = prod(scales)
    states, logs = [(0, 0)], []
    for r in range(max(d), 0, -1):  # r = 1 last: the passes run on its states
        L, states = _euler_factor(box, marks, d, n, r, scales)
        if len(L) > 1:
            logs.append((r, _log_derivative(L, states, box, scale)))
    target = sum(dk * unit for dk, unit in zip(d, box.units))
    size = sum(d)
    full_size = all(dk >= n for dk in d)
    out = []
    for q in (*qs, *spare):
        K: dict = {}
        for r, K_r in logs:
            m_r = necklace_count(q, r)
            for key, x in K_r.items():
                K[key] = K.get(key, 0) + m_r * x
        G = _exp_pass(K, states, box, scale)
        count = _exact(G.get(target, 0), scale)
        total = sum((w * G.get(target + key, 0) for key, w in weights.items()),
                    Fraction(0)) / scale
        expected = q ** size - (q ** (size - len(d) * n + 1) if full_size else 0)
        if count != expected:
            raise InconsistencyError(
                f"Euler product counts {count} members, not {expected}")
        out.append((total, count))
    return out
