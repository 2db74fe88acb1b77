"""Monic univariate polynomial arithmetic over F_q on dense vectors.

Provides gcd, squarefree decomposition and full factorization into
irreducibles (distinct-degree then equal-degree splitting).  Every routine
works on dense vectors: lists of raw field ints, low-to-high, trimmed, with
[] the zero polynomial, so intermediate values need not be monic.
`factorize` takes a monic polynomial as its non-leading coefficient tuple
(the leading 1 implicit, so the constant 1 is the empty tuple) and returns
the census record format: the sorted ((degree, coeffs), multiplicity) pairs
of its irreducible factors, each factor keyed the same way.

Equal-degree splitting is randomized but derandomized by seeding the RNG with
the repr of the input polynomial, which random.Random hashes with SHA-512, so
factorizations are reproducible across runs and processes.
"""

from __future__ import annotations

import random

from .errors import ValidationError
from .ffield import FieldSpec, packing

# ---------------------------------------------------------------------------
# Dense vector arithmetic (raw coefficient lists, low-to-high, trimmed)
# ---------------------------------------------------------------------------


def _trim(v):
    while v and v[-1] == 0:
        v.pop()
    return v


def _add(F: FieldSpec, a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out[i] = F.add_raw(x, y)
    return _trim(out)


def _sub(F: FieldSpec, a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out[i] = F.sub_raw(x, y)
    return _trim(out)


def _scale(F: FieldSpec, a, c):
    if c == 0:
        return []
    return _trim([F.mul_raw(x, c) for x in a])


def _mul(F: FieldSpec, a, b):
    """a * b by one int product on the packed kernel: a coefficient of the
    lifted product sums at most min(len) * e products of digits below p."""
    if not a or not b:
        return []
    n = len(a) + len(b) - 1
    kernel = packing(F.p, F.modulus, n, 2 * F.e - 1,
                     min(len(a), len(b)) * F.e * (F.p - 1) ** 2)
    value = kernel.read(kernel.lift(a) * kernel.lift(b))
    out = [0] * n
    for i in reversed(range(n)):
        value, out[i] = divmod(value, F.q)
    return _trim(out)


def _divmod(F: FieldSpec, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db = len(b) - 1
    inv_lead = F.inv_raw(b[-1])
    quot = [0] * max(0, len(a) - db)
    while a and len(a) - 1 >= db:
        c = F.mul_raw(a[-1], inv_lead)
        shift = len(a) - 1 - db
        quot[shift] = c
        for i, bi in enumerate(b):
            if bi:
                a[shift + i] = F.sub_raw(a[shift + i], F.mul_raw(c, bi))
        a[-1] = 0
        _trim(a)
    return _trim(quot), a


def _rem(F, a, b):
    return _divmod(F, a, b)[1]


def _gcd(F: FieldSpec, a, b):
    """Monic gcd; gcd(0, 0) = 0."""
    a, b = list(a), list(b)
    while b:
        a, b = b, _rem(F, a, b)
    if a and a[-1] != 1:
        a = _scale(F, a, F.inv_raw(a[-1]))
    return a


def _pow_mod(F: FieldSpec, base, exp: int, mod):
    acc = [1]
    base = _rem(F, base, mod)
    while exp:
        if exp & 1:
            acc = _rem(F, _mul(F, acc, base), mod)
        base = _rem(F, _mul(F, base, base), mod)
        exp >>= 1
    return acc


def _derivative(F: FieldSpec, a):
    out = []
    for i in range(1, len(a)):
        c = a[i]
        k = i % F.p
        out.append(F.mul_raw(c, k) if k else 0)
    return _trim(out)


def _pth_root(F: FieldSpec, a):
    """p-th root of a perfect p-th power (support on multiples of p)."""
    p = F.p
    root_exp = F.q // p  # c -> c^(q/p) inverts c -> c^p
    out = []
    for i in range(0, len(a), p):
        out.append(F.pow_raw(a[i], root_exp))
    return _trim(out)


# ---------------------------------------------------------------------------
# Squarefree decomposition (characteristic p, with p-th-root descent)
# ---------------------------------------------------------------------------


def squarefree_decomposition(F: FieldSpec, vec) -> list:
    """Write the monic dense vector `vec` as a product of pairwise-coprime
    squarefree monic vectors.

    Returns [(g, m), ...] with vec = prod g^m, sorted by multiplicity then
    non-leading coefficients.  Uses the standard char-p algorithm: after
    peeling multiplicities not divisible by p, what remains is a perfect p-th
    power and the recursion descends through its p-th root.
    """
    if len(vec) < 2:
        raise ValidationError("squarefree decomposition needs degree >= 1")
    found: dict[tuple[int, ...], int] = {}

    def record(vec, mult):
        key = tuple(vec[:-1])
        found[key] = found.get(key, 0) + mult

    def sff(vec, outer):
        d = _derivative(F, vec)
        if not d:
            sff(_pth_root(F, vec), outer * F.p)
            return
        c = _gcd(F, vec, d)
        w = _divmod(F, vec, c)[0]
        i = 1
        while len(w) - 1 > 0:
            y = _gcd(F, w, c)
            z = _divmod(F, w, y)[0]
            if len(z) - 1 > 0:
                record(z, outer * i)
            i += 1
            w = y
            c = _divmod(F, c, y)[0]
        if len(c) - 1 > 0:
            sff(_pth_root(F, c), outer * F.p)

    sff(list(vec), 1)
    return [(list(key) + [1], m)
            for key, m in sorted(found.items(), key=lambda km: (km[1], km[0]))]


# ---------------------------------------------------------------------------
# Factoring: squarefree -> distinct degree -> equal degree
# ---------------------------------------------------------------------------


def _distinct_degree(F: FieldSpec, vec):
    """Split a squarefree monic vector into (product-of-degree-k-factors, k)."""
    out = []
    v = list(vec)
    h = _rem(F, [0, 1], v)
    k = 0
    while len(v) - 1 >= 2 * (k + 1):
        k += 1
        h = _pow_mod(F, h, F.q, v)
        g = _gcd(F, _sub(F, h, [0, 1]), v)
        if len(g) - 1 > 0:
            out.append((g, k))
            v = _divmod(F, v, g)[0]
            h = _rem(F, h, v)
    if len(v) - 1 > 0:
        out.append((v, len(v) - 1))
    return out


def _equal_degree(F: FieldSpec, vec, k: int, rng: random.Random):
    """Cantor-Zassenhaus split of a squarefree product of degree-k irreducibles."""
    d = len(vec) - 1
    if d == k:
        return [vec]
    while True:
        a = [rng.randrange(F.q) for _ in range(d)]
        a = _trim(a)
        if len(a) - 1 < 1:
            continue
        if F.p == 2:
            # absolute trace to F_2 of a in each residue field
            t = list(a)
            acc = list(a)
            for _ in range(F.e * k - 1):
                acc = _rem(F, _mul(F, acc, acc), vec)
                t = _add(F, t, acc)
            g = _gcd(F, t, vec)
        else:
            b = _pow_mod(F, a, (F.q ** k - 1) // 2, vec)
            g = _gcd(F, _sub(F, b, [1]), vec)
        if 0 < len(g) - 1 < d:
            rest = _divmod(F, vec, g)[0]
            return _equal_degree(F, g, k, rng) + _equal_degree(F, rest, k, rng)


def factorize(F: FieldSpec, coeffs, seed: int | None = None) -> tuple:
    """Exact factorization of the monic polynomial with non-leading
    coefficients `coeffs`, as the sorted ((degree, coeffs), multiplicity)
    pairs of its irreducible factors.

    The equal-degree stage is seeded from the repr of the input (optionally
    mixed with `seed`), so repeated runs agree byte-for-byte.
    """
    coeffs = tuple(coeffs)
    if not coeffs:
        return ()
    rng = random.Random(repr((F.p, F.e, F.modulus, coeffs, seed or 0)))
    collected = []
    for g, m in squarefree_decomposition(F, list(coeffs) + [1]):
        for part, k in _distinct_degree(F, g):
            for irr in _equal_degree(F, part, k, rng):
                collected.append(((len(irr) - 1, tuple(irr[:-1])), m))
    return tuple(sorted(collected))
