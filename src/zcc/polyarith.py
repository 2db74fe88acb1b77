"""Monic univariate polynomial arithmetic over F_q.

Provides gcd, squarefree decomposition, full factorization into irreducibles
(distinct-degree then equal-degree splitting), n-fold radicals, and the cycle
type of the Frobenius permutation of a polynomial's geometric roots.

A MonicPoly stores only its non-leading coefficients (raw field encodings,
low-to-high); the leading 1 is implicit, so the constant 1 has degree 0 and an
empty coefficient tuple.  Internal routines work on plain dense vectors
(lists of raw ints, trimmed, [] = zero) so intermediate values need not be
monic.

Equal-degree splitting is randomized but derandomized by seeding the RNG with
the repr of the input polynomial, which random.Random hashes with SHA-512, so
factorizations are reproducible across runs and processes.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from .errors import ValidationError

if TYPE_CHECKING:  # ffield runs its modulus search on this module's kernel
    from .ffield import FieldSpec

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
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = F.add_raw(out[i + j], F.mul_raw(ai, bj))
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
# Public types
# ---------------------------------------------------------------------------


class MonicPoly:
    """A monic polynomial; coeffs are the non-leading raw coefficients.
    Immutable and hashable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs: tuple[int, ...]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return (MonicPoly, (self.field, self.coeffs))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field, self.coeffs) == (other.field, other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def full(self) -> list[int]:
        return list(self.coeffs) + [1]

    @classmethod
    def from_full(cls, field: FieldSpec, vec) -> "MonicPoly":
        vec = _trim(list(vec))
        if not vec or vec[-1] != 1:
            raise ValidationError("polynomial is not monic")
        return cls(field, tuple(vec[:-1]))

    @classmethod
    def one(cls, field: FieldSpec) -> "MonicPoly":
        return cls(field, ())

    def _check(self, other: "MonicPoly") -> None:
        if self.field != other.field:
            raise ValidationError("mixed fields")

    def __mul__(self, other: "MonicPoly") -> "MonicPoly":
        self._check(other)
        return MonicPoly.from_full(self.field, _mul(self.field, self.full(), other.full()))

    def __str__(self) -> str:
        return format_poly(self)

    def sort_key(self) -> tuple:
        return (self.degree, self.coeffs)


def mul(f: MonicPoly, g: MonicPoly) -> MonicPoly:
    return f * g


def rem(f: MonicPoly, g: MonicPoly) -> MonicPoly:
    """Remainder of f mod g, normalized monic; a zero remainder (and any
    remainder mod a degree-0 divisor) is reported as the degree-0 polynomial."""
    f._check(g)
    F = f.field
    r = _rem(F, f.full(), g.full())
    if not r:
        return MonicPoly.one(F)
    if r[-1] != 1:
        r = _scale(F, r, F.inv_raw(r[-1]))
    return MonicPoly.from_full(F, r)


def gcd(f: MonicPoly, g: MonicPoly) -> MonicPoly:
    f._check(g)
    return MonicPoly.from_full(f.field, _gcd(f.field, f.full(), g.full()))


def poly_arith(f: MonicPoly, g: MonicPoly, op: str) -> MonicPoly:
    if op == "mul":
        return mul(f, g)
    if op == "rem":
        return rem(f, g)
    if op == "gcd":
        return gcd(f, g)
    raise ValidationError(f"unknown polynomial operation {op!r}")


class Factorization:
    """Multiset of (irreducible monic factor, multiplicity); immutable."""

    __slots__ = ("field", "factors")

    def __init__(self, field: FieldSpec, factors: tuple[tuple[MonicPoly, int], ...]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return (Factorization, (self.field, self.factors))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field, self.factors) == (other.field, other.factors)

    def __hash__(self):
        return hash((self.field, self.factors))

    def expand(self) -> MonicPoly:
        F = self.field
        acc = [1]
        for g, m in self.factors:
            for _ in range(m):
                acc = _mul(F, acc, g.full())
        return MonicPoly.from_full(F, acc)

    @property
    def degree(self) -> int:
        return sum(g.degree * m for g, m in self.factors)


# ---------------------------------------------------------------------------
# Squarefree decomposition (characteristic p, with p-th-root descent)
# ---------------------------------------------------------------------------


def squarefree_decomposition(f: MonicPoly) -> list[tuple[MonicPoly, int]]:
    """Write f as a product of pairwise-coprime squarefree polynomials.

    Returns [(g, m), ...] with f = prod g^m, sorted by multiplicity then
    coefficients.  Uses the standard char-p algorithm: after peeling
    multiplicities not divisible by p, what remains is a perfect p-th power
    and the recursion descends through its p-th root.
    """
    if f.degree < 1:
        raise ValidationError("squarefree decomposition needs degree >= 1")
    F = f.field
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

    sff(f.full(), 1)
    out = [(MonicPoly(F, key), m) for key, m in found.items()]
    out.sort(key=lambda gm: (gm[1], gm[0].coeffs))
    return out


# ---------------------------------------------------------------------------
# Factorization: squarefree -> distinct degree -> equal degree
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


def factorize(f: MonicPoly, seed: int | None = None) -> Factorization:
    """Exact factorization into irreducibles, deterministic output order.

    The equal-degree stage is seeded from the repr of f (optionally mixed
    with `seed`), so repeated runs agree byte-for-byte.
    """
    F = f.field
    if f.degree == 0:
        return Factorization(F, ())
    rng = random.Random(repr((F.p, F.e, F.modulus, f.coeffs, seed or 0)))
    collected: list[tuple[MonicPoly, int]] = []
    for g, m in squarefree_decomposition(f):
        for part, k in _distinct_degree(F, g.full()):
            for irr in _equal_degree(F, part, k, rng):
                collected.append((MonicPoly.from_full(F, irr), m))
    collected.sort(key=lambda gm: gm[0].sort_key())
    return Factorization(F, tuple(collected))


def radical_n(f: MonicPoly, n: int) -> MonicPoly:
    """Product of the distinct irreducible factors of multiplicity >= n."""
    if n < 1:
        raise ValidationError("radical threshold must be >= 1")
    F = f.field
    acc = [1]
    if f.degree == 0 or n > f.degree:
        return MonicPoly.one(F)
    for g, m in factorize(f).factors:
        if m >= n:
            acc = _mul(F, acc, g.full())
    return MonicPoly.from_full(F, acc)


def cycle_type_of(fact: Factorization) -> tuple[int, ...]:
    """Cycle type of Frobenius on the roots, counted with multiplicity.

    Each irreducible factor of degree j and multiplicity e contributes e
    parts equal to j; parts are sorted descending and sum to deg f.
    """
    parts: list[int] = []
    for g, m in fact.factors:
        parts.extend([g.degree] * m)
    parts.sort(reverse=True)
    return tuple(parts)


# ---------------------------------------------------------------------------
# Textual form: "x^2+2*x+1"
# ---------------------------------------------------------------------------


def format_poly(f: MonicPoly, var: str = "x") -> str:
    F = f.field

    def coeff_str(raw):
        if F.e == 1:
            return str(raw)
        return "(" + ",".join(str(c) for c in F.decode(raw)) + ")"

    full = f.full()
    terms = []
    for k in range(len(full) - 1, -1, -1):
        c = full[k]
        if c == 0:
            continue
        if k == 0:
            terms.append(coeff_str(c))
        else:
            xpart = var if k == 1 else f"{var}^{k}"
            terms.append(xpart if c == 1 else f"{coeff_str(c)}*{xpart}")
    return "+".join(terms) if terms else "0"


def parse_poly(field: FieldSpec, text: str, var: str = "x") -> MonicPoly:
    """Parse "x^2+2*x+1" style text into a MonicPoly.

    Extension-field coefficients use the parenthesized residue form, e.g.
    "(2,1)*x+1" over F_9.
    """
    s = text.replace(" ", "")
    if not s:
        raise ValidationError("empty polynomial")
    # split into signed terms
    terms = []
    i = 0
    start = 0
    depth = 0
    while i < len(s):
        ch = s[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > start:
            terms.append(s[start:i])
            start = i
        i += 1
    terms.append(s[start:])

    coeffs: dict[int, int] = {}
    for term in terms:
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        if not term:
            raise ValidationError(f"bad polynomial {text!r}")
        if var in term:
            cpart, _, xpart = term.partition(var)
            cpart = cpart.rstrip("*")
            if xpart.startswith("^"):
                try:
                    k = int(xpart[1:])
                except ValueError as exc:
                    raise ValidationError(f"bad exponent in {term!r}") from exc
            elif xpart == "":
                k = 1
            else:
                raise ValidationError(f"bad term {term!r}")
        else:
            cpart, k = term, 0
        if cpart == "":
            raw = 1
        elif cpart.startswith("("):
            if not cpart.endswith(")"):
                raise ValidationError(f"bad coefficient in {term!r}")
            raw = parse_raw_coeff(field, cpart[1:-1])
        else:
            try:
                raw = int(cpart) % field.p
            except ValueError as exc:
                raise ValidationError(f"bad coefficient in {term!r}") from exc
        if sign < 0:
            raw = field.neg_raw(raw)
        coeffs[k] = field.add_raw(coeffs.get(k, 0), raw)

    deg = max(coeffs)
    vec = [coeffs.get(i, 0) for i in range(deg + 1)]
    vec = _trim(vec)
    if not vec or vec[-1] != 1:
        raise ValidationError(f"polynomial {text!r} is not monic")
    return MonicPoly(field, tuple(vec[:-1]))


def parse_raw_coeff(field: FieldSpec, body: str) -> int:
    coords = [int(x) % field.p for x in body.split(",")]
    if len(coords) != field.e:
        raise ValidationError(f"coefficient needs {field.e} residues")
    return field.encode(coords)
