"""Character polynomials for products of symmetric groups.

A class function on S_{d_1} x ... x S_{d_m} is written as an exact-rational
polynomial in the variables X[k,j], where X[k,j] evaluated at a conjugacy
class counts the j-cycles in the k-th factor.  One polynomial defines a
compatible family of class functions for every degree vector d.

Partitions are plain descending tuples of positive ints; a cycle type is an
m-tuple of partitions (one per column); a degree vector is an m-tuple of
nonnegative ints.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial

from .errors import ValidationError
from .record import Value

Partition = tuple  # descending tuple of positive ints
CycleType = tuple  # m-tuple of Partition
DegreeVector = tuple  # m-tuple of nonnegative ints

# A monomial maps variables (k, j) to positive exponents, stored as a sorted
# tuple of ((k, j), exp) pairs; () is the constant monomial.
Monomial = tuple

# Size bounds checked before any multiplication: the total degree of a power
# (a constant counts as degree 1, so its exponent is bounded too), and the
# number of term-by-term products in one multiplication.
MAX_DEGREE = 100
MAX_TERM_PRODUCTS = 10 ** 6


def validate_partition(lam) -> Partition:
    lam = tuple(int(x) for x in lam)
    if any(x < 1 for x in lam) or any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValidationError(f"not a partition: {lam}")
    return lam


# ---------------------------------------------------------------------------
# Partitions and centralizer orders
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def all_partitions(d: int) -> tuple[Partition, ...]:
    """All partitions of d in descending lexicographic order."""
    if d < 0:
        raise ValidationError("negative degree")

    def rec(rem, maxpart):
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, maxpart), 0, -1):
            for rest in rec(rem - first, first):
                yield (first,) + rest

    return tuple(rec(d, d)) if d else ((),)


def z_of(lam: Partition) -> int:
    """Centralizer order z_lam = prod j^(a_j) a_j! over part sizes j."""
    z = 1
    for j, a in Counter(lam).items():
        z *= j ** a * factorial(a)
    return z


def partitions_of(d: int) -> list[tuple[Partition, int]]:
    """All partitions of d paired with their centralizer orders."""
    return [(lam, z_of(lam)) for lam in all_partitions(d)]


def cycle_types_of(d: DegreeVector):
    """Yield (cycle type, measure weight prod 1/z) for the classes of S_d."""
    columns = [partitions_of(dk) for dk in d]
    for combo in product(*columns):
        w = Fraction(1)
        for _, z in combo:
            w /= z
        yield tuple(lam for lam, _ in combo), w


# ---------------------------------------------------------------------------
# The polynomial algebra
# ---------------------------------------------------------------------------


def _merge(terms: dict) -> tuple:
    return tuple(sorted((mono, c) for mono, c in terms.items() if c != 0))


class CharPolynomial(Value):
    """Exact-rational polynomial in the class functions X[k,j].  Immutable and
    hashable: statistics key the census's class-value cache."""

    __slots__ = ("terms",)  # sorted (Monomial, Fraction) pairs

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, value) -> "CharPolynomial":
        c = Fraction(value)
        return cls((((), c),) if c else ())

    @classmethod
    def variable(cls, k: int, j: int) -> "CharPolynomial":
        if k < 1 or j < 1:
            raise ValidationError("variable indices are 1-based")
        return cls((((((k, j), 1),), Fraction(1)),))

    # -- algebra ---------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CharPolynomial):
            return other
        return CharPolynomial.constant(other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for mono, c in other.terms:
            out[mono] = out.get(mono, Fraction(0)) + c
        return CharPolynomial(_merge(out))

    __radd__ = __add__

    def __neg__(self):
        return CharPolynomial(tuple((mono, -c) for mono, c in self.terms))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if len(self.terms) * len(other.terms) > MAX_TERM_PRODUCTS:
            raise ValidationError(
                f"product of {len(self.terms)} and {len(other.terms)} terms "
                f"exceeds {MAX_TERM_PRODUCTS} term products")
        out: dict = {}
        for mono1, c1 in self.terms:
            for mono2, c2 in other.terms:
                counts = dict(mono1)
                for var, e in mono2:
                    counts[var] = counts.get(var, 0) + e
                mono = tuple(sorted(counts.items()))
                out[mono] = out.get(mono, Fraction(0)) + c1 * c2
        return CharPolynomial(_merge(out))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValidationError("negative powers are not polynomials")
        if k * max(1, self.total_degree()) > MAX_DEGREE:
            raise ValidationError(
                f"power ^{k} exceeds the degree bound {MAX_DEGREE}")
        acc = ONE
        base = self
        while k:
            if k & 1:
                acc = acc * base
            k >>= 1
            if k:
                base = base * base
        return acc

    # -- inspection -------------------------------------------------------------

    def is_one(self) -> bool:
        return self.terms == (((), Fraction(1)),)

    def total_degree(self) -> int:
        return max((sum(e for _, e in mono) for mono, _ in self.terms), default=0)

    def columns_used(self) -> set:
        return {k for mono, _ in self.terms for (k, _j), _e in mono}

    def __str__(self) -> str:
        return format_charpoly(self)


ONE = CharPolynomial.constant(1)


def format_monomial(mono: Monomial) -> str:
    if not mono:
        return "1"
    parts = []
    for (k, j), e in mono:
        base = f"X[{k},{j}]"
        parts.append(base if e == 1 else f"{base}^{e}")
    return "*".join(parts)


def format_charpoly(P: CharPolynomial) -> str:
    if not P.terms:
        return "0"
    # highest total degree first, then monomial order, for a stable layout
    ordered = sorted(P.terms, key=lambda tc: (-sum(e for _, e in tc[0]), tc[0]))
    out = []
    for mono, c in ordered:
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = format_monomial(mono)
        else:
            body = f"{mag}*{format_monomial(mono)}"
        out.append((sign, body))
    first_sign, first_body = out[0]
    text = (first_sign if first_sign == "-" else "") + first_body
    for sign, body in out[1:]:
        text += sign + body
    return text


def evaluate(P: CharPolynomial, c: CycleType) -> Fraction:
    """Substitute X[k,j] := number of j-parts in column k and evaluate."""
    counters = [Counter(col) for col in c]
    total = Fraction(0)
    for mono, coef in P.terms:
        val = Fraction(1)
        for (k, j), e in mono:
            if k > len(counters):
                raise ValidationError(
                    f"cycle type has {len(counters)} columns but X[{k},{j}] was used")
            n = counters[k - 1].get(j, 0)
            if n == 0:
                val = Fraction(0)
                break
            val *= n ** e
        total += coef * val
    return total


# ---------------------------------------------------------------------------
# Parser for the statistic DSL: rationals, X[k,j], + - * ^ and parentheses
# ---------------------------------------------------------------------------


MAX_NESTING = 100  # parenthesis depth; each level costs a few stack frames
MAX_DIGITS = 1000  # integer literal length, well inside int()'s own limit


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, msg: str):
        raise ValidationError(f"syntax error at position {self.pos}: {msg}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def number(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            self.error("expected a number")
        if self.pos - start > MAX_DIGITS:
            self.error(f"number longer than {MAX_DIGITS} digits")
        return int(self.text[start:self.pos])

    def expr(self) -> CharPolynomial:
        acc = self.term()
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def term(self) -> CharPolynomial:
        acc = self.unary()
        while self.peek() == "*":
            self.pos += 1
            acc = acc * self.unary()
        return acc

    def unary(self) -> CharPolynomial:
        negate = False
        while self.peek() == "-":
            self.pos += 1
            negate = not negate
        base = self.power()
        return -base if negate else base

    def power(self) -> CharPolynomial:
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            return base ** self.number()
        return base

    def atom(self) -> CharPolynomial:
        ch = self.peek()
        if ch == "(":
            self.take("(")
            self.depth += 1
            if self.depth > MAX_NESTING:
                self.error(f"parentheses nested deeper than {MAX_NESTING}")
            inner = self.expr()
            self.take(")")
            self.depth -= 1
            return inner
        if ch == "X":
            self.pos += 1
            self.take("[")
            k = self.number()
            self.take(",")
            j = self.number()
            self.take("]")
            return CharPolynomial.variable(k, j)
        if ch.isdecimal():
            num = self.number()
            if self.peek() == "/":
                self.pos += 1
                den = self.number()
                if den == 0:
                    self.error("zero denominator")
                return CharPolynomial.constant(Fraction(num, den))
            return CharPolynomial.constant(num)
        self.error(f"unexpected {ch!r}" if ch else "unexpected end of input")


def parse_charpoly(text: str) -> CharPolynomial:
    """Parse the statistic DSL into canonical expanded form.  Only the syntax
    is checked: each caller that is given a degree vector, or a number of
    columns, checks the columns the statistic reads against it."""
    parser = _Parser(text)
    poly = parser.expr()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.error(f"unexpected {text[parser.pos]!r}")
    return poly


# ---------------------------------------------------------------------------
# Inner products
# ---------------------------------------------------------------------------


def inner_product(P: CharPolynomial, Q: CharPolynomial, d: DegreeVector) -> Fraction:
    """<P, Q> over S_d, summed over cycle types with 1/z weights.

    This is the standard class-function pairing, used uniformly even when
    the arguments are virtual (non-integral) combinations; no alternative
    normalization is applied anywhere in the package.
    """
    d = tuple(int(x) for x in d)
    m = max(P.columns_used() | Q.columns_used(), default=0)
    if len(d) < m:
        raise ValidationError(f"degree vector has {len(d)} columns, need {m}")
    total = Fraction(0)
    for c, w in cycle_types_of(d):
        total += w * evaluate(P, c) * evaluate(Q, c)
    return total


# ---------------------------------------------------------------------------
# Free-module characters and partition padding
# ---------------------------------------------------------------------------


def free_module_character(a: DegreeVector) -> CharPolynomial:
    """Character of the free module on a generator in degree a.

    The value at sigma counts tuples of injections [a_k] -> [d_k] fixed
    pointwise by sigma, which is the product of falling factorials
    X[k,1](X[k,1]-1)...(X[k,1]-a_k+1).
    """
    acc = ONE
    for k, ak in enumerate(map(int, a), start=1):
        x = CharPolynomial.variable(k, 1)
        for i in range(ak):
            acc = acc * (x - i)
    return acc


def pad_partition(lam: Partition, c: int) -> Partition:
    """Prepend a long first row: lam[c] = (c - |lam|, lam_1, lam_2, ...)."""
    lam = validate_partition(lam)
    size = sum(lam)
    first = lam[0] if lam else 0
    if c < size + first:
        raise ValidationError("padding condition violated")
    return (c - size,) + lam if c > size else lam


# ---------------------------------------------------------------------------
# Murnaghan-Nakayama recursion
# ---------------------------------------------------------------------------


def _beta_set(lam: Partition) -> tuple:
    n = len(lam)
    return tuple(lam[i] + (n - 1 - i) for i in range(n))


def _partition_from_beta(beta) -> Partition:
    beta = sorted(beta, reverse=True)
    n = len(beta)
    lam = [beta[i] - (n - 1 - i) for i in range(n)]
    return tuple(x for x in lam if x > 0)


@lru_cache(maxsize=None)
def _mn(lam: Partition, mu: Partition) -> int:
    if not mu:
        return 1
    t = mu[0]
    rest = mu[1:]
    beta = set(_beta_set(lam))
    total = 0
    for b in beta:
        if b >= t and (b - t) not in beta:
            height = sum(1 for c in beta if b - t < c < b)
            new_beta = (beta - {b}) | {b - t}
            sub = _partition_from_beta(new_beta)
            total += (-1) ** height * _mn(sub, rest)
    return total


def irreducible_character_value(lam: Partition, mu: Partition) -> int:
    """chi_lam(mu) by signed border-strip removal; exact integer."""
    lam = validate_partition(lam)
    mu = validate_partition(mu)
    if sum(lam) != sum(mu):
        raise ValidationError(
            f"size mismatch: |{lam}| = {sum(lam)} but |{mu}| = {sum(mu)}")
    return _mn(lam, mu)


def irreducible_dimension(lam: Partition) -> int:
    return irreducible_character_value(lam, (1,) * sum(lam)) if lam else 1


def decompose_into_irreducibles(P: CharPolynomial, d: DegreeVector) -> dict:
    """Multiplicities <P, Irr(lam)> over S_d for all tuples lam of partitions.

    Only nonzero multiplicities are returned.  The decomposition is checked
    by re-evaluating at the identity class: sum of multiplicity * dimension
    must equal P there.
    """
    d = tuple(int(x) for x in d)
    classes = list(cycle_types_of(d))
    tuples = list(product(*(all_partitions(dk) for dk in d)))
    out = {}
    dim_total = Fraction(0)
    for lams in tuples:
        mult = Fraction(0)
        for c, w in classes:
            chi = 1
            for lam, col in zip(lams, c):
                chi *= _mn(lam, col)
                if chi == 0:
                    break
            if chi:
                mult += w * evaluate(P, c) * chi
        if mult:
            out[lams] = mult
            dim = 1
            for lam in lams:
                dim *= irreducible_dimension(lam)
            dim_total += mult * dim
    identity = tuple((1,) * dk for dk in d)
    if dim_total != evaluate(P, identity):
        raise ValidationError(
            "irreducible decomposition failed its dimension check")
    return out
