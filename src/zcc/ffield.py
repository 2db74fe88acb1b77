"""Exact arithmetic in finite fields F_q for prime powers q = p^e.

Elements are represented by their coordinate vector in the power basis of a
canonical modulus: the lexicographically least monic irreducible of degree e
over F_p, coefficients compared low-to-high degree.  An element is that
vector packed into a single raw int (base-p digits, constant term least
significant), which keeps prime-field arithmetic at native speed.  Products
over F_{p^e}, of elements and of polynomials, go through one kernel,
`Packing`: the base-p digits are lifted to integer lanes of one int, so one
int product multiplies them.

Deterministic by construction: the same (p, e) always yields the same
modulus, so serialized data round-trips across runs.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .errors import ValidationError
from .guards import DEFAULT
from .record import Value


def is_prime(n: int) -> bool:
    return _prime_divisors(n) == [n]


def _prime_divisors(n):
    out = []
    r = 2
    while r * r <= n:
        if n % r == 0:
            out.append(r)
            while n % r == 0:
                n //= r
        r += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(F: FieldSpec, f) -> bool:
    """Rabin test over the prime field F: x^(p^e) = x mod f and
    gcd(x^(p^(e/r)) - x, f) = 1 for every prime r | e."""
    # only the modulus search needs polynomials: lattice and betti never load them
    from .polyarith import _gcd, _pow_mod, _sub
    e = len(f) - 1
    x = [0, 1]
    if _sub(F, _pow_mod(F, x, F.p ** e, f), x):
        return False
    for r in _prime_divisors(e):
        diff = _sub(F, _pow_mod(F, x, F.p ** (e // r), f), x)
        if len(_gcd(F, f, diff)) > 1:
            return False
    return True


@lru_cache(maxsize=None)
def _canonical_modulus(p: int, e: int) -> tuple[int, ...]:
    """Non-leading coefficients of the least monic irreducible of degree e."""
    if e == 1:
        return (0,)
    prime = FieldSpec(p, 1, (0,))
    for low in product(range(p), repeat=e):
        f = list(low) + [1]
        if f[0] == 0:
            continue  # divisible by x
        if _is_irreducible(prime, f):
            return low
    raise RuntimeError("no irreducible found (unreachable)")


# ---------------------------------------------------------------------------
# Field specification and packed-int arithmetic
# ---------------------------------------------------------------------------

class FieldSpec(Value):
    """The field F_q, q = p^e, with its canonical modulus.

    `modulus` holds the e non-leading coefficients (low-to-high); the leading
    coefficient 1 is implicit.  Raw elements are ints in [0, q) whose base-p
    digits are the power-basis coordinates.  Immutable and hashable: specs
    key the census caches.
    """

    __slots__ = ("p", "e", "modulus")

    @property
    def q(self) -> int:
        return self.p ** self.e

    # -- arithmetic on raw ints ----------------------------------------------

    def _digitwise(self, a: int, b: int, sign: int) -> int:
        """a + sign * b in F_{p^e}, e > 1, base-p digit by digit."""
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.e):
            a, ra = divmod(a, p)
            b, rb = divmod(b, p)
            out += ((ra + sign * rb) % p) * mult
            mult *= p
        return out

    # the prime-field one-liners are the hot path of polynomial division
    def add_raw(self, a: int, b: int) -> int:
        return (a + b) % self.p if self.e == 1 else self._digitwise(a, b, 1)

    def sub_raw(self, a: int, b: int) -> int:
        return (a - b) % self.p if self.e == 1 else self._digitwise(a, b, -1)

    def mul_raw(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        # 2e - 1 lanes, each a sum of at most e products of digits below p
        kernel = packing(self.p, self.modulus, 1, 2 * self.e - 1,
                         self.e * (self.p - 1) ** 2)
        return kernel.read(kernel.lift((a,)) * kernel.lift((b,)))

    def pow_raw(self, a: int, k: int) -> int:
        if k < 0:
            a = self.inv_raw(a)
            k = -k
        acc = 1  # the raw encoding of one is 1 in every field
        base = a
        while k:
            if k & 1:
                acc = self.mul_raw(acc, base)
            base = self.mul_raw(base, base)
            k >>= 1
        return acc

    def inv_raw(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("division by zero")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow_raw(a, self.q - 2)


# ---------------------------------------------------------------------------
# Packed integer products: the one multiplication kernel
# ---------------------------------------------------------------------------


class Packing:
    """Polynomials over F_{p^e} packed into ints, so that one int product
    multiplies them.

    A polynomial lifts to Z[x, a], each coefficient's base-p digits becoming
    its a-coefficients, and packs into one int by Kronecker substitution:
    a = 2^width, x = 2^(width * lanes).  An int product of packed
    polynomials is their exact product over Z while every a-degree stays
    below `lanes` and no lane exceeds the caller's `bound`.  `read`
    multiplies it by `fold`, the rows a^k mod m(a) laid out so that one lane
    per base-p digit of each of the first `count` coefficients receives that
    digit's folded sum, and takes those lanes mod p.  A lane of the folded
    product sums at most one row digit (below p, and a unit digit in the
    rows k < e) times a lane per row, so `width` holds
    bound * (1 + (lanes - e) * (p - 1)) and nothing carries.
    """

    __slots__ = ("p", "width", "stride", "mask", "fold", "shifts")

    def __init__(self, p: int, modulus: tuple, count: int, lanes: int, bound: int):
        e = len(modulus)
        self.p = p
        self.width = width = (bound * (1 + (lanes - e) * (p - 1))).bit_length()
        self.stride = lanes * width
        self.mask = (1 << width) - 1
        rows = [(1,) + (0,) * (e - 1)]  # the digits of a^k mod m(a)
        for _ in range(1, lanes):
            top = rows[-1][-1]
            rows.append(tuple((low - top * c) % p for low, c in
                              zip((0,) + rows[-1][:-1], modulus)))
        # Digit j of row k sits at lane lanes - 1 - k + j * span of fold, so
        # lane i * lanes + k of a product meets it at lane
        # i * lanes + lanes - 1 + j * span, and nothing else does: a span of
        # (count + 2) * lanes - 1 keeps the digits apart for products of up
        # to count + 1 x-coefficients (the census reads all but the leading 1).
        span = (count + 2) * lanes - 1
        self.fold = sum(row[j] << ((lanes - 1 - k + j * span) * width)
                        for k, row in enumerate(rows) for j in range(e))
        # most significant first: the constant's top digit down to the last
        # coefficient's lowest
        self.shifts = tuple((i * lanes + lanes - 1 + j * span) * width
                            for i in range(count) for j in reversed(range(e)))

    def lift(self, poly) -> int:
        """The packed lift of a dense polynomial (raw ints, low-to-high)."""
        p, width, stride = self.p, self.width, self.stride
        packed = 0
        for c in reversed(poly):
            packed <<= stride
            shift = 0
            while c:
                c, digit = divmod(c, p)
                packed |= digit << shift
                shift += width
        return packed

    def read(self, packed: int) -> int:
        """The first `count` coefficients of the reduced product read as one
        base-q number, the constant term the most significant: the raw
        element itself for count 1."""
        folded = packed * self.fold
        p, mask = self.p, self.mask
        value = 0
        for shift in self.shifts:
            value = value * p + (folded >> shift & mask) % p
        return value


@lru_cache(maxsize=None)
def packing(p: int, modulus: tuple, count: int, lanes: int, bound: int) -> Packing:
    """The Packing of F_{p^e}, e = len(modulus), for products whose lanes are
    at most `bound`, reading their first `count` coefficients.  Keyed by the
    field's own fields: hashing a FieldSpec costs about a microsecond."""
    return Packing(p, modulus, count, lanes, bound)


def make_field(p: int, e: int = 1, size_guard: int = DEFAULT.field) -> FieldSpec:
    """Build F_{p^e} with the canonical modulus.

    Repeated calls with equal inputs give identical specs.  The size guard
    keeps exhaustive self-tests fast; override deliberately for larger runs.
    """
    if p > size_guard:
        raise ValidationError("field too large")  # before trial division
    if not is_prime(p):
        raise ValidationError("not prime")
    if e < 1:
        raise ValidationError(f"extension degree must be >= 1, got {e}")
    # p^e >= 2^e, so a long exponent is rejected before the power is formed
    if e >= size_guard.bit_length() or p ** e > size_guard:
        raise ValidationError("field too large")
    return FieldSpec(p=p, e=e, modulus=_canonical_modulus(p, e))


def prime_power(q: int, size_guard: int = DEFAULT.field) -> tuple[int, int]:
    """(p, e) with q = p^e.  The field size guard is checked before any
    trial division, so a huge q is rejected at once."""
    if q > size_guard:
        raise ValidationError("field too large")
    primes = _prime_divisors(q)  # [] for q < 2
    if len(primes) != 1:
        raise ValidationError(f"{q} is not a prime power")
    p, e = primes[0], 1
    while p ** e < q:
        e += 1
    return p, e
