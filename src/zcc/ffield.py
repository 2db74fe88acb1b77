"""Exact arithmetic in finite fields F_q for prime powers q = p^e.

Elements are represented by their coordinate vector in the power basis of a
canonical modulus: the lexicographically least monic irreducible of degree e
over F_p, coefficients compared low-to-high degree.  An element is that
vector packed into a single raw int (base-p digits, constant term least
significant), which keeps prime-field arithmetic at native speed;
FieldSpec.decode and encode convert between the two forms.

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

    # -- packing ------------------------------------------------------------

    def decode(self, raw: int) -> tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(self.e):
            raw, r = divmod(raw, p)
            out.append(r)
        return tuple(out)

    def encode(self, coeffs) -> int:
        raw = 0
        for c in reversed(coeffs):
            raw = raw * self.p + c
        return raw

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

    # the prime-field one-liners are the hot path of every record table
    def add_raw(self, a: int, b: int) -> int:
        return (a + b) % self.p if self.e == 1 else self._digitwise(a, b, 1)

    def sub_raw(self, a: int, b: int) -> int:
        return (a - b) % self.p if self.e == 1 else self._digitwise(a, b, -1)

    def mul_raw(self, a: int, b: int) -> int:
        p = self.p
        if self.e == 1:
            return (a * b) % p
        if a == 0 or b == 0:
            return 0
        va = self.decode(a)
        vb = self.decode(b)
        e = self.e
        conv = [0] * (2 * e - 1)
        for i, ai in enumerate(va):
            if ai:
                for j, bj in enumerate(vb):
                    conv[i + j] = (conv[i + j] + ai * bj) % p
        mod = self.modulus
        for k in range(2 * e - 2, e - 1, -1):
            c = conv[k]
            if c:
                conv[k] = 0
                for i, mi in enumerate(mod):
                    conv[k - e + i] = (conv[k - e + i] - c * mi) % p
        return self.encode(conv[:e])

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
