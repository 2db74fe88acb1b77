"""Reference arithmetic for the packed kernel of zcc.ffield: the conversion
of a raw element to and from its base-p coordinate digits, the base-p
convolution that FieldSpec.mul_raw once ran, and the schoolbook product
that polyarith._mul once ran.  The tests check the kernel against them."""


def decode(F, raw: int) -> tuple:
    """The power-basis coordinates of a raw element: its base-p digits,
    constant term first."""
    out = []
    for _ in range(F.e):
        raw, r = divmod(raw, F.p)
        out.append(r)
    return tuple(out)


def encode(F, coeffs) -> int:
    """The raw element with these power-basis coordinates."""
    raw = 0
    for c in reversed(coeffs):
        raw = raw * F.p + c
    return raw


def convolution_mul_raw(F, a: int, b: int) -> int:
    """a * b in F: the digit vectors convolved mod p, then the degrees >= e
    folded back with the modulus from the top down."""
    p, e = F.p, F.e
    if a == 0 or b == 0:
        return 0
    conv = [0] * (2 * e - 1)
    for i, ai in enumerate(decode(F, a)):
        if ai:
            for j, bj in enumerate(decode(F, b)):
                conv[i + j] = (conv[i + j] + ai * bj) % p
    for k in range(2 * e - 2, e - 1, -1):
        c = conv[k]
        if c:
            conv[k] = 0
            for i, mi in enumerate(F.modulus):
                conv[k - e + i] = (conv[k - e + i] - c * mi) % p
    return encode(F, conv[:e])


def schoolbook_mul(F, a, b) -> list:
    """a * b for dense vectors over F (raw ints, low-to-high, trimmed), one
    field product per pair of coefficients."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = F.add_raw(out[i + j], convolution_mul_raw(F, ai, bj)
                                           if F.e > 1 else ai * bj % F.p)
    while out and out[-1] == 0:
        out.pop()
    return out
