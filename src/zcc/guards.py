"""The size bounds that `--unsafe-guard` lifts, on builtins only.  Every other
bound is a constant beside its check and is never lifted."""

from .record import Value


class Guards(Value):
    """The field size q; the points q^|d| an enumeration or Burnside census
    covers; the polynomial records, sum q^d_k over the distinct degrees; and
    the work of the Euler route (euler.check_series_guard)."""

    __slots__ = ("field", "points", "records", "series")


# field: it stays finite under --unsafe-guard because the canonical-modulus
# search grows fast with q: about 3 s for 2^24 and more than two minutes for
# 2^30 on a 2-vCPU Xeon VM.
# records: a record takes about 0.31 kB (q = 2, counting the lower-degree
# tables that stay cached) and 0.56 kB while a census groups its radical
# sets, so the default keeps a census's records under 150 MiB and the unsafe
# one under 600 MiB.
# series: states^2 coefficient products in each of the Euler route's passes
# (one per q and one more), in 64-bit words of a q^|d|-sized coefficient.
# At most about 4 s at the default on a 2-vCPU Xeon VM: d = (1,) * 12 at
# q = 2 is 2^25 units and takes 1.9 s.
DEFAULT = Guards(field=1 << 20, points=10 ** 8, records=1 << 18, series=1 << 26)
UNSAFE = Guards(field=1 << 24, points=10 ** 10, records=1 << 20, series=1 << 30)
