"""Command-line front end: count, weighted, lattice, betti, interpolate,
report, verify.

All persisted output is canonical JSON (sorted keys, exact rationals as
"a/b" strings, integers as JSON integers, never floats) or a lossy CSV
projection.  Identical invocations produce byte-identical output.

Exit codes: 0 success, 1 validation or write error, 2 guard or inconsistency error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import __version__
from .charpoly import ONE, parse_charpoly
from .errors import GuardError, InconsistencyError, StructureError, ValidationError
from .ffield import make_field, prime_power
from .guards import DEFAULT, UNSAFE
from .nlattice import (build_lattice, classify_edges, eval_int_poly, mobius,
                       point_count_polynomial)

# The census, homology and stabkit layers are imported by the subcommands that
# run them, so a command pays at start-up only for its own layers.  The flag
# helpers only parse text; the library entry points check the values.


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


# ---------------------------------------------------------------------------
# Flag parsing helpers
# ---------------------------------------------------------------------------


def _parse_d(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad degree vector {text!r}") from exc


def _parse_q(text: str, size_guard: int):
    try:
        numbers = [int(x) for x in text.split("^", 1)]
    except ValueError as exc:
        raise ValidationError(f"bad field size {text!r}") from exc
    if len(numbers) == 2:
        return make_field(*numbers, size_guard=size_guard)  # p^e
    return make_field(*prime_power(numbers[0], size_guard), size_guard=size_guard)


def _parse_int_list(text: str) -> list:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"bad integer list {text!r}") from exc


def _parse_samples(text: str) -> list:
    out = []
    for item in text.split(","):
        q_str, sep, v_str = item.partition("=")
        if not sep:
            raise ValidationError(f"bad sample {item!r}; use q=value")
        try:
            out.append((int(q_str), Fraction(v_str)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad sample {item!r}") from exc
    return out


# ---------------------------------------------------------------------------
# Output rendering
# ---------------------------------------------------------------------------


BATCH = 128  # items of a long list or tuple rendered and written at a time


def render_json(payload, write) -> None:
    """Pass json.dumps(payload, indent=2, sort_keys=True) + "\\n" to write in
    pieces, without json's pure-Python indenting encoder: dicts key by key, a
    list or tuple longer than BATCH one batch at a time, so at most one batch
    of text is held at once.  Payloads hold dicts with string keys, lists,
    tuples, strings, ints, bools and None (anything else raises TypeError).
    What write raises propagates; _emit turns an OSError into exit 1."""
    _stream(payload, "\n", write)
    write("\n")


@functools.cache
def _frame(opener: str, newline: str) -> tuple:
    """(inner, head, separator, tail) of a non-empty list ("[") or dict ("{")."""
    inner = newline + "  "
    return inner, opener + inner, "," + inner, newline + ("]" if opener == "[" else "}")


def _key(key: str) -> str:
    return encode_basestring_ascii(key) + ": "


def _stream(value, newline: str, write) -> None:
    """Write _render(value, newline): a non-empty dict member by member, a list
    or tuple longer than BATCH one batch at a time with a cache per batch."""
    if isinstance(value, dict) and value:
        inner, head, separator, tail = _frame("{", newline)
        for i, key in enumerate(sorted(value)):
            write((separator if i else head) + _key(key))
            _stream(value[key], inner, write)
        write(tail)
    elif isinstance(value, (list, tuple)) and len(value) > BATCH:
        inner, head, separator, tail = _frame("[", newline)
        for start in range(0, len(value), BATCH):
            seen = {}
            write((separator if start else head) + separator.join(
                [_render(item, inner, seen) for item in value[start:start + BATCH]]))
        write(tail)
    else:
        write(_render(value, newline, {}))


def _render(value, newline: str, seen: dict) -> str:
    """value's JSON, its nested lines indented after newline.  seen holds the
    text of each tuple of non-int items, keyed by the items' identities and
    the indent: the payload keeps the same objects alive while seen is used."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner, head, separator, tail = _frame("[", newline)
        if all(type(item) is int for item in value):
            return head + separator.join(map(str, value)) + tail
        key = (*map(id, value), newline) if type(value) is tuple else None
        text = seen.get(key)
        if text is None:
            text = head + separator.join([_render(item, inner, seen) for item in value]) + tail
            if key is not None:
                seen[key] = text
        return text
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner, head, separator, tail = _frame("{", newline)
        return head + separator.join([_key(key) + _render(value[key], inner, seen)
                                      for key in sorted(value)]) + tail
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"{type(value).__name__} is not rendered as JSON")


def _emit(args, payload, csv_rows=None) -> None:
    """Write the JSON payload, or csv_rows under --format csv (run() refuses
    csv up front for the subcommands that have no rows), to --output or
    stdout.  A write that fails is a ValidationError, so the run exits 1.
    --output is opened before rendering, so a failed run leaves it partial."""
    try:
        handle = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
        try:
            if args.format == "csv":
                import csv  # only CSV output pays for it
                csv.writer(handle, lineterminator="\n").writerows(csv_rows)
            else:
                render_json(payload, handle.write)
            handle.flush()
        finally:
            if args.output:
                handle.close()
    except OSError as exc:
        if not args.output and sys.stdout is sys.__stdout__:
            # the flush at exit must not fail again on bytes left buffered
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        target = repr(args.output) if args.output else "stdout"
        raise ValidationError(f"cannot write {target}: {exc.strerror}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


# the name each census mode prints under "method"
METHODS = {"unordered": "unordered-enumeration", "ordered": "ordered-enumeration",
           "burnside": "burnside-frobenius", "euler": "euler-product"}


def _cmd_census(args) -> int:
    """count (the statistic 1) and weighted (the statistic --poly)."""
    from .census import run_census
    field = _parse_q(args.q, args.guards.field)
    d = _parse_d(args.d)
    poly = ONE if args.poly is None else parse_charpoly(args.poly)
    total, count = run_census(d, args.n, field, poly, args.mode, args.guards,
                              args.factor_seed)
    payload = {"d": list(d), "n": args.n, "q": field.q, "p": field.p, "e": field.e,
               "poly": str(poly), "mode": args.mode, "method": METHODS[args.mode],
               "point_count": count, "total": str(total)}
    header = sorted(payload)
    _emit(args, payload, [header, [payload[key] for key in header]])
    return 0


def _cmd_lattice(args) -> int:
    lattice = build_lattice(_parse_d(args.d), args.n, args.dimx)
    mob = mobius(lattice)
    edges = classify_edges(lattice)
    coeffs = point_count_polynomial(lattice, mob)
    payload = {
        "d": lattice.d,
        "n": lattice.n,
        "num_elements": lattice.size,
        "elements": [
            {
                "blocks": part,
                "num_blocks": len(part),
                "mobius": mob[i],
            }
            for i, part in enumerate(lattice.elements)
        ],
        "covers": lattice.covers,
        "edge_counts": edges,
        "mobius_top": mob[-1] if lattice.size else None,
        "point_count_coefficients": coeffs,
    }
    _emit(args, payload)
    return 0


def _cmd_betti(args) -> int:
    from .homology import betti_from_contributions, complement_contributions
    lattice = build_lattice(_parse_d(args.d), args.n, args.dimx)
    contribs = complement_contributions(lattice)
    betti = betti_from_contributions(contribs)
    payload = {
        "d": lattice.d,
        "n": lattice.n,
        "dim_x": lattice.dim_x,
        "betti": betti,
        "contributions": [
            {
                "element": idx,
                "blocks": lattice.elements[idx],
                "codimension": cd,
                "by_degree": {str(i): r for i, r in sorted(contrib.items())},
            }
            for idx, cd, contrib in contribs
        ],
    }
    rows = [["degree", "rank"]] + [[i, b] for i, b in enumerate(betti)]
    _emit(args, payload, rows)
    return 0


def _cmd_interpolate(args) -> int:
    from .stabkit import interpolate_in_q, normalized_coefficients
    samples = _parse_samples(args.samples)
    coeffs = interpolate_in_q(samples, expected_degree=args.expected_degree)
    payload = {
        "samples": [[q, str(v)] for q, v in sorted(samples)],
        "degree": len(coeffs) - 1,
        "coefficients": [str(c) for c in coeffs],
    }
    if args.topdim is not None:
        payload["normalized"] = [
            str(c) for c in normalized_coefficients(coeffs, args.topdim)]
    rows = [["power", "coefficient"]] + [[k, str(c)] for k, c in enumerate(coeffs)]
    _emit(args, payload, rows)
    return 0


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_int, value))


def _is_str_list(value) -> bool:
    return isinstance(value, list) and value != [] and all(isinstance(s, str) for s in value)


_REQUIRED = object()
# key, default, type check, the type it names in an error
_CONFIG_KEYS = (("m", 2, _is_int, "an integer"), ("n", 1, _is_int, "an integer"),
                ("d_list", _REQUIRED, _is_int_list, "a list of integers"),
                ("q_list", _REQUIRED, _is_int_list, "a list of integers"),
                ("polys", ["1"], _is_str_list, "a non-empty list of strings"),
                ("truncation", None, lambda v: v is None or _is_int(v), "an integer"))


def _read_config(path: str) -> tuple:
    """(m, n, d_list, q_list, poly texts, truncation) from a JSON sweep file.

    Each value must already have the JSON type its flag parses to; nothing
    is coerced, so "12" is not the list [1, 2] and 2.7 is not 2.  A key that
    is not one of these is refused, so a misspelt key cannot go unnoticed.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            cfg = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ValidationError(f"bad config {path!r}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError(f"bad config {path!r}: not a JSON object")
    known = {entry[0] for entry in _CONFIG_KEYS}
    for key in cfg:
        if key not in known:
            raise ValidationError(f"bad config {path!r}: unknown key {key!r}")
    values = []
    for key, default, check, kind in _CONFIG_KEYS:
        value = cfg.get(key, default)
        if value is _REQUIRED:
            raise ValidationError(f"config {path!r} has no key {key!r}")
        if not check(value):
            raise ValidationError(f"bad config {path!r}: {key} must be {kind}")
        values.append(value)
    return tuple(values)


def _cmd_report(args) -> int:
    from .stabkit import lefschetz_report
    if args.config:
        clashing = [name for value, name in
                    ((args.m, "--m"), (args.n, "--n"), (args.d_list, "--d-list"),
                     (args.q_list, "--q-list"), (args.polys, "--polys"),
                     (args.truncation, "--truncation")) if value is not None]
        if clashing:
            raise ValidationError(
                f"--config conflicts with {', '.join(clashing)}")
        m, n, d_list, q_list, poly_texts, truncation = _read_config(args.config)
    else:
        for flag, name in ((args.m, "--m"), (args.n, "--n"),
                           (args.d_list, "--d-list"), (args.q_list, "--q-list")):
            if flag is None:
                raise ValidationError(f"{name} is required without --config")
        m, n = args.m, args.n
        d_list = _parse_int_list(args.d_list)
        q_list = _parse_int_list(args.q_list)
        poly_texts = ("1" if args.polys is None else args.polys).split(";")
        truncation = args.truncation
    polys = {text: parse_charpoly(text) for text in poly_texts}  # before any sweep
    reports = {text: lefschetz_report(d_list, n, m, poly, q_list, truncation=truncation,
                                      guards=args.guards, factor_seed=args.factor_seed)
               for text, poly in polys.items()}
    rows = [["poly", "d", "c_i..."]]
    for text in sorted(reports):
        for pt in reports[text]["points"]:
            rows.append([text, "|".join(str(x) for x in pt["d"])] + pt["normalized"])
    _emit(args, {"reports": reports}, rows)
    return 0


VERIFY_GRID = {
    "d_vectors": [(2,), (3,), (1,1), (2,1), (2,2)],
    "n_values": [1, 2],
    "q_values": [2, 3],
    "polys": ["1", "X[1,1]"],
}


def _cmd_verify(args) -> int:
    from .census import burnside_count, enumerate_ordered, enumerate_unordered
    checks = []
    all_pass = True

    def add(kind, params, ok, lhs, rhs):
        nonlocal all_pass
        all_pass = all_pass and ok
        checks.append({
            "check": kind, "params": params, "ok": ok,
            "lhs": str(lhs), "rhs": str(rhs),
        })
        line = "PASS" if ok else "FAIL"
        sys.stderr.write(f"{line} {kind} {params}: {lhs} vs {rhs}\n")

    for q in VERIFY_GRID["q_values"]:
        field = make_field(q)
        for d in VERIFY_GRID["d_vectors"]:
            for n in VERIFY_GRID["n_values"]:
                params = f"d={d} n={n} q={q}"
                _total, ordered = enumerate_ordered(d, n, field, args.guards)
                if not (len(d) == 1 and n == 1):
                    lattice = build_lattice(d, n)
                    nq = eval_int_poly(point_count_polynomial(lattice), q)
                    add("ordered=lattice", params, ordered == nq, ordered, nq)
                for text in VERIFY_GRID["polys"]:
                    poly = parse_charpoly(text)
                    unordered = enumerate_unordered(d, n, field, poly, args.guards,
                                                    args.factor_seed)
                    burnside = burnside_count(d, n, field, poly, args.guards)
                    add("unordered=burnside", params + f" P={text}",
                        unordered == burnside, unordered[0], burnside[0])
    payload = {"all_pass": all_pass, "checks": checks}
    _emit(args, payload)
    return 0 if all_pass else 2


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def _add_common(sub) -> None:
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--output", default=None, help="write output to a file")
    sub.add_argument("--threads", type=int, default=None,
                     help="ignored: censuses run in one process")
    sub.add_argument("--unsafe-guard", action="store_true",
                     help="lift desk-scale size guards (deliberate large runs)")
    sub.add_argument("--factor-seed", type=int, default=0,
                     help="picks the polynomial record that is checked by "
                          "factoring (results are seed-invariant)")


def build_parser() -> _Parser:
    parser = _Parser(prog="zcc", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("count", help="unweighted point count")
    p.add_argument("--d", required=True, help="degree vector, e.g. 2,2")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", required=True, help="field size p or p^e")
    p.add_argument("--mode", default="unordered",
                   help="ordered, unordered (the default), burnside or euler")
    _add_common(p)
    p.set_defaults(func=_cmd_census, poly=None)

    p = subs.add_parser("weighted", help="census weighted by a statistic")
    p.add_argument("--d", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--poly", required=True, help='statistic, e.g. "X[1,1]^2-2"')
    p.add_argument("--mode", default="unordered",
                   help="unordered (the default), burnside or euler")
    _add_common(p)
    p.set_defaults(func=_cmd_census)

    p = subs.add_parser("lattice", help="export the n-equals partition lattice")
    p.add_argument("--d", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dimx", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=_cmd_lattice, json_only=True)

    p = subs.add_parser("betti", help="complement Betti numbers")
    p.add_argument("--d", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dimx", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=_cmd_betti)

    p = subs.add_parser("interpolate", help="exact interpolation in q")
    p.add_argument("--samples", required=True, help="q=value pairs, e.g. 2=2,3=6,5=20")
    p.add_argument("--expected-degree", type=int, default=None)
    p.add_argument("--topdim", type=int, default=None,
                   help="also emit normalized coefficients for this top dimension")
    _add_common(p)
    p.set_defaults(func=_cmd_interpolate)

    p = subs.add_parser("report", help="stabilization report over a degree sweep")
    p.add_argument("--config", default=None, help="JSON sweep configuration file")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d-list", default=None, help="e.g. 1,2,3")
    p.add_argument("--q-list", default=None, help="e.g. 2,3,5,7,11,13,17")
    p.add_argument("--polys", default=None, help="semicolon-separated statistics")
    p.add_argument("--truncation", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_report)

    p = subs.add_parser("verify", help="run the built-in oracle-triangle grid")
    _add_common(p)
    p.set_defaults(func=_cmd_verify, json_only=True)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.guards = UNSAFE if args.unsafe_guard else DEFAULT
        if args.format == "csv" and getattr(args, "json_only", False):
            raise ValidationError("csv output is not supported by this subcommand")
        return args.func(args)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (GuardError, InconsistencyError, StructureError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
