"""Command-line front end.

Subcommands: table, seq, poly, gf, verify, dobinski.  Output formats are
text (default), json, and csv (triangles and sequences only), chosen by
--format alone.

The library states every argument rule: the handlers pass their arguments
on and check none the library checks, and each refusal comes before the
first byte of output.  `main` alone turns the way a request ends into an
exit code: 0 on success; 1 when `verify` finds a failing identity, a
certified evaluation cannot reach the requested precision, the reader of
stdout closed it early or memory ran out; 2 on usage errors, an argument
the library refuses among them; 130 on an interrupt.  Nothing is written
to stderr on success, and each other ending writes one line and no traceback.

JSON payloads are canonical: keys sorted, no whitespace, exact values
rendered as integers or "p/q" strings, never floats.  The same input always
produces byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    DivisionByZero,
    Inexact,
    InvalidOperation,
    Overflow,
    Rounded,
    localcontext,
)
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator

from .dobinski import (
    DOBINSKI_FAMILIES,
    PrecisionNotReached,
    bell_dobinski,
    lah_bell_dobinski,
)
from .exact import _index
from .families import FAMILIES, poly_family
from .identities import oracle_records, run_suite
from .series import GF_NAMES, gf_catalog
from .triangles import bell_number, iter_rows, lah_bell_number

__all__ = ["main"]

_TABLE_KINDS = {"lah": "lah", "s1": "stirling1_signed", "s2": "stirling2"}
_SEQ_KINDS = {"bell": bell_number, "lah_bell": lah_bell_number}

# Tables are made in base 10, whose str() is linear where str(int) is
# quadratic.  Nothing may round: the entries are exact integers, and any
# rounding would raise here instead of printing a wrong digit.
_EXACT = Context(
    prec=MAX_PREC,
    Emax=MAX_EMAX,
    Emin=MIN_EMIN,
    traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded],
)


# json is imported where it is used: no default-format request needs it, and
# it costs a fresh process milliseconds to load.
def _canonical_json(payload: object) -> str:
    import json

    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _fraction_arg(text: str, name: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        message = f"{name} must be an exact number like 3, 1/2 or 1e-20, got {text!r}"
        raise ValueError(message) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lahbell",
        description=(
            "Exact combinatorial triangles, polynomial families, generating "
            "functions, identity verification and certified series evaluation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser, *extra: str) -> None:
        p.add_argument(
            "--format",
            choices=("text", "json", *extra),
            default="text",
            help="output format (default: text)",
        )

    p_table = sub.add_parser("table", help="rows 0..nmax of a number triangle")
    p_table.add_argument("kind", choices=sorted(_TABLE_KINDS))
    p_table.add_argument("nmax", type=int)
    add_format(p_table, "csv")

    p_seq = sub.add_parser("seq", help="terms 0..nmax of a row-sum sequence")
    p_seq.add_argument("kind", choices=sorted(_SEQ_KINDS))
    p_seq.add_argument("nmax", type=int)
    add_format(p_seq, "csv")

    p_poly = sub.add_parser("poly", help="one polynomial family member, exactly")
    p_poly.add_argument("family", choices=FAMILIES)
    p_poly.add_argument("n", type=int)
    add_format(p_poly)

    p_gf = sub.add_parser("gf", help="egf coefficients of a catalog generating function")
    p_gf.add_argument("name", choices=GF_NAMES)
    p_gf.add_argument("--order", type=int, default=32, help="truncation order (default 32)")
    add_format(p_gf)

    p_verify = sub.add_parser("verify", help="run identity checks; exit 1 on any failure")
    p_verify.add_argument("ids", nargs="*", default=["all"], help='identity ids, or "all"')
    p_verify.add_argument("--max-n", type=int, default=12, dest="max_n")
    p_verify.add_argument(
        "--oracle",
        action="store_true",
        help="also compare triangles against brute-force enumeration",
    )
    add_format(p_verify)

    p_dob = sub.add_parser("dobinski", help="certified evaluation of a series formula")
    p_dob.add_argument("--family", choices=DOBINSKI_FAMILIES, default="lah_bell")
    p_dob.add_argument("--n", type=int, required=True)
    p_dob.add_argument("--x", required=True, help="positive rational, e.g. 1/2")
    p_dob.add_argument("--eps", default="1e-20", help="absolute error target (default 1e-20)")
    add_format(p_dob)

    return parser


def _emit(fmt: str, text: str, payload: object) -> None:
    print(_canonical_json(payload) if fmt == "json" else text)


# table, seq, poly and gf write their answers in pieces, each as soon as it
# is rendered, so no request holds its whole answer as text.  Every piece is
# made of digits, letters, spaces and "^*+-/" only: no CSV field needs
# quoting, and a quoted piece is its own JSON string.


def _joined(parts: Iterable[str], sep: str) -> Iterator[str]:
    """The pieces of sep.join(parts), one part at a time."""
    for i, part in enumerate(parts):
        if i:
            yield sep
        yield part


def _array(items: Iterable[str]) -> Iterator[str]:
    """The pieces of a JSON array, from the JSON texts of its items."""
    yield "["
    yield from _joined(items, ",")
    yield "]"


def _write(parts: Iterable[str], sep: str) -> None:
    """Write sep.join(parts) and a newline, as print would, piece by piece."""
    sys.stdout.writelines(_joined(parts, sep))
    sys.stdout.write("\n")


def _write_json(fields: dict, key: str, pieces: Iterable[str]) -> None:
    """Write the canonical JSON object of fields plus key, whose value's JSON
    text comes as pieces, and a newline.  Keys are plain names, so each
    quoted key is its own JSON, and writing them sorted keeps the output
    canonical wherever key sorts."""
    out = sys.stdout
    sep = "{"
    for name in sorted([*fields, key]):
        out.write(f'{sep}"{name}":')
        sep = ","
        if name == key:
            out.writelines(pieces)
        else:
            out.write(_canonical_json(fields[name]))
    out.write("}\n")


def _cmd_table(args: argparse.Namespace) -> int:
    separator = " " if args.format == "text" else ","
    with localcontext(_EXACT):
        rows = iter_rows(_TABLE_KINDS[args.kind], args.nmax, Decimal(1))
        entries = (separator.join(map(str, row)) for row in rows)
        if args.format == "json":
            fields = {"command": "table", "kind": args.kind, "nmax": args.nmax}
            _write_json(fields, "rows", _array(f"[{row}]" for row in entries))
        else:
            _write(entries, "\n")
    return 0


def _cmd_seq(args: argparse.Namespace) -> int:
    nmax = _index(args.nmax, "nmax")  # no library call sees nmax itself
    value = _SEQ_KINDS[args.kind]
    values = (str(value(n)) for n in range(nmax + 1))
    if args.format == "json":
        fields = {"command": "seq", "kind": args.kind, "nmax": nmax}
        _write_json(fields, "values", _array(values))
    elif args.format == "csv":
        _write(chain(["n,value"], (f"{n},{v}" for n, v in enumerate(values))), "\n")
    else:
        _write(values, " ")
    return 0


def _cmd_poly(args: argparse.Namespace) -> int:
    terms = poly_family(args.family, args.n).rendered_terms()
    if args.format == "json":
        fields = {"command": "poly", "family": args.family, "n": args.n}
        _write_json(fields, "value", chain(['"'], _joined(terms, " "), ['"']))
    else:
        _write(terms, " ")
    return 0


def _cmd_gf(args: argparse.Namespace) -> int:
    order = args.order
    series = gf_catalog(args.name, order)
    coefficients = (str(series.egf_coefficient(n)) for n in range(order + 1))
    if args.format == "json":
        fields = {"command": "gf", "name": args.name, "order": order}
        _write_json(fields, "egf_coefficients", _array(f'"{c}"' for c in coefficients))
    else:
        _write((f"{n}: {c}" for n, c in enumerate(coefficients)), "\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    records = run_suite(args.ids, args.max_n)
    if args.oracle:
        records.extend(oracle_records(args.max_n))
    lines = []
    for record in records:
        if record.passed():
            lines.append(f"{record.id}: pass ({record.range})")
        else:
            lines.append(
                f"{record.id}: FAIL ({record.range}) counterexample: "
                + _canonical_json(record.counterexample)
            )
    payload = [record.to_json() for record in records]
    _emit(args.format, "\n".join(lines), payload)
    return 0 if all(record.passed() for record in records) else 1


def _cmd_dobinski(args: argparse.Namespace) -> int:
    x = _fraction_arg(args.x, "--x")
    eps = _fraction_arg(args.eps, "--eps")
    evaluator = lah_bell_dobinski if args.family == "lah_bell" else bell_dobinski
    result = evaluator(args.n, x, eps)
    value, bound = result.decimal(), result.error_bound_decimal()
    payload = {
        "command": "dobinski",
        "family": args.family,
        "n": args.n,
        "x": str(x),
        "eps": str(eps),
        "value_decimal": value,
        "error_bound": bound,
        "series_terms": result.series_terms,
        "exp_terms": result.exp_terms,
    }
    text = "\n".join(
        [
            f"value: {value}",
            f"error_bound: {bound}",
            f"series_terms: {result.series_terms}",
            f"exp_terms: {result.exp_terms}",
        ]
    )
    _emit(args.format, text, payload)
    return 0


_HANDLERS = {
    "table": _cmd_table,
    "seq": _cmd_seq,
    "poly": _cmd_poly,
    "gf": _cmd_gf,
    "verify": _cmd_verify,
    "dobinski": _cmd_dobinski,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # a closed pipe must raise here, not at exit
    except ValueError as exc:
        # The library refused an argument.  Every refusal comes before the
        # first byte of output, so stdout stays empty.
        parser.error(str(exc))
    except PrecisionNotReached as exc:
        print(f"precision not reached: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader left early (`lahbell table lah 600 | head`).  Point
        # stdout at /dev/null so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except MemoryError:
        print("lahbell: out of memory", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("lahbell: interrupted", file=sys.stderr)
        return 130
    return code


def _run(args: argparse.Namespace) -> int:
    if not hasattr(sys, "set_int_max_str_digits"):  # Python < 3.10.7 has no limit
        return _HANDLERS[args.command](args)
    # Exact answers may run past the int/str digit limit; lift it for this
    # request only and leave the caller's setting as it was.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _HANDLERS[args.command](args)
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
