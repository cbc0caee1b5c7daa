"""Command-line front end.

Subcommands: table, seq, poly, gf, verify, dobinski.  Output formats are
text (default), json, and csv (triangles and sequences only), chosen by
--format alone.

The argument parser is the one table of commands: each subcommand's parser
names the handler that answers it.  Every JSON answer but verify's is an
object whose head echoes the parsed request, less --format; verify's is the
array of its records alone.  Each request renders only the format it asks for.

The library states every argument rule: the handlers pass their arguments
on and check none the library checks, and each refusal comes before the
first byte of output.  `main` alone turns the way a request ends into an
exit code: 0 on success; 1 when `verify` finds a failing identity, a
certified evaluation cannot reach the requested precision, the reader of
stdout closed it early or memory ran out; 2 on usage errors, an argument
the library refuses among them; 130 on an interrupt.  Nothing is written
to stderr on success.  A usage error writes argparse's usage and one error
line, each other ending one line, and none a traceback.

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
from typing import Callable, Iterable, Iterator

from .dobinski import (
    DOBINSKI_FAMILIES,
    PrecisionNotReached,
    bell_dobinski,
    lah_bell_dobinski,
)
from .exact import _index, _scalar_text, _shown
from .families import FAMILIES, poly_family
from .identities import oracle_records, run_suite
from .series import GF_NAMES, _gf_terms
from .series import gf_catalog  # unused; bench/tracer.py REQUIRED_SITES pins it
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


# The widest exponent, the power of ten of the leading digit, that --x and
# --eps may be written with.  Fraction(text) computes 10**exponent before any
# check, which takes seconds from about 10**7, and a refusal of the value
# would then print all of its digits.  The bound admits every eps that a
# certified evaluation reaches in seconds, and no x past 50000 can be
# evaluated (dobinski._ITERATION_CAP).
_MAX_EXPONENT = 100_000


def _fraction_arg(text: str, name: str) -> Fraction:
    shown = repr(_shown(text))
    try:
        # Decimal reads the exponent as written, without computing a power.
        exponent = 0 if "/" in text else Decimal(text).adjusted()
        if abs(exponent) <= _MAX_EXPONENT:
            return Fraction(text)
    except (InvalidOperation, ValueError, ZeroDivisionError):
        message = f"{name} must be an exact number like 3, 1/2 or 1e-20, got {shown}"
        raise ValueError(message) from None
    raise ValueError(f"{name} must have an exponent at most {_MAX_EXPONENT} in size, got {shown}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lahbell",
        description=(
            "Exact combinatorial triangles, polynomial families, generating "
            "functions, identity verification and certified series evaluation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_answer(p: argparse.ArgumentParser, handler: Callable[..., int], *extra: str) -> None:
        """Name the handler that answers p's requests, and its formats."""
        p.set_defaults(handler=handler)
        p.add_argument(
            "--format",
            choices=("text", "json", *extra),
            default="text",
            help="output format (default: text)",
        )

    p_table = sub.add_parser("table", help="rows 0..nmax of a number triangle")
    p_table.add_argument("kind", choices=sorted(_TABLE_KINDS))
    p_table.add_argument("nmax", type=int)
    add_answer(p_table, _cmd_table, "csv")

    p_seq = sub.add_parser("seq", help="terms 0..nmax of a row-sum sequence")
    p_seq.add_argument("kind", choices=sorted(_SEQ_KINDS))
    p_seq.add_argument("nmax", type=int)
    add_answer(p_seq, _cmd_seq, "csv")

    p_poly = sub.add_parser("poly", help="one polynomial family member, exactly")
    p_poly.add_argument("family", choices=FAMILIES)
    p_poly.add_argument("n", type=int)
    add_answer(p_poly, _cmd_poly)

    p_gf = sub.add_parser("gf", help="egf coefficients of a catalog generating function")
    p_gf.add_argument("name", choices=GF_NAMES)
    p_gf.add_argument("--order", type=int, default=32, help="truncation order (default 32)")
    add_answer(p_gf, _cmd_gf)

    p_verify = sub.add_parser("verify", help="run identity checks; exit 1 on any failure")
    p_verify.add_argument("ids", nargs="*", default=["all"], help='identity ids, or "all"')
    p_verify.add_argument("--max-n", type=int, default=12, dest="max_n")
    p_verify.add_argument(
        "--oracle",
        action="store_true",
        help="also compare triangles against brute-force enumeration",
    )
    add_answer(p_verify, _cmd_verify)

    p_dob = sub.add_parser("dobinski", help="certified evaluation of a series formula")
    p_dob.add_argument("--family", choices=DOBINSKI_FAMILIES, default="lah_bell")
    p_dob.add_argument("--n", type=int, required=True)
    p_dob.add_argument("--x", required=True, help="positive rational, e.g. 1/2")
    p_dob.add_argument("--eps", default="1e-20", help="absolute error target (default 1e-20)")
    add_answer(p_dob, _cmd_dobinski)

    return parser


# A JSON answer other than verify's echoes its request: the parsed
# arguments, the command among them, less the output format and the handler.
def _head(args: argparse.Namespace) -> dict:
    return {key: value for key, value in vars(args).items() if key not in ("format", "handler")}


# table, seq, poly and gf write their answers in pieces, each as soon as it
# is rendered, so no request holds its whole answer as text.  Not all of
# them make their values as they go: table and seq hold only the row the
# next one is made from (seq through the triangle's newest row), poly builds
# its whole value before the first piece, and gf streams a row or builds it
# whole as series._gf_terms says.  A long integer is written by
# _scalar_text, at any int/str digit limit.  Every piece is made of digits,
# letters, spaces and "^*+-/" only: no CSV field needs quoting, and a quoted
# piece is its own JSON string.


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


def _write_json(args: argparse.Namespace, key: str, pieces: Iterable[str]) -> None:
    """Write the canonical JSON object of the request's head plus key, whose
    value's JSON text comes as pieces, and a newline.  The head is dumped
    with a null at key, and the pieces are written where the null was: a
    quote inside a JSON string is escaped, so '"key":null' occurs once."""
    text = _canonical_json({**_head(args), key: None})
    before, _, after = text.partition(f'"{key}":null')
    sys.stdout.write(f'{before}"{key}":')
    sys.stdout.writelines(pieces)
    sys.stdout.write(after + "\n")


def _cmd_table(args: argparse.Namespace) -> int:
    separator = " " if args.format == "text" else ","
    with localcontext(_EXACT):
        rows = iter_rows(_TABLE_KINDS[args.kind], args.nmax, Decimal(1))
        entries = (separator.join(map(str, row)) for row in rows)
        if args.format == "json":
            _write_json(args, "rows", _array(f"[{row}]" for row in entries))
        else:
            _write(entries, "\n")
    return 0


def _cmd_seq(args: argparse.Namespace) -> int:
    nmax = _index(args.nmax, "nmax")  # no library call sees nmax itself
    value = _SEQ_KINDS[args.kind]
    values = (_scalar_text(value(n)) for n in range(nmax + 1))
    if args.format == "json":
        _write_json(args, "values", _array(values))
    elif args.format == "csv":
        _write(chain(["n,value"], (f"{n},{v}" for n, v in enumerate(values))), "\n")
    else:
        _write(values, " ")
    return 0


def _cmd_poly(args: argparse.Namespace) -> int:
    terms = poly_family(args.family, args.n).rendered_terms()
    if args.format == "json":
        _write_json(args, "value", chain(['"'], _joined(terms, " "), ['"']))
    else:
        _write(terms, " ")
    return 0


def _cmd_gf(args: argparse.Namespace) -> int:
    terms = _gf_terms(args.name, args.order)
    coefficients = map(_scalar_text, terms)
    if args.format == "json":
        _write_json(args, "egf_coefficients", _array(f'"{c}"' for c in coefficients))
    else:
        _write((f"{n}: {c}" for n, c in enumerate(coefficients)), "\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    records = run_suite(args.ids, args.max_n)
    if args.oracle:
        records.extend(oracle_records(args.max_n))
    if args.format == "json":
        print(_canonical_json([record.to_json() for record in records]))
    else:
        for record in records:
            if record.passed():
                print(f"{record.id}: pass ({record.range})")
            else:
                example = _canonical_json(record.counterexample)
                print(f"{record.id}: FAIL ({record.range}) counterexample: {example}")
    return 0 if all(record.passed() for record in records) else 1


def _cmd_dobinski(args: argparse.Namespace) -> int:
    x = _fraction_arg(args.x, "--x")
    eps = _fraction_arg(args.eps, "--eps")
    evaluator = lah_bell_dobinski if args.family == "lah_bell" else bell_dobinski
    result = evaluator(args.n, x, eps)
    value, bound = result.decimal(), result.error_bound_decimal()
    if args.format == "json":
        answer = {
            **_head(args),
            "x": _scalar_text(x),
            "eps": _scalar_text(eps),
            "value_decimal": value,
            "error_bound": bound,
            "series_terms": result.series_terms,
            "exp_terms": result.exp_terms,
        }
        print(_canonical_json(answer))
    else:
        print(f"value: {value}")
        print(f"error_bound: {bound}")
        print(f"series_terms: {result.series_terms}")
        print(f"exp_terms: {result.exp_terms}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
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


if __name__ == "__main__":
    sys.exit(main())
