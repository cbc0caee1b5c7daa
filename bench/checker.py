"""Response checker for ``lahbell`` requests.

``table``, ``seq``, ``gf`` and ``verify`` output must be byte-identical to
what the parent commit printed: digests (and, for ``verify``, the exact
lines) recorded by ``record_expected.py`` live in ``expected.json``.  ``seq``
values are also re-derived here by routes the library does not use: the
three-term recurrence for BL_n and a rolling Bell-triangle row for B_n.
``dobinski`` output is checked against the exact BL_n(x) or B_n(x), computed
here from ``math.comb`` and ``math.factorial``: the printed enclosure must
contain it and the printed error bound must be at most eps, so a tighter
bound still passes.
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")
DIGEST_CHARS = 24


@contextmanager
def no_digit_limit():
    """Lift the int/str digit limit (4300 by default) for the checker's own
    conversions only, and put the old limit back afterwards."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:DIGEST_CHARS]


@dataclass
class Response:
    """What one request returned, as seen from outside the process."""

    rc: int
    stdout_digest: str
    stdout_bytes: int
    stdout_text: str | None  # None when the output is too large to keep
    stderr: bytes
    timed_out: bool
    wall_s: float  # spawn to exit
    latency_s: float  # wall_s in reference seconds (see hostspeed.py)
    peak_rss_mb: float


@dataclass
class Verdict:
    failed: bool  # nonzero exit, stderr, timeout or wrong output
    wrong: bool  # printed output that is not the correct answer
    reason: str


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class Checker:
    def __init__(self, expected: dict):
        self.expected = expected
        self._lah_bell = [1, 1]
        self._bell_row = [1]
        self._bell = [1]

    # -- independent routes ----------------------------------------------

    def lah_bell_numbers(self, nmax: int) -> list[int]:
        """BL_n = (2n-1) BL_{n-1} - (n-1)(n-2) BL_{n-2}  (OEIS A000262)."""
        values = self._lah_bell
        while len(values) <= nmax:
            n = len(values)
            values.append((2 * n - 1) * values[n - 1] - (n - 1) * (n - 2) * values[n - 2])
        return values[: nmax + 1]

    def bell_numbers(self, nmax: int) -> list[int]:
        """B_n is the first entry of row n of the Bell triangle."""
        while len(self._bell) <= nmax:
            row = [self._bell_row[-1]]
            for above in self._bell_row:
                row.append(row[-1] + above)
            self._bell_row = row
            self._bell.append(row[0])
        return self._bell[: nmax + 1]

    @staticmethod
    def exact_polynomial(family: str, n: int, x: Fraction) -> Fraction:
        """BL_n(x) = sum_k C(n-1,k-1) n!/k! x^k and B_n(x) = sum_k S2(n,k) x^k."""
        if n == 0:
            return Fraction(1)
        if family == "lah_bell":
            return sum(comb(n - 1, k - 1) * factorial(n) // factorial(k) * x**k for k in range(1, n + 1))
        total = Fraction(0)
        for k in range(1, n + 1):
            s2 = sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1)) // factorial(k)
            total += s2 * x**k
        return total

    # -- checks ------------------------------------------------------------

    def judge(self, argv: list[str], response: Response) -> Verdict:
        if response.timed_out:
            return Verdict(True, False, "timeout")
        wrong = None
        # A clean exit must print the right answer; empty output is wrong.
        if response.stdout_bytes or response.rc == 0:
            wrong = self.output_error(argv, response)
        if wrong is not None:
            return Verdict(True, True, wrong)
        if response.rc != 0:
            return Verdict(True, False, f"exit {response.rc}")
        if response.stderr:
            return Verdict(True, False, "stderr: " + response.stderr[-200:].decode("utf-8", "replace"))
        return Verdict(False, False, "ok")

    def output_error(self, argv: list[str], response: Response) -> str | None:
        """None when the printed output is correct, else why it is not."""
        command = argv[0]
        if command in ("gf", "table", "seq"):
            if command == "gf":
                want = self.expected["gf"].get(argv[1], {}).get(argv[3])
            else:
                digests = self.expected[command][argv[1]]
                n = int(argv[2])
                want = digests[n] if n < len(digests) else None
            if want is None:
                return f"no recorded output for {argv}"
            if response.stdout_digest != want:
                return "output differs from the recorded output"
            if command == "seq":
                return self._seq_error(argv, response.stdout_text)
            return None
        if command == "verify":
            want = self.verify_output(argv).encode()
            if response.stdout_digest != digest(want):
                return "output differs from the recorded output"
            return None
        if command == "dobinski":
            return self._dobinski_error(argv, response.stdout_text)
        return f"no checker for {command!r}"

    def _seq_error(self, argv: list[str], text: str | None) -> str | None:
        n = int(argv[2])
        values = self.lah_bell_numbers(n) if argv[1] == "lah_bell" else self.bell_numbers(n)
        with no_digit_limit():
            derived = [str(v) for v in values]
        if text is None or text.split() != derived:
            return "sequence differs from the independent recurrence"
        return None

    def verify_output(self, argv: list[str]) -> str:
        """The recorded text of a verify request, assembled line by line."""
        ids, max_n, oracle = [], None, False
        args = iter(argv[1:])
        for arg in args:
            if arg == "--max-n":
                max_n = next(args)
            elif arg == "--oracle":
                oracle = True
            else:
                ids.append(arg)
        recorded = self.expected["verify"]
        chosen = recorded["ids"] if "all" in ids else [i for i in recorded["ids"] if i in ids]
        lines = [recorded["lines"][i][max_n] for i in chosen]
        if oracle:
            lines.extend(recorded["oracle"][max_n])
        return "\n".join(lines) + "\n"

    def _dobinski_error(self, argv: list[str], text: str | None) -> str | None:
        options = dict(zip(argv[1::2], argv[2::2]))
        family = options.get("--family", "lah_bell")
        n = int(options["--n"])
        x = Fraction(options["--x"])
        eps = Fraction(options.get("--eps", "1e-20"))
        fields = {}
        for line in (text or "").splitlines():
            key, _, value = line.partition(": ")
            fields[key] = value
        if set(fields) != {"value", "error_bound", "series_terms", "exp_terms"}:
            return "dobinski output is not the four expected fields"
        try:
            with no_digit_limit():
                value = Fraction(fields["value"])
                bound = Fraction(fields["error_bound"])
        except (ValueError, ZeroDivisionError):
            return "dobinski value or bound does not parse"
        _, _, decimals = fields["value"].partition(".")
        if bound > eps:
            return f"error bound {fields['error_bound']} exceeds eps"
        exact = self.exact_polynomial(family, n, x)
        # The printed value is the midpoint rounded to `decimals` places.
        if abs(value - exact) > bound + Fraction(1, 2 * 10 ** len(decimals)):
            return "enclosure does not contain the exact value"
        return None
