"""Record the outputs the checker compares against, from the current source.

Run from the repository root, on the commit whose outputs are the reference:

    PYTHONPATH=src python3 bench/record_expected.py

It writes ``bench/expected.json``: sha256 digests of ``gf`` output for every
(name, order) the workloads can draw, of ``table`` and ``seq`` output for
every size up to the largest drawn (prefix digests of one output, spot
checked against real smaller requests), and the exact ``verify`` line of
every catalog id and the oracle lines for every ``--max-n`` drawn.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402
import workloads  # noqa: E402
from lahbell import CATALOG_IDS  # noqa: E402
from lahbell.cli import main  # noqa: E402


def cli_output(argv: list[str]) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        rc = main(argv)
    if rc != 0:
        raise SystemExit(f"reference request {argv} exited {rc}")
    return buffer.getvalue()


def prefix_digests(pieces: list[str], separator: str) -> list[str]:
    """Digest of separator.join(pieces[:n+1]) + newline, for every n."""
    running = hashlib.sha256()
    out = []
    for n, piece in enumerate(pieces):
        running.update(((separator if n else "") + piece).encode())
        final = running.copy()
        final.update(b"\n")
        out.append(final.hexdigest()[: checker.DIGEST_CHARS])
    return out


def slots(kind: type) -> list:
    return [slot for deck in workloads.WORKLOADS.values() for slot in deck if type(slot) is kind]


def main_record() -> None:
    if tuple(CATALOG_IDS) != workloads.CATALOG_IDS:
        raise SystemExit("workloads.CATALOG_IDS no longer matches lahbell.CATALOG_IDS")
    expected: dict = {"digest": f"sha256, first {checker.DIGEST_CHARS} hex digits"}

    gf: dict[str, dict[str, str]] = {}
    for slot in slots(workloads.Gf):
        for order in range(slot.orders[0], slot.orders[1] + 1):
            text = cli_output(["gf", slot.name, "--order", str(order)])
            gf.setdefault(slot.name, {})[str(order)] = checker.digest(text.encode())
    expected["gf"] = gf

    for command, kind_type, separator in (("table", workloads.Table, "\n"), ("seq", workloads.Seq, " ")):
        largest: dict[str, int] = {}
        for slot in slots(kind_type):
            largest[slot.kind] = max(largest.get(slot.kind, 0), slot.sizes[1])
        recorded = {}
        for kind, nmax in sorted(largest.items()):
            text = cli_output([command, kind, str(nmax)])
            pieces = text[:-1].split(separator)
            recorded[kind] = prefix_digests(pieces, separator)
            for n in (0, 1, nmax // 3):
                spot = cli_output([command, kind, str(n)])
                if checker.digest(spot.encode()) != recorded[kind][n]:
                    raise SystemExit(f"prefix digest mismatch for {command} {kind} {n}")
        expected[command] = recorded

    max_ns = sorted({n for slot in slots(workloads.Verify) for n in range(slot.max_ns[0], slot.max_ns[1] + 1)})
    lines: dict[str, dict[str, str]] = {i: {} for i in CATALOG_IDS}
    oracle: dict[str, list[str]] = {}
    for max_n in max_ns:
        text = cli_output(["verify", "--max-n", str(max_n), "--oracle"]).rstrip("\n").split("\n")
        for identity, line in zip(CATALOG_IDS, text):
            if not line.startswith(identity + ": "):
                raise SystemExit(f"unexpected verify line {line!r}")
            lines[identity][str(max_n)] = line
        oracle[str(max_n)] = text[len(CATALOG_IDS):]
    expected["verify"] = {"ids": list(CATALOG_IDS), "lines": lines, "oracle": oracle}

    check = checker.Checker(expected)
    for argv in (["verify", "eq17", "thm9", "--max-n", "15"], ["verify", "lemma1", "--max-n", "9", "--oracle"]):
        if check.verify_output(argv) != cli_output(argv):
            raise SystemExit(f"assembled verify output differs for {argv}")

    with open(checker.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=0, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main_record()
