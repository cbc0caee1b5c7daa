"""Self-tests of the benchmark: the checker, the tracer and the workloads."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checker
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


@pytest.fixture(scope="module")
def check() -> checker.Checker:
    return checker.Checker(checker.load_expected())


def cli_output(argv: list[str]) -> str:
    from lahbell.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(argv) == 0
    return buffer.getvalue()


def response(text: str, rc: int = 0, stderr: bytes = b"") -> checker.Response:
    data = text.encode()
    return checker.Response(
        rc=rc,
        stdout_digest=checker.digest(data),
        stdout_bytes=len(data),
        stdout_text=text,
        stderr=stderr,
        timed_out=False,
        wall_s=0.1,
        latency_s=0.1,
        peak_rss_mb=20.0,
    )


def corrupt_one_digit(text: str, position: int) -> str:
    digits = [i for i, ch in enumerate(text) if ch.isdigit()]
    i = digits[position]
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


REQUESTS = (
    ["table", "lah", "12"],
    ["table", "s1", "9"],
    ["seq", "lah_bell", "30"],
    ["seq", "bell", "25"],
    ["gf", "bell", "--order", "20"],
    ["gf", "degenerate_bell", "--order", "14"],
    ["verify", "eq17", "thm9", "--max-n", "15"],
    ["verify", "lemma1", "--max-n", "9", "--oracle"],
    ["dobinski", "--family", "lah_bell", "--n", "3", "--x", "5/2", "--eps", "1e-30"],
    ["dobinski", "--family", "bell", "--n", "5", "--x", "40", "--eps", "1e-20"],
)


@pytest.mark.parametrize("argv", REQUESTS, ids=" ".join)
def test_checker_accepts_real_output_and_rejects_one_digit_corruption(check, argv):
    text = cli_output(argv)
    assert check.judge(argv, response(text)).reason == "ok"
    # Dobinski term counts are not checked, only the value and the bound.
    for position in (0, 5) if argv[0] == "dobinski" else (0, -1):
        verdict = check.judge(argv, response(corrupt_one_digit(text, position)))
        assert verdict.failed and verdict.wrong, (position, verdict)


def test_checker_rejects_nonzero_exit_and_stray_stderr(check):
    argv = ["seq", "bell", "10"]
    text = cli_output(argv)
    exited = check.judge(argv, response(text, rc=1))
    assert exited.failed and not exited.wrong
    noisy = check.judge(argv, response(text, stderr=b"warning\n"))
    assert noisy.failed and not noisy.wrong
    crashed = check.judge(["dobinski", "--n", "1", "--x", "1", "--eps", "1e-4400"], response("", rc=1, stderr=b"Traceback"))
    assert crashed.failed and not crashed.wrong


@pytest.mark.parametrize("argv", [["table", "lah", "12"], ["dobinski", "--n", "3", "--x", "5/2", "--eps", "1e-30"]], ids=" ".join)
def test_checker_rejects_a_clean_exit_with_no_output(check, argv):
    verdict = check.judge(argv, response(""))
    assert verdict.failed and verdict.wrong


def test_checker_parses_dobinski_values_past_the_digit_limit_and_restores_it(check):
    # BL_1(1) = 1, printed to 4400 places as a fixed precision request would.
    argv = ["dobinski", "--n", "1", "--x", "1", "--eps", "1e-4400"]
    text = f"value: 1.{'0' * 4400}\nerror_bound: 1e-4401\nseries_terms: 1\nexp_terms: 1\n"
    limit = sys.get_int_max_str_digits()
    assert check.judge(argv, response(text)).reason == "ok"
    assert sys.get_int_max_str_digits() == limit
    with pytest.raises(ValueError):
        int("1" * (limit + 1))


def test_checker_independent_routes(check):
    from lahbell import bell_number, bell_poly, lah_bell_number, lah_bell_poly

    assert check.lah_bell_numbers(40) == [lah_bell_number(n) for n in range(41)]
    assert check.bell_numbers(40) == [bell_number(n) for n in range(41)]
    x = checker.Fraction(7, 3)
    for n in range(8):
        assert check.exact_polynomial("lah_bell", n, x) == lah_bell_poly(n).evaluate({"x": x}).as_rational()
        assert check.exact_polynomial("bell", n, x) == bell_poly(n).evaluate({"x": x}).as_rational()


def test_checker_passes_a_tighter_dobinski_bound(check):
    argv = ["dobinski", "--n", "3", "--x", "5/2", "--eps", "1e-10"]
    tight = cli_output(argv[:-1] + ["1e-30"])
    assert check.judge(argv, response(tight)).reason == "ok"


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_drawn_request_has_a_recorded_answer(check, workload):
    stream = workloads.rounds(workload, seed=7)
    again = workloads.rounds(workload, seed=7)
    for _ in range(40):
        requests = next(stream)
        assert requests == next(again)
        for argv in requests:
            if argv[0] in ("gf", "table", "seq"):
                assert check.output_error(argv, response("")) != f"no recorded output for {argv}"
            elif argv[0] == "verify":
                check.verify_output(argv)


def test_benchmark_json_names_the_workloads():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(workloads.TAIL_PERCENTILE) == set(workloads.WORKLOADS)


def test_workload_catalog_ids_match_the_library():
    from lahbell import CATALOG_IDS

    assert workloads.CATALOG_IDS == tuple(CATALOG_IDS)


def test_self_times_sum_to_the_span_time():
    ticks = iter(range(100))
    trace = tracer.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return {1: 2, 3: 4}

    inner = trace.wrap("enumeration.count", leaf, trace._after("enumeration.count"))
    middle = trace.wrap("identities.oracle_records", lambda: [inner(), inner()])
    root = trace.wrap(tracer.ROOT, lambda: middle())
    root()
    summary = trace.summary()
    assert summary["enumeration.count.calls"] == 2
    assert summary["enumeration.count.self_s"] == 2.0
    assert summary["identities.oracle_records.self_s"] == 5.0 - 2.0
    assert summary["cli.main.self_s"] == 2.0
    assert summary["cli.main.s"] == 7.0
    assert summary["enumeration.structures"] == 12
    assert sum(summary[f"{layer}.self_s"] for layer in tracer.LAYERS) == summary["cli.main.s"]


def test_tracer_install_fails_loudly_and_restores(monkeypatch):
    import lahbell.cli
    import lahbell.series

    original = lahbell.series.TruncatedSeries.__dict__["__mul__"]
    catalog = lahbell.series.gf_catalog
    monkeypatch.delattr(lahbell.cli, "bell_dobinski")
    with pytest.raises(tracer.TracerError, match="bell_dobinski"):
        tracer.Tracer().install()
    assert lahbell.series.TruncatedSeries.__dict__["__mul__"] is original
    assert lahbell.cli.gf_catalog is catalog and lahbell.series.gf_catalog is catalog


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["verify", "eq44", "eq4", "lemma1", "--max-n", "8", "--oracle"], ("exact.mul", "families", "enumeration.count")),
        (["gf", "degenerate_bell", "--order", "14"], ("exact.mul", "series.mul", "series.compose")),
        (["seq", "lah_bell", "50"], ("triangles.row", "triangles.rowsum")),
        (["dobinski", "--n", "2", "--x", "3", "--eps", "1e-30"], ("dobinski.eval", "dobinski.render")),
    ],
)
def test_traced_child_output_and_self_times(tmp_path, check, argv, layers):
    summary_path, spans_path = tmp_path / "summary.json", tmp_path / "spans.bin"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("LAHBELL_FORMAT", None)
    done = subprocess.run(
        [sys.executable, str(BENCH / "traced_child.py"), str(summary_path), str(spans_path), *argv],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0 and done.stderr == b""
    assert check.judge(argv, response(done.stdout.decode())).reason == "ok"
    summary = json.loads(summary_path.read_text())
    self_sum = sum(summary[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert abs(self_sum - summary["wall_s"]) <= 1e-3 + 1e-3 * summary["wall_s"]
    assert summary["cli.main.calls"] == 1
    for layer in layers:
        assert summary[f"{layer}.calls"] > 0 and summary[f"{layer}.self_s"] > 0, layer
    spans = sum(summary[f"{layer}.calls"] for layer in tracer.LAYERS)
    assert spans_path.stat().st_size == spans * (2 + 4 + 8 + 8)
