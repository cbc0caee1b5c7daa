"""Benchmark of the ``lahbell`` command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; it uses the library in ``src`` and writes only
under ``.bench_out/``.  One client sends requests in a closed loop: each
request is one fresh ``lahbell`` process, which pays for interpreter start,
import, and cold triangle and ``gf_catalog`` caches, exactly like a user on
the command line.  Whole rounds of the seeded deck (see ``workloads.py``)
run until S (reference) seconds have passed; every response is checked (see
``checker.py``).  Times are reported in reference seconds: wall time scaled
by the host speed, probed just before and after each request, so that the
swings of a shared host cancel out (see ``hostspeed.py``).  The plain wall
times are kept in the results file.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics.
With ``--trace 1`` the first round is replayed, each request once as a
normal process and once in a fresh traced child (``traced_child.py``), and
the per-layer metrics and the tracing overhead are reported instead.  The
request list, seed, Python version, CPU count and memory of every run are
written beside its results in ``.bench_out/<workload>-seed<N>-trace<T>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import workloads
from hostspeed import REFERENCE_PROBE_S, HostSpeed
from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
# What the installed `lahbell` console script runs.
ENTRY = "import sys; from lahbell.cli import main; sys.exit(main())"
SETUP_REPEATS = 21
REQUEST_TIMEOUT_S = 30.0
# A round is cut short only when the run is this far past S seconds, so a
# hanging program cannot push a run past its time limit.
OVERRUN_S = 60.0
# A run ends early, at a round end, before it would pass this many times
# S seconds of wall time, so a slow host cannot stretch it much further.
MAX_WALL_FACTOR = 2.2
# Output kept in memory for the parsers (seq, verify, dobinski); larger
# output (big tables) is only hashed.
KEEP_TEXT_BYTES = 16 << 20

# The per-layer metrics and their units are the `per_layer` list of this
# file.  `calls` and `self_s` come from the tracer's spans; the rest are
# counters or derived in `Bench.traced`.
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


class BenchError(RuntimeError):
    """The benchmark itself cannot run: missing source, broken set-up or tracer."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("LAHBELL_FORMAT", None)  # would change the output format
    return env


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def environment() -> dict:
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "memory_total_mb": round(pages / 2**20),
        "platform": platform.platform(),
    }


class Bench:
    """Runs requests through the spawner helper and checks each response."""

    def __init__(self, out_dir: Path, check: checker.Checker):
        self.out_dir = out_dir
        self.check = check
        self.host = HostSpeed()
        self.spawner = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
            text=True,
        )

    def close(self) -> None:
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=REQUEST_TIMEOUT_S + 5)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()
        self.spawner.stdout.close()
        for name in ("stdout", "stderr", "summary.json", "spans.tmp"):
            (self.out_dir / name).unlink(missing_ok=True)

    def spawn(self, cmd: list[str]) -> tuple[int, bool, float, float, float]:
        """Run cmd to completion; return (exit code, timed out, wall s,
        reference s, peak RSS MB).

        Wall time runs from spawn to exit; reference seconds scale it by the
        host speed probed just before and after (see ``hostspeed.py``).  Peak
        RSS comes from wait4 on this child alone, not from the high-water
        mark over all children.
        """
        before = self.host.before()
        fields = [str(self.out_dir / "stdout"), str(self.out_dir / "stderr"), str(REQUEST_TIMEOUT_S), *cmd]
        self.spawner.stdin.write("\0".join(fields) + "\n")
        self.spawner.stdin.flush()
        answer = self.spawner.stdout.readline().split()
        if len(answer) != 4:
            raise BenchError(f"spawner stopped while running {cmd}")
        rc, timed_out, wall, maxrss_kib = answer
        reference = self.host.reference_s(float(wall), before, self.host.probe())
        return int(rc), timed_out == "1", float(wall), reference, int(maxrss_kib) / 1024.0

    def response(self, cmd: list[str]) -> checker.Response:
        rc, timed_out, wall, reference, rss = self.spawn(cmd)
        stdout = self.out_dir / "stdout"
        size = stdout.stat().st_size
        hasher = hashlib.sha256()
        kept = bytearray() if size <= KEEP_TEXT_BYTES else None
        with open(stdout, "rb") as handle:
            while chunk := handle.read(1 << 20):
                hasher.update(chunk)
                if kept is not None:
                    kept += chunk
        return checker.Response(
            rc=rc,
            stdout_digest=hasher.hexdigest()[: checker.DIGEST_CHARS],
            stdout_bytes=size,
            stdout_text=None if kept is None else kept.decode("utf-8", "replace"),
            stderr=(self.out_dir / "stderr").read_bytes(),
            timed_out=timed_out,
            wall_s=wall,
            latency_s=reference,
            peak_rss_mb=rss,
        )

    def request(self, argv: list[str]) -> tuple[checker.Response, checker.Verdict]:
        response = self.response([sys.executable, "-c", ENTRY, *argv])
        return response, self.check.judge(argv, response)

    def traced_request(self, argv: list[str]) -> tuple[checker.Response, checker.Verdict, dict, bytes]:
        summary_path, spans_path = self.out_dir / "summary.json", self.out_dir / "spans.tmp"
        for path in (summary_path, spans_path):
            path.unlink(missing_ok=True)
        response = self.response(
            [sys.executable, str(BENCH / "traced_child.py"), str(summary_path), str(spans_path), *argv]
        )
        verdict = self.check.judge(argv, response)
        if response.timed_out:
            return response, verdict, {}, b""
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        self_sum = sum(summary[f"{layer}.self_s"] for layer in LAYERS)
        if abs(self_sum - summary["wall_s"]) > 1e-3 + 1e-3 * summary["wall_s"]:
            raise BenchError(f"self times sum to {self_sum} s but {argv} took {summary['wall_s']} s")
        return response, verdict, summary, spans_path.read_bytes()

    def setup_s(self) -> float:
        """Median time of a fresh `import lahbell.cli` in reference seconds,
        after one warm-up."""
        probe = "import lahbell.cli, sys; sys.stdout.write(lahbell.cli.__file__)"
        rc, *_ = self.spawn([sys.executable, "-c", probe])
        where = (self.out_dir / "stdout").read_text(encoding="utf-8", errors="replace")
        if rc != 0 or not Path(where).resolve().is_relative_to(SRC.resolve()):
            stderr = (self.out_dir / "stderr").read_text(encoding="utf-8", errors="replace")
            raise BenchError(f"cannot import lahbell.cli from {SRC}: {stderr}")
        times = []
        for _ in range(SETUP_REPEATS):
            rc, timed_out, _, reference, _ = self.spawn([sys.executable, "-c", "import lahbell.cli"])
            if rc != 0 or timed_out:
                raise BenchError("import lahbell.cli failed during set-up")
            times.append(reference)
        return statistics.median(times)

    def untraced(self, workload: str, seed: int, seconds: float):
        """End-to-end metrics over whole rounds run for at least `seconds`
        reference seconds.

        Counting the run's length in reference seconds keeps the number of
        rounds, and with it the sample behind every percentile, the same on
        a slow and a fast host.  A run stops early, at the end of a round,
        when one more round would take it past MAX_WALL_FACTOR * `seconds`
        of wall time.
        """
        rows = []
        first_probe, probe_time_s = len(self.host.probes), self.host.probe_time_s
        start = time.perf_counter()

        def run_reference_s() -> float:
            # The run's own time, without probing, scaled as its requests were.
            responses = [row["response"] for row in rows]
            scale = sum(r.latency_s for r in responses) / sum(r.wall_s for r in responses)
            return (time.perf_counter() - start - (self.host.probe_time_s - probe_time_s)) * scale

        for round_index, requests in enumerate(workloads.rounds(workload, seed)):
            round_start = time.perf_counter()
            for argv in requests:
                if time.perf_counter() - start > seconds + OVERRUN_S:
                    break
                response, verdict = self.request(argv)
                rows.append({"round": round_index, "argv": argv, "response": response, "verdict": verdict})
            now = time.perf_counter()
            if run_reference_s() >= seconds or 2 * now - round_start - start > MAX_WALL_FACTOR * seconds:
                break
        run_wall_s = time.perf_counter() - start
        run_s = run_reference_s()
        latencies = [row["response"].latency_s for row in rows]
        ok = sum(not row["verdict"].failed for row in rows)
        tail = percentile(latencies, workloads.TAIL_PERCENTILE[workload])
        metrics = {
            "requests_per_s": metric(ok / run_s, "1/s"),
            "latency_p50_s": metric(statistics.median(latencies), "s"),
            "latency_tail_s": metric(tail, "s"),
            "peak_rss_mb": metric(max(row["response"].peak_rss_mb for row in rows), "MB"),
            "ok_frac": metric(ok / len(rows), "ratio"),
        }
        notes = {
            "loop": "closed, one client, one fresh process per request",
            "tail_percentile": workloads.TAIL_PERCENTILE[workload],
            "requests_beyond_tail": sum(latency > tail for latency in latencies),
            "rounds": rows[-1]["round"] + 1,
            "run_wall_s": run_wall_s,
            "run_reference_s": run_s,
            "probe_median_s": self.host.median_since(first_probe),
            "reference_probe_s": REFERENCE_PROBE_S,
            "wall_latency_p50_s": statistics.median(row["response"].wall_s for row in rows),
        }
        return rows, metrics, notes

    def traced(self, workload: str, seed: int):
        """Per-layer metrics of the first round, traced and untraced in turn."""
        requests = next(workloads.rounds(workload, seed))
        rows, totals, blocks = [], {}, []
        untraced_s = traced_s = 0.0
        for request_id, argv in enumerate(requests):
            response, verdict = self.request(argv)
            rows.append({"traced": False, "argv": argv, "response": response, "verdict": verdict})
            traced, verdict, summary, spans = self.traced_request(argv)
            rows.append({"traced": True, "argv": argv, "response": traced, "verdict": verdict})
            untraced_s += response.wall_s
            traced_s += traced.wall_s
            summary["cli.output_bytes"] = traced.stdout_bytes
            for key, value in summary.items():
                totals[key] = totals.get(key, 0) + value
            blocks.append((request_id, spans))
        lookups = totals.get("series.gf_catalog.hits", 0) + totals.get("series.gf_catalog.misses", 0)
        totals["series.gf_catalog.hit_ratio"] = totals.get("series.gf_catalog.hits", 0) / lookups if lookups else 0.0
        totals["cli.self_s"] = totals.get("cli.main.self_s", 0.0)
        totals["trace.overhead_s"] = traced_s - untraced_s
        totals["trace.requests"] = len(requests)
        per_layer = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))["per_layer"]
        metrics = {m["name"]: metric(totals.get(m["name"], 0), m["unit"]) for m in per_layer}
        self.write_spans(blocks)
        notes = {"traced_wall_s": traced_s, "untraced_wall_s": untraced_s, "layers": list(LAYERS)}
        return rows, metrics, notes

    def write_spans(self, blocks: list[tuple[int, bytes]]) -> None:
        """All spans of the run, written once.  Per request: request id and
        span count as uint32, then the child's four columns (layer id uint16,
        parent index int32, start float64, end float64; layer ids index
        `notes.layers` in results.json)."""
        with open(self.out_dir / "spans.bin", "wb") as handle:
            for request_id, data in blocks:
                count = len(data) // (2 + 4 + 8 + 8)
                handle.write(request_id.to_bytes(4, "little") + count.to_bytes(4, "little"))
                handle.write(data)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "lahbell" / "cli.py").is_file():
        print(f"bench: no lahbell source under {SRC}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    bench = Bench(out_dir, checker.Checker(checker.load_expected()))
    try:
        setup_s = bench.setup_s()
        if args.trace:
            rows, metrics, notes = bench.traced(args.workload, args.seed)
        else:
            rows, metrics, notes = bench.untraced(args.workload, args.seed, args.seconds)
            metrics = {"setup_s": metric(setup_s, "s"), **metrics}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()

    wrong = [row for row in rows if row["verdict"].wrong]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_s": setup_s,
        "environment": environment(),
        "notes": notes,
        "metrics": metrics,
        "requests": [
            {
                **{key: value for key, value in row.items() if key not in ("response", "verdict")},
                "latency_s": row["response"].latency_s,
                "wall_s": row["response"].wall_s,
                "peak_rss_mb": row["response"].peak_rss_mb,
                "rc": row["response"].rc,
                "stdout_bytes": row["response"].stdout_bytes,
                "verdict": row["verdict"].reason,
            }
            for row in rows
        ],
    }
    (out_dir / "results.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for row in wrong:
        print(f"bench: wrong output for {' '.join(row['argv'])}: {row['verdict'].reason}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": len(rows),
        "failed": sum(row["verdict"].failed for row in rows),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
