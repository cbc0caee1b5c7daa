"""Run one ``lahbell`` request in this process under the span tracer.

    python3 bench/traced_child.py SUMMARY_PATH SPANS_PATH ARGV...

Behaves like ``lahbell ARGV...`` (same stdout, exit code and tracebacks),
and on the way out writes the per-layer summary as JSON to SUMMARY_PATH and
the raw spans to SPANS_PATH (layer ids as uint16, parent indices as int32,
starts and ends as float64, each array in turn).
"""

from __future__ import annotations

import json
import sys
import time

from tracer import Tracer


def main() -> int:
    summary_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    import lahbell.cli
    from lahbell.series import gf_catalog

    start = time.perf_counter()
    try:
        return lahbell.cli.main(argv)
    finally:
        wall = time.perf_counter() - start
        sys.stdout.flush()
        summary = tracer.summary()
        summary["wall_s"] = wall
        info = gf_catalog.cache_info()
        summary["series.gf_catalog.hits"] = info.hits
        summary["series.gf_catalog.misses"] = info.misses
        with open(summary_path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle)
        with open(spans_path, "wb") as handle:
            for column in (tracer.names, tracer.parents, tracer.starts, tracer.ends):
                column.tofile(handle)


if __name__ == "__main__":
    sys.exit(main())
