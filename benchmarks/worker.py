"""One benchmark iteration, in a fresh Python process.

    python3 benchmarks/worker.py '<json spec>'

The spec names the workload, program seed, cache directory and whether to
trace.  The process
times `import wglab.cli`, runs the workload's steps through
`wglab.cli.main` with stdout captured, and prints one JSON object: the
import time, each step's exit code, wall time and payload, the sequence's
wall time, the peak resident memory and, when traced, the layer metrics,
among them the tracing overhead: the measured cost of one wrapper call
times the number of spans recorded.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def _dir_bytes(path: str) -> int:
    if not os.path.isdir(path):
        return 0
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def main() -> int:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import wglab.cli

    out = {"import_s": time.perf_counter() - t0}

    import spans
    import workloads

    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        tracer.install()
        lru_before = spans.lru_counts()
    steps = workloads.steps(spec["workload"], spec["seed"], spec["cache_dir"])
    results = []
    start = time.perf_counter()
    for i, (name, argv) in enumerate(steps):
        if tracer:
            tracer.cmd = i
        buf = io.StringIO()
        error = None
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = wglab.cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argument list this way
            rc, error = exc.code, f"SystemExit({exc.code})"
        except Exception as exc:  # a raising command is a failed step; the next still runs
            rc, error = None, f"{type(exc).__name__}: {exc}"
        results.append({"name": name, "argv": argv, "rc": rc, "error": error,
                        "wall_s": time.perf_counter() - t, "payload": buf.getvalue()})
    out["wall_s"] = time.perf_counter() - start
    out["steps"] = results
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        metrics = spans.span_metrics(spans.layer_totals(tracer.spans), tracer.counters)
        lru_after = spans.lru_counts()
        if lru_before is None or lru_after is None:
            tracer.absent.append(spans.G_TABLE)
            metrics["expsums.g_table.hits"] = metrics["expsums.g_table.misses"] = 0.0
        else:
            metrics["expsums.g_table.hits"] = float(lru_after[0] - lru_before[0])
            metrics["expsums.g_table.misses"] = float(lru_after[1] - lru_before[1])
        metrics["surface.cache.bytes"] = float(_dir_bytes(spec["cache_dir"]))
        metrics["trace.overhead_s"] = spans.span_cost() * len(tracer.spans)
        out["layers"] = metrics
        out["by_step"] = {
            name: {layer: t["s"] for layer, t in spans.layer_totals(tracer.spans, cmd=i).items()}
            for i, (name, _) in enumerate(steps)
        }
        out["absent"] = tracer.absent
        tracer.write(spec["spans_path"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
