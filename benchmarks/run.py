"""wglab benchmark: end-to-end and per-layer metrics of three `wg` sweep workloads.

    python3 benchmarks/run.py --workload approx|hua|operators --seed N --seconds S --trace 0|1

Run from the root of a wglab checkout; the program is imported from
`src/`.  Each iteration runs the workload's command sequence through
`wglab.cli.main` in a fresh Python process (benchmarks/worker.py); the
load is a closed loop from one client.  Every payload is checked against
the recorded reference (benchmarks/outputs.py).

--trace 0 repeats untraced iterations for --seconds seconds and reports the
end-to-end metrics as medians over iterations.  --trace 1 runs one traced
iteration and reports the per-layer metrics.  The metric names and units
come from BENCHMARK.json.  The last line of stdout is one JSON object:
correct, attempted, failed and metrics.
"""

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import outputs
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".bench_work"  # work area inside the checkout: cache dirs and span files
MIN_ITERATIONS = 2
DEADLINE_S = 170  # every worker of a run is stopped by then; the run must end within 180 s


class WorkerFailed(Exception):
    pass


def _worker(spec: dict, root: str, timeout: float) -> dict:
    env = dict(os.environ)
    env.pop("WG_CACHE_DIR", None)  # an ambient value would switch every command onto the JSON cache
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
            cwd=root, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker stopped at the run's {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise WorkerFailed(f"worker printed no result: {proc.stdout[-500:]!r}") from exc


def _iteration(workload: str, seed: int, root: str, work: str, trace: bool, timeout: float) -> dict:
    cache_dir = tempfile.mkdtemp(prefix=f"{workload}-cache-", dir=work)
    spec = {"workload": workload, "seed": seed, "cache_dir": cache_dir, "trace": trace,
            "spans_path": os.path.join(work, f"spans-{workload}-{seed}.jsonl")}
    try:
        return _worker(spec, root, timeout)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def _check(result: dict, refs: dict, seed: int) -> list[str]:
    """One problem string per failed step: non-zero exit, exception or output mismatch."""
    problems = []
    seen = {}
    for st in result["steps"]:
        name, argv = st["name"], st["argv"]
        if st["error"] or st["rc"] != 0:
            problems.append(f"{name}: exit {st['rc']} {st['error'] or ''}".strip())
            continue
        found = []
        ref = refs.get(outputs.reference_key(name, argv, seed))
        if ref is None:
            found.append("no reference payload")
        else:
            try:
                found += outputs.compare(argv[0], outputs.result_part(st["payload"]), ref)
            except (ValueError, KeyError, TypeError) as exc:
                found.append(f"unreadable payload: {exc}")
        earlier = seen.setdefault(json.dumps(argv), st["payload"])
        if earlier != st["payload"]:
            found.append("payload differs from the earlier identical command")
        if found:
            problems.append(f"{name}: " + "; ".join(found))
    return problems


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload: str, seed: int, seconds: int, trace: bool, root: str) -> dict:
    work = os.path.join(root, WORK_DIR)
    os.makedirs(work, exist_ok=True)
    refs = outputs.load_reference()
    pseed = workloads.program_seed(seed)
    n_steps = len(workloads.steps(workload, pseed, ""))
    attempted = failed = 0
    t_run = time.perf_counter()

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - t_run)

    def iterate(traced: bool):
        nonlocal attempted, failed
        attempted += n_steps
        try:
            result = _iteration(workload, pseed, root, work, traced, remaining())
        except WorkerFailed as exc:
            failed += n_steps
            print(f"iteration failed: {exc}", file=sys.stderr)
            return None
        problems = _check(result, refs, pseed)
        failed += len(problems)
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        print(f"{'traced' if traced else 'untraced'} iteration: wall_s={result['wall_s']:.3f} "
              + " ".join(f"{s['name']}={s['wall_s']:.3f}" for s in result["steps"]), file=sys.stderr)
        return result

    if trace:
        traced = iterate(True)
        if traced is None:
            raise WorkerFailed("the traced iteration did not complete")
        for step, layers in traced["by_step"].items():
            top = sorted(layers.items(), key=lambda kv: -kv[1])[:6]
            print(f"{workload} {step}: " + ", ".join(f"{k} {v:.3f}s" for k, v in top))
        if traced["absent"]:
            print("absent from the code under test: " + ", ".join(traced["absent"]), file=sys.stderr)
        metrics = {name: _metric(traced["layers"][name], unit) for name, unit in workloads.PER_LAYER}
    else:
        results = []
        for done in itertools.count(1):
            t_iter = time.perf_counter()
            result = iterate(False)
            if result is not None:
                results.append(result)
            now = time.perf_counter()
            if now - t_iter > remaining():
                break
            if now - t_run >= seconds and done >= MIN_ITERATIONS:
                break
        if not results:
            raise WorkerFailed("no iteration completed")
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in results),
            "cached_wall_s": statistics.median(r["steps"][-1]["wall_s"] for r in results),
            "setup_s": statistics.median(r["import_s"] for r in results),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        }
        print(f"iterations={len(results)}", file=sys.stderr)
        metrics = {name: _metric(values[name], unit) for name, unit in workloads.END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wglab", "cli.py")):
        print("benchmark: src/wglab/cli.py not found; run from the root of a wglab checkout", file=sys.stderr)
        return 2
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except WorkerFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
