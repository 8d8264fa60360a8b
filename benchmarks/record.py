"""Regenerate the benchmark's recorded data from the current source.

    python3 benchmarks/record.py references   # benchmarks/reference.json
    python3 benchmarks/record.py baseline     # benchmarks/baseline.json

Run from the root of a wglab checkout.  `references` records the checked
part of every step's payload: once for steps without `--seed`, and for each
of the PROGRAM_SEEDS program seeds for steps with it.  It also records the
largest error the `approx` main terms admit, from which outputs.py sets the
tolerances of the `approx` fields.  `baseline` runs
run.py on every workload for ten seeds untraced and once traced, and
writes the machine, the median and quartile spread of every end-to-end
metric, the per-layer metrics and each workload's dominant layer.
"""

import ctypes
import contextlib
import glob
import io
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

import outputs
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE = os.path.join(HERE, "baseline.json")
BASELINE_SEEDS = range(10)


def _watch_main_terms(surface) -> list[float]:
    """Rebind surface.main_term so that each call appends the error it admits.

    A main term is its surface transform's value times a scale; the transform
    admits quad_error + tail_estimate, so the main term admits the scale times that.
    """
    admitted = []
    transforms = []
    transform, main_term = surface.surface_transform, surface.main_term

    def watched_transform(*args, **kwargs):
        result = transform(*args, **kwargs)
        transforms.append(result)
        return result

    def watched_main_term(*args, **kwargs):
        transforms.clear()
        value = main_term(*args, **kwargs)
        if transforms and transforms[-1].value != 0:
            r = transforms[-1]
            admitted.append(abs(value) / abs(r.value) * (r.quad_error + r.tail_estimate))
        return value

    surface.surface_transform, surface.main_term = watched_transform, watched_main_term
    return admitted


def _record(names: list[str]) -> tuple[dict, float]:
    """The reference payloads of the named workloads and the largest admitted main-term error."""
    sys.path.insert(0, os.path.abspath("src"))
    os.environ.pop("WG_CACHE_DIR", None)
    import wglab.cli
    import wglab.surface

    admitted = _watch_main_terms(wglab.surface)

    os.makedirs(".bench_work", exist_ok=True)
    payloads = {}
    for name in names:
        for seed in range(workloads.PROGRAM_SEEDS):
            cache_dir = tempfile.mkdtemp(dir=".bench_work")
            for step, argv in workloads.steps(name, seed, cache_dir):
                key = outputs.reference_key(step, argv, seed)
                if key in payloads:
                    continue
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = wglab.cli.main(argv)
                if rc != 0:
                    raise SystemExit(f"{step} exited {rc}")
                payloads[key] = outputs.result_part(buf.getvalue())
            shutil.rmtree(cache_dir)
    return payloads, max(admitted, default=0.0)


def references() -> None:
    # Two processes, one per core; the large grid convolution runs in only one of them.
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        parts = pool.map(_record, [["approx"], ["operators", "hua"]])
    payloads = {k: v for part, _ in parts for k, v in sorted(part.items())}
    admitted = max(err for _, err in parts)
    print(f"largest admitted main-term error: {admitted:.4g}", file=sys.stderr)
    with open(outputs.REFERENCE, "w") as fh:
        json.dump({"program_seeds": workloads.PROGRAM_SEEDS, "approx_admitted_error": admitted,
                   "payloads": payloads}, fh, sort_keys=True)
        fh.write("\n")


def _openblas_threads():
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _machine() -> dict:
    import numpy
    import scipy

    def first(path, key):
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
        return None

    return {
        "nproc": os.cpu_count(),
        "cpu": first("/proc/cpuinfo", "model name"),
        "memory": first("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": _openblas_threads(),
    }


def _run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if not report["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed the check\n{proc.stderr}")
    return report


def _by_step(workload: str, seed: int) -> dict:
    path = os.path.join(".bench_work", f"spans-{workload}-{workloads.program_seed(seed)}.jsonl")
    with open(path) as fh:
        records = [json.loads(line) for line in fh]
    span_list = [spans.Span(r["name"], r["start"], r["end"], r["parent"], r["cmd"]) for r in records]
    names = [step for step, _ in workloads.steps(workload, 0, "")]
    return {
        step: {layer: round(t["s"], 4) for layer, t in sorted(spans.layer_totals(span_list, cmd=i).items())}
        for i, step in enumerate(names)
    }


def baseline() -> None:
    seconds = workloads.BENCHMARK["run_seconds"]
    doc = {"machine": _machine(), "seeds": list(BASELINE_SEEDS), "run_seconds": seconds, "workloads": {}}
    for workload in workloads.WORKLOADS:
        runs = [_run(workload, seed, 0, seconds) for seed in BASELINE_SEEDS]
        e2e = {}
        for name, unit in workloads.END_TO_END:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            e2e[name] = {"unit": unit, "median": statistics.median(values), "spread": (q3 - q1) / statistics.median(values),
                         "values": values}
        traced = _run(workload, BASELINE_SEEDS[0], 1, seconds)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        by_step = _by_step(workload, BASELINE_SEEDS[0])
        wall = sum(step["cli.main"] for step in by_step.values())  # the traced iteration's wall_s
        timed = {k: v for k, v in layers.items() if k.endswith(".s")}
        top = max(timed, key=timed.get)
        doc["workloads"][workload] = {
            "why": workloads.WHY[workload],
            "end_to_end": e2e,
            "per_layer": layers,
            "dominant_layer": {"name": top, "s": timed[top], "share_of_traced_wall_s": timed[top] / wall},
            "by_step_s": by_step,
        }
        print(f"{workload}: " + ", ".join(f"{k} {v['median']:.4g} (spread {v['spread']:.3f})" for k, v in e2e.items())
              + f"; dominant {top} {timed[top] / wall:.0%}", file=sys.stderr)
    with open(BASELINE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    {"references": references, "baseline": baseline}[sys.argv[1]]()
