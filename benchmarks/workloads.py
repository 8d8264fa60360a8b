"""The benchmark's workloads: fixed sequences of `wg` commands.

Each workload is a closed loop from one client: a step starts when the
previous one returns, and every step of one iteration runs in the same
fresh Python process, so later steps see the lru tables, imports and (for
`hua`) the enumeration cache that earlier steps left behind.

Integer inputs are fixed.  The workload seed reaches the program only as
`--seed`, where it drives the `approx` xi sample, the random grid input of
`maximal` and the discrepancy boxes of `equidist`.  Reference payloads are
recorded for PROGRAM_SEEDS program seeds, so the workload seed is reduced
modulo that count before it is handed over.

The workload names, their why-sentences and the metric names and units
are read from BENCHMARK.json at the root of the checkout.
"""

import json
import os

PROGRAM_SEEDS = 16

with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)

WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
WHY = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
END_TO_END = tuple((m["name"], m["unit"]) for m in BENCHMARK["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in BENCHMARK["per_layer"])


def program_seed(seed: int) -> int:
    return seed % PROGRAM_SEEDS


def steps(workload: str, seed: int, cache_dir: str) -> list[tuple[str, list[str]]]:
    """(step name, argv for wglab.cli.main) in execution order.

    `seed` is the program seed; `cache_dir` is a fresh empty directory
    that only `hua` uses.  No step passes `--threads`.
    """
    s = str(seed)
    if workload == "approx":
        return [
            ("approx", ["approx", "--k", "2", "--n", "5", "--lambda-min", "4096", "--blocks", "3",
                        "--per-block", "2", "--xi-count", "8", "--seed", s]),
        ]
    if workload == "hua":
        argv = ["hua", "--k", "2", "--n", "5", "--lo", "10000", "--hi", "100000",
                "--samples", "12", "--qsing", "800", "--cache-dir", cache_dir]
        return [("hua-write", argv), ("hua-read", list(argv))]
    if workload == "operators":
        return [
            ("weyl", ["weyl", "--k", "2", "--n", "5", "--xi", "0.4142135623730951,0.7320508075688772,0,0,0",
                      "--lambda-min", "1000", "--blocks", "9"]),
            ("delta-probe-p1.2", ["delta-probe", "--k", "2", "--n", "5", "--p", "1.2",
                                  "--exp-lo", "12", "--exp-hi", "18"]),
            ("delta-probe-pinf", ["delta-probe", "--k", "2", "--n", "5", "--p", "inf",
                                  "--exp-lo", "12", "--exp-hi", "18"]),
            ("maximal-fft", ["maximal", "--k", "2", "--n", "4", "--K", "12", "--lams", "628",
                             "--input", "random", "--seed", s]),
            ("maximal-direct", ["maximal", "--k", "2", "--n", "5", "--K", "4",
                                "--lams", "77,125,173,221,269", "--input", "random", "--seed", s]),
            ("equidist", ["equidist", "--k", "2", "--n", "5", "--lambda", "100021",
                          "--alpha", "0.31,0.71,0.12,0.55,0.9", "--boxes", "3000", "--seed", s]),
        ]
    raise ValueError(f"unknown workload {workload!r}")
