import ast
import json
import math
from collections import Counter
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import wglab
from wglab import maxops
from wglab.cli import build_parser, main
from wglab.ergodic import weyl_decay_scan
from wglab.maxops import GridFunction, delta_scaling_probe
from wglab.surface import ProblemInstance, enumerate_prime_points, hua_ratio


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0
    return json.loads(out)


def test_gsum_vanishing(capsys):
    doc = run_json(capsys, "gsum", "--a", "1", "--q", "2", "--b", "1", "--r", "4", "--k", "2")
    assert doc["schema"] == 1
    assert abs(doc["scalars"]["g_re"]) < 1e-12
    assert abs(doc["scalars"]["g_im"]) < 1e-12
    assert doc["config"]["command"] == "gsum"


def test_points_77(capsys):
    doc = run_json(capsys, "points", "--k", "2", "--n", "5", "--lambda", "77")
    assert doc["scalars"]["r"] == 10
    expected = 10 * math.log(3) ** 3 * math.log(5) ** 2
    assert doc["scalars"]["R"] == pytest.approx(expected, rel=1e-12)
    assert len(doc["table"]["rows"]) == 10
    assert doc["scalars"]["gamma"] == "member"


def test_fourier_zero_xi(capsys):
    doc = run_json(
        capsys, "fourier", "--k", "2", "--n", "5", "--lambda", "77", "--xi", "0,0,0,0,0"
    )
    assert doc["scalars"]["omega_hat_re"] == pytest.approx(1.0)
    assert abs(doc["scalars"]["omega_hat_im"]) < 1e-12


def test_meanvalue(capsys):
    doc = run_json(capsys, "meanvalue", "--N", "2", "--s", "2", "--k", "2")
    assert doc["scalars"]["count"] == 6


def test_singular(capsys):
    doc = run_json(
        capsys, "singular", "--k", "2", "--n", "5", "--lambda", "77", "--qsing", "2"
    )
    assert doc["scalars"]["series_re"] == pytest.approx(2.0, abs=1e-9)


def test_surface_cmd(capsys):
    doc = run_json(
        capsys, "surface", "--n", "2", "--k", "2", "--lambda0", "1.0", "--eta", "0,0"
    )
    assert doc["scalars"]["value_re"] == pytest.approx(math.pi / 4, rel=0.01)


def test_arcs_cmd(capsys):
    doc = run_json(capsys, "arcs", "--theta", "0.5001", "--X", "1000", "--Q", "10")
    assert doc["scalars"]["major"] == 1
    assert (doc["scalars"]["center_a"], doc["scalars"]["center_q"]) == (1, 2)


def test_weyl_cmd(capsys):
    doc = run_json(
        capsys, "weyl", "--k", "2", "--n", "5", "--xi", "0.5,0.5,0.5,0.5,0.5",
        "--lambda-min", "500", "--blocks", "2",
    )
    assert doc["scalars"]["non_increasing"] in (0, 1)
    for row in doc["table"]["rows"]:
        assert row[3] == pytest.approx(1.0, abs=1e-9)


def test_ergodic_cmd(capsys):
    doc = run_json(
        capsys, "ergodic", "--k", "2", "--n", "5", "--lambda", "77",
        "--alpha", "0.31,0.71,0.12,0.55,0.9", "--m", "1,0,2,0,-1",
        "--x", "0.1,0.2,0.3,0.4,0.5",
    )
    assert doc["scalars"]["average_abs"] == pytest.approx(
        doc["scalars"]["transform_abs"], abs=1e-10
    )


def test_equidist_cmd(capsys):
    doc = run_json(
        capsys, "equidist", "--k", "2", "--n", "5", "--lambda", "77",
        "--alpha", "0.31,0.71,0.12,0.55,0.9", "--boxes", "500",
    )
    assert 0 < doc["scalars"]["discrepancy"] <= 1


def test_delta_probe_cmd(capsys):
    doc = run_json(
        capsys, "delta-probe", "--k", "2", "--n", "5", "--p", "1.2",
        "--exp-lo", "9", "--exp-hi", "11",
    )
    assert doc["scalars"]["slope"] > 0
    assert len(doc["table"]["rows"]) == 3


def test_maximal_cmd(capsys):
    doc = run_json(
        capsys, "maximal", "--k", "2", "--n", "5", "--lams", "77,125", "--K", "6",
        "--p", "2,inf",
    )
    assert doc["scalars"]["maximal_norm_pinf"] <= 1.0 + 1e-12
    assert doc["scalars"]["maximal_norm_p2"] > 0


def test_maximal_convolves_each_measure_once(capsys, monkeypatch):
    # at K = 6, lam = 208 keeps 120 pruned solutions and lam = 77 keeps 10
    calls = Counter()

    def counted(*args, _fn=maxops._convolve_direct):
        calls["_convolve_direct"] += 1
        return _fn(*args)

    monkeypatch.setattr(maxops, "_convolve_direct", counted)
    doc = run_json(
        capsys, "maximal", "--k", "2", "--n", "5", "--lams", "77,208", "--K", "6",
        "--p", "1,2,inf", "--input", "random",
    )
    assert calls == {"_convolve_direct": 2}
    monkeypatch.undo()

    measures = [enumerate_prime_points(ProblemInstance(2, 5, lam)) for lam in (77, 208)]
    assert [len(maxops._pruned(m, 6)[0]) for m in measures] == [10, 120]
    f = GridFunction(K=6, values=np.random.default_rng(7).standard_normal((13,) * 5))
    convs = [maxops.convolve(f, m) for m in measures]
    sup = GridFunction(K=6, values=np.max([np.abs(c.values) for c in convs], axis=0))
    ps = (1.0, 2.0, np.inf)
    close = lambda got, want: got == pytest.approx(want, rel=1e-12, abs=0.0)
    for p, name in zip(ps, ("p1", "p2", "pinf")):
        assert close(doc["scalars"][f"maximal_norm_{name}"], maxops.lp_norm(sup, p))
    for row, m, c in zip(doc["table"]["rows"], measures, convs):
        assert row[:2] == [m.instance.lam, m.r]
        assert all(close(got, maxops.lp_norm(c, p)) for got, p in zip(row[2:], ps))


def test_maximal_reports_fft_roundoff_as_zero(capsys):
    # no solution of 208 has every coordinate <= 6, so its delta convolution is exactly 0
    # on the box; lam = 77 keeps the values it printed before
    doc = run_json(
        capsys, "maximal", "--k", "2", "--n", "5", "--lams", "77,208", "--K", "6", "--p", "1,2,inf",
    )
    assert doc["table"]["rows"] == [[77, 10, 1.0, 0.316227766016838, 0.1], [208, 120, 0.0, 0.0, 0.0]]


def test_json_rerun_is_bit_identical(capsys):
    args = ("points", "--k", "2", "--n", "5", "--lambda", "125")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_cache_dir_is_ignored(capsys, tmp_path):
    args = ("hua", "--k", "2", "--n", "5", "--lo", "2000", "--hi", "4000", "--samples", "4", "--qsing", "40")
    plain = run_json(capsys, *args)
    flagged = run_json(capsys, *args, "--cache-dir", str(tmp_path))
    assert os.listdir(tmp_path) == []
    assert flagged["scalars"] == plain["scalars"]
    assert flagged["table"] == plain["table"]


@pytest.mark.parametrize("argv", [
    ["weyl", "--k", "2", "--n", "5", "--xi", "0.1,0.2,0,0,0", "--seed", "3"],
    ["points", "--k", "2", "--n", "5", "--lambda", "77", "--cache-dir", "D"],
])
def test_unread_flags_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_seed_is_kept_where_read():
    parser = build_parser()
    for argv in (["approx", "--k", "2", "--n", "5"],
                 ["maximal", "--k", "2", "--n", "5", "--lams", "77"],
                 ["equidist", "--k", "2", "--n", "5", "--lambda", "77", "--alpha", "0,0,0,0,0"]):
        assert parser.parse_args(argv + ["--seed", "3"]).seed == 3


def test_csv_and_json_payloads_match(capsys):
    args = ("points", "--k", "2", "--n", "5", "--lambda", "77")
    doc = run_json(capsys, *args)
    code, csv_text = run(capsys, *args, "--format", "csv")
    assert code == 0
    lines = [l for l in csv_text.strip().splitlines()]
    scalars = {}
    rows = []
    header_seen = False
    for line in lines:
        if line.startswith("# scalar,"):
            _, name, value = line.split(",", 2)
            scalars[name] = value
        elif line.startswith("#"):
            continue
        elif not header_seen:
            assert line.split(",") == doc["table"]["columns"]
            header_seen = True
        else:
            rows.append([float(v) for v in line.split(",")])
    assert float(scalars["R"]) == doc["scalars"]["R"]
    assert int(scalars["r"]) == doc["scalars"]["r"]
    assert rows == [[float(v) for v in row] for row in doc["table"]["rows"]]


def test_output_file_and_plot(capsys, tmp_path):
    out = tmp_path / "probe.json"
    code = main(
        [
            "delta-probe", "--k", "2", "--n", "5", "--p", "1.2",
            "--exp-lo", "9", "--exp-hi", "11",
            "--output", str(out), "--plot",
        ]
    )
    assert code == 0
    assert out.exists()
    svg = tmp_path / "probe.svg"
    assert svg.exists()
    assert svg.read_text().startswith("<svg")


def test_usage_error_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["points", "--k", "2", "--n", "5"])  # missing --lambda
    assert exc.value.code == 2
    # a value failing library validation is also a usage error
    code = main(["points", "--k", "1", "--n", "5", "--lambda", "77"])
    assert code == 2


def test_numeric_error_exit_code(capsys):
    # no solutions: the transform is undefined
    code = main(["fourier", "--k", "2", "--n", "5", "--lambda", "29", "--xi", "0,0,0,0,0"])
    assert code == 1


def test_singular_prints_the_truncated_sum_as_strict_json(capsys):
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    for n, lam in ((4, "500"), (5, "77")):  # n = 4: the series need not converge, the sum is still finite
        code, out = run(capsys, "singular", "--k", "2", "--n", str(n), "--lambda", lam)
        assert code == 0
        doc = json.loads(out, parse_constant=refuse)
        assert set(doc["scalars"]) == {"series_re", "series_im", "series_abs"}
        assert math.isfinite(doc["scalars"]["series_re"]) and doc["scalars"]["series_re"] > 0
        assert doc["table"] == {"columns": ["field", "value"], "rows": []}


def test_singular_with_vector_center(capsys):
    doc = run_json(
        capsys, "singular", "--k", "2", "--n", "5", "--lambda", "77", "--qsing", "1",
        "--avec", "1,0,0,0,0", "--qvec", "3,1,1,1,1",
    )
    # q = 1 term: product of single-modulus averages, here mu(3)/phi(3) = -1/2
    assert doc["scalars"]["series_re"] == pytest.approx(-0.5, abs=1e-9)


def test_approx_sweep_small(capsys):
    doc = run_json(
        capsys, "approx", "--k", "2", "--n", "5", "--lambda-min", "512",
        "--blocks", "2", "--per-block", "2", "--xi-count", "2",
    )
    assert len(doc["table"]["rows"]) == 2
    assert doc["scalars"]["medians_non_increasing"] in (0, 1)


def test_hua_sweep_small(capsys):
    doc = run_json(
        capsys, "hua", "--k", "2", "--n", "5", "--lo", "2000", "--hi", "4000",
        "--samples", "4", "--qsing", "40",
    )
    assert doc["scalars"]["n_samples"] == 4
    for row in doc["table"]["rows"]:
        assert row[4] > 0  # ratios are positive


def test_hua_rows_match_enumeration(capsys):
    doc = run_json(
        capsys, "hua", "--k", "2", "--n", "5", "--lo", "2000", "--hi", "6000",
        "--samples", "6", "--qsing", "40",
    )
    rows = doc["table"]["rows"]
    assert len(rows) == 6
    for lam, r, R, _, ratio in rows:
        m = enumerate_prime_points(ProblemInstance(2, 5, lam))
        assert r == m.r
        assert R == pytest.approx(m.R, rel=1e-12)
        assert ratio == pytest.approx(hua_ratio(m, Qsing=40), rel=1e-12)


def test_hua_never_enumerates(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("wg hua enumerated solutions")

    monkeypatch.setattr("wglab.cli.enumerate_prime_points", refuse)
    monkeypatch.setattr("wglab.surface.enumerate_prime_points", refuse)
    doc = run_json(
        capsys, "hua", "--k", "2", "--n", "5", "--lo", "2000", "--hi", "4000",
        "--samples", "4", "--qsing", "40", "--cache-dir", str(tmp_path),
    )
    assert doc["scalars"]["n_samples"] == 4
    assert os.listdir(tmp_path) == []


def test_cli_import_skips_scipy_signal():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "import sys, wglab.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_package_source_never_imports_scipy():
    """numpy is the only runtime dependency: no module of the package imports scipy."""
    sources = sorted(pathlib.Path(wglab.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] == "scipy"]
    assert found == []


_SCIPY_PROBE = """
import contextlib, io, json, sys

from wglab.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.startswith("scipy")),
                  "numpy_ma": "numpy.ma" in sys.modules}))
"""

_SMALL_APPROX = ["approx", "--k", "2", "--n", "5", "--lambda-min", "512", "--blocks", "1",
                 "--per-block", "2", "--xi-count", "1"]


def _probe_scipy(*argvs):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(argvs)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def test_commands_without_special_functions_never_import_scipy():
    doc = _probe_scipy(
        ["hua", "--k", "2", "--n", "5", "--lo", "1000", "--hi", "3000", "--samples", "2", "--qsing", "20"],
        ["weyl", "--k", "2", "--n", "5", "--xi", "0.1,0.2,0,0,0", "--lambda-min", "64", "--blocks", "2"],
        ["delta-probe", "--k", "2", "--n", "5", "--p", "2", "--exp-lo", "8", "--exp-hi", "9"],
        ["maximal", "--k", "2", "--n", "5", "--lams", "77", "--K", "3"],
        ["equidist", "--k", "2", "--n", "5", "--lambda", "77", "--alpha", "0.31,0.71,0.12,0.55,0.9",
         "--boxes", "10"],
        ["surface", "--k", "3", "--n", "5", "--eta", "0,0,0,0,0"],
        # k = 2 transforms take the Faddeeva function from oscint, not scipy.special
        ["surface", "--k", "2", "--n", "3", "--eta", "1,0,0"],
        _SMALL_APPROX,
    )
    assert doc["codes"] == [0] * 8
    assert doc["scipy"] == []


def test_hua_and_approx_never_import_numpy_ma_themselves():
    hua = ["hua", "--k", "2", "--n", "5", "--lo", "1000", "--hi", "3000", "--samples", "4", "--qsing", "20"]
    for argv in (hua, _SMALL_APPROX):
        doc = _probe_scipy(argv)
        assert doc["codes"] == [0] and not doc["numpy_ma"], argv


@pytest.mark.parametrize("argv", [
    ["delta-probe", "--k", "2", "--n", "5", "--p", "abc"],
    ["delta-probe", "--k", "2", "--n", "5", "--p", "1.2,2"],
    ["delta-probe", "--k", "2", "--n", "5", "--exp-lo", "5", "--exp-hi", "3"],
    ["maximal", "--k", "2", "--n", "5", "--lams", "77", "--p", "x"],
    ["points", "--k", "5", "--n", "3", "--lambda", "10000000000000000000"],
    ["maximal", "--k", "2", "--n", "5", "--lams", ","],
    ["equidist", "--k", "2", "--n", "5", "--lambda", "77", "--alpha", "1,1,1,1,1", "--boxes", "0"],
    ["delta-probe", "--k", "2", "--n", "5", "--exp-lo", "-2", "--exp-hi", "1"],
    ["maximal", "--k", "2", "--n", "5", "--lams", "77", "--K", "-1"],
    ["approx", "--k", "2", "--n", "5", "--xi-count", "-1"],
    ["hua", "--k", "2", "--n", "5", "--lo", "100", "--hi", "50"],
    ["hua", "--k", "2", "--n", "5", "--samples", "0"],
    ["hua", "--k", "2", "--n", "5", "--lo", "0", "--hi", "0"],
    ["hua", "--k", "2", "--n", "5", "--lo", "0", "--hi", "-5"],
    ["approx", "--k", "2", "--n", "5", "--blocks", "0"],
    ["approx", "--k", "2", "--n", "5", "--per-block", "0"],
    ["weyl", "--k", "2", "--n", "5", "--xi", "0.1,0.2,0,0,0", "--lambda-min", "10", "--blocks", "-1"],
    ["maximal", "--k", "2", "--n", "5", "--lams", "77", "--K", "6", "--p", "0.5"],
    ["weyl", "--k", "2", "--n", "5", "--xi", "0.1,0.2,0,0,0", "--lambda-min", "-5", "--blocks", "3"],
    ["approx", "--k", "2", "--n", "5", "--lambda-min", "-5", "--blocks", "1"],
    ["approx", "--k", "2", "--n", "5", "--lambda-min", "0", "--blocks", "1"],
    ["fourier", "--k", "2", "--n", "5", "--lambda", "77", "--xi", "0.1,0.2,0.3,0.4,nan"],
    ["weyl", "--k", "2", "--n", "5", "--xi", "nan,0,0,0,0", "--lambda-min", "10", "--blocks", "1"],
    ["surface", "--n", "2", "--k", "2", "--eta", "inf,0"],
    ["equidist", "--k", "2", "--n", "5", "--lambda", "77", "--alpha", "nan,1,1,1,1"],
    ["ergodic", "--k", "2", "--n", "5", "--lambda", "77", "--alpha", "0.1,0.2,0.3,0.4,0.5",
     "--m", "1,0,0,0,0", "--x", "inf,0,0,0,0"],
    ["arcs", "--theta", "nan", "--X", "100", "--Q", "10"],
    ["arcs", "--theta", "inf", "--X", "100", "--Q", "10"],
    ["approx", "--k", "2", "--n", "5", "--lambda-min", "64", "--blocks", "1", "--C", "nan"],
    ["approx", "--k", "2", "--n", "5", "--lambda-min", "64", "--blocks", "1", "--per-block", "1",
     "--xi-count", "1", "--C", "1e300"],
    ["approx", "--k", "2", "--n", "5", "--lambda-min", "64", "--blocks", "1", "--per-block", "1",
     "--xi-count", "1", "--C", "-1"],
    ["weyl", "--k", "2", "--n", "0", "--xi", "", "--lambda-min", "100", "--blocks", "2"],
    ["weyl", "--k", "1", "--n", "5", "--xi", "0.1,0,0,0,0", "--lambda-min", "100", "--blocks", "2"],
    ["delta-probe", "--k", "2", "--n", "0", "--p", "2"],
    ["delta-probe", "--k", "2", "--n", "-1", "--p", "2"],
    ["delta-probe", "--k", "1", "--n", "5", "--p", "2", "--exp-lo", "4", "--exp-hi", "6"],
    ["hua", "--k", "2", "--n", "0", "--lo", "100", "--hi", "200", "--samples", "2"],
    ["approx", "--k", "2", "--n", "0", "--lambda-min", "64", "--blocks", "1"],
])
def test_bad_values_are_usage_errors(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    if "--lambda-min" in argv and int(argv[argv.index("--lambda-min") + 1]) < 1:
        assert "--lambda-min" in err
    if "--C" in argv:
        assert "--C" in err


@pytest.mark.parametrize("argv", [
    # five cubes of primes sum to at least 40: every block below it is empty
    ["approx", "--k", "3", "--n", "5", "--lambda-min", "8", "--blocks", "1",
     "--per-block", "1", "--xi-count", "1"],
    ["weyl", "--k", "3", "--n", "5", "--xi", "0.3,0.1,0,0,0", "--lambda-min", "8", "--blocks", "2"],
    # numpy refuses a 2000001^5 grid before allocating anything
    ["maximal", "--k", "2", "--n", "5", "--lams", "77", "--K", "1000000"],
    # 77 is the first lam with a prime solution: no cutoff up to 2^6 has an operator to measure
    ["delta-probe", "--k", "2", "--n", "5", "--exp-lo", "0", "--exp-hi", "6"],
])
def test_nothing_to_compute_is_an_error(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("n, k, eta, code, prefix", [
    (2, 2, "1e160,0", 2, "usage error: "),  # |eta_j| >= 2^52: no digit of e(eta_j x) survives
    (2, 2, "1e308,0", 2, "usage error: "),
    (3, 3, "1e300,0,0", 2, "usage error: "),
    (3, 3, "1e9,0,0", 1, "error: "),  # below 2^52, but about 1.6e10 inner nodes in the first shell
], ids=["k2-1e160", "k2-1e308", "k3-1e300", "k3-1e9"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_surface_frequencies(capsys, monkeypatch, n, k, eta, code, prefix):
    """One error line, before any shell is evaluated and without numpy warnings."""
    from wglab import oscint

    monkeypatch.setattr(oscint, "_shell_sums", lambda *args: pytest.fail("evaluated a shell"))
    assert main(["surface", "--n", str(n), "--k", str(k), "--eta", eta]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
    if code == 2:
        assert "2^52" in captured.err


@pytest.fixture
def no_sieve(monkeypatch):
    """Make the library's only sieve fail, for requests that must be refused before it."""
    def refuse(limit):
        raise AssertionError(f"sieved to {limit} for a request that cannot run")

    monkeypatch.setattr("wglab.surface.sieve_primes", refuse)


@pytest.mark.parametrize("argv", [
    ["weyl", "--k", "2", "--n", "5", "--xi", "0.1,0.2,0,0,0", "--lambda-min", "1", "--blocks", "60"],
    ["delta-probe", "--k", "2", "--n", "5", "--exp-lo", "12", "--exp-hi", "60"],
    ["hua", "--k", "2", "--n", "5", "--lo", "10", "--hi", str(2**60)],
    ["approx", "--k", "2", "--n", "5", "--lambda-min", "4096", "--blocks", "48"],
], ids=["weyl", "delta-probe", "hua", "approx"])
def test_oversized_range_refused_before_sieving(capsys, no_sieve, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_library_refuses_oversized_range_before_sieving(no_sieve):
    with pytest.raises(MemoryError):
        weyl_decay_scan(2, 5, (0.1, 0.2, 0, 0, 0), 1, 60)
    with pytest.raises(MemoryError):
        delta_scaling_probe(2, 5, 1.2, [2**12, 2**60])


@pytest.mark.parametrize("lam", ["10000000000000000", "100000000000000000", "10000000000000000000"])
def test_oversized_enumeration_refused_before_sieving(capsys, no_sieve, lam):
    assert main(["points", "--k", "2", "--n", "3", "--lambda", lam]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: ")
    assert captured.out == ""


def test_delta_probe_single_cutoff_prints_no_slope(capsys):
    doc = run_json(
        capsys, "delta-probe", "--k", "2", "--n", "5", "--p", "1.2", "--exp-lo", "9", "--exp-hi", "9",
    )
    assert set(doc["scalars"]) == {"p"}
    assert len(doc["table"]["rows"]) == 1 and doc["table"]["rows"][0][1] > 0


@pytest.mark.parametrize("p", ["8", "1000"])
def test_delta_probe_refuses_a_norm_below_its_fft_roundoff(capsys, p):
    # p = 8 on [0, 4096] printed NaN: a sum of p-th powers went negative
    assert main(["delta-probe", "--k", "2", "--n", "5", "--p", p, "--exp-lo", "10", "--exp-hi", "12"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_sweeps_skip_empty_blocks(capsys):
    doc = run_json(
        capsys, "approx", "--k", "3", "--n", "5", "--lambda-min", "8", "--blocks", "4",
        "--per-block", "1", "--xi-count", "1",
    )
    assert [row[0] for row in doc["table"]["rows"]] == [32, 64]
    assert all(row[2] > 0 and row[3] > 0 for row in doc["table"]["rows"])
    doc = run_json(
        capsys, "weyl", "--k", "3", "--n", "5", "--xi", "0.3,0.1,0,0,0", "--lambda-min", "8",
        "--blocks", "5",
    )
    rows = doc["table"]["rows"]
    assert [row[0] for row in rows] == [32, 64, 128]
    assert doc["scalars"]["final_max"] == rows[-1][3] > 0


def test_hua_range_without_admissible_lam(capsys):
    # 100 is not 5 mod 24, so [100, 101) holds no admissible lam for (k, n) = (2, 5)
    assert main(["hua", "--k", "2", "--n", "5", "--lo", "100", "--hi", "101"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_p_accepts_inf_spellings(capsys):
    doc = run_json(
        capsys, "maximal", "--k", "2", "--n", "5", "--lams", "77", "--p", "Inf,2",
    )
    assert set(doc["scalars"]) == {"maximal_norm_pinf", "maximal_norm_p2"}
    doc = run_json(
        capsys, "delta-probe", "--k", "2", "--n", "5", "--p", "inf",
        "--exp-lo", "9", "--exp-hi", "9",
    )
    assert doc["config"]["p"] == "inf"
    assert doc["table"]["rows"][0][1] <= 1.0


def test_output_into_missing_directory(capsys, tmp_path):
    out = tmp_path / "missing" / "probe.json"
    code = main(["gsum", "--a", "1", "--q", "2", "--b", "1", "--r", "4", "--k", "2",
                 "--output", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


_DEFAULTS = {"format": "json", "output": None, "plot": False}
_INSTANCE = {"k": 2, "n": 5, "lam": 77}

# (least argv, parsed namespace); the namespace is the JSON "config" block
CONFIG_PINS = [
    (["points", "--k", "2", "--n", "5", "--lambda", "77"], _INSTANCE),
    (["fourier", "--k", "2", "--n", "5", "--lambda", "77", "--xi", "0,0,0,0,0"],
     {**_INSTANCE, "xi": "0,0,0,0,0"}),
    (["gsum", "--a", "1", "--q", "2", "--b", "1", "--r", "4", "--k", "2"],
     {"a": 1, "q": 2, "b": 1, "r": 4, "k": 2}),
    (["singular", "--k", "2", "--n", "5", "--lambda", "77"],
     {**_INSTANCE, "qsing": 100, "avec": None, "qvec": None}),
    (["surface", "--n", "2", "--k", "2", "--eta", "0,0"],
     {"n": 2, "k": 2, "lam0": 1.0, "eta": "0,0"}),
    (["arcs", "--theta", "0.5", "--X", "1000", "--Q", "10"],
     {"theta": 0.5, "X": 1000.0, "Q": 10.0, "count": 8}),
    (["approx", "--k", "2", "--n", "5"],
     {"k": 2, "n": 5, "lam_min": 4096, "blocks": 5, "per_block": 6, "xi_count": 32,
      "C": 2.0, "qsing": 100, "seed": 7}),
    (["hua", "--k", "2", "--n", "5"],
     {"k": 2, "n": 5, "lo": 10000, "hi": 100000, "samples": 50, "qsing": 100, "cache_dir": None}),
    (["maximal", "--k", "2", "--n", "5", "--lams", "77"],
     {"k": 2, "n": 5, "lams": "77", "K": 4, "p": "2,inf", "input": "delta", "seed": 7}),
    (["delta-probe", "--k", "2", "--n", "5"],
     {"k": 2, "n": 5, "p": "1.2", "exp_lo": 12, "exp_hi": 16}),
    (["ergodic", "--k", "2", "--n", "5", "--lambda", "77", "--alpha", "0.1,0.2,0.3,0.4,0.5",
      "--m", "1,0,0,0,0", "--x", "0,0,0,0,0"],
     {**_INSTANCE, "alpha": "0.1,0.2,0.3,0.4,0.5", "m": "1,0,0,0,0", "x": "0,0,0,0,0"}),
    (["weyl", "--k", "2", "--n", "5", "--xi", "0.5,0.5,0.5,0.5,0.5"],
     {"k": 2, "n": 5, "xi": "0.5,0.5,0.5,0.5,0.5", "lam_min": 1000, "blocks": 7}),
    (["equidist", "--k", "2", "--n", "5", "--lambda", "77", "--alpha", "0.1,0.2,0.3,0.4,0.5"],
     {**_INSTANCE, "alpha": "0.1,0.2,0.3,0.4,0.5", "boxes": 10000, "seed": 7}),
    (["meanvalue", "--N", "2", "--s", "2", "--k", "2"], {"N": 2, "s": 2, "k": 2}),
]


@pytest.mark.parametrize("argv, fields", CONFIG_PINS, ids=[argv[0] for argv, _ in CONFIG_PINS])
def test_parsed_config_is_pinned(argv, fields):
    typed = lambda d: {k: (v, type(v)) for k, v in d.items()}  # 1000 == 1000.0, so types too
    args = build_parser().parse_args(argv)
    assert typed(vars(args)) == typed({**_DEFAULTS, "command": argv[0], **fields})
