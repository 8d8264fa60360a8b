"""Batch command-line front end.

Every subcommand wraps one library operation, embeds its fully resolved
configuration in the output header, and emits the same numeric payload as
JSON (schema 1) or CSV.  Optional SVG line charts are drawn from the same
series as the table.  Numbers are serialized with 15 significant digits;
complex values split into re/im fields.
"""

import argparse
import json
import os
import statistics  # numpy.median imports numpy.ma, 15 ms of a fresh process
import sys

import numpy as np

from .arcs import ArcSystem, convergents, dirichlet_approx, major_arc_membership, torus_distance
from .errors import InputError, NumericError, UndefinedMeasureError
from .expsums import GSumQuery, count_vinogradov_system, g_sum
from .ergodic import (
    TorusSystem,
    TrigPolynomial,
    discrepancy,
    ergodic_average,
    orbit_points,
    weyl_decay_scan,
)
from .maxops import GridFunction, delta_scaling_probe, lp_norm, maximal
from .oscint import SurfaceQuery, singular_integral, surface_transform
from .surface import (
    ApproxParams,
    ProblemInstance,
    admissible_mask,
    enumerate_prime_points,
    error_term,
    gamma_membership,
    hua_series_ratios,
    omega_hat,
    rep_totals_at,
    sample_admissible_lams,
    singular_series,
)

SCHEMA_VERSION = 1


def _r15(x: float) -> float:
    return float(f"{float(x):.15g}")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.15g}"
    return str(x)


def _round_payload(obj):
    if isinstance(obj, float):
        return _r15(obj)
    if isinstance(obj, dict):
        return {k: _round_payload(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_payload(v) for v in obj]
    return obj


def _parse_list(text: str, kind, finite: bool = True) -> list:
    """Comma-separated values; floats must be finite unless ``finite`` is False."""
    try:
        values = [kind(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise InputError(f"could not parse {kind.__name__} list {text!r}") from exc
    if finite and kind is float and not np.isfinite(values).all():
        raise InputError(f"float list {text!r} holds nan or inf")
    return values


def _emit_json(config, scalars, table) -> str:
    payload = {
        "schema": SCHEMA_VERSION,
        "config": config,
        "scalars": scalars,
        "table": {"columns": table[0], "rows": table[1]},
    }
    return json.dumps(_round_payload(payload), sort_keys=True, separators=(",", ":")) + "\n"


def _emit_csv(config, scalars, table) -> str:
    lines = [f"# schema={SCHEMA_VERSION}"]
    lines.append("# config=" + json.dumps(_round_payload(config), sort_keys=True, separators=(",", ":")))
    for name in sorted(scalars):
        lines.append(f"# scalar,{name},{_fmt(scalars[name])}")
    columns, rows = table
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _emit_svg(table, title: str) -> str:
    """Static polyline chart of every numeric column against the first one."""
    columns, rows = table
    width, height, margin = 640, 400, 50
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="black"/>',
    ]
    if rows and len(columns) >= 2:
        xs = [float(r[0]) for r in rows]
        xmin, xmax = min(xs), max(xs)
        xspan = (xmax - xmin) or 1.0
        palette = ["steelblue", "firebrick", "seagreen", "darkorange", "purple"]
        for ci in range(1, len(columns)):
            ys = [float(r[ci]) for r in rows]
            ymin, ymax = min(ys), max(ys)
            yspan = (ymax - ymin) or 1.0
            pts = []
            for x, y in zip(xs, ys):
                px = margin + (x - xmin) / xspan * (width - 2 * margin)
                py = height - margin - (y - ymin) / yspan * (height - 2 * margin)
                pts.append(f"{px:.2f},{py:.2f}")
            color = palette[(ci - 1) % len(palette)]
            parts.append(
                f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}"/>'
            )
            parts.append(
                f'<text x="{width - margin}" y="{margin + 15 * ci}" text-anchor="end" '
                f'font-size="11" fill="{color}">{columns[ci]}</text>'
            )
        parts.append(
            f'<text x="{margin}" y="{height - margin + 20}" font-size="11">{columns[0]}: '
            f"{_fmt(_r15(xmin))} .. {_fmt(_r15(xmax))}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _complex_scalars(prefix: str, z: complex) -> dict:
    return {f"{prefix}_re": float(z.real), f"{prefix}_im": float(z.imag), f"{prefix}_abs": abs(z)}


def _dyadic_top(args) -> int:
    """lam_min 2^blocks, the end of the dyadic blocks, once --lambda-min and --blocks are checked.

    Block j is [lam_min 2^j, lam_min 2^(j+1)).
    """
    if args.lam_min < 1:
        raise InputError("--lambda-min must be >= 1")
    if args.blocks < 1:
        raise InputError("--blocks must be >= 1")
    return args.lam_min * 2**args.blocks


def _measures(args, lams):
    """Prime points of each lam at --k/--n."""
    return [enumerate_prime_points(ProblemInstance(k=args.k, n=args.n, lam=lam)) for lam in lams]


# --- subcommand implementations -------------------------------------------


def _cmd_points(args):
    [measure] = _measures(args, [args.lam])
    inst = measure.instance
    scalars = {"r": measure.r, "R": measure.R, "gamma": gamma_membership(inst).label()}
    columns = [f"x{i + 1}" for i in range(inst.n)]
    rows = [[int(v) for v in row] for row in measure.representations]
    return scalars, (columns, rows)


def _cmd_fourier(args):
    xi = _parse_list(args.xi, float)
    if len(xi) != args.n:
        raise InputError("--xi must have n entries")
    [measure] = _measures(args, [args.lam])
    value = omega_hat(measure, xi)
    scalars = {"r": measure.r, "R": measure.R, **_complex_scalars("omega_hat", value)}
    return scalars, (["field", "value"], [])


def _cmd_gsum(args):
    value = g_sum(GSumQuery(a=args.a, q=args.q, b=args.b, r=args.r, k=args.k))
    return _complex_scalars("g", value), (["value_re", "value_im"], [[value.real, value.imag]])


def _cmd_singular(args):
    avec = _parse_list(args.avec, int) if args.avec else [0] * args.n
    qvec = _parse_list(args.qvec, int) if args.qvec else [1] * args.n
    [series] = singular_series(args.k, args.n, [args.lam], avec, qvec, args.qsing)
    return _complex_scalars("series", series), (["field", "value"], [])


def _cmd_surface(args):
    eta = _parse_list(args.eta, float)
    res = surface_transform(SurfaceQuery(n=args.n, k=args.k, lam0=args.lam0, eta=tuple(eta)))
    scalars = {
        **_complex_scalars("value", res.value),
        "quad_error": res.quad_error,
        "tail_estimate": res.tail_estimate,
        "tail_warning": int(res.tail_warning),
        "theta_max": res.theta_max,
    }
    return scalars, (["field", "value"], [])


def _cmd_arcs(args):
    system = ArcSystem(X=args.X, Q=args.Q)
    center = major_arc_membership(args.theta, system)
    approx = dirichlet_approx(args.theta, args.Q)
    theta = args.theta % 1.0
    convs = convergents(theta, args.count)
    scalars = {
        "major": int(center is not None),
        "center_a": center.a if center else -1,
        "center_q": center.q if center else -1,
        "dirichlet_a": approx.a,
        "dirichlet_q": approx.q,
        "dirichlet_err": torus_distance(approx.q * theta),
    }
    rows = [[i, c.a, c.q, abs(c.q * theta - c.a)] for i, c in enumerate(convs)]
    return scalars, (["index", "a", "q", "abs_err"], rows)


def _cmd_approx(args):
    if args.xi_count < 1:
        raise InputError("--xi-count must be >= 1")
    lam_top = _dyadic_top(args)
    mask = admissible_mask(args.k, args.n, lam_top - 1)
    xi_sample = np.random.default_rng(args.seed).random((args.xi_count, args.n))

    def block_row(lo, hi, lams):
        errs, zeros = [], []
        for lam in lams:
            inst = ProblemInstance(k=args.k, n=args.n, lam=lam)
            measure = enumerate_prime_points(inst)
            params = ApproxParams.for_instance(inst, C=args.C, Qsing=args.qsing)
            for xi in xi_sample:
                errs.append(abs(error_term(measure, params, xi)))
            zeros.append(abs(error_term(measure, params, np.zeros(args.n))))
        return [lo, hi, len(lams), statistics.median(errs), float(max(errs)), float(max(zeros))]

    rows = []
    for j in range(args.blocks):
        lo, hi = args.lam_min * 2**j, args.lam_min * 2 ** (j + 1)
        lams = sample_admissible_lams(mask, lo, hi, args.per_block)
        if lams:  # a block without admissible lam has no error to report
            rows.append(block_row(lo, hi, lams))
    if not rows:
        raise UndefinedMeasureError(f"no dyadic block from {args.lam_min} holds an admissible lam")
    medians = [row[3] for row in rows]
    scalars = {
        "medians_non_increasing": int(
            all(medians[i + 1] <= medians[i] for i in range(len(medians) - 1))
        ),
        "max_err_at_zero": max(row[5] for row in rows),
    }
    columns = ["lam_lo", "lam_hi", "n_lams", "median_abs_err", "max_abs_err", "max_err_zero"]
    return scalars, (columns, rows)


def _cmd_hua(args):
    k, n = args.k, args.n
    hi = max(args.hi, 1)  # sample_admissible_lams refuses --hi < 1 with a usage error
    mask = admissible_mask(k, n, hi - 1)
    lams = sample_admissible_lams(mask, args.lo, args.hi, args.samples)
    if not lams:
        raise UndefinedMeasureError(f"no admissible lam with a prime solution in [{args.lo}, {args.hi})")
    rs, Rs = rep_totals_at(k, n, lams)
    rows = [
        [lam, r, R, series.real, ratio]
        for lam, r, R, (series, ratio) in zip(lams, rs, Rs, hua_series_ratios(k, n, lams, Rs, Qsing=args.qsing))
    ]
    ratios = [row[4] for row in rows]
    in_band = [r for r in ratios if 0.7 <= r <= 1.3]
    scalars = {
        "mu_inf": singular_integral(n, k, 1.0),
        "n_samples": len(rows),
        "band_fraction": len(in_band) / len(ratios),
        "median_ratio": statistics.median(ratios),
    }
    return scalars, (["lambda", "r", "R", "series_re", "ratio"], rows)


def _cmd_maximal(args):
    if args.K < 1:
        raise InputError("--K must be >= 1")
    lams = _parse_list(args.lams, int)
    if not lams:
        raise InputError("--lams needs at least one lam")
    ps = _parse_list(args.p, float, finite=False)  # inf is the sup norm
    measures = [m for m in _measures(args, lams) if m.R > 0]
    if not measures:
        raise UndefinedMeasureError("no lam in the list has prime solutions")
    if args.input == "delta":
        f = GridFunction.delta(args.n, args.K)
    else:
        f = GridFunction.zeros(args.n, args.K, dtype=float)
        np.random.default_rng(args.seed).standard_normal(out=f.values)
    report = maximal(f, measures, ps)
    scalars = {f"maximal_norm_p{p:g}": lp_norm(report.sup, p) for p in ps}
    rows = [[m.instance.lam, m.r, *norms] for m, norms in zip(measures, report.norms)]
    columns = ["lambda", "r"] + [f"norm_p{p:g}" for p in ps]
    return scalars, (columns, rows)


def _cmd_delta_probe(args):
    ps = _parse_list(args.p, float, finite=False)  # inf is the sup norm
    if len(ps) != 1:
        raise InputError("--p must be a single exponent")
    if not 0 <= args.exp_lo <= args.exp_hi:
        raise InputError("need 0 <= --exp-lo <= --exp-hi")
    p = ps[0]
    lam_values = [2**e for e in range(args.exp_lo, args.exp_hi + 1)]
    report = delta_scaling_probe(args.k, args.n, p, lam_values)
    scalars = {"p": float(p)}
    if report.slope is not None:  # one cutoff, or a norm of 0, leaves nothing to fit
        scalars["slope"] = report.slope
    rows = [[lam, norm] for lam, norm in zip(report.lam_values, report.norms)]
    return scalars, (["lambda_max", "norm"], rows)


def _cmd_ergodic(args):
    alpha = _parse_list(args.alpha, float)
    m = _parse_list(args.m, int)
    x = _parse_list(args.x, float)
    if not len(alpha) == len(m) == len(x) == args.n:
        raise InputError("--alpha, --m, --x must each have n entries")
    [measure] = _measures(args, [args.lam])
    system = TorusSystem(alpha=tuple(alpha))
    f = TrigPolynomial.harmonic(m)
    value = ergodic_average(system, f, measure, x)
    freq = [mi * ai for mi, ai in zip(m, alpha)]
    scalars = {
        **_complex_scalars("average", value),
        "transform_abs": abs(omega_hat(measure, freq)),
        "r": measure.r,
    }
    return scalars, (["field", "value"], [])


def _cmd_weyl(args):
    xi = _parse_list(args.xi, float)
    _dyadic_top(args)  # its usage errors name --lambda-min and --blocks
    blocks = weyl_decay_scan(args.k, args.n, xi, args.lam_min, args.blocks)
    rows = [[b.lam_lo, b.lam_hi, b.count, b.max_abs, b.argmax_lam] for b in blocks]
    maxima = [b.max_abs for b in blocks]
    scalars = {
        "non_increasing": int(all(maxima[i + 1] <= maxima[i] for i in range(len(maxima) - 1))),
        "final_max": maxima[-1],
    }
    return scalars, (["lam_lo", "lam_hi", "count", "max_abs", "argmax_lam"], rows)


def _cmd_equidist(args):
    alpha = _parse_list(args.alpha, float)
    if len(alpha) != args.n:
        raise InputError("--alpha must have n entries")
    [measure] = _measures(args, [args.lam])
    if measure.r == 0:
        raise UndefinedMeasureError("no solutions; nothing to equidistribute")
    pts = orbit_points(measure, alpha)
    est = discrepancy(pts, num_boxes=args.boxes, seed=args.seed)
    return {"discrepancy": est, "n_points": measure.r}, (["field", "value"], [])


def _cmd_meanvalue(args):
    count = count_vinogradov_system(args.N, args.s, args.k)
    return {"count": count}, (["field", "value"], [])


def _arg(*flags, **kwargs):
    """One add_argument call, kept as data."""
    return flags, kwargs


_K = _arg("--k", type=int, required=True)
_N = _arg("--n", type=int, required=True)
_KN = (_K, _N)
_INSTANCE = (_K, _N, _arg("--lambda", dest="lam", type=int, required=True))
_XI = _arg("--xi", required=True, help="comma-separated, n entries")
_QSING = _arg("--qsing", type=int, default=100)
_SEED = _arg("--seed", type=int, default=7, help="seed of the command's random sample")
_COMMON = (
    _arg("--format", choices=["json", "csv"], default="json"),
    _arg("--output", default=None, help="write payload to this path instead of stdout"),
    _arg("--plot", action="store_true", help="also write an SVG chart next to --output"),
)

# name -> (handler, help text, arguments beyond _COMMON)
_COMMANDS = {
    "points": (_cmd_points, "enumerate prime solutions; columns x1..xn", _INSTANCE),
    "fourier": (_cmd_fourier, "transform of the solution measure at --xi", _INSTANCE + (_XI,)),
    "gsum": (_cmd_gsum, "complete unit-group exponential sum g(a,q;b,r)", (
        _arg("--a", type=int, required=True), _arg("--q", type=int, required=True),
        _arg("--b", type=int, required=True), _arg("--r", type=int, required=True),
        _K,
    )),
    "singular": (_cmd_singular, "singular series at a center, truncated: the sum over q <= --qsing, with no error figure", _INSTANCE + (
        _QSING,
        _arg("--avec", default=None, help="comma-separated numerators"),
        _arg("--qvec", default=None, help="comma-separated denominators"),
    )),
    "surface": (_cmd_surface, "surface transform at --eta, with error/tail report", (
        _N, _K,
        _arg("--lambda0", dest="lam0", type=float, default=1.0),
        _arg("--eta", required=True, help="comma-separated, n entries"),
    )),
    "arcs": (_cmd_arcs, "arc membership, best rational, convergents; columns index,a,q,abs_err", (
        _arg("--theta", type=float, required=True),
        _arg("--X", type=float, required=True), _arg("--Q", type=float, required=True),
        _arg("--count", type=int, default=8),
    )),
    "approx": (_cmd_approx, "error-term block sweep; columns lam_lo,lam_hi,n_lams,median_abs_err,max_abs_err,max_err_zero", _KN + (
        _arg("--lambda-min", dest="lam_min", type=int, default=4096),
        _arg("--blocks", type=int, default=5),
        _arg("--per-block", dest="per_block", type=int, default=6),
        _arg("--xi-count", dest="xi_count", type=int, default=32),
        _arg("--C", type=float, default=2.0),
        _QSING, _SEED,
    )),
    "hua": (_cmd_hua, "count/prediction ratio sweep; columns lambda,r,R,series_re,ratio", _KN + (
        _arg("--lo", type=int, default=10_000), _arg("--hi", type=int, default=100_000),
        _arg("--samples", type=int, default=50),
        _QSING,
        _arg("--cache-dir", default=None, help="ignored: nothing is cached; accepted for old scripts"),
    )),
    "maximal": (_cmd_maximal, "maximal function norms; columns lambda,r,norm_p*", _KN + (
        _arg("--lams", required=True, help="comma-separated lam list"),
        _arg("--K", type=int, default=4),
        _arg("--p", default="2,inf", help="comma-separated exponents"),
        _arg("--input", choices=["delta", "random"], default="delta"), _SEED,
    )),
    "delta-probe": (_cmd_delta_probe, "norm growth of the delta maximal probe; columns lambda_max,norm", _KN + (
        _arg("--p", default="1.2"),
        _arg("--exp-lo", dest="exp_lo", type=int, default=12),
        _arg("--exp-hi", dest="exp_hi", type=int, default=16),
    )),
    "ergodic": (_cmd_ergodic, "torus rotation average of one harmonic", _INSTANCE + (
        _arg("--alpha", required=True, help="rotation vector, n entries"),
        _arg("--m", required=True, help="harmonic frequency, n integers"),
        _arg("--x", required=True, help="base point, n entries"),
    )),
    "weyl": (_cmd_weyl, "dyadic block maxima of |transform|; columns lam_lo,lam_hi,count,max_abs,argmax_lam", _KN + (
        _XI,
        _arg("--lambda-min", dest="lam_min", type=int, default=1000),
        _arg("--blocks", type=int, default=7),
    )),
    "equidist": (_cmd_equidist, "star-discrepancy estimate of the scaled solution set", _INSTANCE + (
        _arg("--alpha", required=True, help="scaling vector, n entries"),
        _arg("--boxes", type=int, default=10_000), _SEED,
    )),
    "meanvalue": (_cmd_meanvalue, "brute-force power-sum system count", (
        _arg("--N", type=int, required=True), _arg("--s", type=int, required=True), _K,
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wg",
        description="Batch runner for the prime-point surface laboratory.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, arguments) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text, description=help_text)
        for flags, kwargs in _COMMON + arguments:
            sub.add_argument(*flags, **kwargs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler, _, arguments = _COMMANDS[args.command]
    config = {k: v for k, v in sorted(vars(args).items())}
    try:
        for flags, kwargs in arguments:  # argparse's float() accepts nan and inf
            if kwargs.get("type") is float and not np.isfinite(getattr(args, kwargs.get("dest", flags[0][2:]))):
                raise InputError(f"{flags[0]} must be a finite number")
        if _N in arguments and min(args.k, args.n) < 2:  # before any handler sieves
            raise InputError("need k >= 2, n >= 2")
        scalars, table = handler(args)
    except InputError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, UndefinedMeasureError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = (
        _emit_json(config, scalars, table)
        if args.format == "json"
        else _emit_csv(config, scalars, table)
    )
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
            if args.plot:
                base, _ = os.path.splitext(args.output)
                with open(base + ".svg", "w") as fh:
                    fh.write(_emit_svg(table, args.command))
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
        if args.plot:
            print("note: --plot needs --output; skipped", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
