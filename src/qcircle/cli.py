"""Command-line front end.

Grammar: qcircle <eval|verify|gram> [subject] [flags]

  eval    print function values at user-supplied points
  verify  run an identity suite (szego | biortho | sears | qsl | all)
  gram    emit a Gram matrix with closed-form columns and residuals

Exit codes: 0 all checks passed, 1 a verified identity failed, 2 bad
configuration (the violated invariant is named on stderr).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import biortho, suites, szego
from .errors import QCircleError
from .qcore import theta_sum
from .report import re_im
from .suites import SuiteConfig


def parse_complex(text: str) -> complex:
    """Parse `re+imi` syntax, e.g. 0.3, 0.3+0.1i, -0.2i, 2+1i."""
    s = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse complex number {text!r}; use re+imi syntax")


def tolerance(text: str) -> float:
    """--tol: finite and > 0 (0 or NaN fails every check, inf passes all)."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be finite and > 0, got {text}")
    return value


def max_degree(text: str) -> int:
    """--max-n: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"max-n must be >= 0, got {value}")
    return value


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--q", type=float, default=0.5, help="base q in (0,1)")
    p.add_argument("--grid", type=int, default=256, dest="grid_size",
                   help="number of quadrature nodes on |z|=1")
    p.add_argument("--tol", type=tolerance, default=None,
                   help="override the quadrature tolerance")
    p.add_argument("--format", choices=("json", "csv", "text"),
                   default="text", dest="output_format")
    p.add_argument("--out", type=str, default=None, metavar="FILE",
                   help="write the report to FILE instead of stdout")


def _add_biortho_flags(p: argparse.ArgumentParser):
    p.add_argument("--a", type=parse_complex, default=None)
    p.add_argument("--alpha", type=parse_complex, default=None)
    p.add_argument("--b", type=parse_complex, default=None)
    p.add_argument("--beta", type=parse_complex, default=None)
    p.add_argument("--params", type=str, default=None,
                   help="CSV shorthand a,alpha,b,beta")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcircle",
        description="Evaluate and numerically certify unit-circle "
                    "orthogonal polynomials, biorthogonal rational "
                    "functions, and their ladder-operator identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a function at a point")
    pe.add_argument("subject",
                    choices=("szego", "rn", "sn", "weight", "bweight",
                             "kappa", "theta"))
    pe.add_argument("--n", type=int, default=0)
    pe.add_argument("--z", type=parse_complex, default=complex(1.0))
    _add_biortho_flags(pe)
    _add_common(pe)

    pv = sub.add_parser("verify", help="run an identity suite")
    pv.add_argument("suite", choices=("szego", "biortho", "sears", "qsl", "all"))
    pv.add_argument("--max-n", type=max_degree, default=5, dest="max_n")
    pv.add_argument("--n", type=max_degree, default=None,
                    help="alias for --max-n")
    pv.add_argument("--seed", type=int, default=0)
    _add_biortho_flags(pv)
    _add_common(pv)

    pg = sub.add_parser("gram", help="emit a Gram matrix table")
    pg.add_argument("subject", choices=("szego", "biortho"))
    pg.add_argument("--max-n", type=max_degree, default=4, dest="max_n")
    pg.add_argument("--seed", type=int, default=0)
    _add_biortho_flags(pg)
    _add_common(pg)

    return parser


def biortho_params_from_args(args) -> biortho.BiorthoParams:
    if args.params is not None:
        parts = [p for p in args.params.split(",") if p.strip()]
        if len(parts) != 4:
            raise ValueError("--params expects exactly four comma-separated "
                             "values a,alpha,b,beta")
        a, alpha, b, beta = (parse_complex(p) for p in parts)
        return biortho.BiorthoParams(a, alpha, b, beta, args.q)
    vals = [args.a, args.alpha, args.b, args.beta]
    if all(v is None for v in vals):
        return biortho.BiorthoParams(0.3, 0.2, 0.4, 0.1, args.q)
    if any(v is None for v in vals):
        raise ValueError("give all of --a --alpha --b --beta, or --params")
    return biortho.BiorthoParams(args.a, args.alpha, args.b, args.beta, args.q)


def _fmt_complex(v: complex) -> str:
    return f"{v.real:+.12e}{v.imag:+.12e}i"


def _emit(text: str, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def cmd_eval(args) -> int:
    z = args.z
    if args.subject == "szego":
        value = szego.szego_poly(args.n, args.q)(z)
        label = f"H_{args.n}({_fmt_complex(z)} | q={args.q})"
    elif args.subject == "weight":
        value = szego.szego_weight(z, args.q)
        label = f"w_c({_fmt_complex(z)} | q={args.q})"
    elif args.subject == "theta":
        value = theta_sum(z, args.q)
        label = f"theta({_fmt_complex(z)}, q={args.q})"
    else:
        p = biortho_params_from_args(args)
        if args.subject == "rn":
            value = biortho.r_fn(args.n, z, p)
            label = f"r_{args.n}({_fmt_complex(z)})"
        elif args.subject == "sn":
            value = biortho.s_fn(args.n, z, p)
            label = f"s_{args.n}({_fmt_complex(z)})"
        elif args.subject == "bweight":
            value = biortho.biortho_weight(z, p)
            label = f"w({_fmt_complex(z)})"
        else:  # kappa: closed form and quadrature side by side
            closed = biortho.kappa_closed(p)
            from .circle import CircleGrid, contour_mean
            quad = contour_mean(lambda t: biortho.biortho_weight(t, p),
                                CircleGrid(args.grid_size))
            doc = {"kappa_closed": closed, "kappa_quadrature": quad,
                   "abs_difference": abs(closed - quad)}
            if args.output_format == "json":
                _emit(json.dumps(doc, indent=2, default=re_im), args.out)
            else:
                _emit("\n".join(
                    f"{k} = {_fmt_complex(v) if isinstance(v, complex) else v}"
                    for k, v in doc.items()), args.out)
            return 0
    value = complex(value)
    if args.output_format == "json":
        _emit(json.dumps({"label": label, "value": value}, indent=2,
                         default=re_im), args.out)
    else:
        _emit(f"{label} = {_fmt_complex(value)}", args.out)
    return 0


def cmd_verify(args) -> int:
    max_n = args.max_n if args.n is None else args.n
    cfg = SuiteConfig(
        q=args.q, max_n=max_n, grid_size=args.grid_size,
        tolerance=1e-10 if args.tol is None else args.tol,
        params=(biortho_params_from_args(args)
                if args.suite in ("biortho", "all") else None),
        seed=args.seed, output_format=args.output_format)
    reports = suites.run_suite(args.suite, cfg)
    _emit(suites.render(args.suite, cfg, reports), args.out)
    return 0 if suites.summarize(reports)["failed"] == 0 else 1


def _gram_rows(G, expected):
    rows = []
    for m in range(G.shape[0]):
        for n in range(G.shape[1]):
            exp = expected[n] if m == n else 0.0
            rows.append({
                "m": m, "n": n,
                "computed": complex(G[m, n]),
                "expected": complex(exp),
                "residual": abs(G[m, n] - exp),
            })
    return rows


def cmd_gram(args) -> int:
    from .circle import CircleGrid
    grid = CircleGrid(args.grid_size)
    tol = 1e-9 if args.tol is None else args.tol
    if args.subject == "szego":
        G, report = szego.szego_gram(args.max_n, args.q, grid, tol)
        expected = [szego.szego_norm(n, args.q) for n in range(args.max_n + 1)]
    else:
        p = biortho_params_from_args(args)
        G, report = biortho.biortho_gram(args.max_n, p, grid, tol)
        expected = [biortho.biortho_norm(n, p) for n in range(args.max_n + 1)]
    rows = _gram_rows(G, expected)
    if args.output_format == "json":
        doc = {"subject": args.subject, "grid_size": grid.n_nodes,
               "rows": rows, "report": report.as_dict()}
        _emit(json.dumps(doc, indent=2, sort_keys=True, default=re_im),
              args.out)
    elif args.output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["m", "n", "computed_re", "computed_im",
                         "expected_re", "expected_im", "residual"])
        for r in rows:
            writer.writerow([r["m"], r["n"],
                             repr(r["computed"].real), repr(r["computed"].imag),
                             repr(r["expected"].real), repr(r["expected"].imag),
                             repr(r["residual"])])
        _emit(buf.getvalue(), args.out)
    else:
        lines = [f"{args.subject} Gram matrix, N={grid.n_nodes}",
                 f"{'m':>3} {'n':>3} {'computed':>28} {'expected':>28} "
                 f"{'residual':>12}"]
        for r in rows:
            lines.append(f"{r['m']:>3} {r['n']:>3} "
                         f"{_fmt_complex(r['computed']):>28} "
                         f"{_fmt_complex(r['expected']):>28} "
                         f"{r['residual']:>12.3e}")
        lines.append(f"[{'PASS' if report.passed else 'FAIL'}] "
                     f"residual={report.residual:.3e} tol={tol:.1e}")
        _emit("\n".join(lines), args.out)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_gram(args)
    except (ValueError, QCircleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
