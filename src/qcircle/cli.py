"""Command-line front end.

Grammar: qcircle <eval|verify|gram> [subject] [flags]

  eval    print function values at user-supplied points
  verify  run an identity suite (szego | biortho | sears | qsl | all)
  gram    emit a Gram matrix with closed-form columns and residuals

Exit codes: 0 all checks passed, 1 a verified identity failed, 2 bad
configuration, an unwritable --out or an unrepresentable value (on stderr).
"""

from __future__ import annotations

import argparse
import cmath
import functools
import math
import shutil
import sys

import numpy as np

from . import biortho, suites, szego
from .circle import CircleGrid
from .errors import QCircleError
from .qcore import QUADRATURE_TOL, theta_rounding, theta_sum
from .report import to_csv, to_json, worst
from .suites import SuiteConfig


def parse_complex(text: str) -> complex:
    """Parse `re+imi` syntax, e.g. 0.3, 0.3+0.1i, -0.2i, 2+1i; finite only."""
    s = text.strip().replace(" ", "").replace("i", "j")
    try:
        value = complex(s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse complex number {text!r}; use re+imi syntax")
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"complex number must be finite, got {text!r}")
    return value


def four_params(text: str) -> tuple:
    """--params: the four complex numbers a,alpha,b,beta."""
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "expected four comma-separated values a,alpha,b,beta, "
            f"got {text!r}")
    return tuple(parse_complex(p) for p in parts)


def tolerance(text: str) -> float:
    """--tol: finite and > 0 (0 or NaN fails every check, inf passes all)."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be finite and > 0, got {text}")
    return value


def nonnegative(name: str):
    """The argparse type of --max-n and --seed: an integer >= 0."""
    def integer(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"{name} must be >= 0, got {value}")
        return value
    return integer


max_n, seed = nonnegative("max-n"), nonnegative("seed")

# numpy's ufunc buffer while a command runs.  A row broadcast over 256-point
# rows (q-product, Horner, Gram passes) copies through it: 1.4-1.7 ns/element
# at numpy's 8192, 0.5-0.6 here, 1.2 at 1024 (numpy 2.4.6, an x86-64 core).
UFUNC_BUFSIZE = 512

# The subjects with a rational family, the only ones that take --params.
RATIONAL_SUBJECTS = ("rn", "sn", "bweight", "kappa", "biortho", "all")

# The eval subjects that read each flag some eval subjects ignore.
EVAL_READERS = {"--n": ("szego", "rn", "sn"),
                "--z": ("szego", "rn", "sn", "weight", "bweight", "theta"),
                "--grid": ("kappa",)}


class Given(argparse.Action):
    """argparse's store action that also lists the flag in `given`, so that
    main can refuse a flag the eval subject does not read."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", ()) + (
            self.option_strings[0],)


def _add_common(p: argparse.ArgumentParser,
                formats=("json", "csv", "text"), checks=True):
    """Flags of every command; `checks` adds --tol for the ones that judge
    residuals (eval prints values and has nothing to judge)."""
    p.add_argument("--params", type=four_params, default=None,
                   help="a,alpha,b,beta of rn|sn|bweight|kappa|biortho|all")
    p.add_argument("--q", type=float, default=0.5, help="base q in (0,1)")
    p.add_argument("--grid", type=int, default=256, dest="grid_size",
                   action=Given, help="number of quadrature nodes on |z|=1")
    if checks:
        p.add_argument("--tol", type=tolerance, default=None,
                       help="every report's tolerance (verify 1e-10, gram "
                            "1e-9) but the algebraic identities' 1e-12 and "
                            "adjointness and sears_involution's 1e-11")
    p.add_argument("--format", choices=formats, default="text",
                   dest="output_format")
    p.add_argument("--out", type=str, default=None, metavar="FILE",
                   help="write the report to FILE instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    # The width HelpFormatter computes for itself, queried once: argparse
    # builds a formatter for about every add_argument.
    fmt = functools.partial(argparse.HelpFormatter,
                            width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="qcircle", formatter_class=fmt,
        description="Evaluate and numerically certify unit-circle "
                    "orthogonal polynomials, biorthogonal rational "
                    "functions, and their ladder-operator identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a function at a point",
                        formatter_class=fmt)
    pe.add_argument("subject",
                    choices=("szego", "rn", "sn", "weight", "bweight",
                             "kappa", "theta"))
    pe.add_argument("--n", type=int, default=0, action=Given)
    pe.add_argument("--z", type=parse_complex, default=complex(1.0),
                    action=Given)
    _add_common(pe, formats=("json", "text"), checks=False)

    pv = sub.add_parser("verify", help="run an identity suite",
                        formatter_class=fmt)
    pv.add_argument("suite", choices=("szego", "biortho", "sears", "qsl", "all"))
    pv.add_argument("--max-n", type=max_n, default=5, dest="max_n")
    pv.add_argument("--seed", type=seed, default=0)
    _add_common(pv)

    pg = sub.add_parser("gram", help="emit a Gram matrix table",
                        formatter_class=fmt)
    pg.add_argument("subject", choices=("szego", "biortho"))
    pg.add_argument("--max-n", type=max_n, default=4, dest="max_n")
    pg.add_argument("--seed", type=seed, default=0,
                    help="unused: gram draws nothing at random, and takes "
                         "--seed as every verdict command does")
    _add_common(pg)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """main's parser, built at its first call and kept for the process."""
    return build_parser()


def biortho_params_from_args(args) -> biortho.BiorthoParams:
    return biortho.BiorthoParams(*(args.params or biortho.DEFAULT_PARAMS),
                                 args.q)


def _fmt_complex(v: complex) -> str:
    return f"{v.real:+.12e}{v.imag:+.12e}i"


def _emit(text: str, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            print(text, file=fh)
    else:
        print(text)


def cmd_eval(args) -> int:
    z = args.z
    if args.subject == "kappa":  # closed form and quadrature side by side
        G, norms, _ = biortho.biortho_gram(0, biortho_params_from_args(args),
                                           CircleGrid(args.grid_size))
        closed, quad = norms[0], complex(G[0, 0])
        doc = {"kappa_closed": closed, "kappa_quadrature": quad,
               "abs_difference": abs(closed - quad)}
        if args.output_format == "json":
            _emit(to_json(doc), args.out)
        else:
            _emit("\n".join(
                f"{k} = {_fmt_complex(v) if isinstance(v, complex) else v}"
                for k, v in doc.items()), args.out)
        return 0
    # The finiteness check below names a non-finite value; numpy's warnings
    # on the way there would only add file paths to stderr.  A point of H_n
    # or a weight goes in twice, as in r_fn: an in-place product into one
    # element rounds as Python does, not as the verdicts' elementwise loops.
    with np.errstate(all="ignore"):
        if args.subject == "szego":
            value = szego.poly_rows(range(args.n, args.n + 1), args.q,
                                    np.resize(z, 2), 0)[0, 0, 0]
            label = f"H_{args.n}({_fmt_complex(z)} | q={args.q})"
        elif args.subject == "weight":
            value = szego.szego_weight(np.resize(z, 2), args.q)[0]
            label = f"w_c({_fmt_complex(z)} | q={args.q})"
        elif args.subject == "theta":
            value = theta_sum(z, args.q)
            label = f"theta({_fmt_complex(z)}, q={args.q})"
            rounding = theta_rounding(z, args.q)
        elif args.subject == "rn":
            value = biortho.r_fn(args.n, z, biortho_params_from_args(args))
            label = f"r_{args.n}({_fmt_complex(z)})"
        elif args.subject == "sn":
            value = biortho.s_fn(args.n, z, biortho_params_from_args(args))
            label = f"s_{args.n}({_fmt_complex(z)})"
        else:  # bweight
            value = biortho.biortho_weight(
                np.resize(z, 2), biortho_params_from_args(args))[0]
            label = f"w({_fmt_complex(z)})"
    value = complex(value)
    if not cmath.isfinite(value):
        raise ValueError(f"{label} is not finite: {_fmt_complex(value)}")
    # A theta value within the bound on its terms' rounding keeps none of
    # its digits, as where they cancel off the circle near q = 1.
    if args.subject == "theta" and not abs(value) > rounding:
        raise ValueError(f"{label} is lost to rounding: its terms cancel to "
                         f"{abs(value):.3e}, within their rounding bound "
                         f"{rounding:.3e}")
    if args.output_format == "json":
        _emit(to_json({"label": label, "value": value}), args.out)
    else:
        _emit(f"{label} = {_fmt_complex(value)}", args.out)
    return 0


def cmd_verify(args) -> int:
    cfg = SuiteConfig(
        q=args.q, max_n=args.max_n, grid_size=args.grid_size,
        tolerance=QUADRATURE_TOL if args.tol is None else args.tol,
        params=(biortho_params_from_args(args)
                if args.suite in RATIONAL_SUBJECTS else None),
        seed=args.seed, output_format=args.output_format)
    reports = suites.run_suite(args.suite, cfg)
    _emit(suites.render(args.suite, cfg, reports), args.out)
    return 0 if suites.summarize(reports)["failed"] == 0 else 1


def _gram_rows(G, expected):
    """The Gram's entries from one G.tolist(), complex numbers as [re, im]
    lists, which to_json writes without its default hook."""
    rows = []
    for m, row in enumerate(G.tolist()):
        for n, g in enumerate(row):
            exp = complex(expected[n]) if m == n else 0.0
            rows.append({"m": m, "n": n, "computed": [g.real, g.imag],
                         "expected": [exp.real, exp.imag],
                         "residual": worst(g - exp)})
    return rows


def cmd_gram(args) -> int:
    grid = CircleGrid(args.grid_size)
    tol = 1e-9 if args.tol is None else args.tol
    if args.subject == "szego":
        G, expected, report = szego.szego_gram(args.max_n, args.q, grid, tol)
    else:
        p = biortho_params_from_args(args)
        G, expected, report = biortho.biortho_gram(args.max_n, p, grid, tol)
    rows = _gram_rows(G, expected)
    if args.output_format == "json":
        doc = {"subject": args.subject, "grid_size": grid.n_nodes,
               "rows": rows, "report": report.as_dict()}
        _emit(to_json(doc), args.out)
    elif args.output_format == "csv":
        _emit(to_csv(["m", "n", "computed_re", "computed_im", "expected_re",
                      "expected_im", "residual"],
                     [[r["m"], r["n"], *r["computed"], *r["expected"],
                       r["residual"]] for r in rows]), args.out)
    else:
        lines = [f"{args.subject} Gram matrix, N={grid.n_nodes}",
                 f"{'m':>3} {'n':>3} {'computed':>28} {'expected':>28} "
                 f"{'residual':>12}"]
        for r in rows:
            lines.append(f"{r['m']:>3} {r['n']:>3} "
                         f"{_fmt_complex(complex(*r['computed'])):>28} "
                         f"{_fmt_complex(complex(*r['expected'])):>28} "
                         f"{r['residual']:>12.3e}")
        lines.append(f"[{'PASS' if report.passed else 'FAIL'}] "
                     f"residual={report.residual:.3e} tol={tol:.1e}")
        _emit("\n".join(lines), args.out)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    subject = args.suite if args.command == "verify" else args.subject
    if args.params is not None and subject not in RATIONAL_SUBJECTS:
        parser.error(f"argument --params: {args.command} {subject} has no "
                     f"rational family to take a,alpha,b,beta")
    for flag in getattr(args, "given", ()):
        if args.command == "eval" and subject not in EVAL_READERS[flag]:
            parser.error(f"argument {flag}: eval {subject} does not read it; "
                         f"only eval {'|'.join(EVAL_READERS[flag])} reads it")
    bufsize = np.setbufsize(UFUNC_BUFSIZE)
    try:
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_gram(args)
    except (ValueError, QCircleError, OSError) as exc:  # OSError: --out
        print(f"error: {exc}", file=sys.stderr)
    except (ArithmeticError, MemoryError) as exc:
        print(f"error: a value is not representable "
              f"({type(exc).__name__}: {exc})", file=sys.stderr)
    finally:  # not errstate: numpy 1.x's does not restore the buffer size
        np.setbufsize(bufsize)
    return 2


if __name__ == "__main__":
    sys.exit(main())
