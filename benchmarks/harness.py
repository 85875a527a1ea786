"""Run one workload of the qcircle verdict benchmark and report its metrics.

qcircle is driven from outside, in process, through ``qcircle.cli.main(argv)``
with stdout and stderr captured to memory.  One verdict is one such
``verify`` or ``gram`` invocation; the loop is closed (each verdict starts
when the previous one returns) and single-threaded.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs every input
twice, untraced and traced in alternating order, and reports the per-layer
metrics from the traced runs plus the tracing overhead.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import (BadVerdict, check_json_gram, check_json_suite,
                    check_text_suite)
from tracer import HOOK_SPAN, Tracer, self_times, write_spans
from workloads import WORKLOADS, verdict_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SPEC = ROOT / "BENCHMARK.json"

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0)
MIN_BEYOND_TAIL = 10
SETUP_REPEATS = 15
MAX_FAILURES_SHOWN = 5
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import qcircle.cli; qcircle.cli.build_parser()")
# Calibration: share of verdict time spent on the calibration kernel, the
# number of latest kernel times whose median gives the current speed, and
# the kernel's time on the reference machine (2 vCPU x86_64, quiet phase).
CALIBRATION_SHARE = 0.05
CALIBRATION_WINDOW = 9
CALIBRATION_REF_S = 0.004
_CALIBRATION_Z = np.exp(2j * np.pi * np.arange(256) / 256)

# Layers whose calls and self time are reported (see README.md).
CALL_LAYERS = ("qcore.qpochhammer_inf", "qcore.qpochhammer", "qcore.phi",
               "circle.operator", "circle.laurent_eval", "szego.weight",
               "biortho.weight", "biortho.r_fn", "biortho.kappa_closed",
               "qsl.m_apply")
SELF_ONLY_LAYERS = ("circle.quadrature", "szego.gram", "biortho.gram",
                    "suites.run_suite", "suites.render", "cli.main")
DISTINCT_LAYERS = ("szego.weight", "biortho.weight", "biortho.kappa_closed")
POINT_COUNTS = ("qcore.qpochhammer_inf.points",
                "qcore.qpochhammer_inf.scalar_calls", "szego.weight.points",
                "biortho.r_fn.points", "suites.render.bytes")
RESIDUAL_MODULES = ("szego", "biortho", "sears", "qsl")


class MissingProgram(Exception):
    """The qcircle sources are not next to the benchmark."""


def load_cli():
    """Import qcircle.cli from this checkout's src/, never from elsewhere."""
    init = SRC / "qcircle" / "__init__.py"
    if not init.is_file():
        raise MissingProgram(f"qcircle sources not found at {init}")
    sys.path.insert(0, str(SRC))
    import qcircle
    import qcircle.cli
    if Path(qcircle.__file__).resolve() != init.resolve():
        raise MissingProgram(f"imported qcircle from {qcircle.__file__}")
    return qcircle.cli


@dataclass
class Run:
    seconds: float
    code: int
    out: str
    err: str


def run_verdict(cli, argv) -> Run:
    """One in-process `qcircle` invocation with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the benchmark outlives a crashing verdict
        err.write(traceback.format_exc())
        code = None
    return Run(time.perf_counter() - start, code, out.getvalue(),
               err.getvalue())


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def check_verdict(kind, argv, run: Run):
    """Verdict for a run, or BadVerdict when the run is a failed operation."""
    if run.code not in (0, 1):
        raise BadVerdict(f"exit {run.code}: {run.err.strip()[-200:]}")
    subject = argv[1]
    if argv[0] == "gram":
        return check_json_gram(run.out, run.code, subject,
                               float(_flag(argv, "--q")), kind.max_n)
    if "--format" in argv and _flag(argv, "--format") == "json":
        return check_json_suite(run.out, run.code, subject)
    return check_text_suite(run.out, run.code, subject)


class TooFewSamples(ValueError):
    """Even the median leaves fewer than MIN_BEYOND_TAIL samples beyond it."""


def tail_percentile(n: int, preferred: float) -> float:
    """`preferred`, or the next lower percentile of TAIL_LADDER when fewer
    than MIN_BEYOND_TAIL of n samples would lie beyond it.  Raises
    TooFewSamples when no percentile of the ladder qualifies."""
    for p in sorted((p for p in TAIL_LADDER if p <= preferred), reverse=True):
        if n - math.ceil(p / 100.0 * n) >= MIN_BEYOND_TAIL:
            return p
    raise TooFewSamples(f"{n} samples leave fewer than {MIN_BEYOND_TAIL} "
                        f"beyond p{TAIL_LADDER[0]:g}")


def nearest_rank(samples, percentile: float):
    """(value, samples beyond it) at the nearest-rank percentile."""
    xs = sorted(samples)
    k = max(1, math.ceil(percentile / 100.0 * len(xs)))
    return xs[k - 1], len(xs) - k


def mix_percentiles(timed, pattern, tail_p: float):
    """(p50, tail, samples beyond the tail) of a workload's verdict times.

    `timed` holds (kind, seconds) pairs.  The p50 is the mean over the
    workload's `pattern` of each kind's own median, so that a kind weighs as
    much as it occurs in the pattern whatever its cost, and a slowdown of
    either kind moves it.  The tail is that p50 times the `tail_p`
    percentile of every verdict's time over its kind's median: the tail's
    shape comes from all verdicts, its scale from every kind.  With one kind
    both are plain percentiles.
    """
    by_kind = {}
    for kind, seconds in timed:
        by_kind.setdefault(kind, []).append(seconds)
    medians = {kind: nearest_rank(xs, 50.0)[0] for kind, xs in by_kind.items()}
    p50 = statistics.fmean(medians[kind] for kind in pattern
                           if kind in medians)
    ratio, beyond = nearest_rank(
        [seconds / medians[kind] for kind, seconds in timed], tail_p)
    return p50, p50 * ratio, beyond


def measure_setup() -> float:
    """Wall time of a fresh interpreter that imports qcircle.cli (and numpy),
    builds the parser and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def calibration_kernel() -> float:
    """Time one fixed unit of work shaped like a verdict's: a Python loop of
    small complex numpy products, then JSON encoding of the result."""
    start = time.perf_counter()
    out = np.ones(256, dtype=complex)
    qk = 1.0
    for _ in range(200):
        out = out * (1.0 - 0.6 * _CALIBRATION_Z * qk)
        qk *= 0.995
    json.dumps([{"k": k, "v": [out[k].real, out[k].imag]}
                for k in range(256)], indent=2, sort_keys=True)
    return time.perf_counter() - start


class Calibration:
    """Machine speed during a run, from a fixed kernel run between verdicts.

    The shared machine this benchmark was set on changes speed by up to
    1.5x, in bursts of seconds and in phases of minutes.  Each verdict time
    is scaled to the reference speed by the kernel times measured right
    before and right after it, wall * CALIBRATION_REF_S / mean(those kernel
    times, and at least the latest CALIBRATION_WINDOW), which cancels much
    of that.  The mean, not the median, because a verdict's wall time
    averages over the fast and slow spells the kernels sample.  The kernel
    takes CALIBRATION_SHARE of verdict time.  Set-up times are not scaled:
    they are spent starting a process and importing, not in this kind of
    work.
    """

    def __init__(self):
        self._owed = 0.0
        # Verdicts scale by a full window from the start.
        self.samples = [calibration_kernel()
                        for _ in range(CALIBRATION_WINDOW)]

    def after_verdict(self, seconds: float) -> float:
        """Run the kernel's share for a verdict; return the time it took."""
        self._owed += CALIBRATION_SHARE * seconds
        spent = 0.0
        while self._owed > 0.0:
            sample = calibration_kernel()
            self.samples.append(sample)
            self._owed -= sample
            spent += sample
        return spent

    def scale(self, since: int) -> float:
        """Factor taking a wall time just measured to reference seconds, from
        the kernel samples numbered `since` on."""
        since = min(since, len(self.samples) - CALIBRATION_WINDOW)
        return CALIBRATION_REF_S / statistics.fmean(self.samples[since:])


def environment(caps: dict) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine(),
            "thread_caps": caps}


def _metric(spec_entries, values: dict) -> dict:
    names = [e["name"] for e in spec_entries]
    if set(names) != set(values):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(names))} do "
                           "not match BENCHMARK.json")
    return {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
            for e in spec_entries}


class Outcome:
    """Attempted and failed verdict counts, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, kind, argv, run: Run):
        self.attempted += 1
        try:
            return check_verdict(kind, argv, run)
        except (BadVerdict, ValueError, KeyError, TypeError) as exc:
            self.failures.append(f"{' '.join(argv)}: {exc}")
            return None


def plain_run(cli, workload, seed, seconds, outcome):
    measure_setup()  # unmeasured: fills __pycache__ in a fresh checkout
    setup = []
    inputs = verdict_inputs(workload, seed)
    timed, wall_times, reports, passed = [], [], 0, 0
    first_text = {}
    calibration = Calibration()
    # Set-up samples are spread evenly over the run, between verdicts, so
    # that one burst of load on the machine does not decide their median.
    # The deadline moves by the time set-up and calibration samples take.
    start = time.perf_counter()
    deadline = start + seconds
    since = 0  # index of the first kernel sample after the last verdict
    while time.perf_counter() < deadline:
        if (len(setup) < SETUP_REPEATS and time.perf_counter() - start
                >= len(setup) * seconds / SETUP_REPEATS):
            setup.append(measure_setup())
            deadline += setup[-1]
            continue
        kind, argv = next(inputs)
        run = run_verdict(cli, argv)
        wall_times.append((kind, run.seconds))
        batch = len(calibration.samples)
        deadline += calibration.after_verdict(run.seconds)
        timed.append((kind, run.seconds * calibration.scale(since)))
        since = batch
        verdict = outcome.check(kind, argv, run)
        if verdict is None:
            continue
        reports += verdict.reports
        passed += verdict.passed
        if kind.output_format == "text":
            first_text.setdefault(kind, (argv, verdict))

    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup())

    # Check pass: the first text input of each kind again as JSON; the JSON
    # verdict must hold and list the same reports with the same statuses.
    for kind, (argv, text_verdict) in first_text.items():
        json_argv = [*argv, "--format", "json"]
        verdict = outcome.check(kind, json_argv,
                                run_verdict(cli, json_argv))
        if verdict is not None and verdict.statuses != text_verdict.statuses:
            outcome.failures.append(f"{' '.join(argv)}: text and JSON "
                                    "reports disagree")
    if workload.known_defect:
        run = run_verdict(cli, workload.known_defect)
        print(f"known defect, not timed: qcircle "
              f"{' '.join(workload.known_defect)} -> exit {run.code} "
              f"{run.err.strip()!r}")

    n = len(timed)
    try:
        p = tail_percentile(n, workload.tail_percentile)
    except TooFewSamples as exc:
        p = TAIL_LADDER[0]
        print(f"WARNING: verdict_tail_s is not a tail: {exc}")
    p50, tail, beyond = mix_percentiles(timed, workload.pattern, p)
    per_kind = Counter(kind.label for kind, _ in timed)
    print(f"verdicts: {n} timed ({dict(per_kind)}), "
          f"{outcome.attempted - n} in the JSON check pass")
    print(f"verdict_tail_s is p{p:g} of {n} verdicts, {beyond} beyond it")
    print(f"calibration: {len(calibration.samples)} kernel runs, median "
          f"{statistics.median(calibration.samples):.6f} s")
    wall_p50, wall_tail, _ = mix_percentiles(wall_times, workload.pattern, p)
    print(f"wall-clock before scaling: verdict_p50_s {wall_p50:.6g}, "
          f"verdict_tail_s {wall_tail:.6g}, checks_per_s "
          f"{reports / sum(t for _, t in wall_times):.6g}")
    print(f"setup_s is the median of {len(setup)} set-up samples; their "
          f"minimum is {min(setup):.6g} s")
    return {
        "setup_s": statistics.median(setup),
        "verdict_p50_s": p50,
        "verdict_tail_s": tail,
        "checks_per_s": reports / sum(t for _, t in timed),
        "checks_passed": passed / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def traced_run(cli, workload, seed, seconds, outcome, spans_path):
    tracer = Tracer()
    inputs = verdict_inputs(workload, seed)
    plain_s = traced_s = 0.0
    out_bytes = 0
    n = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        kind, argv = next(inputs)
        traced_first = n % 2 == 1
        if not traced_first:
            plain = run_verdict(cli, argv)
        with tracer:
            traced = run_verdict(cli, argv)
        tracer.end_verdict()
        if traced_first:
            plain = run_verdict(cli, argv)
        n += 1
        plain_s += plain.seconds
        traced_s += traced.seconds
        out_bytes += len(traced.out.encode())
        outcome.check(kind, argv, plain)
        if outcome.check(kind, argv, traced) is None:
            continue
        if traced.out != plain.out:
            outcome.failures.append(f"{' '.join(argv)}: traced output "
                                    "differs from untraced output")
        if argv[0] == "gram":
            tracer.residuals[argv[1]].append(
                json.loads(traced.out)["report"]["residual"])

    write_spans(tracer.spans, spans_path)
    calls = Counter(span[2] for span in tracer.spans)
    self_ns = self_times(tracer.spans)
    values = {}
    for layer in CALL_LAYERS:
        values[f"{layer}.calls"] = calls[layer] / n
    for layer in CALL_LAYERS + SELF_ONLY_LAYERS:
        values[f"{layer}.self_s"] = self_ns.get(layer, 0) / 1e9 / n
    for key in POINT_COUNTS:
        values[key] = tracer.counts[key] / n
    for layer in DISTINCT_LAYERS:
        # 1 when the layer is never called: nothing was recomputed.
        values[f"{layer}.distinct_ratio"] = (
            tracer.counts[f"{layer}.distinct"] / calls[layer]
            if calls[layer] else 1.0)
    for module in RESIDUAL_MODULES:
        finite = [r for r in tracer.residuals[module] if math.isfinite(r)]
        values[f"{module}.worst_residual"] = max(finite, default=0.0)
    values["cli.output.bytes"] = out_bytes / n
    values["trace.verdict_s"] = traced_s / n
    values["trace.overhead_frac"] = traced_s / plain_s - 1.0

    print(f"verdicts: {n} inputs, each run untraced and traced; "
          f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    print(f"{'layer':<24} {'self_s/verdict':>15} {'share':>7}")
    for layer in CALL_LAYERS + SELF_ONLY_LAYERS + (HOOK_SPAN,):
        layer_s = self_ns.get(layer, 0) / 1e9 / n
        share = layer_s / values["trace.verdict_s"]
        print(f"{layer:<24} {layer_s:>15.6f} {share:>7.1%}")
    return values


def run_workload(args, caps) -> int:
    try:
        cli = load_cli()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    why = {w["name"]: w["why"] for w in spec["workloads"]}[workload.name]
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: {why}")
    for kind in dict.fromkeys(workload.pattern):
        print(f"  input: qcircle {kind.describe()}")
    print(f"environment: {json.dumps(environment(caps), sort_keys=True)}")

    outcome = Outcome()
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload.name}-{args.seed}.tsv"
        values = traced_run(cli, workload, args.seed, args.seconds, outcome,
                            spans_path)
        metrics = _metric(spec["per_layer"], values)
    else:
        values = plain_run(cli, workload, args.seed, args.seconds, outcome)
        metrics = _metric(spec["end_to_end"], values)

    for failure in outcome.failures[:MAX_FAILURES_SHOWN]:
        print(f"FAILED {failure}")
    failed = len(outcome.failures)
    print(f"error_rate: {failed}/{outcome.attempted} = "
          f"{failed / outcome.attempted:.4f}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": outcome.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process; prints
    one table and writes out/results.json."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    results = {}
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("run.py")),
                 "--workload", w["name"], "--seed", str(args.seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.splitlines()
            results.setdefault(w["name"], {"why": w["why"], "runs": {}})
            results[w["name"]]["runs"][f"trace{trace}"] = {
                "log": lines[:-1], "result": json.loads(lines[-1])}
    OUT.mkdir(exist_ok=True)
    doc = {"seed": args.seed, "seconds": seconds, "workloads": results}
    (OUT / "results.json").write_text(json.dumps(doc, indent=2) + "\n",
                                      encoding="utf-8")
    for section in ("end_to_end", "per_layer"):
        trace = "trace1" if section == "per_layer" else "trace0"
        print(f"{section:<40}" + "".join(f"{w:>14}" for w in results))
        for entry in spec[section]:
            cells = "".join(
                f"{r['runs'][trace]['result']['metrics'][entry['name']]['value']:>14.5g}"
                for r in results.values())
            print(f"{entry['name'] + ' [' + entry['unit'] + ']':<40}{cells}")
    for name, r in results.items():
        res = r["runs"]["trace0"]["result"]
        print(f"{name}: correct={res['correct']} error_rate="
              f"{res['failed']}/{res['attempted']}")
    print(f"wrote {(OUT / 'results.json').relative_to(ROOT)}")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="benchmarks/run.py",
        description="qcircle verdict benchmark (see benchmarks/README.md)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and (args.workload is None or args.seconds is None):
        parser.error("--workload and --seconds are required without --all")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv, caps) -> int:
    args = parse_args(argv)
    return run_all(args) if args.all else run_workload(args, caps)
