"""The benchmark's workloads and the seeded inputs of every verdict.

A workload is a repeating pattern of verdict kinds.  Every verdict gets a
fresh input drawn from the workload seed: its own q, its own ``--seed`` and,
for ``gram biortho``, its own ``--params``.  A cache that outlives one
invocation therefore cannot make the benchmark faster than a user's fresh
``qcircle`` process.

q is drawn from each kind's band along a Weyl sequence with a seeded start,
q_i = lo + (hi - lo) * frac(u + i * g) with g the golden ratio conjugate.
Verdict cost depends strongly on q (near q = 1 it roughly doubles across a
band of width 0.005), so independent draws would make a run's median depend
on how the draws happened to fall; the low-discrepancy sequence covers the
band evenly in every run while the start u still differs per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
QCIRCLE_SEED_RANGE = 2**31
# Magnitude rule of qcircle.biortho.random_params, restated here so that the
# inputs do not change when the library changes.
PARAM_MAGNITUDE = (0.05, 0.6)


@dataclass(frozen=True)
class Kind:
    """One verdict kind: the fixed argv and the q band it is drawn from."""

    argv: tuple
    q_band: tuple
    random_params: bool = False

    @property
    def label(self) -> str:
        return " ".join(self.argv[:2])

    @property
    def output_format(self) -> str:
        return "json" if "json" in self.argv else "text"

    @property
    def max_n(self) -> int:
        return int(self.argv[self.argv.index("--max-n") + 1])

    def describe(self) -> str:
        lo, hi = self.q_band
        extra = " --params <random>" if self.random_params else ""
        return f"{' '.join(self.argv)} --q U[{lo}, {hi}] --seed <random>{extra}"


@dataclass(frozen=True)
class Workload:
    name: str
    pattern: tuple  # kinds, cycled in order
    tail_percentile: float  # highest leaving >= 10 verdicts beyond it
    # A command that exits 2 today because of a known defect; it is run once
    # per run, outside the timed loop and the counts, so it stays visible.
    known_defect: tuple = ()


HEADLINE = Kind(("verify", "all", "--max-n", "5", "--grid", "256"),
                (0.45, 0.55))
# The near-one kinds print JSON, so that every timed verdict gets the full
# JSON check and no second, untimed run of a multi-second verdict is needed.
SZEGO_NEAR_ONE = Kind(("verify", "szego", "--max-n", "5", "--grid", "256",
                       "--format", "json"), (0.985, 0.99))
BIORTHO_NEAR_ONE = Kind(("verify", "biortho", "--max-n", "5", "--grid", "256",
                         "--format", "json"), (0.88, 0.9))
GRAM_SZEGO = Kind(("gram", "szego", "--max-n", "16", "--grid", "2048",
                   "--format", "json"), (0.45, 0.55))
GRAM_BIORTHO = Kind(("gram", "biortho", "--max-n", "8", "--grid", "2048",
                     "--format", "json"), (0.45, 0.55), random_params=True)

WORKLOADS = {w.name: w for w in (
    Workload("headline", (HEADLINE,), 75.0),
    # Mixed workloads alternate their two kinds; the harness takes each
    # kind's median separately, so a slowdown of either kind shows.
    Workload("near_one", (SZEGO_NEAR_ONE, BIORTHO_NEAR_ONE), 50.0,
             known_defect=("verify", "qsl", "--max-n", "5", "--grid", "256",
                           "--q", "0.9")),
    Workload("gram_json", (GRAM_SZEGO, GRAM_BIORTHO), 90.0),
)}


def format_complex(z: complex) -> str:
    """qcircle's `re+imi` flag syntax."""
    sign = "+" if z.imag >= 0 else ""
    return f"{z.real!r}{sign}{z.imag!r}i"


def verdict_inputs(workload: Workload, seed: int):
    """Yield (kind, argv) for verdict 0, 1, 2, ... of a run, forever."""
    rng = np.random.default_rng(seed)
    kinds = list(dict.fromkeys(workload.pattern))
    start = {kind: rng.random() for kind in kinds}
    index = dict.fromkeys(kinds, 0)
    while True:
        for kind in workload.pattern:
            lo, hi = kind.q_band
            q = lo + (hi - lo) * ((start[kind] + index[kind] * GOLDEN) % 1.0)
            index[kind] += 1
            argv = [*kind.argv, "--q", repr(q),
                    "--seed", str(int(rng.integers(QCIRCLE_SEED_RANGE)))]
            if kind.random_params:
                mags = rng.uniform(*PARAM_MAGNITUDE, size=4)
                phases = rng.uniform(0.0, 2.0 * math.pi, size=4)
                # One token: a value starting with "-" would read as a flag.
                argv.append("--params=" + ",".join(
                    format_complex(complex(m * np.exp(1j * ph)))
                    for m, ph in zip(mags, phases)))
            yield kind, argv
