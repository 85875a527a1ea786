"""q-series kernels: q-shifted factorials, the terminating basic
hypergeometric series of the Sears checks, and the theta sum.

All arithmetic is double-precision complex; the finite q-products and phi
take numbers, the others numpy arrays too, and the base q is real in (0, 1).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from itertools import accumulate
from typing import Sequence

import numpy as np

from .errors import NonConvergent, PoleInDenominator

# The algebraic identities' fixed tolerance; the quadrature checks' default.
ALGEBRAIC_TOL = 1e-12
QUADRATURE_TOL = 1e-10

# The smallest normal float: below it a value has lost digits, or is 0.
UNDERFLOW_FLOOR = sys.float_info.min

# Complex elements per block of qpochhammer_inf factors: 512 KiB, the
# fastest of 4096..131072 elements at 256 and 2048 points on a Xeon core
# with 2 MiB of L2; smaller blocks pay numpy's per-call overhead more often.
_BLOCK_ELEMS = 32768

_THETA_TERMS = 100_000


def qval(q) -> float:
    """Return the validated float base q, strictly inside (0, 1)."""
    qv = float(q)
    if not 0.0 < qv < 1.0:
        raise ValueError(f"q must satisfy 0 < q < 1 strictly, got {qv!r}")
    return qv


@contextmanager
def representable(message: str):
    """Raise ValueError(message) in place of an overflow, a division by zero
    or an invalid operation in the block, numpy's or Python's."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except ArithmeticError:
        raise ValueError(message) from None


def _maybe_scalar(x: np.ndarray):
    return complex(x) if x.ndim == 0 else x


def qpochhammer(a, q, n: int) -> complex:
    """(a; q)_n = prod_{k=1}^{n} (1 - a q^{k-1}) of a number a, 1 at n = 0, in
    Python complex arithmetic, which rounds as numpy 0-d arithmetic does."""
    qv, n = qval(q), int(n)
    if n < 0:
        raise ValueError("qpochhammer order must be nonnegative")
    a, out, qk = complex(a), 1.0 + 0.0j, 1.0
    for _ in range(n):
        out = out * (1.0 - a * qk)
        qk *= qv
    return out


def qpochhammer_inf(a, q):
    """(a; q)_infty, truncated when max|a| q^K < 1e-15 * (1 - q).

    Tail bound: once |a| q^K < 1/2, the log of the dropped factors is at most
    2 |a| q^K / (1 - q) in absolute value, so the relative error of the
    truncated product stays below ~2e-15.
    """
    return qpochhammer_inf_each([a], q)[0]


def qpochhammer_inf_each(args, q) -> list:
    """[qpochhammer_inf(a, q) for a in args], each truncated at its own
    max|a| and bitwise the sequential product prod_k (1 - a q^k).

    The factors are built a block of k at a time as rows of a 2-D array of
    at most _BLOCK_ELEMS elements, one column per element of an argument,
    the running products in row 0; each block is reduced along axis 0, rows
    in order, with q^k from np.cumprod.  Columns are sorted by step count,
    a block spans only those still running, and a wide lane runs in groups
    of columns.  numpy reduces a contiguous column with its scalar loop,
    which may round differently from the elementwise loop of rows, so array
    elements lie along rows (a 1-element array as two equal columns) and
    0-d arguments down contiguous columns, each reduced as in its lone
    call.  Past 1,000,000 factors for an argument, raises NonConvergent.
    """
    qv = qval(q)
    args = [_maybe_scalar(np.asarray(a, dtype=complex)) for a in args]
    cutoff, log_q, steps = 1e-15 * (1.0 - qv), math.log(qv), []
    for a in args:
        amax = (abs(a) if isinstance(a, complex)
                else float(np.abs(a).max()) if a.size else 0.0)
        if not math.isfinite(amax):
            raise ValueError("qpochhammer_inf requires finite arguments")
        n = math.ceil(math.log(cutoff / amax) / log_q) if amax > cutoff else 1
        if n > 1_000_000:
            raise NonConvergent(f"(a; q)_inf at q={qv!r} and max|a|={amax:.6g}"
                                f" needs {n:,} factors to meet tol=1e-15, "
                                f"over the cap of 1,000,000")
        steps.append(max(n, 1) if amax else 0)
    out = [None] * len(args)  # (a; q)_inf = 1 where a is 0 or empty
    for scalar in (False, True):
        lane = sorted((i for i, a in enumerate(args)
                       if steps[i] and isinstance(a, complex) == scalar),
                      key=lambda i: -steps[i])
        if not lane:
            continue
        if scalar:
            flat, edges = (np.array([args[i] for i in lane], dtype=complex),
                           range(1, len(lane) + 1))
        else:
            edges = list(accumulate(max(2, args[i].size) for i in lane))
            flat = np.empty(edges[-1], dtype=complex)
            for i, lo, hi in zip(lane, [0] + edges, edges):
                flat[lo:hi] = args[i].reshape(-1)
        ends, width = [steps[i] for i in lane], edges[-1]
        group = min(width, _BLOCK_ELEMS // 8)  # >= 7 rows: fewer were slower
        rows = min(ends[0], _BLOCK_ELEMS // group - 1)
        block = np.empty((rows + 1, group), dtype=complex,
                         order="F" if scalar else "C")
        # q^k as complex numbers with zero imaginary part, the form that
        # a * q^k converts them to anyway; one column, broadcast over a.
        powers = np.full((rows, 1), qv, dtype=complex)
        lo = 0
        while lo < width:  # each group's products overwrite its flat columns
            hi = min(width, lo + group)
            hi -= hi + 1 in edges  # never an argument's last column alone
            top, running = bisect_right(edges, lo), bisect_left(edges, hi) + 1
            block[0, :hi - lo] = 1.0
            qk, start = 1.0, 0
            while start < ends[top]:
                while ends[running - 1] <= start:
                    running -= 1  # lane[:running] still take factors
                live = min(hi, edges[running - 1]) - lo
                r = min(rows, ends[running - 1] - start)
                powers[0] = qk
                qk_block = np.multiply.accumulate(powers[:r])  # np.cumprod
                qk = qk_block[-1, 0].real * qv
                factors = block[1:r + 1, :live]
                np.multiply(flat[lo:lo + live], qk_block, out=factors)
                np.subtract(1.0, factors, out=factors)
                # initial=None starts from row 0 rather than from 1 + 0j,
                # whose product with a zero can flip the zero's sign.
                np.multiply.reduce(block[:r + 1, :live], axis=0,
                                   out=block[0, :live], initial=None)
                start += r
            flat[lo:hi] = block[0, :hi - lo]
            lo = hi
        got = flat.tolist() if scalar else flat
        for i, j in zip(lane, [0, *edges]):
            out[i] = got[j] if scalar else (
                got[j:j + args[i].size].reshape(args[i].shape).copy())
    return [x if x is not None else 1.0 + 0.0j if isinstance(a, complex)
            else np.ones(a.shape, dtype=complex) for a, x in zip(args, out)]


def qmultipochhammer(params: Sequence[complex], q, n: int) -> complex:
    """(a_1, ..., a_k; q)_n, the product of each (a_i; q)_n, in order."""
    return math.prod((qpochhammer(a, q, n) for a in params), start=1.0 + 0.0j)


def phi(n: int, numerators, denominators, q) -> complex:
    """The terminating series of the Sears checks, argument q,

        sum_{k=0..n} (q^{-n}, a_1, .., a_r; q)_k / (q, b_1, .., b_r; q)_k q^k,

    summed by its term recurrence; a_i are `numerators`, b_i `denominators`.
    """
    qv = qval(q)
    if n < 0 or len(numerators) != len(denominators):
        raise ValueError(
            "phi needs n >= 0 and as many numerators as denominators")
    nums = [complex(qv**-n), *map(complex, numerators)]
    dens = [complex(b) for b in denominators]
    z = complex(qv)
    t = total = 1.0 + 0.0j
    for k in range(n):
        qk, num = qv**k, 1.0 + 0.0j
        for a in nums:
            num *= (1.0 - a * qk)
        den = 1.0 - qv**(k + 1)
        for b in dens:
            den *= (1.0 - b * qk)
        if abs(den) < 1e-250:
            raise PoleInDenominator(
                f"denominator factor vanished at term {k + 1}")
        t = t * (num / den) * z
        total += t
    return total


def theta_sum(z, q):
    """sum_{n=-inf}^{inf} q^{n^2} z^n by symmetric truncation.

    The terms with |n| >= K are bounded by a geometric tail once
    q^{2K+1} max(|z|, 1/|z|) < 1, so the truncation error is certifiable.
    Past K = 100,000 (0.2 s a point, x86-64), raises NonConvergent.
    """
    qv = qval(q)
    z = np.asarray(z, dtype=complex)
    if np.any(z == 0):
        raise ValueError("theta_sum undefined at z = 0")
    m = float(np.max(np.maximum(np.abs(z), 1.0 / np.abs(z))))
    K = 1
    while qv**(K * K) * m**K > 1e-15:
        K += 1
        if K > _THETA_TERMS:
            raise NonConvergent(f"theta sum at q={qv!r} and max(|z|, 1/|z|)="
                                f"{m:.6g} needs K > {_THETA_TERMS:,} terms a "
                                f"side to meet tol=1e-15")
    K += 2
    out = np.ones(z.shape, dtype=complex)
    zp = np.ones_like(out)
    zm = np.ones_like(out)
    for n in range(1, K + 1):
        zp = zp * z
        zm = zm / z
        out = out + qv**(n * n) * (zp + zm)
    return _maybe_scalar(out)


def jacobi_triple_product(z, q):
    """Product side of the triple product identity, in base q^2:

        (q^2; q^2)_inf * (-q z; q^2)_inf * (-q / z; q^2)_inf

    (Gasper-Rahman II.28); equals theta_sum(z, q).
    """
    qv = qval(q)
    z = np.asarray(z, dtype=complex)
    if np.any(z == 0):
        raise ValueError("jacobi_triple_product undefined at z = 0")
    q2 = qv * qv
    out = (qpochhammer_inf(q2, q2)
           * np.asarray(qpochhammer_inf(-qv * z, q2))
           * np.asarray(qpochhammer_inf(-qv / z, q2)))
    return _maybe_scalar(np.asarray(out))
