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
# Euler's series for an array lane's tails runs in rows 1 and 2 of the same
# block, so a call holds one block at a time, series or not.
_BLOCK_ELEMS = 32768

# Euler's series for the tail of a q-product (qpochhammer_inf): taken once
# max|a q^K'| <= _TAIL_TAU (1 - q), summed to _TAIL_TERMS terms, which
# leaves under 1e-19, and only where it replaces at least _TAIL_MIN_FACTORS
# factors: at 256 points it is faster from about 60, ten 0-d arguments
# break even near 150 and a 1-element array only past 330 (a Xeon core,
# numpy 2.4), and 100 keeps q <= 0.70 on the plain product.
_TAIL_TAU = 1.0
_TAIL_TERMS = 20
_TAIL_MIN_FACTORS = 100

_THETA_TERMS = 100_000
_LOG_THETA_TOL = math.log(1e-15)


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

    Near q = 1 that takes about 34.5 / (1 - q) factors.  Where at least
    _TAIL_MIN_FACTORS of them would follow the first K' with max|a q^K'| <=
    tau (1 - q), tau = _TAIL_TAU, the product stops at K' and is multiplied
    by its tail (x; q)_infty, x = a q^K', summed by Euler's identity
    (Gasper and Rahman, Basic Hypergeometric Series, 2nd ed., (1.3.16)):

        (x; q)_infty = sum_{n>=0} (-1)^n q^{n(n-1)/2} x^n / (q; q)_n = sum t_n.

    As 1 - q^k = (1 - q)(1 + q + ... + q^{k-1}) >= k q^{k-1} (1 - q), the
    q-power of t_n cancels against (q; q)_n >= n! q^{n(n-1)/2} (1 - q)^n, so
    |t_n| <= (|x| / (1 - q))^n / n! <= tau^n / n!.  Summed to n = J =
    _TAIL_TERMS by Horner's rule, the dropped terms total under
    tau^{J+1} / (J+1)! * e^tau < 1e-19 at tau = 1, while |(x; q)_infty| >=
    about e^{-tau}.  The series replaces 34.5 / -log q factors less about
    one, so it is never taken at q <= 0.70.  Where it is, each q^k of the
    product and of x is Python's q**k, rounded once.
    """
    return qpochhammer_inf_each([a], q)[0]


def _euler_coefficients(qv: float) -> list:
    """d_0..d_J of Euler's (x; q)_inf = sum_n d_n x^n, J = _TAIL_TERMS:
    d_n = -d_{n-1} q^{n-1} / (1 - q^n), each 1 - q^n as (1 - q) times
    1 + q + ... + q^{n-1}, a sum of positive terms that does not cancel
    near q = 1 as 1 - q^n would."""
    coef, qn, bracket = [1.0], 1.0, 0.0
    for _ in range(_TAIL_TERMS):
        bracket += qn
        coef.append(-coef[-1] * qn / ((1.0 - qv) * bracket))
        qn *= qv
    return coef


def qpochhammer_inf_each(args, q) -> list:
    """[qpochhammer_inf(a, q) for a in args], each truncated at its own
    max|a| and bitwise the sequential product prod_k (1 - a q^k), times
    Euler's series at x = a q^K' where the argument takes it.

    The factors are built a block of k at a time as rows of a 2-D array of
    at most _BLOCK_ELEMS elements, one column per element of an argument,
    the running products in row 0; each block is reduced along axis 0, rows
    in order, with q^k from np.cumprod, or, in a lane that takes the series,
    as Python's q**k: near q = 1 a running product of q's drifts by up to
    about k/2 ulps, which set the error of the product (1.5e-13 against
    1.8e-14 at q = 0.995).  Columns are sorted by step count,
    a block spans only those still running, and a wide lane runs in groups
    of columns.  numpy reduces a contiguous column with its scalar loop,
    which may round differently from the elementwise loop of rows, so array
    elements lie along rows (a 1-element array as two equal columns) and
    0-d arguments down contiguous columns, each reduced as in its lone
    call.  Arguments that take the series run in lanes of their own.  An
    array lane sums it at the end of each group, elementwise as array
    arithmetic rounds, in rows 1 and 2 of the group's block; a 0-d
    argument in Python complex arithmetic, which rounds as numpy's 0-d
    arithmetic does.  Past 1,000,000 factors for an argument, raises
    NonConvergent.
    """
    qv = qval(q)
    args = [_maybe_scalar(np.asarray(a, dtype=complex)) for a in args]
    cutoff, log_q, steps, tails = 1e-15 * (1.0 - qv), math.log(qv), [], []
    reach = _TAIL_TAU * (1.0 - qv)
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
        k = math.ceil(math.log(reach / amax) / log_q) if amax > reach else 0
        tails.append(n - k >= _TAIL_MIN_FACTORS)
        steps.append(k if tails[-1] else max(n, 1) if amax else 0)
    coef = _euler_coefficients(qv) if any(tails) else []
    out = [None] * len(args)  # (a; q)_inf = 1 where a is 0 or empty
    lanes = {}
    for i in sorted(range(len(args)), key=lambda i: -steps[i]):
        if steps[i] or tails[i]:
            lanes.setdefault((isinstance(args[i], complex), tails[i]),
                             []).append(i)
    for (scalar, tail), lane in lanes.items():
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
        rows = min(max(ends[0], 2), _BLOCK_ELEMS // group - 1)
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
            last = running  # lane[top:last] has columns in [lo, hi)
            block[0, :hi - lo] = 1.0
            qk, start = 1.0, 0
            while start < ends[top]:
                while ends[running - 1] <= start:
                    running -= 1  # lane[:running] still take factors
                live = min(hi, edges[running - 1]) - lo
                r = min(rows, ends[running - 1] - start)
                if tail:  # each q^k rounded once: a running product drifts
                    qk_block = powers[:r]
                    qk_block[:, 0] = [qv**k for k in range(start, start + r)]
                else:
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
            if tail and not scalar:  # times Euler's series, in rows 1, 2
                s, x = block[1, :hi - lo], block[2, :hi - lo]
                for j in range(top, last):  # q^K' down each column
                    first = edges[j - 1] if j else 0
                    x[max(first, lo) - lo:min(edges[j], hi) - lo] = \
                        qv**ends[j]
                np.multiply(flat[lo:hi], x, out=x)
                s[:] = coef[-1]
                for d in coef[-2::-1]:  # Horner: s = s * x + d
                    np.multiply(s, x, out=s)
                    np.add(s, d, out=s)
                np.multiply(block[0, :hi - lo], s, out=block[0, :hi - lo])
            flat[lo:hi] = block[0, :hi - lo]
            lo = hi
        if not scalar:
            for i, j in zip(lane, [0, *edges]):
                out[i] = flat[j:j + args[i].size].reshape(args[i].shape).copy()
            continue
        for i, value in zip(lane, flat.tolist()):
            if tail:  # Euler's series in Python arithmetic, as 0-d numpy's
                s, x = coef[-1], args[i] * qv**steps[i]
                for d in coef[-2::-1]:
                    s = s * x + d
                value *= s
            out[i] = value
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


def _theta_terms(qv: float, m: float) -> int:
    """theta_sum's K: two past the first K with K^2 log q + K log m <=
    log 1e-15, m = max(|z|, 1/|z|); past _THETA_TERMS, NonConvergent."""
    log_q, log_m = math.log(qv), math.log(m)
    K = 1
    while K * K * log_q + K * log_m > _LOG_THETA_TOL:
        K += 1
        if K > _THETA_TERMS:
            raise NonConvergent(f"theta sum at q={qv!r} and max(|z|, 1/|z|)="
                                f"{m:.6g} needs K > {_THETA_TERMS:,} terms a "
                                f"side to meet tol=1e-15")
    return K + 2


def theta_sum(z, q):
    """sum_{n=-inf}^{inf} q^{n^2} z^n by symmetric truncation.

    The terms with |n| >= K are bounded by a geometric tail once
    q^{2K+1} max(|z|, 1/|z|) < 1, so the truncation error is certifiable.
    K is the first with q^{K^2} m^K <= 1e-15, m = max(|z|, 1/|z|), tested
    as K^2 log q + K log m <= log 1e-15, where no power of m can overflow.
    Past K = 100,000 (0.2 s a point, x86-64), raises NonConvergent.  Each
    term is q^{n^2} (z^n + z^{-n}), z^{+-n} by repeated multiplication,
    while m^n < e^700; past that, where z^n alone would overflow although
    the term need not, it is exp(n^2 log q +- n log z).
    """
    qv = qval(q)
    z = np.asarray(z, dtype=complex)
    if np.any(z == 0):
        raise ValueError("theta_sum undefined at z = 0")
    m = float(np.max(np.maximum(np.abs(z), 1.0 / np.abs(z))))
    log_q, log_m = math.log(qv), math.log(m)
    K = _theta_terms(qv, m)
    direct = min(K, int(700.0 / log_m)) if log_m > 0.0 else K
    out = np.ones(z.shape, dtype=complex)
    zp = np.ones_like(out)
    zm = np.ones_like(out)
    for n in range(1, direct + 1):
        zp = zp * z
        zm = zm / z
        out = out + qv**(n * n) * (zp + zm)
    log_z = np.log(z) if direct < K else None
    for n in range(direct + 1, K + 1):
        out = out + (np.exp(n * n * log_q + n * log_z)
                     + np.exp(n * n * log_q - n * log_z))
    return _maybe_scalar(out)


def theta_rounding(z, q) -> float:
    """A bound on the rounding error of theta_sum at one point z:

        2u (K + 1)(K |log q| + log m + pi + 3) sum_n |t_n|,

    u = 2^-53, K and m = max(|z|, 1/|z|) as in theta_sum, and sum_n |t_n|
    = theta_sum(|z|, q), whose terms are all positive.  A term by repeated
    multiplication is within (4n + 4)u of its size, one by exp within
    2u(n^2 |log q| + n(log m + pi)) + 3u, and the K additions add K u
    of sum_n |t_n|.  Where the terms cancel, as off the circle near q = 1,
    the value can fall within this bound, and then no digit of it is sure.
    """
    qv = qval(q)
    size = theta_sum(abs(z), qv).real
    m = max(abs(z), 1.0 / abs(z))
    K = _theta_terms(qv, m)
    # 2u is the machine epsilon.
    return (sys.float_info.epsilon * (K + 1)
            * (K * -math.log(qv) + math.log(m) + math.pi + 3.0) * size)


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
