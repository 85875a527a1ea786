import math
import zlib

import numpy as np
import pytest

from qcircle.errors import NonConvergent, PoleInDenominator
from qcircle.biortho import sears_transform
from qcircle.qcore import (_BLOCK_ELEMS, jacobi_triple_product, phi,
                           qpochhammer, qpochhammer_inf, qpochhammer_inf_each,
                           qmultipochhammer, qval, theta_rounding, theta_sum)
from qcircle.suites import random_balanced_sears


def brute_pochhammer_inf(a, q, factors=200):
    out = 1.0 + 0.0j
    for k in range(factors):
        out *= 1.0 - a * q**k
    return out


class TestQParam:
    """qval, the one validation of the base q."""

    def test_valid(self):
        assert qval(0.5) == 0.5

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_endpoints_rejected(self, bad):
        with pytest.raises(ValueError):
            qval(bad)


class TestQPochhammer:
    def test_empty_product(self):
        assert qpochhammer(0.7, 0.5, 0) == 1

    def test_zero_argument(self):
        assert qpochhammer(0.0, 0.5, 5) == 1

    def test_vanishing_first_factor(self):
        assert qpochhammer(1.0, 0.5, 3) == 0

    def test_direct_product(self):
        assert qpochhammer(0.5, 0.5, 2) == pytest.approx(0.375)

    def test_splitting_identity(self):
        # (a;q)_{m+n} = (a;q)_m (a q^m; q)_n
        rng = np.random.default_rng(11)
        for q in (0.3, 0.5, 0.8):
            for _ in range(20):
                a = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
                m = int(rng.integers(0, 21))
                n = int(rng.integers(0, 21))
                whole = qpochhammer(a, q, m + n)
                split = qpochhammer(a, q, m) * qpochhammer(a * q**m, q, n)
                assert whole == pytest.approx(split, rel=1e-12, abs=1e-14)

    def test_takes_a_number(self):
        # Every caller passes a number: an array is refused, not broadcast.
        assert type(qpochhammer(np.float64(0.5), 0.5, 2)) is complex
        with pytest.raises(TypeError):
            qpochhammer(np.array([0.0, 0.5, 1.0]), 0.5, 2)


class TestQPochhammerInf:
    def test_zero(self):
        assert qpochhammer_inf(0.0, 0.5) == 1

    def test_matches_brute_force(self):
        got = qpochhammer_inf(0.5, 0.5)
        want = brute_pochhammer_inf(0.5, 0.5)
        assert abs(got - want) / abs(want) < 1e-13

    def test_finite_times_shifted_tail(self):
        # (a;q)_inf = (a;q)_n (a q^n; q)_inf
        for a in (0.5, -0.3 + 0.4j, 0.9):
            for n in (1, 3, 7):
                lhs = qpochhammer_inf(a, 0.6)
                rhs = qpochhammer(a, 0.6, n) * qpochhammer_inf(a * 0.6**n, 0.6)
                assert lhs == pytest.approx(rhs, rel=1e-12)


def steps_for(a, q):
    """(factors, tail): the factors of (a; q)_inf the kernel multiplies, and
    whether Euler's series for the rest follows.  The product runs to
    max|a| q^n < 1e-15 (1 - q), or, where that leaves at least 100 factors
    after the first k with max|a| q^k <= 1 - q, stops at k."""
    amax = float(np.max(np.abs(a)))
    cutoff, reach = 1e-15 * (1.0 - q), 1.0 - q
    n = (int(math.ceil(math.log(cutoff / amax) / math.log(q)))
         if amax > cutoff else 1)
    if n > 1_000_000:
        raise NonConvergent(f"needs {n:,} factors")
    k = int(math.ceil(math.log(reach / amax) / math.log(q))) if amax > reach \
        else 0
    return (k, True) if n - k >= 100 else (max(n, 1), False)


def euler_coefficients(q):
    """d_0..d_20 of (x; q)_inf = sum_n d_n x^n: d_n = -d_{n-1} q^{n-1} /
    (1 - q^n), 1 - q^n as (1 - q)(1 + q + ... + q^{n-1})."""
    coef, qn, bracket = [1.0], 1.0, 0.0
    for _ in range(20):
        bracket += qn
        coef.append(-coef[-1] * qn / ((1.0 - q) * bracket))
        qn *= q
    return coef


def sequential_pochhammer_inf(a, q):
    """(a; q)_inf one factor per step, then Euler's series by Horner's rule
    where steps_for takes it: the value qpochhammer_inf must reproduce bit
    for bit.  With the series, each q^k is Python's q**k; without it, a
    running product of q's."""
    a = np.asarray(a, dtype=complex)
    amax = float(np.max(np.abs(a))) if a.size else 0.0
    out = np.ones(a.shape, dtype=complex)
    if amax == 0.0 or not np.isfinite(amax):
        if not np.isfinite(amax):
            raise ValueError("qpochhammer_inf requires finite arguments")
        return complex(out) if out.ndim == 0 else out
    nsteps, tail = steps_for(a, q)
    qk = 1.0
    for k in range(nsteps):
        out = out * (1.0 - a * (q**k if tail else qk))
        qk *= q
    if tail:
        x, coef = a * q**nsteps, euler_coefficients(q)
        s = coef[-1]
        for d in coef[-2::-1]:
            s = s * x + d
        out = out * s
    return complex(out) if out.ndim == 0 else out


def at_steps(a, steps, series):
    """(a rescaled, q) at which the kernel takes exactly `steps` factors,
    half a step from either end of its rule.  Without the series: q^steps
    = 5e-16, or q = 0.7 past 98 steps, and max|a| q^(steps - 1/2) =
    1e-15 (1 - q), so |a| stays above 1e-8 and the series would replace
    at most 97 factors.  Before Euler's series: max|a|
    q^(steps - 1/2) = 1 - q at q = max(0.9, 300^(-1/steps)); then the
    series replaces over 300 factors, and max|a| / (1 - q) <= 300 bounds
    the log of the product's size by 300."""
    if series:
        q, bound = max(0.9, 300.0**(-1.0 / steps)), 1.0
    else:
        q, bound = min(0.7, 5e-16**(1.0 / steps)), 1e-15
    return a * (bound * (1.0 - q) * q**(0.5 - steps)
                / float(np.max(np.abs(a)))), q


def assert_bitwise_equal(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)
    # array_equal treats -0.0 and 0.0 as equal; the bytes do not.
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def draw_arguments(rng, shape, kind):
    phase = np.exp(2j * np.pi * rng.uniform(size=shape))
    if kind == "real":
        return rng.uniform(-0.95, 0.95, shape)
    if kind == "complex":
        return rng.uniform(0.0, 0.95, shape) * phase
    return rng.uniform(1.0, 2.5, shape) * phase  # |a| > 1


class TestQPochhammerInfBlocked:
    """The blocked kernel against the sequential product, bit for bit."""

    @pytest.mark.parametrize("shape", [(), (1,), (256,), (3, 5)])
    @pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("kind", ["real", "complex", "big"])
    def test_matches_sequential_product(self, shape, q, kind):
        seed = zlib.crc32(repr((shape, q, kind)).encode())
        a = draw_arguments(np.random.default_rng(seed), shape, kind)
        assert_bitwise_equal(qpochhammer_inf(a, q),
                             sequential_pochhammer_inf(a, q))

    @pytest.mark.parametrize("shape", [(), (1,), (256,), (3, 5), (2048,),
                                       (4097,), (700,)])
    def test_step_counts_across_block_edges(self, shape):
        a = draw_arguments(np.random.default_rng(5), shape, "complex")
        # Factor rows per block as the kernel takes them: (rows + 1) x width
        # within _BLOCK_ELEMS, or 7 rows past _BLOCK_ELEMS // 8 columns; a
        # 1-element array is two columns wide, a 0-d argument one.
        width = max(2, int(np.prod(shape))) if shape else 1
        block = _BLOCK_ELEMS // min(width, _BLOCK_ELEMS // 8) - 1
        # The plain product runs past about 97 factors only at q <= 0.7,
        # with max|a| > 1, and overflows past about 165 factors there (at
        # 150, max|a| is 4e7 and the product 9e193).  So it crosses a block
        # edge only at 256 columns and more, all four edges at 700 and up.
        for steps in sorted({1, 7, block - 1, block, block + 1,
                             3 * block + 5}):
            for series in (False, True) if steps <= 150 else (True,):
                b, q = at_steps(a, steps, series)
                assert steps_for(b, q) == (steps, series)
                assert_bitwise_equal(qpochhammer_inf(b, q),
                                     sequential_pochhammer_inf(b, q))

    def test_python_scalars(self):
        for a in (0.3, -0.7 + 0.2j, 2, np.complex128(1.5 - 0.5j)):
            assert_bitwise_equal(qpochhammer_inf(a, 0.9),
                                 sequential_pochhammer_inf(a, 0.9))

    def test_signed_zeros_and_exact_zero_factors(self):
        # a = 1 makes the first factor exactly 0, and later factors of either
        # sign set the signs of the zeros in the running product; those must
        # follow the sequential product across many block boundaries, and
        # at q = 0.9 through Euler's series too.
        a = np.tile([1.0, -1.0, complex(0.0, -0.0), complex(-0.0, 0.5),
                     complex(1.0, -0.0), 3.0 + 0.0j, complex(3.0, -0.0),
                     -0.5], 32)
        for q in (0.7, 0.9):
            assert steps_for(a, q)[1] == (q == 0.9)
            assert_bitwise_equal(qpochhammer_inf(a, q),
                                 sequential_pochhammer_inf(a, q))

    def test_underflowed_product_keeps_zero_signs(self):
        # At q=0.998 these products underflow to zeros whose signs depend on
        # the exact order of the multiplications (a reduction that starts
        # from the identity 1 + 0j turns 0 - 0j into 0 + 0j).
        a = 1.5 * np.exp(np.array([0.02j, -0.02j]))
        got = qpochhammer_inf(a, 0.998)
        assert np.all(got == 0)
        assert_bitwise_equal(got, sequential_pochhammer_inf(a, 0.998))

    @pytest.mark.parametrize("shape", [(0,), (2, 0)])
    def test_empty_array(self, shape):
        a = np.zeros(shape, dtype=complex)
        assert_bitwise_equal(qpochhammer_inf(a, 0.5),
                             sequential_pochhammer_inf(a, 0.5))

    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(0.2, np.inf)])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            qpochhammer_inf(np.array([0.3, bad]), 0.5)

    @pytest.mark.parametrize("q,points", [(0.5, 12), (0.89, 8), (0.97, 4),
                                          (0.99, 4), (0.995, 2)])
    def test_mpmath_oracle(self, q, points):
        # Each argument as an element of an array and as a 0-d argument,
        # |a| = q^{1/2} and |a| > 1; from q = 0.89 through Euler's series.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(17)
        args = np.concatenate([
            math.sqrt(q) * np.exp(2j * np.pi * np.arange(points) / points),
            draw_arguments(rng, (points,), "big")])
        got = qpochhammer_inf(args, q)
        lone = qpochhammer_inf_each(list(map(complex, args)), q)
        assert steps_for(args, q)[1] == (q > 0.5)
        for a, value, scalar in zip(args, got, lone):
            want = complex(mpmath.qp(mpmath.mpc(a), mpmath.mpf(q),
                                     maxterms=10**5))
            assert abs(value - want) <= 1e-13 * abs(want)
            assert abs(scalar - want) <= 1e-13 * abs(want)


class TestQPochhammerInfEach:
    """One batch call against lone calls and the sequential product, byte
    for byte: each argument keeps its own truncation and its own columns."""

    QS = [0.05, 0.5, 0.89, 0.97, 0.995]

    @staticmethod
    def batch(rng):
        """Shapes (), (1,) and (N,); a = 0, |a| below the cutoff, and real,
        complex and |a| > 1 arguments, in one shuffled batch."""
        args = [draw_arguments(rng, shape, kind)
                for shape in [(), (1,), (256,)]
                for kind in ("real", "complex", "big")]
        args += [np.zeros(()), np.zeros(1), np.zeros(256),
                 1e-21 * draw_arguments(rng, (), "complex"),
                 1e-21 * draw_arguments(rng, (256,), "complex"),
                 0.3 - 0.2j, np.concatenate([draw_arguments(rng, (5,), kind)
                                             for kind in ("real", "big")])]
        return [args[i] for i in rng.permutation(len(args))]

    @pytest.mark.parametrize("q", QS)
    def test_matches_lone_calls(self, q):
        args = self.batch(np.random.default_rng(int(q * 1000)))
        got = qpochhammer_inf_each(args, q)
        assert len(got) == len(args)
        for a, value in zip(args, got):
            assert_bitwise_equal(value, qpochhammer_inf(a, q))
            assert_bitwise_equal(value, sequential_pochhammer_inf(a, q))

    @pytest.mark.parametrize("q", QS)
    def test_many_scalars(self, q):
        # Scalars lie along contiguous columns, as a lone 0-d call reduces.
        rng = np.random.default_rng(int(q * 1000) + 1)
        args = [complex(x) for x in draw_arguments(rng, (40,), "complex")]
        for a, value in zip(args, qpochhammer_inf_each(args, q)):
            assert_bitwise_equal(value, sequential_pochhammer_inf(a, q))

    def test_ends_inside_blocks(self):
        # At q = 0.99 the three scales take 0, about 300 and about 400
        # factors before Euler's series: each argument ends inside its
        # first block, and the 0-d block's running columns shrink.
        q, rng = 0.99, np.random.default_rng(8)
        args = [draw_arguments(rng, shape, "complex") * scale
                for shape in [(), (1,), (64,)] for scale in (1e-3, 0.3, 0.9)]
        for a, value in zip(args, qpochhammer_inf_each(args, q)):
            assert_bitwise_equal(value, sequential_pochhammer_inf(a, q))

    @pytest.mark.parametrize("q", [0.75, 0.9, 0.99])
    def test_one_element_and_0d_at_scale(self, q):
        # 200 seeded 1-element arrays and 200 0-d arguments, in one batch
        # and alone.  A product into one element in place rounds as Python
        # does, not as numpy's elementwise loop, so a 1-element array that
        # lost its second column anywhere, its series included, shows.
        rng = np.random.default_rng(int(q * 1000) + 3)
        kinds = ("real", "complex", "big")
        args = [x for j in range(200) for x in (
            draw_arguments(rng, (1,), kinds[j % 3]),
            complex(draw_arguments(rng, (), kinds[j % 3])))]
        for a, value in zip(args, qpochhammer_inf_each(args, q)):
            want = sequential_pochhammer_inf(a, q)
            assert_bitwise_equal(value, want)
            assert_bitwise_equal(qpochhammer_inf(a, q), want)

    def test_empty_batch_and_empty_arrays(self):
        assert qpochhammer_inf_each([], 0.5) == []
        a = np.zeros((2, 0), dtype=complex)
        (got,) = qpochhammer_inf_each([a], 0.5)
        assert_bitwise_equal(got, sequential_pochhammer_inf(a, 0.5))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            qpochhammer_inf_each([0.3, np.array([0.2, np.nan])], 0.5)


class TestKernelLanes:
    """The 0-d block's inputs, arrays wider than _BLOCK_ELEMS // 8 columns,
    and the memory one batch takes."""

    @pytest.mark.parametrize("q", TestQPochhammerInfEach.QS)
    def test_scalar_lane_mixed_inputs(self, q):
        # Python numbers, numpy scalars and 0-d arrays share one block,
        # each turned into a Python complex once.
        rng = np.random.default_rng(int(q * 1000) + 2)
        draws = draw_arguments(rng, (12,), "complex")
        args = [2, -0.5, 0.3 - 0.2j, np.float64(0.7), np.asarray(-0.25),
                complex(0.0, -0.0), np.complex128(complex(-0.4, -0.0)),
                np.zeros(()), *map(np.complex128, draws[:4]),
                *map(np.asarray, draws[4:8]), *map(complex, draws[8:])]
        args = [args[i] for i in rng.permutation(len(args))]
        for a, value in zip(args, qpochhammer_inf_each(args, q)):
            assert_bitwise_equal(value, qpochhammer_inf(a, q))
            assert_bitwise_equal(value, sequential_pochhammer_inf(a, q))

    @pytest.mark.parametrize("sizes", [(4095, 2, 4097), (8193,),
                                       (4097, 1, 3, 4094), (3, 4094, 1)])
    @pytest.mark.parametrize("q", [0.3, 0.9])
    def test_lanes_wider_than_a_block(self, sizes, q):
        # Past _BLOCK_ELEMS // 8 columns an array takes 7 factor rows a
        # block, a block of 8 times its width.  The sizes straddle 4,096
        # columns, where the kernel once cut concatenated arrays into
        # groups of columns: a group left with an argument's last column
        # alone reduced it in place as one element, which rounds as Python
        # does, and a plain cut every 4,096 columns failed at 4,097.
        rng = np.random.default_rng(sum(sizes))
        args = [draw_arguments(rng, (size,), "big") * 10.0**-k
                for k, size in enumerate(sizes)]
        for a, value in zip(args, qpochhammer_inf_each(args, q)):
            assert_bitwise_equal(value, sequential_pochhammer_inf(a, q))

    def test_wide_batch_stays_within_its_block(self):
        # 60 arrays of 256 points, the shape of the ten random parameter
        # sets' batch before their rows became a series.  Each array's
        # block of at most _BLOCK_ELEMS elements reuses one buffer, and at
        # q = 0.99 Euler's series runs in the same buffer: with the results
        # and numpy's ufunc buffers the call peaks at about 1.06 MB.  A
        # (rows + 1) x 15,360 block of rows >= 1 took it to 1.46 MB.
        import tracemalloc
        rng = np.random.default_rng(3)
        args = [draw_arguments(rng, (256,), "complex") for _ in range(60)]
        for q in (0.5, 0.99):
            assert steps_for(args[0], q)[1] == (q == 0.99)
            tracemalloc.start()
            try:
                qpochhammer_inf_each(args, q)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.1e6

    @pytest.mark.parametrize("a, q, steps", [
        (1e-7, 0.999999, "32,236,176"), (1e-4, 0.99999, "3,684,118")])
    def test_step_cap_raises(self, a, q, steps):
        # Cut at 1,000,000 factors these returned 0.93874 against 0.90484,
        # and a value 4.5e-4 off, where the docstring promises ~2 * tol.
        message = rf"q={q!r} .* needs {steps} factors"
        with pytest.raises(NonConvergent, match=message):
            qpochhammer_inf(a, q)
        with pytest.raises(NonConvergent, match=message):
            qpochhammer_inf_each([0.0, np.full(3, a)], q)


class TestEulerTail:
    """Where the kernel trades the product's last factors for Euler's
    series, and what the series alone is worth."""

    @pytest.mark.parametrize("q", [0.05, 0.3, 0.55, 0.7])
    def test_no_series_up_to_q_0_70(self, q):
        # The series replaces about 34.5 / -log q factors, under 100 here,
        # so every argument keeps the plain product bit for bit.
        a = np.concatenate([draw_arguments(np.random.default_rng(9), (64,),
                                           "complex") * 10.0**k
                            for k in range(-20, 6, 5)])
        for b in np.split(a, 6):
            assert not steps_for(b, q)[1]
        assert_bitwise_equal(qpochhammer_inf(a, q),
                             sequential_pochhammer_inf(a, q))

    @pytest.mark.parametrize("q", [0.75, 0.9, 0.99, 0.9999])
    def test_series_meets_its_bound(self, q):
        # |x| just under 1 - q, the largest the series takes, so that no
        # factor comes first and its 21 terms carry every digit; against
        # log (x; q)_inf = -sum_m x^m / (m (1 - q^m)) at 30 digits, whose
        # 60 terms reach 1e-36 for |x| <= 1/4.
        mpmath = pytest.importorskip("mpmath")
        x = 0.999 * (1.0 - q) * np.exp(2j * np.pi * np.arange(8) / 8)
        assert steps_for(x, q) == (0, True)
        got = qpochhammer_inf(x, q)
        with mpmath.workdps(30):
            qm = mpmath.mpf(q)
            for a, value in zip(x, got):
                y = mpmath.mpc(a)
                want = complex(mpmath.exp(-mpmath.fsum(
                    y**m / (m * (1 - qm**m)) for m in range(1, 61))))
                assert abs(value - want) <= 1e-15 * abs(want)


def numpy_0d_pochhammer(a, q, n):
    """qpochhammer of a 0-d argument as numpy 0-d arithmetic ran it: the
    bytes its Python complex loop has to reproduce."""
    a = np.asarray(a, dtype=complex)
    out = np.ones(a.shape, dtype=complex)
    qk = 1.0
    for _ in range(n):
        out = out * (1.0 - a * qk)
        qk *= q
    return complex(out)


@pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.99])
def test_qpochhammer_scalar_bytes(q):
    rng = np.random.default_rng(int(q * 100))
    draws = (rng.uniform(0.0, 10.0, 8)
             * np.exp(2j * np.pi * rng.uniform(size=8)))
    args = [0, 0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), 1, -3,
            2.5, np.float64(-0.75), np.complex128(1.5 - 0.5j),
            complex(-7.5, 0.0), complex(0.3, -0.0), np.asarray(0.2 + 0.1j),
            *rng.uniform(-10.0, 10.0, 8), *map(complex, draws),
            *map(np.complex128, draws[:3]),
            # a = q^-j: the factor 1 - a q^j is 0, exactly where q^j is.
            *(q**-j for j in range(6)), *(complex(q**-j, -0.0)
                                           for j in range(1, 4))]
    for a in args:
        for n in range(41):
            assert_bitwise_equal(qpochhammer(a, q, n),
                                 numpy_0d_pochhammer(a, q, n))


class TestQMultiPochhammer:
    def test_empty_list(self):
        assert qmultipochhammer([], 0.5, 3) == 1

    def test_two_factors(self):
        assert qmultipochhammer([0.3, 0.4], 0.5, 1) == pytest.approx(0.42)

    def test_singleton_consistency(self):
        assert qmultipochhammer([0.25], 0.5, 4) == \
            pytest.approx(qpochhammer(0.25, 0.5, 4))

    def test_products_in_order(self):
        params, q = [0.3 + 0.1j, -0.2, 0.45j, np.complex128(0.6 - 0.3j)], 0.7
        for n in range(8):
            want = 1.0 + 0.0j
            for a in params:
                want = want * qpochhammer(a, q, n)
            assert_bitwise_equal(qmultipochhammer(params, q, n), want)

    @pytest.mark.parametrize("order, error", [(math.inf, OverflowError),
                                              (None, TypeError)])
    def test_finite_order_only(self, order, error):
        # The infinite product is qpochhammer_inf's; no order stands for it.
        with pytest.raises(error):
            qmultipochhammer([0.3, 0.2], 0.5, order)


def frozen_phi(numerator_params, denominator_params, q):
    """The former phi(PhiSpec(numerator_params, denominator_params, q, q)),
    frozen at its terminating path: terminating_index found n by scanning
    the numerator parameters for q^{-n}, to a relative 1e-9."""
    nums = tuple(complex(x) for x in numerator_params)
    dens = tuple(complex(x) for x in denominator_params)
    z = complex(q)
    excess = len(dens) + 1 - len(nums)
    n_stop = None
    for x in nums:
        qn = 1.0
        for n in range(201):
            if abs(x - qn) < 1e-9 * qn:
                if n_stop is None or n < n_stop:
                    n_stop = n
                break
            if qn * (1.0 - 1e-9) >= abs(x):
                break
            qn /= q
    t = 1.0 + 0.0j
    total = t
    for k in range(n_stop):
        num = 1.0 + 0.0j
        for a in nums:
            num *= (1.0 - a * q**k)
        den = 1.0 - q**(k + 1)
        for b in dens:
            den *= (1.0 - b * q**k)
        t = t * (num / den) * z
        if excess:
            t *= (-(q**k))**excess
        total += t
    return total


def term_from_scratch(numerators, denominators, q, n):
    """n-th term of the balanced series, with argument q, computed directly
    from q-shifted factorial ratios."""
    num = 1.0 + 0.0j
    for a in numerators:
        num *= qpochhammer(a, q, n)
    den = qpochhammer(q, q, n)
    for b in denominators:
        den *= qpochhammer(b, q, n)
    return num / den * q**n


class TestPhi:
    def test_numerator_one_terminates_immediately(self):
        # n = 0: q^{-0} = 1 and (1; q)_k = 0 for k >= 1, so the series is
        # its first term.
        assert phi(0, (0.3, 0.2), (0.7, 0.1), 0.5) == 1

    def test_terminating_matches_scratch_sum(self):
        q = 0.45
        n = 6
        nums, dens = (0.3, 0.2 + 0.1j, 0.6), (0.25, 0.15, 0.35)
        expected = sum(term_from_scratch((q**-n,) + nums, dens, q, k)
                       for k in range(n + 1))
        # q^{-n} makes individual terms large; the alternating sum loses a
        # few digits to cancellation on both routes.
        assert phi(n, nums, dens, q) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("q", [0.12, 0.5, 0.9])
    def test_sears_sides_match_frozen_phi(self, q):
        # Both series of seeded Sears checks, byte for byte the former
        # PhiSpec path, which searched the parameters for q^{-n}.
        rng = np.random.default_rng(int(q * 100))
        for n in range(9):
            for _ in range(40):
                A, B, C, D, E, F = random_balanced_sears(rng, q, n)
                _, args = sears_transform(n, A, B, C, D, E, F, q)
                for nums, dens in (((A, B, C), (D, E, F)),
                                   (args[:3], args[3:])):
                    assert repr(phi(n, nums, dens, q)) == \
                        repr(frozen_phi((q**-n, *nums), dens, q))

    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_one_power_per_term_bit_for_bit(self, seed):
        # phi reads q^k once per term; it raised q to the k once per
        # numerator and once per denominator, the same floats.
        def reference(n, numerators, denominators, q):
            nums = [complex(q**-n), *map(complex, numerators)]
            dens = [complex(b) for b in denominators]
            t = total = 1.0 + 0.0j
            for k in range(n):
                num = 1.0 + 0.0j
                for a in nums:
                    num *= (1.0 - a * q**k)
                den = 1.0 - q**(k + 1)
                for b in dens:
                    den *= (1.0 - b * q**k)
                t = t * (num / den) * complex(q)
                total += t
            return total

        rng = np.random.default_rng(seed)
        for _ in range(300):
            q, n = float(rng.uniform(0.02, 0.99)), int(rng.integers(0, 9))
            A, B, C, D, E, F = random_balanced_sears(rng, q, n)
            got = phi(n, (A, B, C), (D, E, F), q)
            want = reference(n, (A, B, C), (D, E, F), q)
            assert np.complex128(got).tobytes() == \
                np.complex128(want).tobytes()

    @pytest.mark.parametrize("n, dens", [(2, (0.4,)), (-1, (0.4, 0.1))])
    def test_bad_order_or_parameter_counts_rejected(self, n, dens):
        with pytest.raises(ValueError, match="n >= 0 and as many numerators"):
            phi(n, (0.3, 0.2), dens, 0.5)

    def test_pole_in_denominator(self):
        q = 0.5
        with pytest.raises(PoleInDenominator):
            phi(3, (0.3, 0.2), (q**-2, 0.4), q)


class TestThetaSum:
    def test_inversion_symmetry(self):
        for z in (0.7 + 0.2j, 2.0, -1.3 + 1j):
            assert theta_sum(z, 0.5) == pytest.approx(theta_sum(1 / z, 0.5))

    def test_conjugation(self):
        z = np.exp(0.8j)
        assert theta_sum(np.conj(z), 0.5) == \
            pytest.approx(np.conj(theta_sum(z, 0.5)))

    def test_matches_triple_product_at_one(self):
        assert abs(theta_sum(1.0, 0.5) - jacobi_triple_product(1.0, 0.5)) \
            < 1e-12

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
    def test_triple_product_on_circle(self, q):
        z = np.exp(2j * np.pi * np.arange(32) / 32)
        residual = np.max(np.abs(np.asarray(theta_sum(z, q))
                                 - np.asarray(jacobi_triple_product(z, q))))
        assert residual < 1e-10

    @pytest.mark.parametrize("q", [0.998, 0.9999, 0.999999])
    @pytest.mark.parametrize("phi", [0.0, 0.8])
    def test_near_one_meets_its_bound(self, q, phi):
        # Capped at K = 2000 terms a side, the sum at q = 0.999999 and z = 1
        # read 1764.25 for 1772.45; it needs K = 5,879.  The error is judged
        # against the sum of |terms|, the value at z = 1.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            want = complex(mpmath.jtheta(3, phi / 2, mpmath.mpf(q)))
            scale = float(mpmath.jtheta(3, 0, mpmath.mpf(q)))
        got = theta_sum(complex(math.cos(phi), math.sin(phi)), q)
        assert abs(got - want) <= 1e-12 * scale

    @pytest.mark.parametrize("z", [1.5, 2.0 / 3.0])
    def test_off_circle_near_one(self, z):
        # The truncation rule raised 1.5**K in floats, which overflowed near
        # K = 1750, and z^n overflowed in the sum, while the value, about
        # 5.45e180, is a float.  Its largest terms, n near 2,000, are past
        # the last n = 1,726 at which 1.5^n stays below e^700.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            want = complex(mpmath.jtheta(3, -0.5j * mpmath.log(mpmath.mpf(z)),
                                         mpmath.mpf(0.9999)))
        got = theta_sum(z, 0.9999)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 0.999, 0.9999])
    def test_rounding_bounds_the_error(self, q):
        # theta_rounding bounds theta_sum's error against mpmath's jtheta at
        # random points with |z| in [e^-0.7, e^0.7] (on 180 such points the
        # error reached 1% of the bound); where the value exceeds it, the
        # value keeps digits.  At z = 1.5i and q = 0.9999 the sum printed
        # 6.4e165 for 2.1e105: its terms, up to 5.5e180, cancel.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(zlib.crc32(repr(q).encode()))
        points = [1.5j, -1.5, -1.0, 1.5, *(
            np.exp(rng.uniform(-0.7, 0.7) + 1j * rng.uniform(-np.pi, np.pi))
            for _ in range(8))]
        for z in points:
            with np.errstate(over="ignore", invalid="ignore"):
                got, bound = theta_sum(z, q), theta_rounding(z, q)
            if not (np.isfinite(got) and np.isfinite(bound)):
                continue
            with mpmath.workdps(60):
                want = complex(mpmath.jtheta(
                    3, -0.5j * mpmath.log(mpmath.mpc(z)), mpmath.mpf(q)))
            assert abs(got - want) <= bound, z
        assert abs(theta_sum(1.5, q)) > theta_rounding(1.5, q)

    def test_past_the_term_cap_raises(self):
        with pytest.raises(NonConvergent, match=r"theta sum at "
                           r"q=0\.9999999999 .* needs K > 100,000 terms"):
            theta_sum(1.0, 0.9999999999)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            theta_sum(0.0, 0.5)
