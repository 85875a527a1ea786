import math
import statistics

import pytest

import harness
from workloads import WORKLOADS, verdict_inputs


@pytest.mark.parametrize("preferred", harness.TAIL_LADDER)
def test_tail_keeps_ten_samples_beyond(preferred):
    for n in range(1, 3000):
        if n < 2 * harness.MIN_BEYOND_TAIL:
            # Not even the median leaves ten samples beyond it.
            with pytest.raises(harness.TooFewSamples):
                harness.tail_percentile(n, preferred)
            continue
        p = harness.tail_percentile(n, preferred)
        _, beyond = harness.nearest_rank(range(n), p)
        assert p <= preferred
        assert beyond >= harness.MIN_BEYOND_TAIL, (n, p)
        higher = [x for x in harness.TAIL_LADDER if p < x <= preferred]
        for x in higher:  # no higher allowed percentile would have served
            assert n - math.ceil(x / 100 * n) < harness.MIN_BEYOND_TAIL


def test_nearest_rank():
    samples = [5, 1, 4, 2, 3, 10, 9, 8, 7, 6]
    assert harness.nearest_rank(samples, 50) == (5, 5)
    assert harness.nearest_rank(samples, 90) == (9, 1)
    assert harness.nearest_rank([7], 99) == (7, 0)


def test_mix_percentiles_of_one_kind_are_plain_percentiles():
    times = [0.1 * (k % 7 + 1) for k in range(40)]
    p50, tail, beyond = harness.mix_percentiles(
        [("a", t) for t in times], ("a",), 75.0)
    assert p50 == pytest.approx(harness.nearest_rank(times, 50.0)[0])
    assert (tail, beyond) == pytest.approx(harness.nearest_rank(times, 75.0))


def test_mix_percentiles_move_with_either_kind():
    def mix(slow_b):
        timed = []
        for k in range(30):
            timed.append(("a", 2.0 + 0.01 * k))
            timed.append(("b", (1.0 + 0.01 * k) * slow_b))
        return harness.mix_percentiles(timed, ("a", "b"), 75.0)

    p50, tail, beyond = mix(1.0)
    assert p50 == pytest.approx((2.14 + 1.14) / 2)
    assert beyond == 15
    slow_p50, slow_tail, _ = mix(2.0)
    # Doubling the cheaper kind alone moves both by its share of the mix.
    assert slow_p50 / p50 == pytest.approx((2.14 + 2.28) / (2.14 + 1.14))
    assert slow_tail / tail == pytest.approx(slow_p50 / p50)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_seed(name):
    def first(seed, n=12):
        gen = verdict_inputs(WORKLOADS[name], seed)
        return [next(gen)[1] for _ in range(n)]

    assert first(4) == first(4)
    assert first(4) != first(5)
    for kind, argv in zip(WORKLOADS[name].pattern * 4, first(4)):
        lo, hi = kind.q_band
        assert lo <= float(argv[argv.index("--q") + 1]) <= hi


def test_generated_inputs_are_valid_verdicts():
    cli = harness.load_cli()
    gen = verdict_inputs(WORKLOADS["gram_json"], 7)
    for _ in range(4):
        kind, argv = next(gen)
        small = [*argv]
        small[small.index("--grid") + 1] = "128"
        small[small.index("--max-n") + 1] = "3"
        run = harness.run_verdict(cli, small)
        assert run.code in (0, 1), run.err


def test_calibration_spends_its_share_and_scales():
    calibration = harness.Calibration()
    primed = harness.CALIBRATION_WINDOW
    spent = sum(calibration.after_verdict(0.2) for _ in range(3))
    assert spent >= 3 * 0.2 * harness.CALIBRATION_SHARE
    assert spent == pytest.approx(sum(calibration.samples[primed:]))
    # All samples from `since` on, but never fewer than a window.
    assert calibration.scale(0) == pytest.approx(
        harness.CALIBRATION_REF_S / statistics.fmean(calibration.samples))
    latest = calibration.samples[-harness.CALIBRATION_WINDOW:]
    assert calibration.scale(len(calibration.samples)) == pytest.approx(
        harness.CALIBRATION_REF_S / statistics.fmean(latest))
