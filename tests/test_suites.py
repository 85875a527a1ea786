import numpy as np

from qcircle.qcore import qval
from qcircle.suites import random_balanced_sears


def sears_by_uniform(rng, q, n):
    """random_balanced_sears as ten rng.uniform calls and one np.exp per
    draw: the numbers and types its batched draw has to reproduce."""
    qv = qval(q)

    def draw():
        return rng.uniform(0.2, 0.8) * np.exp(2j * np.pi * rng.uniform())

    A, B, C, D, E = (draw() for _ in range(5))
    F = A * B * C * qv**(1 - n) / (D * E)
    return A, B, C, D, E, F


def test_random_balanced_sears_bytes():
    for seed in range(300):
        rng, frozen = np.random.default_rng(seed), np.random.default_rng(seed)
        for q, n in ((0.12, 0), (0.5, 4), (0.9, 8)):
            got = random_balanced_sears(rng, q, n)
            want = sears_by_uniform(frozen, q, n)
            assert [type(x) for x in got] == [np.complex128] * 6
            assert [type(x) for x in want] == [np.complex128] * 6
            assert b"".join(x.tobytes() for x in got) == \
                b"".join(x.tobytes() for x in want)
        # Both drew the same number of doubles.
        assert rng.random() == frozen.random()
