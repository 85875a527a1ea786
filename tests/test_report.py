import math

import numpy as np

from qcircle.report import IdentityReport, nan_max


class TestNanMax:
    def test_plain_max(self):
        assert nan_max(0.0, 2.5, 1.0) == 2.5

    def test_nan_in_any_position_propagates(self):
        assert math.isnan(nan_max(0.0, math.nan))
        assert math.isnan(nan_max(math.nan, 0.0))
        assert math.isnan(nan_max(1.0, np.float64("nan"), 3.0))

    def test_nan_residual_fails(self):
        rep = IdentityReport("x", nan_max(0.0, math.nan), 1e-10, 4)
        assert not rep.passed
