import json
import math

import numpy as np

from qcircle.report import IdentityReport, nan_max, to_csv, to_json


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


class TestWriters:
    def test_report_json_writes_complex_as_re_im(self):
        rep = IdentityReport("x", 0.0, 1e-10, 4, {"a": np.complex128(0.3j)},
                             {"pair": (1 + 2j, 0.5)})
        doc = json.loads(to_json(rep.as_dict()))
        assert doc["params"] == {"a": [0.0, 0.3]}
        assert doc["notes"] == {"pair": [[1.0, 2.0], 0.5]}
        assert doc["passed"] is True

    def test_csv_has_lf_line_ends_and_no_trailing_newline(self):
        assert to_csv(["m", "v"], [[0, 1.5], [1, "a,b"]]) == \
            'm,v\n0,1.5\n1,"a,b"'
