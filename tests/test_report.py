import json
import math

import numpy as np
import pytest

from qcircle.report import IdentityReport, nan_max, to_csv, to_json, worst


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


class TestWorst:
    @pytest.mark.parametrize("diff", [
        np.array([1.0, math.nan, 2.0]), [1.0, math.nan, 2.0], math.nan,
        complex(math.nan, 0.0)])
    def test_nan_anywhere_gives_nan_and_fails(self, diff):
        residual = worst(diff)
        assert math.isnan(residual)
        assert not IdentityReport("x", residual, 1e-10, 4).passed

    def test_empty_list_gives_zero(self):
        assert worst([]) == 0.0

    def test_table_gives_one_value_per_row(self):
        table = np.array([[1.0, -3.0], [0.5j, 0.25], [math.nan, 0.0]])
        first, second, third = worst(table)
        assert (first, second) == (3.0, 0.5) and math.isnan(third)

    def test_array_scale_divides_entry_by_entry(self):
        assert worst(np.array([3.0, -8.0]), np.array([1.0, 16.0])) == 3.0

    @pytest.mark.parametrize("kind", [np.array, list])
    def test_scalar_scale_is_max_over_scale(self, kind):
        d = np.random.default_rng(1).standard_normal(64) * 1e-3
        assert worst(kind(d), 0.7) == float(np.max(np.abs(d))) / 0.7

    def test_array_takes_numpys_abs_and_the_rest_hypot(self):
        z = np.random.default_rng(0).standard_normal((2000, 2)) @ [1, 1j]
        split = [complex(v) for v in z if np.abs(np.array([v]))[0]
                 != math.hypot(v.real, v.imag)]
        if not split:
            pytest.skip("numpy's complex abs is hypot on this platform")
        d = split[0]
        assert worst(np.array([d])) == np.abs(np.array([d]))[0]
        assert worst([d]) == worst(d) == math.hypot(d.real, d.imag)


class TestWriters:
    def test_report_json_writes_complex_as_re_im(self):
        rep = IdentityReport("x", 0.0, 1e-10, 4, {"a": np.complex128(0.3j)},
                             {"pair": (1 + 2j, 0.5)})
        doc = json.loads(to_json(rep.as_dict()))
        assert doc["params"] == {"a": [0.0, 0.3]}
        assert doc["notes"] == {"pair": [[1.0, 2.0], 0.5]}
        assert doc["passed"] is True

    def test_json_is_one_line_that_reads_back(self):
        doc = {"b": [math.nan, math.inf, -math.inf],
               "a": ((1, (2.5, np.float64(0.1))), np.complex128(1e-300 - 2j)),
               "c": {"z": np.float64(-0.0), "y": 3 + 0j}}
        text = to_json(doc)
        assert "\n" not in text
        assert text.startswith('{"a": [[1, [2.5, 0.1]], [1e-300, -2.0]], "b"')
        back = json.loads(text)
        assert back["a"] == [[1, [2.5, 0.1]], [1e-300, -2.0]]
        assert math.isnan(back["b"][0]) and back["b"][1:] == [math.inf,
                                                               -math.inf]
        assert back["c"] == {"y": [3.0, 0.0], "z": -0.0}
        assert math.copysign(1.0, back["c"]["z"]) == -1.0

    def test_csv_has_lf_line_ends_and_no_trailing_newline(self):
        assert to_csv(["m", "v"], [[0, 1.5], [1, "a,b"]]) == \
            'm,v\n0,1.5\n1,"a,b"'
