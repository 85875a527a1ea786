"""Identity verification reports."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np


def nan_max(*values) -> float:
    """The largest of `values`, or NaN if any of them is NaN.

    The builtin max keeps its running value when a comparison with NaN is
    False, so max(0.0, nan) is 0.0 and a NaN residual would read as a PASS.
    """
    if any(math.isnan(v) for v in values):
        return math.nan
    return float(max(values))


def worst(diff, scale=1.0):
    """The one residual rule: the largest |diff| / scale, NaN if any is.

    On a numpy array the reduction runs over the last axis, so a row gives
    a float and a table one value per row, and an array `scale` divides
    entry by entry, silently: a 0/0 is a NaN residual, so a FAIL.  A list
    or a number takes Python's abs (hypot), which numpy's vectorized abs
    can miss in the last bit; an empty list gives 0.0.  No numpy runs on
    the number path.
    """
    if isinstance(diff, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.max(np.abs(diff) / scale, axis=-1).tolist()
    if isinstance(diff, list):
        return nan_max(0.0, *(abs(d) / scale for d in diff))
    return abs(diff) / scale


def re_im(value) -> list:
    """The `default` hook of to_json: a complex number (numpy's included)
    as [re, im]."""
    if not isinstance(value, complex):
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    return [value.real, value.imag]


def to_json(doc) -> str:
    """The one JSON writer: one line, sorted keys, complex numbers as
    [re, im].  Without `indent` CPython encodes in C; `python -m json.tool`
    indents the line for reading."""
    return json.dumps(doc, sort_keys=True, default=re_im)


def to_csv(header, rows) -> str:
    """The one CSV writer: LF line ends, not csv's CRLF, and none after the
    last row, which the printer ends; so no blank row follows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().removesuffix("\n")


@dataclass(frozen=True)
class IdentityReport:
    """Residual, tolerance and pass/fail for one verified identity.

    `informational` marks a report that never fails a suite; no check sets
    it, and JSON and CSV keep the field.  Invariant: passed iff residual <
    tolerance.
    """

    name: str
    residual: float
    tolerance: float
    grid_size: int
    params: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    informational: bool = False
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        object.__setattr__(self, "passed", self.residual < self.tolerance)

    def as_dict(self) -> dict:
        # A shallow copy: dataclasses.asdict would deep-copy every number,
        # 30x the cost, for the same JSON.
        return dict(vars(self))
