"""Identity verification reports."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def nan_max(*values) -> float:
    """The largest of `values`, or NaN if any of them is NaN.

    The builtin max keeps its running value when a comparison with NaN is
    False, so max(0.0, nan) is 0.0 and a NaN residual would read as a PASS.
    """
    if any(math.isnan(v) for v in values):
        return math.nan
    return float(max(values))


def _jsonable(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def re_im(value) -> list:
    """json.dumps `default` of the CLI and the suite config: a complex
    number (numpy's included) as [re, im]."""
    if not isinstance(value, complex):
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    return [value.real, value.imag]


@dataclass(frozen=True)
class IdentityReport:
    """Residual, tolerance and pass/fail for one verified identity.

    `informational` marks reports (e.g. variant reconciliation tables) that
    never fail a suite.  Invariant: passed iff residual < tolerance.
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
        return {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "grid_size": self.grid_size,
            "params": _jsonable(self.params),
            "notes": _jsonable(self.notes),
            "informational": self.informational,
        }
