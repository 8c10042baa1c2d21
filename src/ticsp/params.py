"""Rate constants for the four-population tumor-immune model.

Units are cells and days throughout.  The default values are the
patient-9 calibration commonly used for this model family; any subset
may be overridden, e.g. ``ParameterSet(d=1.5)`` or
``DEFAULT_PARAMETERS.replace(a=0.5)``.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

# Canonical key order for serialization and CLI round-trips.
PARAMETER_NAMES = (
    "a", "b", "c", "d", "e", "f", "g", "h", "j", "k",
    "l", "m", "s", "u", "alpha", "beta", "r1", "r2", "p", "q",
)


def number(value, what: str) -> float:
    """A real number as a float; anything else (a bool or a string included)
    raises ValueError naming `what`."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{what} must be a number, got {value!r}")


@dataclass(frozen=True)
class ParameterSet:
    """Immutable container for the 20 positive rate constants."""

    a: float = 4.31e-1     # tumor logistic growth rate [1/day]
    b: float = 1.02e-9     # inverse tumor carrying capacity [1/cell]
    c: float = 6.41e-11    # NK-mediated tumor kill coefficient [1/(cell day)]
    d: float = 2.34        # saturating CD8+ kill rate, maximum value [1/day]
    e: float = 2.08e-7     # NK production fraction from circulating lymphocytes [1/day]
    f: float = 4.12e-2     # NK turnover rate [1/day]
    g: float = 1.25e-2     # maximum NK recruitment rate by tumor [1/day]
    h: float = 2.02e7      # NK recruitment half-saturation [cell^2]
    j: float = 2.49e-2     # maximum CD8+ recruitment rate [1/day]
    k: float = 3.66e7      # CD8+ recruitment half-saturation [cell^2]
    l: float = 2.09        # exponent of the saturating kill term [-]
    m: float = 2.04e-1     # CD8+ turnover rate [1/day]
    s: float = 8.39e-2     # half-saturation constant of the kill term [-]
    u: float = 3.00e-10    # CD8+ self-limitation [1/(cell^2 day)]
    alpha: float = 7.50e8  # circulating-lymphocyte production [cell/day]
    beta: float = 1.20e-2  # circulating-lymphocyte turnover [1/day]
    r1: float = 1.10e-7    # CD8+ priming by NK-lysed tumor debris [1/(cell day)]
    r2: float = 6.50e-11   # CD8+ priming from circulating lymphocytes [1/(cell day)]
    p: float = 3.42e-6     # NK inactivation by tumor contact [1/(cell day)]
    q: float = 1.42e-6     # CD8+ inactivation by tumor contact [1/(cell day)]

    def __post_init__(self):
        for name in PARAMETER_NAMES:
            _check(name, getattr(self, name))

    def replace(self, **changes) -> "ParameterSet":
        """Return a copy with the named constants replaced: `dataclasses.replace`,
        checking only the changed values."""
        for name, value in changes.items():
            if name not in PARAMETER_NAMES:
                raise TypeError(f"{type(self).__name__}.replace() got an unexpected "
                                f"keyword argument {name!r}")
            _check(name, value)
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, **changes)
        return new

    def scaled(self, name: str, factor: float) -> "ParameterSet":
        """Return a copy with one constant multiplied by `factor`."""
        if name not in PARAMETER_NAMES:
            raise KeyError(f"unknown parameter {name!r}")
        return self.replace(**{name: getattr(self, name) * factor})

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in PARAMETER_NAMES}

    @classmethod
    def from_dict(cls, data: dict) -> "ParameterSet":
        """Build from a mapping; missing keys keep defaults, unknown keys raise."""
        unknown = sorted(set(data) - set(PARAMETER_NAMES))
        if unknown:
            raise KeyError(f"unknown parameter keys: {', '.join(unknown)}")
        return cls(**{k: number(v, f"parameter {k!r}") for k, v in data.items()})

    @classmethod
    def from_json(cls, path) -> "ParameterSet":
        """Load from a flat JSON object of parameter values; every failure is
        a ValueError naming the file."""
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: expected a JSON object of parameter values")
        try:
            return cls.from_dict(data)
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{path}: {exc.args[0]}") from None


def _check(name: str, value) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"parameter {name!r} must be positive and finite, got {value!r}")


#: Patient-9 calibration (the package default).
DEFAULT_PARAMETERS = ParameterSet()
