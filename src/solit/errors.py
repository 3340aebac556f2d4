"""Exception types and the one check of an option: its type, then its range.

Every entry point that takes an option checks it through ``typed_option``,
so each rule and its message are written once, in ``_RANGES``."""

import numbers
import sys
import typing


class InvalidParameterError(ValueError):
    """An argument violates a documented precondition."""


class ConfigurationError(RuntimeError):
    """A configuration that cannot produce a valid result (e.g. a candidate
    grid that would exceed the hard size cap, or a noise level too small for
    the chosen truncation dimension)."""


# (bound, comparison) of each option with a range: the grid ratio theta > 1
# and the threshold budget beta, gamma > 0 keep the oracle inequality's
# constants finite
_RANGES = {
    **dict.fromkeys(("beta", "gamma", "sigma", "sigma_start", "sigma_stop", "landweber_step"), (0, ">")),
    "theta": (1, ">"),
    **dict.fromkeys(("kappa_tune", "runs", "sigma_count", "samples"), (1, ">=")),
    "seed": (0, ">="),
}


def typed_option(name: str, value, kind):
    """``value`` of option ``name`` as its type ``kind`` (bool, int, float, str,
    dict, ``tuple[str, ...]`` or ``X | None``) by ``ExperimentConfig``'s rule,
    then checked against the option's range in ``_RANGES``, if it has one.
    Either failure raises ``InvalidParameterError`` naming the option and the
    value as given."""
    if type(None) in typing.get_args(kind):  # X | None
        if value is None:
            return None
        kind = typing.get_args(kind)[0]
    label = kind.__name__
    if typing.get_origin(kind) is tuple:  # names
        kind, label = tuple, "list of names"
        ok = isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)
    elif kind is bool or isinstance(value, bool):
        ok = kind is bool and isinstance(value, bool)
    elif kind is int:
        ok = isinstance(value, numbers.Integral) or isinstance(value, numbers.Real) and float(value).is_integer()
    elif kind is float:  # finite, and an int within float range
        ok = isinstance(value, numbers.Real) and (
            abs(value if isinstance(value, int) else float(value)) <= sys.float_info.max)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise InvalidParameterError(f"option {name!r} must be of type {label}, not {value!r}")
    typed = kind(value)
    bound, op = _RANGES.get(name, (None, ""))
    if op and not (typed > bound if op == ">" else typed >= bound):
        raise InvalidParameterError(f"option {name!r} must be {op} {bound}, not {value!r}")
    return typed
