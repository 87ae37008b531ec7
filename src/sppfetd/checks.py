"""Leaf checks of configuration values.

Every frozen dataclass that holds a configuration value checks it in
`__post_init__` through `validate`, so the Python API and the JSON reader
reject the same values.  A rule takes the field's name and value and
returns the value to store, or raises a `FieldError` naming the field.
"""

import math
from numbers import Integral, Real


class ConfigError(ValueError):
    """Invalid simulation configuration."""


class FieldError(ConfigError):
    """A configuration field whose value breaks its rule."""

    def __init__(self, name: str, rule: str, value):
        self.name, self.detail = name, f"must be {rule}, got {value!r}"
        super().__init__(f"{name} {self.detail}")


def validate(holder, **rules) -> None:
    """Check each named field of the frozen dataclass `holder` by its rule."""
    for name, rule in rules.items():
        object.__setattr__(holder, name, rule(name, getattr(holder, name)))


def _rule(text: str, ok):
    """A rule that keeps a value for which `ok` holds; `text` words the rule."""
    def rule(name: str, value):
        if not ok(value):
            raise FieldError(name, text, value)
        return value
    return rule


def _real(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)


def _integer(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


finite = _rule("a finite number", _real)
positive = _rule("finite and positive", lambda v: _real(v) and v > 0)
nonnegative = _rule("finite and nonnegative", lambda v: _real(v) and v >= 0)
count = _rule("a nonnegative integer", lambda v: _integer(v) and v >= 0)
positive_count = _rule("a positive integer", lambda v: _integer(v) and v > 0)
string = _rule("a string", lambda v: isinstance(v, str))


def instance(cls):
    """Rule for an instance of `cls`."""
    return _rule(f"a {cls.__name__}", lambda v: isinstance(v, cls))


def numbers(n: int):
    """Rule for a list or tuple of `n` finite numbers, stored as a tuple."""
    check = _rule(f"{n} finite numbers", lambda v: isinstance(v, (list, tuple))
                  and len(v) == n and all(map(_real, v)))
    return lambda name, value: tuple(check(name, value))


def one_of(*options):
    return _rule("one of " + ", ".join(map(repr, options)), lambda v: v in options)


def optional(rule):
    """`rule`, with None also allowed."""
    return lambda name, value: None if value is None else rule(name, value)
