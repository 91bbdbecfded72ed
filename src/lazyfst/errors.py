"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: data/format problems exit 2,
violated internal invariants exit 3.
"""

from math import inf
from numbers import Integral, Real


class LazyFstError(Exception):
    """Base class for everything raised on purpose by this package."""


class ParseError(LazyFstError):
    """Malformed text input (lexicon, contact list, ...)."""

    def __init__(self, path: str, lineno: int, message: str):
        self.path = path
        self.lineno = lineno
        super().__init__(f"{path}:{lineno}: {message}")


class BuildError(LazyFstError):
    """Graph construction failed (unknown token, empty lexicon, ...)."""


class CompositionSizeError(LazyFstError):
    """Composition exceeded its configured state budget."""


class ConfigurationError(LazyFstError):
    """API misuse: wrong lifecycle order, bad parameter values."""


class InvariantError(LazyFstError):
    """An internal consistency check failed; indicates a bug, exits 3."""


def is_real(value) -> bool:
    """A real number, numpy's included; a bool is not one."""
    return not isinstance(value, bool) and isinstance(value, Real)


def require_int(name: str, value, least: int | None = None) -> None:
    """ConfigurationError unless `value` is an integer, numpy's included,
    and at least `least` when one is given; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, Integral) \
            or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ConfigurationError(
            f"{name} must be an integer{bound}, not {value!r}")


def require_real(name: str, value, least: float = -inf) -> None:
    """ConfigurationError unless `value` is a finite real number, numpy's
    included, and at least `least`; a bool is not one."""
    if not (is_real(value) and -inf < value < inf and value >= least):
        bound = "" if least == -inf else f" >= {least:g}"
        raise ConfigurationError(
            f"{name} must be a finite number{bound}, not {value!r}")
