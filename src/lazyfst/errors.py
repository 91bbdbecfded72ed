"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: data/format problems exit 2,
violated internal invariants exit 3.
"""


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
