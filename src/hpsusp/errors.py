"""The three error classes that decide a command's exit code.

Every error the package raises for a bad flag, config value, input file
or numerically impossible run derives from one of these bases, and
`cli.main` maps each base to its exit code:

* `ParameterError` (2): a flag, argument or config value the command
  cannot run with;
* `InputError` (3): a trace or table file that is malformed;
* `NumericalError` (4): a run that fails on valid input, such as an
  overstroke or a signal with no dominant frequency.

Each is a `ValueError`. A plain `ValueError` is a broken internal
invariant, a bug. This module imports nothing from the package.
"""

from __future__ import annotations

__all__ = ["ParameterError", "ConfigError", "InputError", "NumericalError"]


class ParameterError(ValueError):
    """A flag, argument or setting the command cannot run with (exit 2)."""

    label = "usage"  # the CLI reports it as "<label> error: <message>"


class ConfigError(ParameterError):
    """A bad or unknown configuration key or value, or a field out of its range."""

    label = "config"


class InputError(ValueError):
    """A malformed input file (exit 3)."""


class NumericalError(ValueError):
    """A computation that cannot proceed on valid input (exit 4)."""
