"""One way to state an invariant: `check(cond, message)`.

Unlike `assert`, a check runs under `python -O` too.  A failed check
raises `InvariantError`, an `AssertionError`, so the suites' case runner
and every caller that catches `AssertionError` see it unchanged.
"""

from __future__ import annotations

from typing import Optional


class InvariantError(AssertionError):
    """A checked invariant failed; `report`, when set, holds what the
    failing computation had built before the check."""

    def __init__(self, message: str, report: Optional[dict] = None):
        super().__init__(message)
        self.report = report


def check(cond: object, message: str, report: Optional[dict] = None) -> None:
    """Raise InvariantError(message, report) unless cond holds."""
    if not cond:
        raise InvariantError(message, report)
