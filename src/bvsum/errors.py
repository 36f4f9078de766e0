"""Exception hierarchy shared by all bvsum modules."""

from __future__ import annotations

from dataclasses import dataclass


class BvError(Exception):
    """Base class for all library errors."""


class DomainError(BvError):
    """A point or interval lies outside the function's domain."""


class ExteriorLimitRequired(DomainError):
    """A one-sided limit from outside the domain was requested but no
    breakpoint supplies it."""


class ToleranceUnreachable(BvError):
    """Refinement hit the subdivision cap before meeting the tolerance."""


class SeriesDivergent(BvError):
    """The series (and the matching improper integral) diverge."""


class MissingAntiderivative(BvError):
    """A tail computation needs an antiderivative that was not supplied."""


class BadAntiderivative(BvError):
    """A supplied antiderivative fails the sampled difference-quotient check."""


class NonIntegerBounds(BvError):
    """Summation bounds must be integers; rescaling is not supported."""


@dataclass(frozen=True)
class Violation:
    """One validation failure: a kind tag, a location, and a message."""

    kind: str
    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind} at {self.where}: {self.message}"


class ValidationError(BvError):
    """Raised by ``validate`` with the full list of violations found."""

    def __init__(self, violations: list[Violation]):
        super().__init__("; ".join(str(v) for v in violations))
        self.violations = violations

    @property
    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}
