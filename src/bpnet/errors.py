"""Exception types raised across the package.

Validation findings are *not* exceptions: the validators return lists of
``core.Violation``.  Exceptions are reserved for contract breaches (asking
for a net that does not exist), parse failures, and rejected rule
applications.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SourceSpan:
    """Position of a token in an input file (1-based line and column)."""

    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class BpnError(Exception):
    """Base class for all errors raised by this package."""


# --- model lookups ---------------------------------------------------------


class UnknownProcessError(BpnError):
    pass


class UnknownPortError(BpnError):
    pass


class NoNetError(BpnError):
    pass


class CycleDetectedError(BpnError):
    """No serialization exists; ``cycle`` is a witness list of process ids."""

    def __init__(self, message: str, cycle: list[str]):
        super().__init__(message)
        self.cycle = cycle


# --- parsing ---------------------------------------------------------------


class ParseError(BpnError):
    def __init__(self, message: str, span: SourceSpan | None = None):
        self.span = span
        if span is not None:
            message = f"{span}: {message}"
        super().__init__(message)


class DuplicateDefinitionError(ParseError):
    pass


class UnknownSortNameError(ParseError):
    pass


class UnknownRuleNameError(ParseError):
    pass


# --- refinement rules ------------------------------------------------------


class RuleError(BpnError):
    """A refinement rule rejected its arguments; the model is unchanged."""


class AlreadyDecomposedError(RuleError):
    pass


class InterfaceMismatchError(RuleError):
    pass


class FreshnessViolationError(RuleError):
    pass


class WouldBeIllFormedError(RuleError):
    def __init__(self, message: str, violations=()):
        self.violations = list(violations)
        if self.violations:
            details = "; ".join(str(v) for v in self.violations[:3])
            message = f"{message}: {details}"
        super().__init__(message)


class WouldCreateCycleError(RuleError):
    pass


class CrossNetEndpointsError(RuleError):
    pass


class SortMismatchError(RuleError):
    pass


class SortConflictError(RuleError):
    pass


class PartitionMismatchError(RuleError):
    pass


class TooFewPartsError(RuleError):
    pass


class NoSuchChildError(RuleError):
    pass


class ChildNotDecomposedError(RuleError):
    pass


class NotConvexError(RuleError):
    """``witness`` is a cycle of the parent-level net the fold would make, as
    ``core.find_cycle`` reports it; on an acyclic net it runs through the
    would-be process."""

    def __init__(self, message: str, witness: list[str]):
        super().__init__(message)
        self.witness = witness


class GroupNotSubsetError(RuleError):
    pass


class EmptyGroupError(RuleError):
    pass


class StepFailedError(RuleError):
    """Step ``index`` (1-based) of a script failed with ``cause``."""

    def __init__(self, index: int, cause: BpnError):
        super().__init__(f"step {index} failed: {cause}")
        self.index = index
        self.cause = cause


# --- simulation ------------------------------------------------------------


class SimError(BpnError):
    pass


class InvalidEnvFragmentError(SimError):
    pass


class NonDeterministicRulesError(SimError):
    pass


# --- bounded search --------------------------------------------------------


class SearchBudgetExceededError(BpnError):
    pass
