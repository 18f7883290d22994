"""Exception hierarchy shared by all engine modules."""


class DomelimError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(DomelimError):
    """Malformed input: out-of-range index, shape mismatch, bad file."""


class GameParseError(StructuralError):
    """Game file rejected; carries a 1-based line number for diagnostics."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class UnsupportedConfiguration(DomelimError):
    """A configuration the engine deliberately refuses.

    Raised for independent-mixed beliefs with three or more players (the
    check is non-convex and no exact procedure exists), for inherent
    dominance past the opponent-joint cap, and for a reachable set larger
    than the search budget.
    """


class AssumptionViolated(DomelimError):
    """A relation left some player with no undominated strategy.

    Elimination assumes every player keeps at least one undominated
    strategy in every restriction it is asked to reduce; a violation on a
    reachable restriction indicates a defect, not a valid game state.
    """


class InvalidCertificate(DomelimError):
    """A dominance certificate that fails re-verification by substitution."""


class CyclicSystem(StructuralError):
    """A reduction graph with a cycle where a terminating one is required."""
