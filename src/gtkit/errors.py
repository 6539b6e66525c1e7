"""Exception hierarchy shared by all gtkit modules."""


class GTError(Exception):
    """Base class for every gtkit error."""


class InvalidProfile(GTError):
    """A pure or mixed profile does not fit the game it was used with."""


class InvalidArgument(GTError):
    """An argument violates an operation's precondition."""


class InvalidState(GTError):
    """A population or quantum state violates its invariants."""


class UnsupportedShape(GTError):
    """The game shape (player/strategy counts) is outside what the operation handles."""


class DegenerateGame(GTError):
    """Support enumeration hit a consistent underdetermined indifference system.

    The game has a continuum of equilibria on the offending support pair;
    the support pair is carried in ``args``.
    """


class NoEquilibrium(GTError):
    """An operation that needs a pure Nash equilibrium found none."""


class UndefinedRatio(GTError):
    """Price-of-anarchy denominator is zero or negative."""


class InfeasibleBargain(GTError):
    """No point of the utility set weakly dominates the disagreement point."""


class StepLimit(GTError):
    """Best-response dynamics exhausted its step budget."""


class IntegrationDiverged(GTError):
    """A trajectory left the simplex beyond the repair tolerance."""


class UnsupportedMatrix(GTError):
    """The payoff matrix lacks a structural property the operation requires."""


class InsufficientData(GTError):
    """A trajectory is too short for the requested analysis."""


class InvalidPrime(GTError):
    """The modulus passed to a p-adic constructor is not prime."""


class PrimeMismatch(GTError):
    """Two p-adic operands live over different primes."""


class DivisionByZero(GTError, ZeroDivisionError):
    """Division by a (p-adic) zero."""


class InvalidSOVM(GTError):
    """An operator family is not a self-adjoint decomposition of the identity."""


class ParseError(GTError):
    """A game file or expression could not be parsed.

    Carries optional ``line`` / ``position`` attributes for CLI reporting.
    """

    def __init__(self, message, line=None, position=None):
        super().__init__(message)
        self.line = line
        self.position = position


class SizeLimit(GTError):
    """The input exceeds the desk-scale enumeration limits."""
