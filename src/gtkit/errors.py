"""Exception hierarchy shared by all gtkit modules, and `Frozen`, the base of
every value class that gtkit compares or hashes."""


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


class Frozen:
    """Base of an immutable value class: the subclass names its fields in
    ``__slots__`` and sets them once, in ``__init__`` or a ``_checked``
    constructor, through `_set_fields`.  Assigning or deleting a field
    afterwards raises AttributeError; two instances of one class are equal
    when their fields are, and hash alike unless the class sets ``__hash__``
    to None.  The one rule of equality and hashing in gtkit:
    games.StrategicGame, CongestionGame and BargainingProblem;
    evolution.EvolutionGame and Trajectory (unhashable: its fields are
    arrays); padic.PAdicNumber, PAdicExtElement, UltraNorm and
    PAdicDistribution; padic_quantum.PAdicHilbertSpace."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # each field's slot setter, bound once per class rather than looked up
        # by name on every construction
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _set_fields(self, *values):
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self):
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())
