"""Exception hierarchy.

Every domain error raised by this package derives from StabilityError, so
callers (notably the CLI) can distinguish domain verdicts from genuine bugs.
ParseError is reserved for malformed input documents and literals.
"""


class StabilityError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(StabilityError):
    """Input document or literal does not conform to the documented grammar."""


# --- polynomial / statistics layer ---

class DegreeMismatch(StabilityError):
    """Polynomial degree does not match the declared dimension."""


class NonpositiveRank(StabilityError):
    """Leading Hilbert coefficient is not positive."""


# --- lattice layer ---

class CycleInRelation(StabilityError):
    """Declared inclusions are not a strict partial order."""


class QuotientNotPure(StabilityError):
    """A quotient polynomial violates the degree or sign requirement."""


class RankNotIncreasing(StabilityError):
    """Ranks fail to grow strictly along a strict inclusion."""


class MissingTopOrZero(StabilityError):
    """The lattice lacks an identifiable zero object or ambient object."""


class NotComparable(StabilityError):
    """Requested quotient of members that are not nested."""


class ChainNotIncreasing(StabilityError):
    """Filtration chain is not strictly increasing toward the ambient object."""


class WeightsNotIncreasing(StabilityError):
    """Filtration weights are not strictly increasing integers."""


class PairConstraintViolated(StabilityError):
    """The marked image subobject received a negative weight."""


# --- invariant layer ---

class BadIndex(StabilityError):
    """Slope index outside the range 0..d-1."""


# --- canonical-filtration layer ---

class AmbiguousHN(StabilityError):
    """Two incomparable members tie during the greedy HN construction."""


class ObjectSemistable(StabilityError):
    """No destabilizing filtration exists; the canonical one is undefined."""


class PreconditionFailed(StabilityError):
    """Deletion step requested where the lemma's hypothesis does not hold."""


class NegativeNu(StabilityError):
    """Convexification requires a filtration with nonnegative invariant."""


# --- oracle layer ---

class WorkBudgetExceeded(StabilityError):
    """The brute-force search would score more candidates than allowed."""


# --- pair layer ---

class Semistable(StabilityError):
    """The pair is semistable; no canonical destabilizing filtration exists."""


class FlatObjective(StabilityError):
    """The top-coefficient objective vanishes identically on the weight cone.

    invariant.maximize_weights never raises it: it descends to the next
    exponent of n instead.  The class stays for callers that name it."""
