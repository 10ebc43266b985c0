"""Exception types shared across the package.

DomainError subclasses signal violated mathematical preconditions; the CLI
maps them to exit code 1. UsageError (bad input text) maps to exit code 2.
Every bounded search that runs out raises a BudgetExceeded whose message
names its budget constant and the amount needed or spent.
"""


class DomainError(Exception):
    pass


class UsageError(Exception):
    pass


class BudgetExceeded(DomainError):
    pass


# scalar / polynomial / matrix layer
class ZeroInput(DomainError):
    pass


class NotMonic(DomainError):
    pass


class NotSquare(DomainError):
    pass


class Inconsistent(DomainError):
    pass


class NonIntegral(DomainError):
    pass


class FactorizationTimeout(BudgetExceeded):
    """Factoring ran past arith.FACTOR_RHO_BUDGET rho iterations."""


# etale algebra
class ZeroDivisor(DomainError):
    pass


class NonUnit(DomainError):
    pass


class NotOddPolynomial(DomainError):
    pass


class NonSeparable(DomainError):
    pass


class WrongDegree(DomainError):
    pass


# quadratic forms
class Degenerate(DomainError):
    pass


class ZeroArgument(DomainError):
    pass


class NotIsotropic(DomainError):
    pass


class NotSplit(DomainError):
    pass


class WrongDimension(DomainError):
    pass


class NonSquareComplement(DomainError):
    pass


class Anisotropic(DomainError):
    """The form has no isotropic vector; the message names the places."""


# orbit engine
class DimensionMismatch(DomainError):
    pass


class NormNotSquare(DomainError):
    pass


class NotTauFixed(DomainError):
    pass


class NoCyclicVector(DomainError):
    pass


class ZeroDiscriminant(DomainError):
    pass


# descent
class NotOnCurve(DomainError):
    pass


class WeierstrassPoint(DomainError):
    pass


class NotGenusOne(DomainError):
    pass


# census
class EvenQ(DomainError):
    pass


class EvenPrime(DomainError):
    pass


class NonSeparableModP(DomainError):
    pass


class BadPrime(DomainError):
    pass


class MaximalRankHypothesisFails(DomainError):
    pass


class NotOperatorRep(DomainError):
    pass


# integral lattices / binary quadratic forms
class NotPrimitive(DomainError):
    pass


class NullVector(DomainError):
    pass


class RingMismatch(DomainError):
    pass


class NotNegativeDiscriminant(DomainError):
    pass


class NotPositiveDefinite(DomainError):
    pass


class InvalidDiscriminant(DomainError):
    pass


# CLI
class ParseError(UsageError):
    pass
