"""Exception types shared across the package."""


class GroupTheoryError(Exception):
    """Base class for every error raised by this package."""


class NotAGroup(GroupTheoryError):
    """A multiplication table fails one of the group axioms."""


class NotNormal(GroupTheoryError):
    """A quotient was requested by a non-normal subgroup."""


class NotPrime(GroupTheoryError):
    """A prime-valued parameter is composite."""


class OrderCapExceeded(GroupTheoryError):
    """Isomorphism testing was requested above the supported order cap."""


class BadParameter(GroupTheoryError):
    """A builder or operation received a parameter outside its domain."""


class NotAnAction(GroupTheoryError):
    """A claimed group action is not by automorphisms or not a homomorphism."""


class BadOrder(GroupTheoryError):
    """A unit has the wrong multiplicative order for the requested action."""


class NotFrobenius(GroupTheoryError):
    """A semidirect product fails the fixed-point-free check. No builder
    raises it, as ``frobenius_cq_cn``'s order check makes its action
    fixed-point free; it stays importable as a public name."""


class NotCentralIso(GroupTheoryError):
    """The supplied center identification is not an isomorphism of centers."""


class NotIrreducible(GroupTheoryError):
    """A user-supplied field modulus factors over the prime field."""


class TooLarge(GroupTheoryError):
    """A group is larger than a supported size: its order exceeds what a
    uint16 table holds, or a permutation closure exceeds the enumeration cap."""


class NotAPermutation(GroupTheoryError):
    """A generator line is not a bijection on the stated points."""


class AbelianGroupError(GroupTheoryError):
    """Centralizer profiling was requested for an abelian group."""


class CentralElementError(GroupTheoryError):
    """An element-level operation requires a non-central element."""


class NotPerfectQuotient(GroupTheoryError):
    """The central quotient is not perfect, so the consequence check is vacuous."""


class PreconditionNotMet(GroupTheoryError):
    """A conditional check was invoked outside its hypothesis."""


class BadN(GroupTheoryError):
    """Bound functions are defined only for centralizer counts n >= 4."""


class UnknownCheckId(GroupTheoryError):
    """No check is registered under the requested id."""


class SpecParseError(GroupTheoryError):
    """A group-spec string does not match the grammar or its argument domain."""


class UnknownFamily(SpecParseError):
    """A builtin spec names a family that is not registered."""


class FormatError(GroupTheoryError):
    """An input file violates its documented line format."""


class InvariantViolation(GroupTheoryError):
    """An internal mathematical invariant failed; indicates a bug, not bad input."""
