"""Exception hierarchy.

Every failure raised by this package derives from PmplabError so callers can
catch one type.  Validation errors double as ValueError where the Python idiom
expects it.
"""
from __future__ import annotations


class PmplabError(Exception):
    """Base class for all errors raised by pmplab."""


class ValidationError(PmplabError, ValueError):
    """Input violated a documented precondition."""


# -- algebra ----------------------------------------------------------------

class ZeroAtom(ValidationError):
    """An atom mass was zero or negative."""


class MassNotOne(ValidationError):
    """Atom masses did not sum to one."""


class AlgebraMismatch(ValidationError):
    """Operands belong to different algebras."""


class ArityMismatch(ValidationError):
    """Event tuples have different lengths where equal length is required."""


class PartMassMismatch(ValidationError):
    """Replacement parts do not sum to the mass of the split atom."""


# -- actions ----------------------------------------------------------------

class NotBijective(ValidationError):
    """A generator table is not a permutation of the atoms."""


class NotMeasurePreserving(ValidationError):
    """A permutation sends an atom to one of different mass."""


class LetterOutOfRange(ValidationError):
    """A word letter does not name a generator of the action."""


# -- model theory -----------------------------------------------------------

class NonpositiveEps(ValidationError):
    """A tolerance must be strictly positive."""


class InstanceTooLarge(ValidationError):
    """An instance is beyond a size cap of the limits module, whose
    docstring lists every cap and the entry points that check it.  The
    brute-force oracles in tests/ raise it past their own bounds."""


class LPInternal(PmplabError):
    """The exact simplex reached a state that should be unreachable."""


# -- constructions ----------------------------------------------------------

class TypeMismatch(ValidationError):
    """Tuples are not equidistributed where equal cell masses are required."""


class NotMassPreserving(ValidationError):
    """Corresponding blocks of a partial isomorphism differ in mass."""


class UnequalAtoms(ValidationError):
    """The operation requires all atoms to have equal mass."""


class PreconditionInvariantElement(ValidationError):
    """A nontrivial invariant element blocks the construction."""

    def __init__(self, message: str, element: tuple[int, ...] = ()):
        super().__init__(message)
        self.element = element


class PartitionNotPreserved(ValidationError):
    """Generators do not induce maps on the blocks of the given partition."""


class InvalidGroupTable(ValidationError):
    """A multiplication table does not describe a group."""


class NotGenerating(ValidationError):
    """The marked generators do not generate the group."""


class NotTransitive(ValidationError):
    """The action is not transitive on atoms."""


# -- audit ------------------------------------------------------------------

class WrongTupleCount(ValidationError):
    """An audit expects exactly k + 1 fiber tuples."""


class EmbeddingNotEquivariant(ValidationError):
    """The supplied embedding does not intertwine the two actions."""
