"""Exception hierarchy.

Every error raised by this package derives from GroupError so callers can
catch one type at the boundary (the CLI maps them all to exit code 2).
"""


class GroupError(Exception):
    """Base class for all errors raised by freeprod."""


class OrderTooSmallError(GroupError):
    """Group of order < 2 requested; all factors must be nontrivial."""


class NotLatinSquareError(GroupError):
    """Cayley table has a malformed, repeated or out-of-range row/column."""


class NotAssociativeError(GroupError):
    """Cayley table violates associativity for some triple."""


class NoIdentityError(GroupError):
    """Cayley table has no two-sided identity element."""


class GeneratorsDoNotGenerateError(GroupError):
    """Declared generator set does not generate the whole group."""


class InvalidLabelError(GroupError):
    """Generator label is not a valid identifier or is reserved."""


class DuplicateLabelError(GroupError):
    """Generator label used more than once in one namespace."""


class ForeignElementError(GroupError):
    """Element id does not belong to the group it was used with."""


class NotASubgroupError(GroupError):
    """Id set is not closed under multiplication/inverse or misses identity."""


class TrivialSubgroupError(GroupError):
    """Subgroup {1} where a nontrivial subgroup is required."""


class BadFactorIndexError(GroupError):
    """Factor index outside the free product's factor list."""


class MixedAmbientError(GroupError):
    """Elements of two different ambient groups were combined."""


class UnknownGeneratorError(GroupError):
    """Word uses a generator label that is not in the ambient group."""


class WordSyntaxError(GroupError):
    """Word text does not match the word grammar."""


class SpecSyntaxError(GroupError):
    """Group/subgroup spec file does not match the spec grammar."""


class UnboundVariableError(GroupError):
    """Substitution does not cover a free variable of the word."""


class EmptyWordError(GroupError):
    """A nonempty generator word was required."""


class EmptyCandidatesError(GroupError):
    """A candidate list for a bounded search is empty."""


class NotHyperbolicError(GroupError):
    """Axis requested for an element with a fixed vertex."""


class VerificationError(GroupError):
    """A computed answer failed its independent re-check."""


class PowerTooLargeError(GroupError):
    """A power's normal form or expansion would exceed the size cap."""


class GroupTooLargeError(GroupError):
    """A group spec's tables or a free product's syllable ids exceed their cap."""
