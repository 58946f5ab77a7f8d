"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class;
generic programming errors stay as the builtin exceptions.
"""


class CycordError(Exception):
    """Base class for all package-specific errors."""


class IncompatibleRings(CycordError):
    """Operands belong to different parent rings."""


class DivisionByZero(CycordError):
    """Euclidean division or inversion by a zero element."""


class NotInBaseRing(CycordError):
    """An element expected to be fixed by the automorphism is not."""


class RamifiedPrime(CycordError):
    """The residue ring of the prime has nonzero nilpotents."""


class UnsupportedSize(CycordError):
    """An enumeration-based routine was asked to handle too large a ring."""


class TooLargeToEnumerate(UnsupportedSize):
    """A codebook or ring exceeds the enumeration cutoff."""


class IncompatibleAlgebras(CycordError):
    """Elements of two different algebras were mixed in one operation."""


class RepeatedPrime(CycordError):
    """A composite modulus listed associate primes more than once."""


class WrongCase(CycordError):
    """A structure routine was invoked on a quotient of the wrong shape."""


class UnsupportedCase(CycordError):
    """The quotient falls outside the classified cases."""


class ZeroTarget(CycordError):
    """A norm equation was posed with target zero."""


class LiftDivergence(CycordError):
    """Idempotent or matrix-unit lifting failed to stabilize."""


class VerificationFailed(CycordError):
    """An isomorphism certificate or an internal exact invariant failed its check."""


class SelfTestFailed(CycordError):
    """A selftest property suite found an identity that does not hold."""


class FormulaMismatch(CycordError):
    """A determinant bound formula was applied to an ideal of the wrong shape."""


class SearchBudgetExceeded(CycordError):
    """A minimum-determinant search would exceed the evaluation budget."""


class BadMessageLength(CycordError):
    """An outer-code message has the wrong number of symbols."""


class EmptyCode(CycordError):
    """A search was asked to minimize over a code with no nonzero codewords."""


class SingularInput(CycordError):
    """A determinant inequality check received a singular matrix."""


class NumericMismatch(CycordError):
    """A floating-point score disagrees with its exact recomputation."""


class InvalidCount(CycordError):
    """A trial count or matrix size below 1, or k != 1 at matrix size n = 1."""
