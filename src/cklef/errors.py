"""Exception types shared across the package, and its one check that a
parameter is an ``int``."""


class CkError(Exception):
    """Base class for all errors raised by this package."""


class NonSquare(CkError):
    pass


class EntryOutOfRange(CkError):
    pass


class ZeroRowOrColumn(CkError):
    """The matrix has an all-zero row or column (degenerate algebra)."""


class DepthTooSmall(CkError):
    pass


def _where(position) -> str:
    """A document position (line, column) as every parse error writes it."""
    return f" (line {position[0]}, column {position[1]})" if position else ""


class UnallowableWord(CkError):
    def __init__(self, word, position=None):
        self.word = word
        self.position = position
        super().__init__(f"word {word!r} is not allowable{_where(position)}")


class UnknownLetter(CkError):
    def __init__(self, letter, position=None):
        self.letter = letter
        self.position = position
        super().__init__(f"letter {letter!r} outside the alphabet{_where(position)}")


class ZeroMonomialPair(CkError):
    """A presentation pair (nu, mu) whose monomial is zero in the algebra."""


class DuplicateMuAfterNormalization(CkError):
    pass


class InvalidEndomorphism(CkError):
    pass


class InvalidParameter(CkError, ValueError):
    """A numeric parameter or option value outside its allowed range."""


def require_int(value, what: str) -> None:
    """Refuse ``value``, named ``what`` in the message, unless it is an
    ``int``.  A ``bool`` is refused too, though Python counts it an ``int``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParameter(f"{what} must be an int, got {value!r}")


class ExponentUnderflow(CkError):
    def __init__(self, m, minimal_m):
        self.m = m
        self.minimal_m = minimal_m
        super().__init__(
            f"m={m} too small for the polynomial formula; minimal admissible m is {minimal_m}"
        )


class WellDefinednessFailure(CkError):
    pass


class DimensionMismatch(CkError, ValueError):
    """Operands whose shapes do not fit together."""


class SingularMatrix(CkError, ValueError):
    """A matrix or power series that has no inverse."""


class ReconstructionInconsistent(CkError):
    pass


class ShapeMismatch(CkError):
    pass


class NotDegreeZero(CkError):
    pass


class DegeneratePairing(CkError):
    pass


class CkSyntaxError(CkError):
    def __init__(self, message, line, col):
        self.line = line
        self.col = col
        super().__init__(f"{message}{_where((line, col))}")
