"""Exception hierarchy shared by all biomm modules."""


class BiommError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(BiommError):
    """Operands have incompatible or invalid shapes."""


class DomainError(BiommError):
    """A value lies outside the mathematical domain of the operation."""


class ConvergenceError(BiommError):
    """An iterative solver hit its iteration cap before converging."""


class FactorizationError(BiommError):
    """Cholesky factorization failed (input not positive definite)."""


class SingularityError(BiommError):
    """A matrix that must be inverted is numerically singular."""


class RankError(BiommError):
    """Requested more components than the data's numerical rank supports."""


class FormatError(BiommError):
    """A file or stream does not conform to its declared format."""


class UnsupportedFormatError(FormatError):
    """The file is well formed but uses an unsupported variant."""


class ManifestError(BiommError):
    """A sample manifest is empty or lists duplicate paths."""


class DatasetError(BiommError):
    """Dataset violates a structural requirement (class counts, sizes)."""


class TooShortError(BiommError):
    """Audio is shorter than a single analysis frame."""


class ClassError(BiommError):
    """Training was attempted with too few (or empty) classes."""


class EnrollmentError(BiommError):
    """A client id was enrolled twice or with insufficient samples."""


class IdentityError(BiommError):
    """A claimed identity is not enrolled in the model."""
