"""Exception taxonomy shared by every ugckit module.

Input/validation problems and computation failures are kept as separate
branches so the command-line layer can map them onto distinct exit codes.
"""


class UgcError(Exception):
    """Base class for all ugckit errors."""


class InputError(UgcError):
    """Invalid input data, file, or configuration (CLI exit code 2)."""


class ComputationError(UgcError):
    """A numeric or geometric computation failed (CLI exit code 1)."""


# -- measurement CSV ingestion ------------------------------------------------

class MissingColumnError(InputError):
    def __init__(self, column):
        self.column = column
        super().__init__(f"required column missing from header: {column!r}")


class OutOfRangeError(InputError):
    def __init__(self, row, field, message=""):
        self.row = row
        self.field = field
        detail = f" ({message})" if message else ""
        super().__init__(f"row {row}: field {field!r} out of range{detail}")


class BadNumberError(InputError):
    def __init__(self, row, field, value):
        self.row = row
        self.field = field
        self.value = value
        super().__init__(f"row {row}: field {field!r} has unparseable value {value!r}")


# -- model archives ------------------------------------------------------------

class CorruptArchiveError(InputError):
    """Archive file is not valid JSON, names another format version, or a
    field is missing or malformed."""


# -- GP regression engine -------------------------------------------------------

class UnsupportedDimensionError(InputError):
    """The polynomial basis only covers 1- and 2-dimensional inputs."""


class NotPositiveDefiniteError(ComputationError):
    """Kernel matrix plus noise could not be factorized, even with jitter."""


# -- joint models ----------------------------------------------------------------

class OutOfValidatedRangeError(InputError):
    def __init__(self, angle, low, high):
        self.angle = angle
        super().__init__(
            f"deformation angle {angle:g} deg outside the validated window "
            f"[{low:g}, {high:g}] deg for this family"
        )


class MissingThicknessError(InputError):
    """Curve-family query or data row without a thickness value."""


# -- ring mechanics ----------------------------------------------------------------

class GeometryInfeasibleError(ComputationError):
    """Requested contraction cannot be realized by the fold geometry."""


class DesignSpecError(InputError):
    """Design-spec JSON violates the schema; carries the offending fields."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid design spec: " + "; ".join(self.problems))
