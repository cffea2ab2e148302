"""Exception types shared across the package."""


class BwGeomError(Exception):
    """Base class for all bwgeom errors; ``exit_code`` is the CLI's exit status."""

    exit_code = 2


class NonFiniteError(BwGeomError):
    """A matrix or vector contains NaN or infinite entries."""


class NotPSDError(BwGeomError):
    """A matrix is indefinite beyond the PSD tolerance; ``index`` is its place in a stack."""

    exit_code = 4

    def __init__(self, lambda_min, message=None, index=None):
        self.lambda_min = float(lambda_min)
        self.index = index
        if message is None:
            message = f"matrix is not positive semidefinite (lambda_min={self.lambda_min:.6e})"
        super().__init__(message)


class DimMismatchError(BwGeomError):
    """Operands have incompatible dimensions."""

    exit_code = 3


class KernelConditionError(BwGeomError):
    """The kernel of the source covariance is not contained in the kernel of the target.

    No transport map exists in this situation.  ``index`` identifies the
    offending family member or iterate when raised inside a loop.
    """

    exit_code = 5

    def __init__(self, message="kernel inclusion condition violated", index=None):
        self.index = index
        if index is not None:
            message = f"{message} (index {index})"
        super().__init__(message)


class LeavesConeError(BwGeomError):
    """A tangent step exits the cone of positive semidefinite matrices."""

    def __init__(self, lambda_min, interval=None, message=None):
        self.lambda_min = float(lambda_min)
        self.interval = interval
        if message is None:
            message = f"step leaves the PSD cone (lambda_min(I+A)={self.lambda_min:.6e}"
            if interval is not None:
                message += f", admissible interval [{interval[0]:.6g}, {interval[1]:.6g}]"
            message += ")"
        super().__init__(message)


class OutOfRangeError(BwGeomError):
    """A scalar argument lies outside its admissible range."""


class EmptyFamilyError(BwGeomError):
    """An operation over a family of covariances received no members."""


class MaxIterExceeded(BwGeomError):
    """An iterative solver hit its iteration cap before converging.

    The best iterate found so far is attached as ``result``.
    """

    exit_code = 6

    def __init__(self, result, message=None):
        self.result = result
        if message is None:
            message = f"solver did not converge within {result.iterations} iterations"
        super().__init__(message)


class DegenerateError(BwGeomError):
    """Requested construction is numerically degenerate in double precision."""


class MatrixParseError(BwGeomError):
    """A matrix or manifest file could not be read, parsed or written."""

    def __init__(self, path, message, row=None, col=None):
        self.path = str(path)
        self.row = row
        self.col = col
        loc = self.path
        if row is not None:
            loc += f", line {row}"
        if col is not None:
            loc += f", entry {col}"
        super().__init__(f"{loc}: {message}")
