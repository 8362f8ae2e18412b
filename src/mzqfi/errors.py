"""Exception types shared across the package."""


class MzqfiError(Exception):
    """Base class for all package errors."""


class DomainError(MzqfiError, ValueError):
    """A parameter lies outside its documented domain."""


class TailTooLarge(MzqfiError):
    """Truncation tail mass exceeds the requested tolerance."""

    def __init__(self, tail_mass: float, tol: float, context: str):
        self.tail_mass = tail_mass
        self.tol = tol
        self.context = context
        super().__init__(f"truncation tail mass {tail_mass:.3e} exceeds tolerance "
                         f"{tol:.3e} ({context})")

    def __reduce__(self):
        # the default rebuilds from args, the one formatted message
        return type(self), (self.tail_mass, self.tol, self.context)


class DegenerateCat(DomainError):
    """Cat-state normalization denominator is numerically zero."""


class DimensionMismatch(MzqfiError, ValueError):
    """Operator and state live on different truncated spaces."""


class NotDensityMatrix(MzqfiError):
    """Matrix fails trace, Hermiticity, or positivity checks."""


class BasisDegenerate(MzqfiError):
    """The two branch states coincide, so the 2D support basis is undefined."""


class HarmonicMismatch(MzqfiError):
    """A phi scan departs from the exact form a + b cos 2phi + c sin 2phi."""
