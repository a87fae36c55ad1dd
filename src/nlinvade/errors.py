"""Exception types shared across the package."""


class NlinvadeError(Exception):
    """Base class for all package errors."""


# -- kernels ------------------------------------------------------------

class AsymmetricKernel(NlinvadeError):
    pass


class NegativeDensity(NlinvadeError):
    pass


class ZeroAtOrigin(NlinvadeError):
    pass


class ZeroMass(NlinvadeError):
    pass


# -- eigenvalue ---------------------------------------------------------

class NoConvergence(NlinvadeError):
    pass


class DegenerateInterval(NlinvadeError):
    pass


# -- dynamics -----------------------------------------------------------

class NonPositiveParameter(NlinvadeError):
    pass


class NotInTheta2(NlinvadeError):
    pass


class AssumptionViolated(NlinvadeError):
    pass


class StepTooLarge(NlinvadeError):
    pass


# -- simulator ----------------------------------------------------------

class InvalidInitialU(NlinvadeError):
    pass


class InvalidInitialV(NlinvadeError):
    pass


class StabilityViolated(NlinvadeError):
    pass


# -- diagnostics --------------------------------------------------------

class WindowTooSmall(NlinvadeError):
    pass


class SeriesTooShort(NlinvadeError):
    pass


class OutOfScope(NlinvadeError):
    pass


class Undecided(NlinvadeError):
    pass


# -- configuration / runner ---------------------------------------------

class ConfigInvalid(NlinvadeError):
    """Raised for malformed scenario configuration; carries the field path."""

    def __init__(self, message, path=None):
        super().__init__(message if path is None else f"{path}: {message}")
        self.path = path


class GridTooLarge(NlinvadeError):
    pass
