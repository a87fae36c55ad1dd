"""Exception types shared across the package."""


class NlinvadeError(Exception):
    """Base class for all package errors."""


# -- kernels ------------------------------------------------------------

class KernelError(NlinvadeError):
    pass


class AsymmetricKernel(KernelError):
    pass


class NegativeDensity(KernelError):
    pass


class ZeroAtOrigin(KernelError):
    pass


class ZeroMass(KernelError):
    pass


# -- eigenvalue ---------------------------------------------------------

class EigenError(NlinvadeError):
    pass


class NoConvergence(EigenError):
    pass


class DegenerateInterval(EigenError):
    pass


# -- dynamics -----------------------------------------------------------

class DynamicsError(NlinvadeError):
    pass


class NotInTheta2(DynamicsError):
    pass


class AssumptionViolated(DynamicsError):
    pass


class StepTooLarge(DynamicsError):
    pass


# -- simulator ----------------------------------------------------------

class SimulationError(NlinvadeError):
    pass


class InvalidInitialU(SimulationError):
    pass


class InvalidInitialV(SimulationError):
    pass


class NonPositiveParameter(SimulationError):
    pass


class StabilityViolated(SimulationError):
    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


# -- diagnostics --------------------------------------------------------

class DiagnosticsError(NlinvadeError):
    pass


class WindowTooSmall(DiagnosticsError):
    pass


class SeriesTooShort(DiagnosticsError):
    pass


class OutOfScope(DiagnosticsError):
    pass


class Undecided(DiagnosticsError):
    pass


# -- configuration / runner ---------------------------------------------

class ConfigInvalid(NlinvadeError):
    """Raised for malformed scenario configuration; carries the field path."""

    def __init__(self, message, path=None):
        super().__init__(message if path is None else f"{path}: {message}")
        self.path = path


class GridTooLarge(NlinvadeError):
    pass
