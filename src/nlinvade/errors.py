"""Exception types shared across the package.

A type is kept only where some code catches it by type, or where a CLI run
can print its name (a numerical failure prints as ``numerical failure:
<type>: <message>``, and a sweep row names it too).  A rejection that only
ever reaches a user through its message is a ValueError.
"""


class NlinvadeError(Exception):
    """Base class for all package errors."""


# -- kernels ------------------------------------------------------------

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


# -- configuration / runner ---------------------------------------------

class ConfigInvalid(NlinvadeError):
    """Raised for malformed scenario configuration; carries the field path."""

    def __init__(self, message, path=None):
        super().__init__(message if path is None else f"{path}: {message}")
        self.path = path


class GridTooLarge(NlinvadeError):
    pass
