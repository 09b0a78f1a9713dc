"""Exception types shared across the library.

Argument and domain violations raise plain ValueError.  The classes here
mark failures of a different nature: numerical self-checks and resource
caps.  The CLI maps ValueError to exit code 2, OSError to 3, and
everything below to 4.
"""


class NumericsError(RuntimeError):
    """An internal numerical self-check or iteration failed to converge."""


class QuadratureError(NumericsError):
    """Quadrature rounds did not agree to tolerance before the panel cap."""


class ResourceCapError(RuntimeError):
    """A table or enumeration would exceed its configured size cap."""
