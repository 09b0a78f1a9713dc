"""Exception types shared across the library.

Argument and domain violations raise plain ValueError.  The classes here
mark failures of a different nature: numerical self-checks and resource
caps.  The CLI maps ValueError to exit code 2, OSError to 3, and
everything below to 4.  `integral` is the one check that an integer
argument has no fractional part.
"""

import numbers


def integral(name, value):
    """int(value) for an integer (numpy's too) or an integral float; ValueError otherwise."""
    if isinstance(value, numbers.Integral) or float(value).is_integer():
        return int(value)
    raise ValueError("%s must be an integer, got %r" % (name, value))


class NumericsError(RuntimeError):
    """An internal numerical self-check or iteration failed to converge."""


class QuadratureError(NumericsError):
    """Quadrature rounds did not agree to tolerance before the panel cap."""


class ResourceCapError(RuntimeError):
    """A table or enumeration would exceed its configured size cap."""
