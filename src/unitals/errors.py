"""The two exceptions of the package, one per CLI exit code.

GeometryError: the input is malformed or the request is out of scope
(a bad file, an unsupported order, a point set outside the structure, a
block set that is not a clique). The CLI reports it on stderr as
"error: ..." and exits 2, as it does for OSError and ValueError.

VerificationFailed: a checked claim failed on input that the check
accepts (a linear space outside the standing assumptions, a host plane
that cannot be completed, a graph that is not a unital's, a failed
self-check). The CLI reports it as "verification failed: ..." and exits
1. It subclasses GeometryError, so one except clause catches both.
"""


class GeometryError(Exception):
    """Bad input or an out-of-scope request (CLI exit 2)."""


class VerificationFailed(GeometryError):
    """A checked claim failed on input the check accepts (CLI exit 1)."""
