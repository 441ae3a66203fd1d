"""Exception types shared across the package.

Every operation that can reject its input raises one of these instead of a bare
ValueError so callers (and the CLI exit-code mapping) can tell input problems
apart from internal assertion failures.
"""

from __future__ import annotations


class PlanarCutError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PlanarCutError):
    """Bad input data (CLI exit code 2)."""


class InternalAssertion(PlanarCutError):
    """An internal invariant failed (CLI exit code 3)."""


# -- embedding construction ------------------------------------------------

class NonPlanarEmbedding(InputError):
    """Rotation system does not describe a genus-0 embedding (Euler check)."""


class Disconnected(InputError):
    """Graph must be connected."""


class NegativeWeight(InputError):
    """Edge weights must be non-negative."""


class WeightTooLarge(InputError):
    """The total scaled edge weight must stay below 2^255."""


class UnknownEdge(InputError):
    """Edge id out of range or absent from the rotation system."""


class UnknownVertex(InputError):
    """Vertex id out of range."""


class SameVertex(InputError):
    """Operation needs two distinct vertices."""


# -- paths / weights -------------------------------------------------------

class NoPath(PlanarCutError):
    """No path exists between the requested endpoints."""


# -- subdivision -----------------------------------------------------------

class TooSmall(InputError):
    """Piece is too small to separate (single edge)."""


# -- region tree / separating cycles ----------------------------------------

class InductionViolated(InternalAssertion):
    """More than one unseparated face pair found in a region."""


class NotSeparating(InternalAssertion):
    """A candidate cycle fails to separate the requested face pair."""


# -- baseline --------------------------------------------------------------

class TooLarge(InputError):
    """Brute-force oracle refused an input above its size bound."""
