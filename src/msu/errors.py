"""Exception types shared across the library.

Every error raised on bad user input derives from MsuError, so callers (and
the CLI) can distinguish input problems from genuine bugs. InternalCheckError
marks a float result that drifted beyond tolerance from the value the theory
fixes; the README lists each site.
"""


class MsuError(Exception):
    """Base class for all input and precondition errors."""


class InputFormatError(MsuError, ValueError):
    """Malformed file, literal, or mixed exact/float numeric modes."""


class InvalidMetricError(MsuError, ValueError):
    """A distance matrix violates the metric axioms.

    Carries the structured violation list in `violations`.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        summary = "; ".join(str(v) for v in self.violations[:4])
        if len(self.violations) > 4:
            summary += f"; ... ({len(self.violations)} total)"
        super().__init__(f"not a metric: {summary}")


class IndexRangeError(MsuError, IndexError):
    """A point, part, or vertex index is out of range or not distinct."""


class WrongCardinalityError(MsuError, ValueError):
    """An operation requires a specific number of points."""


class InvalidTripleError(MsuError, ValueError):
    """Three values cannot be the side lengths of a metric triple."""


class DisconnectedGraphError(MsuError, ValueError):
    """The graph has no path between two vertices."""

    def __init__(self, u, v, labels=None):
        self.pair = (u, v)
        if labels:
            msg = f"no path between {labels[u]!r} and {labels[v]!r}"
        else:
            msg = f"no path between vertices {u} and {v}"
        super().__init__(msg)


class NotUltrametricError(MsuError, ValueError):
    """An ultrametric input was required."""


class RadiusTooSmallError(MsuError, ValueError):
    """Gluing radius below the diameter bound."""


class EpsilonTooSmallError(MsuError, ValueError):
    """Union spacing does not exceed a part's connectivity threshold."""


class SeparatorError(MsuError, ValueError):
    """Separator list fails coverage or membership requirements."""


class NotPseudolinearError(MsuError, ValueError):
    """A pseudo-linear quadruple was required."""


class IsometricDuplicateError(MsuError, ValueError):
    """Two inputs required to be non-isometric are isometric."""


class DuplicatePointError(MsuError, ValueError):
    """A sample contains the same point twice."""


class DegenerateTriangleError(MsuError, ValueError):
    """Collinear triangle where a nondegenerate one is required."""


class OriginNotAllowedError(MsuError, ValueError):
    """A ray point at the origin is not allowed here."""


class AlphaRangeError(MsuError, ValueError):
    """Ray angle outside the admissible range."""


class NonpositiveDistanceError(MsuError, ValueError):
    """A strictly positive distance was required."""


class LengthRangeError(MsuError, ValueError):
    """Interval length outside (0, 1)."""


class EmptyFamilyError(MsuError, ValueError):
    """A nonempty family was required."""


class TransitivityError(MsuError, ValueError):
    """A relation claimed to be a quasi-order is not transitive."""


class InternalCheckError(AssertionError):
    """A float result drifted beyond tolerance from the value the theory fixes."""
