"""Exception hierarchy shared across the toolkit."""


class GeometryError(ValueError):
    """Base class for geometric input errors."""


class InvalidPointError(GeometryError):
    """Coordinates do not satisfy the model-surface quadric constraint."""


class NonUniqueGeodesicError(GeometryError):
    """The requested geodesic is not unique (e.g. antipodal endpoints)."""


class DegenerateTriangleError(GeometryError):
    """An angle is requested at a corner with a zero-length adjacent side."""


class TriangleInequalityError(GeometryError):
    """Side lengths violate the triangle inequality beyond tolerance."""


class TooLargeTriangleError(GeometryError):
    """Triangle perimeter exceeds the model-surface bound 2*R_kappa."""


class BackendMismatchError(GeometryError):
    """A point of one target-space backend was passed to another."""


class OutOfConvexityError(GeometryError):
    """Points are too spread out for a unique barycenter / minimizer."""


class NotLengthConnectedError(GeometryError):
    """The graph underlying an induced metric is disconnected."""


class FixedSetMismatchError(GeometryError):
    """Two maps that should agree on the fixed vertex set do not."""


class GraphMismatchError(GeometryError):
    """Two mapped graphs do not share the same combinatorial graph."""


class EpsilonBoundError(GeometryError):
    """A triangle's image diameter exceeds the gluing bound epsilon."""


class PipelineStageError(RuntimeError):
    """A verification pipeline stage failed; carries the stage tag."""

    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        super().__init__(f"stage {stage}: {cause}")


class ConfigError(ValueError):
    """A scenario configuration file is malformed."""

    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        self.message = message
        super().__init__(f"{field_path}: {message}")
