"""Exception types shared across the package."""


class SpinfillError(Exception):
    """Base class for every error raised by this package."""


class MalformedInput(SpinfillError):
    """Input document is syntactically or structurally invalid."""


class NotAlternating(SpinfillError):
    """Strands of the diagram do not alternate over/under."""


class NotReduced(SpinfillError):
    """A checkerboard graph contains a loop edge (nugatory crossing)."""


class NonPlanar(SpinfillError):
    """Face count violates the spherical Euler formula."""


class Disconnected(SpinfillError):
    """Graph or diagram splits into several components."""


class DegenerateGraph(SpinfillError):
    """Graph too small for the requested construction."""


class NonSquare(SpinfillError):
    pass


class NonSymmetric(SpinfillError):
    pass


class Singular(SpinfillError):
    pass


class InvalidEmbedding(SpinfillError):
    """Rotation system is inconsistent or not of genus zero."""


class EmptyCharacteristicSet(SpinfillError):
    pass


class NotCharacteristic(SpinfillError):
    pass


class NonNegativeFraming(SpinfillError):
    """A characteristic sublink slides to a framing >= 0, so the
    blow-up/blow-down accounting of the Kaplan filling does not apply."""


class NotATree(SpinfillError):
    pass


class NotExcessive(SpinfillError):
    pass


class NotCoprime(SpinfillError):
    pass


class InvalidFraction(SpinfillError):
    pass


class NotAccessibleByConstruction(SpinfillError):
    """Sufficient-condition checks for the hub construction failed."""


class CertificationFailure(SpinfillError):
    """An internal optimality or consistency certificate failed; a bug."""
