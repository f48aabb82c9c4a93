"""Exception types shared across the toolkit."""


class CubetactError(Exception):
    """Base class for all toolkit errors."""


class NotConnected(CubetactError):
    pass


class NotMedian(CubetactError):
    """Raised with a witness triple having zero or at least two medians."""

    def __init__(self, triple, medians):
        self.triple = tuple(triple)
        self.medians = sorted(medians)
        super().__init__(
            f"triple {self.triple} has {len(self.medians)} medians: {self.medians}"
        )


class UnknownVertex(CubetactError):
    pass


class UnknownHyperplane(CubetactError):
    pass


class UnknownGenerator(CubetactError):
    pass


class SizeLimitExceeded(CubetactError):
    pass


class CliqueLimitExceeded(CubetactError):
    pass


class NotAnAutomorphism(CubetactError):
    pass


class HyperplaneNotPreserved(CubetactError):
    pass


class AmbiguousClique(CubetactError):
    """Several vertices share the requested hyperplane set (extremal vertices)."""


class UnknownClique(CubetactError):
    pass


class LemmaViolation(CubetactError):
    """A statement checked by a verify suite failed; carries the witness."""


class GeneratorsAdjacent(CubetactError):
    pass


class BallTooSmall(CubetactError):
    pass


class StarNotContained(CubetactError):
    pass


class NotInterior(CubetactError):
    pass


class NotACone(CubetactError):
    pass
