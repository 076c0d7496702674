"""Exception types shared across the package."""

from __future__ import annotations


class TNBNError(Exception):
    """Base class for all domain errors raised by this package."""


class ModelFormatError(TNBNError):
    """A model file or event log could not be parsed into model objects."""


class InvalidNetworkError(TNBNError):
    """A network failed validation; carries the full violation report."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"invalid network: {lines}")


class UnknownNodeError(TNBNError):
    """A node id does not exist in the network."""


class UnknownStateError(TNBNError):
    """A state label does not name a state of the node; lists the legal ones."""

    def __init__(self, node: str, given: str, legal):
        self.node = node
        self.given = given
        self.legal = list(legal)
        super().__init__(
            f"unknown state {given!r} for node {node!r}; legal states: "
            + ", ".join(self.legal)
        )


class RangeOverflowError(TNBNError):
    """An elapsed time falls outside a temporal node's covered range."""


class ZeroProbabilityEvidenceError(TNBNError):
    """The supplied evidence has probability zero under the model."""


class JointSizeError(TNBNError):
    """The full joint table would exceed the enumeration size guard."""


class FactorSizeError(TNBNError):
    """Eliminating a node would build an intermediate factor above the size
    guard; names the node, the factor's scope width and its cell count."""

    def __init__(self, node: str, width: int, cells: int, limit: int):
        self.node = node
        self.width = width
        self.cells = cells
        super().__init__(
            f"eliminating node {node!r} would build a factor over {width} nodes "
            f"with {cells} cells (limit {limit})"
        )


class DuplicateObservationError(TNBNError):
    """A node was observed more than once in the same session."""


class UnanchoredSessionError(TNBNError):
    """A query needs a temporal anchor but no event has been observed yet."""


class NoPendingObservationError(TNBNError):
    """Scenario enumeration was requested but nothing is interval-ambiguous."""


class EmptyTierError(TNBNError):
    """The evaluation condition names a node tier this network does not have."""
