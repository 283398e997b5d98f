"""Exception types raised by graphgrav operations."""


class GraphGravError(Exception):
    """Base class for all graphgrav errors."""


# graph construction / lookup

class SelfLoop(GraphGravError):
    pass


class DuplicateEdge(GraphGravError):
    pass


class NonpositiveLength(GraphGravError):
    pass


class Disconnected(GraphGravError):
    pass


class UnknownVertex(GraphGravError):
    pass


class NotAnEdge(GraphGravError):
    pass


# regions

class EmptyRegion(GraphGravError):
    pass


class DisconnectedRegion(GraphGravError):
    pass


class NonUniqueInwardEdge(GraphGravError):
    pass


class NotHexRegion(GraphGravError):
    pass


# transport and curvature

class TOutOfRange(GraphGravError):
    pass


class UnbalancedMass(GraphGravError):
    pass


class NoConvergence(GraphGravError):
    pass


# tree dynamics

class NotATree(GraphGravError):
    pass


class RatioNotGreaterThanOne(GraphGravError):
    pass


class NonpositiveScale(GraphGravError):
    pass


class QNotOdd(GraphGravError):
    pass


class NegativeDiscriminant(GraphGravError):
    pass


# action

class NonpositiveInput(GraphGravError):
    pass


class NotComplete(GraphGravError):
    pass


# generators

class BadParams(GraphGravError):
    pass


class TooLarge(GraphGravError):
    pass


class NotPerfect(GraphGravError):
    pass


class InvalidRatioChain(GraphGravError):
    pass


class InconsistentParams(GraphGravError):
    pass


# search

class SingularJacobian(GraphGravError):
    pass


class NoFreeEdges(GraphGravError):
    pass
