"""Exception types raised by graphgrav operations.

A value outside the function's domain (t outside (0, 1), an even q, a
ratio r <= 1, a scale that is not positive, an empty vertex list, ...)
raises ``BadParams``.  A class of its own is kept only for a fault of the
graph, region or distribution, or for a failed computation.
"""


class GraphGravError(Exception):
    """Base class for all graphgrav errors."""


class BadParams(GraphGravError):
    """An argument outside the function's domain."""


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


class NotATree(GraphGravError):
    pass


class TooLarge(GraphGravError):
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


# distributions

class UnbalancedMass(GraphGravError):
    pass


# failed computations

class NoConvergence(GraphGravError):
    pass


class SingularJacobian(GraphGravError):
    pass
