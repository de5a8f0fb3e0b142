"""Exception types raised across the package."""


class PcfgError(Exception):
    """Base class for all package errors."""


class MalformedImageError(PcfgError):
    """Image container bytes failed validation."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class OutOfRangeError(PcfgError):
    """Address falls outside the addressed section."""

    def __init__(self, addr: int):
        super().__init__(f"address 0x{addr:x} out of range")
        self.addr = addr


class NotACandidateError(PcfgError):
    """Block end resolution was asked for an address not in the candidate set."""


class NotDirectTerminatorError(PcfgError):
    """Direct edge creation applied to a block without a direct terminator."""


class NotIndirectTerminatorError(PcfgError):
    """Indirect edge creation applied to a block without an indirect terminator."""


class CalleeUnsetError(PcfgError):
    """Call fall-through requested while the callee's return status is unresolved.

    Callers must defer the operation until the status is known.
    """


class EdgeNotFoundError(PcfgError):
    """Operation referenced an edge that is not in the graph."""


class InvalidGraphError(PcfgError):
    """Graph failed structural validation."""

    def __init__(self, violations):
        super().__init__("; ".join(str(v) for v in violations[:5]))
        self.violations = violations


class AlreadySetError(PcfgError):
    """A single-assignment return status was written twice."""


class SpecOutOfBoundsError(PcfgError):
    """Scenario parameters fall outside their documented bounds."""


class InternalError(PcfgError):
    """State that the engine's invariants should make unreachable."""
