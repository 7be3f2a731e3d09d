"""Exception hierarchy shared by all twistlab modules."""


class TwistlabError(Exception):
    """Base class for all twistlab errors."""


class BackendMismatch(TwistlabError):
    """Operands live over different (or incompatible) group backends."""


class Unsupported(TwistlabError):
    """The backend does not support the requested operation, such as an
    exact finite-group computation on an infinite backend."""


class InvalidArgument(TwistlabError, ValueError):
    """An argument outside its domain: an empty generating set, a coefficient
    that is NaN or infinite (given so, or overflowed in a product)."""


class MemoryBudgetExceeded(TwistlabError):
    """A ball / support grew past the configured basis-element cap."""

    def __init__(self, needed, cap):
        super().__init__(f"needed {needed} basis elements, cap is {cap}")
        self.needed = needed
        self.cap = cap


class InvalidGroupTable(TwistlabError):
    pass


class InvalidFactorSet(TwistlabError):
    """Factor set fails the nonabelian cocycle condition; carries a witness triple."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InvalidAction(TwistlabError):
    """Action value is not an automorphism (or is incompatible with the factor set)."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotUnitModulus(TwistlabError):
    pass


class NotPermuting(TwistlabError):
    """An automorphism failed to permute the minimal central projections."""


class DegenerateAfterRetries(TwistlabError):
    """Random central elements kept producing merged spectral clusters."""


class NotACocycle(TwistlabError):
    """A value table that is not a normalised unit-modulus 2-cocycle."""
