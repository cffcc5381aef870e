"""Exception hierarchy shared by all loopkit modules."""


class LoopkitError(Exception):
    """Base class for all loopkit errors."""


class Malformed(LoopkitError):
    """Input file or text has bad dimensions, tokens or section structure."""


class NotLatin(LoopkitError):
    """A table row or column repeats a value."""


class NoNeutral(LoopkitError):
    """A quasigroup table has no two-sided neutral element."""


class CapExceeded(LoopkitError):
    """A size or budget cap was exceeded (table order > 512, group degree > 256,
    report order > 128, automorphism enumeration of |A| > 10, ...)."""


class ArityMismatch(LoopkitError):
    """Wrong number of arguments for an inner-mapping generator."""


class NotNormal(LoopkitError):
    """A subloop is not invariant under the inner mappings."""


class NotAbelianIn(LoopkitError):
    """The syntactic abelianess conditions fail for the given normal subloop."""


class NotAbelianGroup(LoopkitError):
    """A table expected to be a commutative group is not one."""


class CocycleInvalid(LoopkitError):
    """Cocycle data violates the border conditions or shape constraints."""


class NotNeutralAt(LoopkitError):
    """The extension built from the cocycle has no neutral at the claimed pair."""
