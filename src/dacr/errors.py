"""Exception hierarchy for the dacr package.

Every error raised by the library derives from DacrError so callers can
catch the whole family with one clause. Each class carries the stable
process exit code the CLI returns for it as ``exit_code`` (see
dacr.cli).
"""


class DacrError(Exception):
    """Base class for all dacr errors."""
    exit_code = 1


class SchemaError(DacrError):
    """An input document (robot description, joint state, ...) does not
    match its JSON schema."""
    exit_code = 2


class DomainError(DacrError):
    """A scalar argument is outside its mathematical domain (e.g. a
    non-positive length or radial distance)."""


class DegenerateArrangement(DacrError):
    """The joint arrangement spans less than two degrees of freedom; the
    2x2 Gram matrix of the inverse transform is singular."""
    exit_code = 3


class DimensionMismatch(DacrError):
    """A vector or state has the wrong number of entries for the
    arrangement it is used with."""
    exit_code = 4


class ConventionMismatch(DacrError):
    """A joint state was supplied in the wrong convention (displacement
    vs. joint length), or a robot/state combination is not representable
    in the requested form."""
    exit_code = 4


class ArrangementMismatch(DacrError):
    """Segments of an interdependent chain do not share a compatible
    joint arrangement."""
    exit_code = 4


class UnsupportedArrangement(DacrError):
    """The operation is only defined for arrangements with a common
    radial distance."""
    exit_code = 4


class FilterPropertyUnavailable(DacrError):
    """The requested operation relies on constant vectors being
    annihilated by the forward transform, which holds only when the
    transform rows sum to zero (symmetric arrangements)."""
    exit_code = 5


class OffManifold(DacrError):
    """A joint-space vector is too far from the bending manifold for the
    requested reconstruction."""
