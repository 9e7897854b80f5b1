"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: usage problems -> 1, data problems -> 2,
numerical failures -> 3.
"""


class PkdeError(Exception):
    """Base class for all library errors."""


class InvalidInputError(PkdeError, ValueError):
    """Caller violated a precondition (shape, range, unknown id...)."""


class DataError(PkdeError):
    """Problem with the data itself rather than the call."""


class ParseError(DataError):
    """Malformed input file (ragged rows, non-numeric cells, bad labels)."""


class DegenerateDataError(DataError):
    """Dataset cannot support the requested operation (e.g. all-constant)."""


class DegenerateDuplicatesError(DegenerateDataError):
    """Too many exact duplicates for a neighborhood-based score."""

    def __init__(self, indices):
        self.indices = list(indices)  # all of them; the message shows 10
        shown = ", ".join(map(str, self.indices[:10]))
        more = ", ..." if len(self.indices) > 10 else ""
        super().__init__(
            f"local reachability density diverges: more than k duplicates "
            f"at {len(self.indices)} indices [{shown}{more}]"
        )


class NumericalError(PkdeError):
    """A numeric step failed: LAPACK raised, a detector produced
    non-finite scores, or the bandwidth matrix is singular."""


class SingularBandwidthError(NumericalError):
    """Bandwidth matrix is singular or near-singular; a feature is
    (near-)constant and the dimension should be reduced first."""
