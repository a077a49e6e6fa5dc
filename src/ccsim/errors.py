"""Exception hierarchy for ccsim.

Every error raised by the package derives from :class:`CcsimError`, so callers
(and the CLI) can catch one base class. Parse-time errors carry the offending
line number in ``line``.
"""

from __future__ import annotations


class CcsimError(Exception):
    """Base class for all ccsim errors."""


# ── netlist: parse ──────────────────────────────────────────────────


class NetlistError(CcsimError):
    """A problem found while parsing a netlist. ``line`` is 1-based."""

    def __init__(self, reason: str, line: int | None = None):
        self.line = line
        self.reason = reason
        if line is not None:
            super().__init__(f"line {line}: {reason}")
        else:
            super().__init__(reason)


class NetlistSyntaxError(NetlistError):
    """Malformed element or directive line."""


class DuplicateNameError(NetlistError):
    """Two elements share a name (names compare case-insensitively)."""


class UnknownElementKindError(NetlistError):
    """Line starts with a letter that maps to no supported element."""


class MissingEndError(NetlistError):
    """Document ended without a ``.end`` line."""


# ── netlist: validate ───────────────────────────────────────────────


class ValidationError(CcsimError):
    """A structurally parsed document that cannot form a solvable circuit."""


class DanglingNodeError(ValidationError):
    """A node is attached in a way that admits no solution (dead-end current
    path, unconnected voltage-sense port, or an island unreachable from
    ground)."""


class NoGroundReferenceError(ValidationError):
    """No element in the circuit touches the ground node \"0\"."""


# ── devices ─────────────────────────────────────────────────────────


class NonPositiveResistanceError(CcsimError):
    """Resistances must be strictly positive (conveyor RX may be zero)."""


# ── solver ──────────────────────────────────────────────────────────


class SolverError(CcsimError):
    pass


class SingularMatrixError(SolverError):
    """The MNA matrix is singular or too ill-conditioned to solve (floating
    node or an otherwise unsolvable topology), or a clamp Jacobian is
    singular."""


class NoConvergenceError(SolverError):
    """Newton iteration exhausted ``max_iter``.

    ``time`` is the first timepoint that did not converge and ``residual``
    its last infinity-norm residual.
    """

    def __init__(self, message: str, residual: float, time: float | None = None):
        super().__init__(message)
        self.residual = residual
        self.time = time


# ── measure ─────────────────────────────────────────────────────────


class MeasureError(CcsimError):
    pass


class UnknownNodeError(MeasureError):
    """Waveform has no trace for the requested node."""


class EmptyWindowError(MeasureError):
    """Measurement window contains no samples."""


class ZeroInputError(MeasureError):
    """Peak-to-peak gain is undefined for a flat input trace."""


class NoSourcesError(MeasureError):
    """Power measurement on a waveform with no source branches."""


# ── experiments / cli ───────────────────────────────────────────────


class GainOutOfRangeError(CcsimError):
    """Measured gain is incompatible with a non-negative intrinsic
    resistance."""


class UnknownExperimentError(CcsimError):
    """Experiment name not in the reproduction catalog."""


class UnknownParameterError(CcsimError):
    """Sweep parameter does not resolve to any element value."""


class InputFileError(CcsimError):
    """A netlist file that cannot be read or is not UTF-8 text."""
