"""Exception types raised across the package.

Everything derives from :class:`IntervalFusionError` so callers can catch
one base class at process boundaries (the CLI does exactly that). A fault
in a document, a weight's endpoints or a rating's masses included, is one
of the last three, raised by the loader: no constructor checks.
"""


class IntervalFusionError(Exception):
    """Base class for all errors raised by this package."""


# --- linguistic terms -------------------------------------------------------

class InvalidAlpha(IntervalFusionError):
    """Alpha-cut level must lie in [0, 1]."""


# --- mass functions and combination ----------------------------------------

class MassSumViolation(IntervalFusionError):
    """Masses must sum to 1 within tolerance."""


class TotalConflict(IntervalFusionError):
    """Combination is undefined: the conflict coefficient reached 1."""


# --- weighting pipeline -----------------------------------------------------

class AllZeroWeights(IntervalFusionError):
    """A weight group with no positive endpoint cannot be normalized."""


# --- document handling -------------------------------------------------------

class ParseError(IntervalFusionError):
    """Input is not well-formed in the declared format."""


class SchemaError(IntervalFusionError):
    """Document structure does not match the schema (missing/extra/ill-typed fields)."""


class ValidationError(IntervalFusionError):
    """Document is well-formed but violates a value-level invariant."""
