"""Exception hierarchy.

Everything raised on bad data derives from :class:`CorrTreeError` so the
CLI can map any library failure to a single "data error" exit code while
keeping programming mistakes (plain ``ValueError``/``TypeError``) visibly
distinct.
"""

from __future__ import annotations


class CorrTreeError(Exception):
    """Base class for data and domain errors raised by this package."""


class PanelParseError(CorrTreeError):
    """A delimited input file could not be parsed; message carries the line number."""


class SchemaError(CorrTreeError):
    """Structural problem: duplicate labels, too few assets, duplicate timestamps."""


class DomainError(CorrTreeError):
    """A value lies outside the mathematical domain of an operation."""


class DegenerateAssetError(CorrTreeError):
    """An asset column is constant (zero variance) where variance is required."""


class InsufficientDataError(CorrTreeError):
    """A pair of assets has fewer joint observations than required."""


class UnknownAssetError(CorrTreeError):
    """An asset label was not found in the panel."""


class SizeError(CorrTreeError):
    """Input has too few (or too many) elements for the operation."""


class ComparisonError(CorrTreeError):
    """Two structures being compared are not defined over the same assets."""


class GeneratorSpecError(CorrTreeError):
    """A synthetic-panel specification is invalid."""
