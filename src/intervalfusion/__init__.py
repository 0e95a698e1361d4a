"""Evidential multi-criteria decision making with interval-valued weights.

Classical belief assignments rating alternatives against criteria are
discounted by interval-valued weights into interval BPAs, fused per
criterion and per decision maker, collapsed back to a classical assignment,
and ranked by pignistic belief in the ideal hypothesis.
"""

from . import errors
from .errors import IntervalFusionError
from .evidence import MassFunction
from .intervals import Interval
from .loading import bundled_dataset_bytes, load_problem
from .pipeline import (
    PER_DM,
    POOLED,
    DecisionProblem,
    RankingReport,
    normalize_weight_group,
    rank_alternatives,
)
from .reporting import FULL_TRACE, HUMAN_TABLE, JSON_FORMAT, SUMMARY, emit_report

__version__ = "0.1.0"

__all__ = [
    "DecisionProblem",
    "FULL_TRACE",
    "HUMAN_TABLE",
    "Interval",
    "IntervalFusionError",
    "JSON_FORMAT",
    "MassFunction",
    "PER_DM",
    "POOLED",
    "RankingReport",
    "SUMMARY",
    "bundled_dataset_bytes",
    "emit_report",
    "errors",
    "load_problem",
    "normalize_weight_group",
    "rank_alternatives",
    "__version__",
]
