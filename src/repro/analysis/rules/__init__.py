"""Built-in ``geacc-lint`` rules.

Importing this package registers every rule class in
:data:`repro.analysis.registry.RULES` (one module per rule; add new
rules by dropping a module here and importing it below).
"""

from repro.analysis.rules.atomicio import AtomicIoRule
from repro.analysis.rules.checkpoint import CheckpointInLoopRule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.floats import FloatComparisonRule
from repro.analysis.rules.hygiene import ApiHygieneRule
from repro.analysis.rules.ordering import OrderingSafetyRule
from repro.analysis.rules.suppression import SuppressionHygieneRule
from repro.analysis.rules.vectorloops import VectorLoopRule

__all__ = [
    "DeterminismRule",
    "FloatComparisonRule",
    "OrderingSafetyRule",
    "ApiHygieneRule",
    "CheckpointInLoopRule",
    "SuppressionHygieneRule",
    "AtomicIoRule",
    "VectorLoopRule",
]
