"""Built-in ``geacc-lint`` rules.

Importing this package registers every rule class in
:data:`repro.analysis.registry.RULES` (one module per rule; add new
rules by dropping a module here and importing it below).
"""

from repro.analysis.rules.atomicio import AtomicIoRule
from repro.analysis.rules.checkpoint import CheckpointInLoopRule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.floats import FloatComparisonRule
from repro.analysis.rules.fsync import FsyncBeforeAckRule
from repro.analysis.rules.hygiene import ApiHygieneRule
from repro.analysis.rules.journal import JournalBeforeMutateRule
from repro.analysis.rules.netio import NetworkIoRule
from repro.analysis.rules.ordering import OrderingSafetyRule
from repro.analysis.rules.parallelism import ParallelismRule
from repro.analysis.rules.shardaccess import ShardAccessRule
from repro.analysis.rules.solver_registry import SolverRegistryRule
from repro.analysis.rules.suppression import SuppressionHygieneRule
from repro.analysis.rules.timeapi import TimeApiRule
from repro.analysis.rules.vectorloops import VectorLoopRule

__all__ = [
    "DeterminismRule",
    "FloatComparisonRule",
    "SolverRegistryRule",
    "OrderingSafetyRule",
    "ApiHygieneRule",
    "TimeApiRule",
    "ParallelismRule",
    "NetworkIoRule",
    "JournalBeforeMutateRule",
    "CheckpointInLoopRule",
    "FsyncBeforeAckRule",
    "SuppressionHygieneRule",
    "AtomicIoRule",
    "VectorLoopRule",
    "ShardAccessRule",
]
