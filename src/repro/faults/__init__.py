"""Fault models, collapsing, fault lists and fault classification."""

from repro.faults.classify import ClassifierContext, FaultClassifier
from repro.faults.collapse import CollapseResult, collapse_faults, equivalent_faults
from repro.faults.fault_list import CoverageReport, FaultList, FaultRecord, FaultStatus
from repro.faults.models import (
    Fault,
    FaultSite,
    FaultSiteKind,
    PathDelayFault,
    StuckAtFault,
    TransitionFault,
    TransitionKind,
    all_stuck_at_faults,
    all_transition_faults,
    enumerate_fault_sites,
)

__all__ = [
    "ClassifierContext",
    "CollapseResult",
    "CoverageReport",
    "Fault",
    "FaultClassifier",
    "FaultList",
    "FaultRecord",
    "FaultSite",
    "FaultSiteKind",
    "FaultStatus",
    "PathDelayFault",
    "StuckAtFault",
    "TransitionFault",
    "TransitionKind",
    "all_stuck_at_faults",
    "all_transition_faults",
    "collapse_faults",
    "enumerate_fault_sites",
    "equivalent_faults",
]
