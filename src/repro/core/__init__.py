"""Paper reporting: the Table 1 reproduction, claim checks and ablations."""

from repro.core.ablation import (
    compaction_ablation,
    edt_ablation,
    inter_domain_ablation,
    pulse_count_ablation,
)
from repro.core.results import (
    ClaimCheck,
    compare_with_paper,
    format_comparison,
    format_table1,
)

__all__ = [
    "ClaimCheck",
    "compaction_ablation",
    "compare_with_paper",
    "edt_ablation",
    "format_comparison",
    "format_table1",
    "inter_domain_ablation",
    "pulse_count_ablation",
]
