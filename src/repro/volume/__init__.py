"""repro.volume — loopy-BP multi-defect diagnosis at fail-log volume.

Four layers, bottom up:

* :mod:`repro.volume.bp` — the damped max-product BP kernel over weighted
  set cover (convexified schedule, LP-relaxation objective);
  ``rerank_tied_scores``, the classical ranking's tie re-ranker, is
  re-exported here from :mod:`repro.diagnose.diagnose`;
* :mod:`repro.volume.graph` — candidate x failing-bit factor graphs built
  from the engine's syndrome kernels, greedy LP-rounded cover selection,
  calibrated per-candidate confidences and the
  :class:`~repro.volume.graph.BpDiagnosisResult` front door
  (:func:`~repro.volume.graph.run_bp_diagnosis`);
* :mod:`repro.volume.store` / :mod:`repro.volume.run` — volume mode:
  persistent fail-log stores (JSONL/sqlite) compiled into one resumable,
  serve-submittable runtime :class:`~repro.runtime.Plan`
  (:func:`~repro.volume.run.volume_plan`) with per-log content-addressed
  caching;
* :mod:`repro.volume.adaptive` — adaptive diagnostic ATPG: distinguishing
  patterns for the candidate pairs BP cannot separate.
"""

from repro.volume.adaptive import (
    AdaptiveOutcome,
    adaptive_diagnose,
    generate_distinguishing_pattern,
)
from repro.diagnose.diagnose import rerank_tied_scores
from repro.volume.bp import BpOptions, BpOutcome, max_product_bp
from repro.volume.graph import (
    BpDiagnosisResult,
    BpScoredCandidate,
    CandidateFactorGraph,
    build_factor_graph,
    run_bp_diagnosis,
)
from repro.volume.run import (
    BpDiagnosisCell,
    BpDiagnosisReport,
    VolumeSpec,
    execute_volume_plan,
    submit_volume,
    volume_plan,
    volume_report_builder,
)
from repro.volume.store import FailLogRecord, FailLogStore

__all__ = [
    "AdaptiveOutcome",
    "BpDiagnosisCell",
    "BpDiagnosisReport",
    "BpDiagnosisResult",
    "BpOptions",
    "BpOutcome",
    "BpScoredCandidate",
    "CandidateFactorGraph",
    "FailLogRecord",
    "FailLogStore",
    "VolumeSpec",
    "adaptive_diagnose",
    "build_factor_graph",
    "execute_volume_plan",
    "generate_distinguishing_pattern",
    "max_product_bp",
    "rerank_tied_scores",
    "run_bp_diagnosis",
    "submit_volume",
    "volume_plan",
    "volume_report_builder",
]
