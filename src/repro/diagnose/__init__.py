"""repro.diagnose — defect injection, fail-log capture and fault diagnosis.

Closes the production loop the at-speed test flow opens: patterns run on the
tester, failing devices produce fail logs, and diagnosis traces those logs
back to ranked candidate defects.  Four pieces:

* :mod:`repro.diagnose.defects` — declarative, JSON-round-trippable
  :class:`DefectSpec` (stuck-at, transition, inter-domain delay) plus the
  :class:`DefectInjector` that perturbs the compiled circuit kernels without
  mutating the netlist;
* :mod:`repro.diagnose.faillog` — tester-side capture
  (:func:`capture_fail_log`) emitting an ATE-style :class:`FailLog`
  (per-pattern / per-chain / per-cycle failing bits, round-trippable to the
  STIL-flavoured text format);
* :mod:`repro.diagnose.candidates` — cone-intersection candidate extraction
  from a per-design :class:`CandidateUniverse` (sites, candidates, fault ids
  and row labels built once per node, memoised on the circuit model);
* :mod:`repro.diagnose.diagnose` — candidate syndromes from a per-pattern-set
  :class:`SyndromeDictionary` (each fault simulated once, on the
  engine's serial or compiled backend), tallied per log by syndrome
  match, with iterative re-ranking of tied candidates.

API integration lives in :meth:`repro.api.session.TestSession.diagnose` and
:meth:`repro.api.campaign.Campaign.diagnose`.
"""

from repro.diagnose.candidates import (
    Candidate,
    CandidateSet,
    CandidateUniverse,
    candidate_nodes,
    candidate_universe,
    extract_candidates,
    failing_observation_nodes,
    observed_fail_pairs,
)
from repro.diagnose.defects import (
    DEFECT_KINDS,
    POLARITIES,
    DefectInjector,
    DefectSpec,
)
from repro.diagnose.diagnose import (
    DiagnosisCell,
    DiagnosisReport,
    DiagnosisResult,
    DiagnosisSpec,
    ScoredCandidate,
    SyndromeDictionary,
    SyndromeEvidence,
    run_diagnosis,
    score_candidates,
    simulate_candidate_syndromes,
)
from repro.diagnose.faillog import (
    PO_CHAIN,
    FailBit,
    FailLog,
    capture_fail_log,
    parse_fail_log,
)

__all__ = [
    "DEFECT_KINDS",
    "PO_CHAIN",
    "POLARITIES",
    "Candidate",
    "CandidateSet",
    "CandidateUniverse",
    "DefectInjector",
    "DefectSpec",
    "DiagnosisCell",
    "DiagnosisReport",
    "DiagnosisResult",
    "DiagnosisSpec",
    "FailBit",
    "FailLog",
    "ScoredCandidate",
    "SyndromeDictionary",
    "SyndromeEvidence",
    "candidate_nodes",
    "candidate_universe",
    "capture_fail_log",
    "extract_candidates",
    "failing_observation_nodes",
    "observed_fail_pairs",
    "parse_fail_log",
    "run_diagnosis",
    "score_candidates",
    "simulate_candidate_syndromes",
]
