"""Golden strings of the plan front doors' reports.

Each report is built from hand-made cells (no ATPG, no design build) and
its ``to_json()``, ``summary()`` and ``table()`` text is pinned byte for
byte, once healthy and once with a ``backend_fallbacks`` header record.
The round-trip tests elsewhere only check that a report agrees with
itself; these check that the text itself never moves.
"""

from repro.api import CampaignReport, RunReport, ScenarioOutcome
from repro.api.campaign import CampaignCell
from repro.diagnose import DefectSpec, DiagnosisCell, DiagnosisReport
from repro.engine.cache import ResultCache
from repro.runtime import Executor, Job, Plan, register_job_kind
from repro.volume import BpDiagnosisCell, BpDiagnosisReport, BpDiagnosisResult
from repro.volume.run import volume_report_builder

FALLBACKS = [
    {"requested": "processes", "used": "threads", "reason": "no fork"},
    {"requested": "remote", "used": "threads"},
]


def _header(degraded: bool) -> dict:
    header: dict = {"backend": "serial", "cached": False}
    if degraded:
        header["backend_fallbacks"] = [dict(record) for record in FALLBACKS]
    return header


def _outcome(letter: str, coverage: float, patterns: int) -> ScenarioOutcome:
    return ScenarioOutcome(
        scenario=f"table1-{letter}",
        description=f"experiment {letter}",
        fault_model="transition",
        test_coverage=coverage,
        fault_coverage=coverage - 1.5,
        atpg_effectiveness=99.25,
        pattern_count=patterns,
        cpu_seconds=0.5,
        stage_seconds={"atpg": 0.25, "setup": 0.125},
        legacy_key=letter,
        extras={"edt": {"channels": 2}},
    )


def campaign_report(degraded: bool = False) -> CampaignReport:
    report = CampaignReport(campaign=_header(degraded))
    report.add_cell(CampaignCell(
        design="tiny", scenario="table1-c", outcome=_outcome("c", 91.125, 17),
        cell_key="key-c", cache_hit=True, wall_seconds=0.25,
    ))
    report.add_cell(CampaignCell(
        design="tiny", scenario="table1-a", outcome=_outcome("a", 88.5, 12),
        wall_seconds=1.5,
    ))
    return report


def diagnosis_report(degraded: bool = False) -> DiagnosisReport:
    report = DiagnosisReport(campaign=_header(degraded))
    report.add_cell(DiagnosisCell(
        design="tiny", scenario="table1-a",
        defect=DefectSpec(kind="stuck-at", net="scan_en", value=1),
        rank_of_defect=1, resolution=2, candidate_count=14, site_count=7,
        fail_count=9, pattern_count=12, wall_seconds=0.75, cache_hit=True,
    ))
    report.add_cell(DiagnosisCell(
        design="tiny", scenario="table1-a",
        defect=DefectSpec(kind="transition", net="n5", pin=1,
                          polarity="slow-to-fall"),
        rank_of_defect=None, resolution=0, candidate_count=3, site_count=2,
        fail_count=4, pattern_count=12, wall_seconds=0.5, confidence=0.8125,
    ))
    return report


def volume_report(degraded: bool = False) -> BpDiagnosisReport:
    report = BpDiagnosisReport(campaign=_header(degraded))
    report.add_cell(BpDiagnosisCell(
        design="tiny", scenario="table1-a", log="die-1",
        defects=["scan_en stuck-at-1", "n5.in1 transition slow-to-fall"],
        rank_of_defect=1, confidence=0.96875, recovered_all=True, selected=2,
        resolution=1, candidate_count=21, fail_count=11, converged=True,
        bp_iterations=6, ambiguous_pairs=1, unexplained=0, cache_hit=True,
        wall_seconds=0.375,
    ))
    report.add_cell(BpDiagnosisCell(
        design="tiny", scenario="table1-a", log="die-2",
        defects=["n7 stuck-at-0"], candidate_count=5, fail_count=3,
        bp_iterations=40, unexplained=2, wall_seconds=0.125,
    ))
    return report


@register_job_kind("golden-bp")
def _golden_bp(resources, params, deps):
    """A fixed BP verdict per log content (``fails``), no design needed."""
    return BpDiagnosisResult(
        design="tiny", scenario="table1-a", backend="compiled",
        pattern_count=12, fail_count=params["fails"], site_count=4,
        candidate_count=9, truncated_sites=0, unexplained=0,
        converged=True, bp_iterations=7, wall_seconds=0.25,
    )


def repeated_log_plan() -> Plan:
    """Three dies in store order; die-1 and die-3 carry the same log."""
    fails = {"die-1": 5, "die-2": 3, "die-3": 5}
    return Plan(
        name="golden-volume",
        jobs=tuple(
            Job(id=f"bp:{die}", kind="golden-bp",
                params={"log": die, "fails": count},
                cache_key=f"golden-log-{count}")
            for die, count in fails.items()
        ),
    )


def run_report(degraded: bool = False) -> RunReport:
    return RunReport(
        session={"design": "soc", **_header(degraded)},
        outcomes=[_outcome("c", 91.125, 17), _outcome("a", 88.5, 12)],
    )


def test_campaign_report_golden():
    for degraded in (False, True):
        report = campaign_report(degraded)
        assert report.to_json() == CAMPAIGN_JSON[degraded]
        assert report.summary() == CAMPAIGN_SUMMARY
        assert report.table("tiny") == RUN_TABLE + (NOTES if degraded else "")
        assert CampaignReport.from_json(report.to_json()).to_json() == report.to_json()
        assert report.degraded is degraded
        assert report.cache_hits() == 1 and len(report) == 2


def test_diagnosis_report_golden():
    for degraded in (False, True):
        report = diagnosis_report(degraded)
        assert report.to_json() == DIAGNOSIS_JSON[degraded]
        assert report.summary() == DIAGNOSIS_SUMMARY + (NOTES if degraded else "")
        assert DiagnosisReport.from_json(report.to_json()).to_json() == report.to_json()
        assert report.degraded is degraded
        assert report.cache_hits() == 1 and len(report) == 2


def test_volume_report_golden():
    for degraded in (False, True):
        report = volume_report(degraded)
        assert report.to_json() == VOLUME_JSON[degraded]
        assert report.summary() == VOLUME_SUMMARY + (NOTES if degraded else "")
        assert BpDiagnosisReport.from_json(report.to_json()).to_json() == report.to_json()
        assert report.degraded is degraded
        assert report.cache_hits() == 1 and len(report) == 2


def test_repeated_log_lands_one_cell_per_die(tmp_path):
    """A log stored under two die names runs once, lands a cell per die in
    store order, and the coalesced cell is not a cache hit."""
    cache = ResultCache(tmp_path)
    reports = []
    for _ in ("cold", "warm"):
        report, handle, finalize = volume_report_builder(repeated_log_plan())
        result = Executor(cache=cache).execute(repeated_log_plan(), on_event=handle)
        reports.append(finalize())
    cold, warm = reports
    assert result.skipped("cache") == ["bp:die-1", "bp:die-2", "bp:die-3"]
    for report in reports:
        assert [cell.log for cell in report] == ["die-1", "die-2", "die-3"]
        first, _, third = report.cells
        assert {**first.deterministic_dict(), "log": "die-3"} == third.deterministic_dict()
    assert cold.summary() == REPEATED_SUMMARY
    assert cold.cache_hits() == 0
    assert warm.cache_hits() == 3


def test_run_report_table_notes_golden():
    assert run_report().table() == RUN_TABLE
    assert run_report(True).table() == RUN_TABLE + NOTES
    degraded = run_report(True)
    assert degraded.degraded and degraded.backend_fallbacks == FALLBACKS
    assert RunReport.from_json(degraded.to_json()) == degraded


# --------------------------------------------------------------------------
# The pinned text
# --------------------------------------------------------------------------
NOTES = (
    "\nNOTE: backend fallback processes -> threads: no fork"
    "\nNOTE: backend fallback remote -> threads: unknown reason"
)

CAMPAIGN_JSON = {
    False: (
        '{\n'
        '  "campaign": {\n'
        '    "backend": "serial",\n'
        '    "cached": false\n'
        '  },\n'
        '  "cells": [\n'
        '    {\n'
        '      "cache_hit": true,\n'
        '      "cell_key": "key-c",\n'
        '      "design": "tiny",\n'
        '      "outcome": {\n'
        '        "atpg_effectiveness": 99.25,\n'
        '        "cpu_seconds": 0.5,\n'
        '        "description": "experiment c",\n'
        '        "extras": {\n'
        '          "edt": {\n'
        '            "channels": 2\n'
        '          }\n'
        '        },\n'
        '        "fault_coverage": 89.625,\n'
        '        "fault_model": "transition",\n'
        '        "legacy_key": "c",\n'
        '        "pattern_count": 17,\n'
        '        "scenario": "table1-c",\n'
        '        "stage_seconds": {\n'
        '          "atpg": 0.25,\n'
        '          "setup": 0.125\n'
        '        },\n'
        '        "test_coverage": 91.125\n'
        '      },\n'
        '      "scenario": "table1-c",\n'
        '      "wall_seconds": 0.25\n'
        '    },\n'
        '    {\n'
        '      "cache_hit": false,\n'
        '      "cell_key": null,\n'
        '      "design": "tiny",\n'
        '      "outcome": {\n'
        '        "atpg_effectiveness": 99.25,\n'
        '        "cpu_seconds": 0.5,\n'
        '        "description": "experiment a",\n'
        '        "extras": {\n'
        '          "edt": {\n'
        '            "channels": 2\n'
        '          }\n'
        '        },\n'
        '        "fault_coverage": 87.0,\n'
        '        "fault_model": "transition",\n'
        '        "legacy_key": "a",\n'
        '        "pattern_count": 12,\n'
        '        "scenario": "table1-a",\n'
        '        "stage_seconds": {\n'
        '          "atpg": 0.25,\n'
        '          "setup": 0.125\n'
        '        },\n'
        '        "test_coverage": 88.5\n'
        '      },\n'
        '      "scenario": "table1-a",\n'
        '      "wall_seconds": 1.5\n'
        '    }\n'
        '  ]\n'
        '}'
    ),
    True: (
        '{\n'
        '  "campaign": {\n'
        '    "backend": "serial",\n'
        '    "backend_fallbacks": [\n'
        '      {\n'
        '        "reason": "no fork",\n'
        '        "requested": "processes",\n'
        '        "used": "threads"\n'
        '      },\n'
        '      {\n'
        '        "requested": "remote",\n'
        '        "used": "threads"\n'
        '      }\n'
        '    ],\n'
        '    "cached": false\n'
        '  },\n'
        '  "cells": [\n'
        '    {\n'
        '      "cache_hit": true,\n'
        '      "cell_key": "key-c",\n'
        '      "design": "tiny",\n'
        '      "outcome": {\n'
        '        "atpg_effectiveness": 99.25,\n'
        '        "cpu_seconds": 0.5,\n'
        '        "description": "experiment c",\n'
        '        "extras": {\n'
        '          "edt": {\n'
        '            "channels": 2\n'
        '          }\n'
        '        },\n'
        '        "fault_coverage": 89.625,\n'
        '        "fault_model": "transition",\n'
        '        "legacy_key": "c",\n'
        '        "pattern_count": 17,\n'
        '        "scenario": "table1-c",\n'
        '        "stage_seconds": {\n'
        '          "atpg": 0.25,\n'
        '          "setup": 0.125\n'
        '        },\n'
        '        "test_coverage": 91.125\n'
        '      },\n'
        '      "scenario": "table1-c",\n'
        '      "wall_seconds": 0.25\n'
        '    },\n'
        '    {\n'
        '      "cache_hit": false,\n'
        '      "cell_key": null,\n'
        '      "design": "tiny",\n'
        '      "outcome": {\n'
        '        "atpg_effectiveness": 99.25,\n'
        '        "cpu_seconds": 0.5,\n'
        '        "description": "experiment a",\n'
        '        "extras": {\n'
        '          "edt": {\n'
        '            "channels": 2\n'
        '          }\n'
        '        },\n'
        '        "fault_coverage": 87.0,\n'
        '        "fault_model": "transition",\n'
        '        "legacy_key": "a",\n'
        '        "pattern_count": 12,\n'
        '        "scenario": "table1-a",\n'
        '        "stage_seconds": {\n'
        '          "atpg": 0.25,\n'
        '          "setup": 0.125\n'
        '        },\n'
        '        "test_coverage": 88.5\n'
        '      },\n'
        '      "scenario": "table1-a",\n'
        '      "wall_seconds": 1.5\n'
        '    }\n'
        '  ]\n'
        '}'
    ),
}

CAMPAIGN_SUMMARY = (
    'tiny                 table1-c                     TC= 91.12%  patterns=   17  cache     0.25s\n'
    'tiny                 table1-a                     TC= 88.50%  patterns=   12  run       1.50s'
)

DIAGNOSIS_JSON = {
    False: (
        '{\n'
        '  "campaign": {\n'
        '    "backend": "serial",\n'
        '    "cached": false\n'
        '  },\n'
        '  "cells": [\n'
        '    {\n'
        '      "cache_hit": true,\n'
        '      "candidate_count": 14,\n'
        '      "confidence": null,\n'
        '      "defect": {\n'
        '        "kind": "stuck-at",\n'
        '        "net": "scan_en",\n'
        '        "pin": null,\n'
        '        "polarity": null,\n'
        '        "value": 1\n'
        '      },\n'
        '      "design": "tiny",\n'
        '      "fail_count": 9,\n'
        '      "pattern_count": 12,\n'
        '      "rank_of_defect": 1,\n'
        '      "resolution": 2,\n'
        '      "scenario": "table1-a",\n'
        '      "site_count": 7,\n'
        '      "wall_seconds": 0.75\n'
        '    },\n'
        '    {\n'
        '      "cache_hit": false,\n'
        '      "candidate_count": 3,\n'
        '      "confidence": 0.8125,\n'
        '      "defect": {\n'
        '        "kind": "transition",\n'
        '        "net": "n5",\n'
        '        "pin": 1,\n'
        '        "polarity": "slow-to-fall",\n'
        '        "value": null\n'
        '      },\n'
        '      "design": "tiny",\n'
        '      "fail_count": 4,\n'
        '      "pattern_count": 12,\n'
        '      "rank_of_defect": null,\n'
        '      "resolution": 0,\n'
        '      "scenario": "table1-a",\n'
        '      "site_count": 2,\n'
        '      "wall_seconds": 0.5\n'
        '    }\n'
        '  ]\n'
        '}'
    ),
    True: (
        '{\n'
        '  "campaign": {\n'
        '    "backend": "serial",\n'
        '    "backend_fallbacks": [\n'
        '      {\n'
        '        "reason": "no fork",\n'
        '        "requested": "processes",\n'
        '        "used": "threads"\n'
        '      },\n'
        '      {\n'
        '        "requested": "remote",\n'
        '        "used": "threads"\n'
        '      }\n'
        '    ],\n'
        '    "cached": false\n'
        '  },\n'
        '  "cells": [\n'
        '    {\n'
        '      "cache_hit": true,\n'
        '      "candidate_count": 14,\n'
        '      "confidence": null,\n'
        '      "defect": {\n'
        '        "kind": "stuck-at",\n'
        '        "net": "scan_en",\n'
        '        "pin": null,\n'
        '        "polarity": null,\n'
        '        "value": 1\n'
        '      },\n'
        '      "design": "tiny",\n'
        '      "fail_count": 9,\n'
        '      "pattern_count": 12,\n'
        '      "rank_of_defect": 1,\n'
        '      "resolution": 2,\n'
        '      "scenario": "table1-a",\n'
        '      "site_count": 7,\n'
        '      "wall_seconds": 0.75\n'
        '    },\n'
        '    {\n'
        '      "cache_hit": false,\n'
        '      "candidate_count": 3,\n'
        '      "confidence": 0.8125,\n'
        '      "defect": {\n'
        '        "kind": "transition",\n'
        '        "net": "n5",\n'
        '        "pin": 1,\n'
        '        "polarity": "slow-to-fall",\n'
        '        "value": null\n'
        '      },\n'
        '      "design": "tiny",\n'
        '      "fail_count": 4,\n'
        '      "pattern_count": 12,\n'
        '      "rank_of_defect": null,\n'
        '      "resolution": 0,\n'
        '      "scenario": "table1-a",\n'
        '      "site_count": 2,\n'
        '      "wall_seconds": 0.5\n'
        '    }\n'
        '  ]\n'
        '}'
    ),
}

DIAGNOSIS_SUMMARY = (
    'tiny                 table1-a     scan_en stuck-at-1                       rank=1   conf=-      res=2   cands=14    cache    0.75s\n'
    'tiny                 table1-a     n5.in1 transition slow-to-fall           rank=-   conf=0.812  res=0   cands=3     run      0.50s\n'
    'recovered at rank 1: 1/2'
)

VOLUME_JSON = {
    False: (
        '{\n'
        '  "campaign": {\n'
        '    "backend": "serial",\n'
        '    "cached": false\n'
        '  },\n'
        '  "cells": [\n'
        '    {\n'
        '      "ambiguous_pairs": 1,\n'
        '      "bp_iterations": 6,\n'
        '      "cache_hit": true,\n'
        '      "candidate_count": 21,\n'
        '      "confidence": 0.96875,\n'
        '      "converged": true,\n'
        '      "defects": [\n'
        '        "scan_en stuck-at-1",\n'
        '        "n5.in1 transition slow-to-fall"\n'
        '      ],\n'
        '      "design": "tiny",\n'
        '      "fail_count": 11,\n'
        '      "log": "die-1",\n'
        '      "rank_of_defect": 1,\n'
        '      "recovered_all": true,\n'
        '      "resolution": 1,\n'
        '      "scenario": "table1-a",\n'
        '      "selected": 2,\n'
        '      "unexplained": 0,\n'
        '      "wall_seconds": 0.375\n'
        '    },\n'
        '    {\n'
        '      "ambiguous_pairs": 0,\n'
        '      "bp_iterations": 40,\n'
        '      "cache_hit": false,\n'
        '      "candidate_count": 5,\n'
        '      "confidence": null,\n'
        '      "converged": false,\n'
        '      "defects": [\n'
        '        "n7 stuck-at-0"\n'
        '      ],\n'
        '      "design": "tiny",\n'
        '      "fail_count": 3,\n'
        '      "log": "die-2",\n'
        '      "rank_of_defect": null,\n'
        '      "recovered_all": false,\n'
        '      "resolution": 0,\n'
        '      "scenario": "table1-a",\n'
        '      "selected": 0,\n'
        '      "unexplained": 2,\n'
        '      "wall_seconds": 0.125\n'
        '    }\n'
        '  ]\n'
        '}'
    ),
    True: (
        '{\n'
        '  "campaign": {\n'
        '    "backend": "serial",\n'
        '    "backend_fallbacks": [\n'
        '      {\n'
        '        "reason": "no fork",\n'
        '        "requested": "processes",\n'
        '        "used": "threads"\n'
        '      },\n'
        '      {\n'
        '        "requested": "remote",\n'
        '        "used": "threads"\n'
        '      }\n'
        '    ],\n'
        '    "cached": false\n'
        '  },\n'
        '  "cells": [\n'
        '    {\n'
        '      "ambiguous_pairs": 1,\n'
        '      "bp_iterations": 6,\n'
        '      "cache_hit": true,\n'
        '      "candidate_count": 21,\n'
        '      "confidence": 0.96875,\n'
        '      "converged": true,\n'
        '      "defects": [\n'
        '        "scan_en stuck-at-1",\n'
        '        "n5.in1 transition slow-to-fall"\n'
        '      ],\n'
        '      "design": "tiny",\n'
        '      "fail_count": 11,\n'
        '      "log": "die-1",\n'
        '      "rank_of_defect": 1,\n'
        '      "recovered_all": true,\n'
        '      "resolution": 1,\n'
        '      "scenario": "table1-a",\n'
        '      "selected": 2,\n'
        '      "unexplained": 0,\n'
        '      "wall_seconds": 0.375\n'
        '    },\n'
        '    {\n'
        '      "ambiguous_pairs": 0,\n'
        '      "bp_iterations": 40,\n'
        '      "cache_hit": false,\n'
        '      "candidate_count": 5,\n'
        '      "confidence": null,\n'
        '      "converged": false,\n'
        '      "defects": [\n'
        '        "n7 stuck-at-0"\n'
        '      ],\n'
        '      "design": "tiny",\n'
        '      "fail_count": 3,\n'
        '      "log": "die-2",\n'
        '      "rank_of_defect": null,\n'
        '      "recovered_all": false,\n'
        '      "resolution": 0,\n'
        '      "scenario": "table1-a",\n'
        '      "selected": 0,\n'
        '      "unexplained": 2,\n'
        '      "wall_seconds": 0.125\n'
        '    }\n'
        '  ]\n'
        '}'
    ),
}

VOLUME_SUMMARY = (
    'tiny                 table1-a     die-1                    rank=1   conf=0.969  sel=2   res=1   amb=1   conv cache    0.38s\n'
    'tiny                 table1-a     die-2                    rank=-   conf=-      sel=0   res=0   amb=0   DIV  run      0.12s\n'
    'recovered all defects: 1/2 (rank 1: 1/2)'
)

REPEATED_SUMMARY = (
    'tiny                 table1-a     die-1                    rank=-   conf=-      sel=0   res=0   amb=0   conv run      0.25s\n'
    'tiny                 table1-a     die-2                    rank=-   conf=-      sel=0   res=0   amb=0   conv run      0.25s\n'
    'tiny                 table1-a     die-3                    rank=-   conf=-      sel=0   res=0   amb=0   conv run      0.25s\n'
    'recovered all defects: 3/3 (rank 1: 0/3)'
)

RUN_TABLE = (
    'Table 1: Experimental Results\n'
    '=============================================================================\n'
    'Exp  Configuration                                              TC   Patterns\n'
    '-----------------------------------------------------------------------------\n'
    'a    experiment a                                           88.50%        12\n'
    'c    experiment c                                           91.12%        17\n'
    '============================================================================='
)
