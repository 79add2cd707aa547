"""Golden JSON text of every record, and the keys derived from it.

One hand-made instance of each record class is serialised and its
``json.dumps(to_dict(), sort_keys=True)`` text (and, where the class has
always had one, its default ``to_json()`` text) is pinned byte for byte.
So are the digests and the stored row built from that text:
``Plan.fingerprint`` of a two-job plan, ``fail_log_fingerprint`` of a
two-defect log and the ``FailLogStore`` payload of that log.  Every record
must also come back equal from its own ``to_dict`` form, and that form must
hold only JSON types (lists, never tuples).
"""

import json
import sqlite3

from repro.analyze.report import Finding, LintReport, Severity, Waiver
from repro.api.campaign import CampaignCell
from repro.api.design import DesignSpec, DomainSpec
from repro.api.report import ScenarioOutcome
from repro.clocking.named_capture import CapturePulse, NamedCaptureProcedure
from repro.dft.edt import EdtConfig
from repro.diagnose.defects import DefectSpec
from repro.diagnose.diagnose import DiagnosisCell, DiagnosisResult, DiagnosisSpec, ScoredCandidate
from repro.diagnose.faillog import FailBit, FailLog
from repro.engine.cache import fail_log_fingerprint
from repro.runtime.plan import Job, Plan
from repro.volume.bp import BpOptions
from repro.volume.graph import BpDiagnosisResult, BpScoredCandidate
from repro.volume.run import BpDiagnosisCell, VolumeSpec
from repro.volume.store import FailLogRecord, FailLogStore

STUCK = DefectSpec(kind="stuck-at", net="n7", value=1)
SLOW = DefectSpec(kind="transition", net="u3", pin=1, polarity="slow-to-rise")


def fail_log():
    return FailLog(
        design="tiny",
        pattern_count=12,
        fails=[
            FailBit(pattern=0, chain="chain0", cycle=3, signal="ff3", expected="0", observed="1"),
            FailBit(pattern=5, chain="po", cycle=0, signal="out1", expected="1", observed="0"),
        ],
        defects=[STUCK, SLOW],
    )


def plan():
    return Plan(
        name="grid",
        jobs=(
            Job(id="p", kind="scenario", params={"design": "tiny", "scenario": "a"},
                cache_key="k-p", label="patterns", if_needed=True),
            Job(id="d", kind="diagnosis", params={"log": "die-0", "batch": 64},
                deps=("p",), cache_key=None, label="diagnose", retries=2),
        ),
        metadata={"grid": ["tiny"], "seed": 7},
        resources={"designs": object()},
    )


def instances():
    domains = (DomainSpec("a", "clk_a", 150.0), DomainSpec("b", "clk_b", 75.0, pll_output="pll1"))
    outcome = ScenarioOutcome(
        scenario="table1-a", description="experiment a", fault_model="transition",
        test_coverage=88.5, fault_coverage=87.0, atpg_effectiveness=99.25,
        pattern_count=12, cpu_seconds=0.5, stage_seconds={"atpg": 0.25},
        legacy_key="a", extras={"edt": {"channels": 2}, "store": {"patterns": 3}},
    )
    scored = ScoredCandidate(rank=1, kind="stuck-at", net="n7", pin=None, value=1,
                             polarity=None, hits=4, misses=0, false_alarms=1, score=3.5)
    bp_scored = BpScoredCandidate(rank=2, kind="transition", net="u3", pin=1, value=None,
                                  polarity="slow-to-rise", hits=2, misses=1, false_alarms=0,
                                  score=1.25, confidence=0.875, selected=True)
    finding = Finding(rule="dangling-output", severity=Severity.WARNING, message="no load",
                      subject="dbg_1", data={"count": 2, "nets": ["a", "b"]},
                      waived=True, waived_reason="debug taps")
    waiver = Waiver("dangling-output", "dbg_*", reason="debug taps")
    return {
        "DomainSpec": domains[1],
        "EdtConfig": EdtConfig(input_channels=3, output_channels=None, lfsr_length=24),
        "DesignSpec": DesignSpec(
            name="rich", description="unit", size=3, extra_domains=(100.0, 37.5),
            edt=EdtConfig(input_channels=2, output_channels=1),
            netlist_verilog="module m; endmodule", domains=domains, test_domain="b",
            tags=("unit", "rich"),
        ),
        "DefectSpec": SLOW,
        "DiagnosisSpec": DiagnosisSpec(scenario="table1-a", defect=STUCK,
                                       candidate_kinds=("stuck-at", "transition"),
                                       max_sites=64, backend="compiled"),
        "ScoredCandidate": scored,
        "DiagnosisResult": DiagnosisResult(
            design="tiny", scenario="table1-a", backend="compiled", pattern_count=12,
            fail_count=2, site_count=9, candidate_count=18, truncated_sites=0,
            candidates=[scored], defect=STUCK, resolution=1, rank_of_defect=1,
            wall_seconds=0.5, cache_hit=True,
        ),
        "BpScoredCandidate": bp_scored,
        "BpDiagnosisResult": BpDiagnosisResult(
            design="tiny", scenario="table1-a", backend="serial", pattern_count=12,
            fail_count=2, site_count=9, candidate_count=18, truncated_sites=1,
            unexplained=0, candidates=[bp_scored], defects=[STUCK, SLOW], resolution=2,
            ranks_of_defects=[None, 2], converged=True, bp_iterations=7, objective=2.5,
            lp_objective=2.25, ambiguous_pairs=[{"a": "n7", "b": "u3", "gap": 0.03125}],
            wall_seconds=0.75, cache_hit=False,
        ),
        "BpOptions": BpOptions(iterations=12, damping=0.25, convexified=False),
        "VolumeSpec": VolumeSpec(scenario="table1-a", candidate_kinds=("stuck-at",),
                                 max_sites=32, backend="serial",
                                 bp=BpOptions(false_alarm_weight=0.5)),
        "FailBit": fail_log().fails[0],
        "FailLog": fail_log(),
        "FailLogRecord": FailLogRecord(name="die-0", design="tiny", scenario="table1-a",
                                       log=fail_log()),
        "Job": plan().jobs[1],
        "Plan": plan(),
        "Waiver": waiver,
        "Finding": finding,
        "LintReport": LintReport(target="tiny", findings=[finding],
                                 rules_run=("dangling-output", "scan-chain"),
                                 waivers=(waiver,)),
        "CapturePulse": CapturePulse.of("slow", "fast", at_speed=False),
        "NamedCaptureProcedure": NamedCaptureProcedure(
            name="inter_fast_slow",
            pulses=(CapturePulse.of("fast"), CapturePulse.of("slow", "fast")),
            description="launch fast, capture both",
        ),
        "ScenarioOutcome": outcome,
        "CampaignCell": CampaignCell(design="tiny", scenario="table1-a", outcome=outcome,
                                     cell_key="key-a", cache_hit=True, wall_seconds=0.25),
        "DiagnosisCell": DiagnosisCell(design="tiny", scenario="table1-a", defect=SLOW,
                                       rank_of_defect=None, resolution=3, candidate_count=18,
                                       site_count=9, fail_count=2, pattern_count=12,
                                       confidence=0.5),
        "BpDiagnosisCell": BpDiagnosisCell(design="tiny", scenario="table1-a", log="die-0",
                                           defects=["n7 stuck-at-1"], rank_of_defect=1,
                                           confidence=0.75, recovered_all=True, selected=1),
    }


#: ``json.dumps(to_dict(), sort_keys=True)`` of every record.
SORTED = {
    "DomainSpec": (
        '{"clock_net": "clk_b", "frequency_mhz": 75.0, "name": "b",'
        ' "pll_output": "pll1"}'
    ),
    "EdtConfig": (
        '{"input_channels": 3, "lfsr_length": 24, "output_channels": null}'
    ),
    "DesignSpec": (
        '{"description": "unit", "domains": [{"clock_net": "clk_a",'
        ' "frequency_mhz": 150.0, "name": "a", "pll_output": null},'
        ' {"clock_net": "clk_b", "frequency_mhz": 75.0, "name": "b",'
        ' "pll_output": "pll1"}], "edt": {"input_channels": 2, "lfsr_length": 32,'
        ' "output_channels": 1}, "extra_domains": [100.0, 37.5], "fast_mhz": 150.0,'
        ' "hier_core_gates": 160, "hier_core_kinds": 3, "hier_cores": 0,'
        ' "inter_domain_factor": 1.0, "name": "rich", "netlist_bench": null,'
        ' "netlist_verilog": "module m; endmodule", "nonscan_per_domain": 3,'
        ' "num_chains": 6, "occ_style": "simple", "pll_reference_mhz": 25.0,'
        ' "ram_address_bits": 3, "ram_width": 4, "reset_net": "reset", "seed": 2005,'
        ' "size": 3, "slow_mhz": 75.0, "tags": ["unit", "rich"], "test_domain": "b",'
        ' "trigger_latency": 3}'
    ),
    "DefectSpec": (
        '{"kind": "transition", "net": "u3", "pin": 1, "polarity": "slow-to-rise",'
        ' "value": null}'
    ),
    "DiagnosisSpec": (
        '{"backend": "compiled", "batch_size": 256, "candidate_kinds": ["stuck-at",'
        ' "transition"], "defect": {"kind": "stuck-at", "net": "n7", "pin": null,'
        ' "polarity": null, "value": 1}, "max_sites": 64, "rerank_iterations": 2,'
        ' "scenario": "table1-a"}'
    ),
    "ScoredCandidate": (
        '{"false_alarms": 1, "hits": 4, "kind": "stuck-at", "misses": 0, "net": "n7",'
        ' "pin": null, "polarity": null, "rank": 1, "score": 3.5, "value": 1}'
    ),
    "DiagnosisResult": (
        '{"backend": "compiled", "cache_hit": true, "candidate_count": 18,'
        ' "candidates": [{"false_alarms": 1, "hits": 4, "kind": "stuck-at", "misses": 0,'
        ' "net": "n7", "pin": null, "polarity": null, "rank": 1, "score": 3.5,'
        ' "value": 1}], "defect": {"kind": "stuck-at", "net": "n7", "pin": null,'
        ' "polarity": null, "value": 1}, "design": "tiny", "fail_count": 2,'
        ' "pattern_count": 12, "rank_of_defect": 1, "resolution": 1,'
        ' "scenario": "table1-a", "site_count": 9, "truncated_sites": 0,'
        ' "wall_seconds": 0.5}'
    ),
    "BpScoredCandidate": (
        '{"confidence": 0.875, "false_alarms": 0, "hits": 2, "kind": "transition",'
        ' "misses": 1, "net": "u3", "pin": 1, "polarity": "slow-to-rise", "rank": 2,'
        ' "score": 1.25, "selected": true, "value": null}'
    ),
    "BpDiagnosisResult": (
        '{"ambiguous_pairs": [{"a": "n7", "b": "u3", "gap": 0.03125}],'
        ' "backend": "serial", "bp_iterations": 7, "cache_hit": false,'
        ' "candidate_count": 18, "candidates": [{"confidence": 0.875, "false_alarms": 0,'
        ' "hits": 2, "kind": "transition", "misses": 1, "net": "u3", "pin": 1,'
        ' "polarity": "slow-to-rise", "rank": 2, "score": 1.25, "selected": true,'
        ' "value": null}], "converged": true, "defects": [{"kind": "stuck-at",'
        ' "net": "n7", "pin": null, "polarity": null, "value": 1},'
        ' {"kind": "transition", "net": "u3", "pin": 1, "polarity": "slow-to-rise",'
        ' "value": null}], "design": "tiny", "fail_count": 2, "lp_objective": 2.25,'
        ' "objective": 2.5, "pattern_count": 12, "ranks_of_defects": [null, 2],'
        ' "resolution": 2, "scenario": "table1-a", "site_count": 9,'
        ' "truncated_sites": 1, "unexplained": 0, "wall_seconds": 0.75}'
    ),
    "BpOptions": (
        '{"ambiguity_threshold": 0.05, "base_cost": 1.0, "convexified": false,'
        ' "damping": 0.25, "false_alarm_weight": 0.25, "iterations": 12,'
        ' "tolerance": 1e-09}'
    ),
    "VolumeSpec": (
        '{"backend": "serial", "batch_size": 256, "bp": {"ambiguity_threshold": 0.05,'
        ' "base_cost": 1.0, "convexified": true, "damping": 0.5,'
        ' "false_alarm_weight": 0.5, "iterations": 48, "tolerance": 1e-09},'
        ' "candidate_kinds": ["stuck-at"], "max_sites": 32, "scenario": "table1-a"}'
    ),
    "FailBit": (
        '{"chain": "chain0", "cycle": 3, "expected": "0", "observed": "1", "pattern": 0,'
        ' "signal": "ff3"}'
    ),
    "FailLog": (
        '{"defect": {"kind": "stuck-at", "net": "n7", "pin": null, "polarity": null,'
        ' "value": 1}, "defects": [{"kind": "stuck-at", "net": "n7", "pin": null,'
        ' "polarity": null, "value": 1}, {"kind": "transition", "net": "u3", "pin": 1,'
        ' "polarity": "slow-to-rise", "value": null}], "design": "tiny",'
        ' "fails": [{"chain": "chain0", "cycle": 3, "expected": "0", "observed": "1",'
        ' "pattern": 0, "signal": "ff3"}, {"chain": "po", "cycle": 0, "expected": "1",'
        ' "observed": "0", "pattern": 5, "signal": "out1"}], "pattern_count": 12}'
    ),
    "FailLogRecord": (
        '{"design": "tiny", "log": {"defect": {"kind": "stuck-at", "net": "n7",'
        ' "pin": null, "polarity": null, "value": 1}, "defects": [{"kind": "stuck-at",'
        ' "net": "n7", "pin": null, "polarity": null, "value": 1},'
        ' {"kind": "transition", "net": "u3", "pin": 1, "polarity": "slow-to-rise",'
        ' "value": null}], "design": "tiny", "fails": [{"chain": "chain0", "cycle": 3,'
        ' "expected": "0", "observed": "1", "pattern": 0, "signal": "ff3"},'
        ' {"chain": "po", "cycle": 0, "expected": "1", "observed": "0", "pattern": 5,'
        ' "signal": "out1"}], "pattern_count": 12}, "name": "die-0",'
        ' "scenario": "table1-a"}'
    ),
    "Job": (
        '{"cache_key": null, "deps": ["p"], "id": "d", "if_needed": false,'
        ' "kind": "diagnosis", "label": "diagnose", "params": {"batch": 64,'
        ' "log": "die-0"}, "retries": 2}'
    ),
    "Plan": (
        '{"jobs": [{"cache_key": "k-p", "deps": [], "id": "p", "if_needed": true,'
        ' "kind": "scenario", "label": "patterns", "params": {"design": "tiny",'
        ' "scenario": "a"}, "retries": 0}, {"cache_key": null, "deps": ["p"], "id": "d",'
        ' "if_needed": false, "kind": "diagnosis", "label": "diagnose",'
        ' "params": {"batch": 64, "log": "die-0"}, "retries": 2}],'
        ' "metadata": {"grid": ["tiny"], "seed": 7}, "name": "grid"}'
    ),
    "Waiver": (
        '{"reason": "debug taps", "rule": "dangling-output", "subject": "dbg_*"}'
    ),
    "Finding": (
        '{"data": {"count": 2, "nets": ["a", "b"]}, "message": "no load",'
        ' "rule": "dangling-output", "severity": "warning", "subject": "dbg_1",'
        ' "waived": true, "waived_reason": "debug taps"}'
    ),
    "LintReport": (
        '{"findings": [{"data": {"count": 2, "nets": ["a", "b"]}, "message": "no load",'
        ' "rule": "dangling-output", "severity": "warning", "subject": "dbg_1",'
        ' "waived": true, "waived_reason": "debug taps"}],'
        ' "rules_run": ["dangling-output", "scan-chain"], "target": "tiny",'
        ' "waivers": [{"reason": "debug taps", "rule": "dangling-output",'
        ' "subject": "dbg_*"}]}'
    ),
    "CapturePulse": (
        '{"at_speed": false, "domains": ["fast", "slow"]}'
    ),
    "NamedCaptureProcedure": (
        '{"description": "launch fast, capture both", "name": "inter_fast_slow",'
        ' "pulses": [{"at_speed": true, "domains": ["fast"]}, {"at_speed": true,'
        ' "domains": ["fast", "slow"]}]}'
    ),
    "ScenarioOutcome": (
        '{"atpg_effectiveness": 99.25, "cpu_seconds": 0.5,'
        ' "description": "experiment a", "extras": {"edt": {"channels": 2},'
        ' "store": {"patterns": 3}}, "fault_coverage": 87.0,'
        ' "fault_model": "transition", "legacy_key": "a", "pattern_count": 12,'
        ' "scenario": "table1-a", "stage_seconds": {"atpg": 0.25},'
        ' "test_coverage": 88.5}'
    ),
    "CampaignCell": (
        '{"cache_hit": true, "cell_key": "key-a", "design": "tiny",'
        ' "outcome": {"atpg_effectiveness": 99.25, "cpu_seconds": 0.5,'
        ' "description": "experiment a", "extras": {"edt": {"channels": 2},'
        ' "store": {"patterns": 3}}, "fault_coverage": 87.0,'
        ' "fault_model": "transition", "legacy_key": "a", "pattern_count": 12,'
        ' "scenario": "table1-a", "stage_seconds": {"atpg": 0.25},'
        ' "test_coverage": 88.5}, "scenario": "table1-a", "wall_seconds": 0.25}'
    ),
    "DiagnosisCell": (
        '{"cache_hit": false, "candidate_count": 18, "confidence": 0.5,'
        ' "defect": {"kind": "transition", "net": "u3", "pin": 1,'
        ' "polarity": "slow-to-rise", "value": null}, "design": "tiny", "fail_count": 2,'
        ' "pattern_count": 12, "rank_of_defect": null, "resolution": 3,'
        ' "scenario": "table1-a", "site_count": 9, "wall_seconds": 0.0}'
    ),
    "BpDiagnosisCell": (
        '{"ambiguous_pairs": 0, "bp_iterations": 0, "cache_hit": false,'
        ' "candidate_count": 0, "confidence": 0.75, "converged": false,'
        ' "defects": ["n7 stuck-at-1"], "design": "tiny", "fail_count": 0,'
        ' "log": "die-0", "rank_of_defect": 1, "recovered_all": true, "resolution": 0,'
        ' "scenario": "table1-a", "selected": 1, "unexplained": 0, "wall_seconds": 0.0}'
    ),
}

#: ``to_json()`` (default arguments) of every record that had one.
TO_JSON = {
    "DesignSpec": """\
{
  "description": "unit",
  "domains": [
    {
      "clock_net": "clk_a",
      "frequency_mhz": 150.0,
      "name": "a",
      "pll_output": null
    },
    {
      "clock_net": "clk_b",
      "frequency_mhz": 75.0,
      "name": "b",
      "pll_output": "pll1"
    }
  ],
  "edt": {
    "input_channels": 2,
    "lfsr_length": 32,
    "output_channels": 1
  },
  "extra_domains": [
    100.0,
    37.5
  ],
  "fast_mhz": 150.0,
  "hier_core_gates": 160,
  "hier_core_kinds": 3,
  "hier_cores": 0,
  "inter_domain_factor": 1.0,
  "name": "rich",
  "netlist_bench": null,
  "netlist_verilog": "module m; endmodule",
  "nonscan_per_domain": 3,
  "num_chains": 6,
  "occ_style": "simple",
  "pll_reference_mhz": 25.0,
  "ram_address_bits": 3,
  "ram_width": 4,
  "reset_net": "reset",
  "seed": 2005,
  "size": 3,
  "slow_mhz": 75.0,
  "tags": [
    "unit",
    "rich"
  ],
  "test_domain": "b",
  "trigger_latency": 3
}""",
    "DefectSpec": (
        '{"kind": "transition", "net": "u3", "pin": 1, "polarity": "slow-to-rise",'
        ' "value": null}'
    ),
    "DiagnosisSpec": (
        '{"backend": "compiled", "batch_size": 256, "candidate_kinds": ["stuck-at",'
        ' "transition"], "defect": {"kind": "stuck-at", "net": "n7", "pin": null,'
        ' "polarity": null, "value": 1}, "max_sites": 64, "rerank_iterations": 2,'
        ' "scenario": "table1-a"}'
    ),
    "DiagnosisResult": """\
{
  "backend": "compiled",
  "cache_hit": true,
  "candidate_count": 18,
  "candidates": [
    {
      "false_alarms": 1,
      "hits": 4,
      "kind": "stuck-at",
      "misses": 0,
      "net": "n7",
      "pin": null,
      "polarity": null,
      "rank": 1,
      "score": 3.5,
      "value": 1
    }
  ],
  "defect": {
    "kind": "stuck-at",
    "net": "n7",
    "pin": null,
    "polarity": null,
    "value": 1
  },
  "design": "tiny",
  "fail_count": 2,
  "pattern_count": 12,
  "rank_of_defect": 1,
  "resolution": 1,
  "scenario": "table1-a",
  "site_count": 9,
  "truncated_sites": 0,
  "wall_seconds": 0.5
}""",
    "BpDiagnosisResult": """\
{
  "ambiguous_pairs": [
    {
      "a": "n7",
      "b": "u3",
      "gap": 0.03125
    }
  ],
  "backend": "serial",
  "bp_iterations": 7,
  "cache_hit": false,
  "candidate_count": 18,
  "candidates": [
    {
      "confidence": 0.875,
      "false_alarms": 0,
      "hits": 2,
      "kind": "transition",
      "misses": 1,
      "net": "u3",
      "pin": 1,
      "polarity": "slow-to-rise",
      "rank": 2,
      "score": 1.25,
      "selected": true,
      "value": null
    }
  ],
  "converged": true,
  "defects": [
    {
      "kind": "stuck-at",
      "net": "n7",
      "pin": null,
      "polarity": null,
      "value": 1
    },
    {
      "kind": "transition",
      "net": "u3",
      "pin": 1,
      "polarity": "slow-to-rise",
      "value": null
    }
  ],
  "design": "tiny",
  "fail_count": 2,
  "lp_objective": 2.25,
  "objective": 2.5,
  "pattern_count": 12,
  "ranks_of_defects": [
    null,
    2
  ],
  "resolution": 2,
  "scenario": "table1-a",
  "site_count": 9,
  "truncated_sites": 1,
  "unexplained": 0,
  "wall_seconds": 0.75
}""",
    "BpOptions": (
        '{"ambiguity_threshold": 0.05, "base_cost": 1.0, "convexified": false,'
        ' "damping": 0.25, "false_alarm_weight": 0.25, "iterations": 12,'
        ' "tolerance": 1e-09}'
    ),
    "VolumeSpec": """\
{
  "backend": "serial",
  "batch_size": 256,
  "bp": {
    "ambiguity_threshold": 0.05,
    "base_cost": 1.0,
    "convexified": true,
    "damping": 0.5,
    "false_alarm_weight": 0.5,
    "iterations": 48,
    "tolerance": 1e-09
  },
  "candidate_kinds": [
    "stuck-at"
  ],
  "max_sites": 32,
  "scenario": "table1-a"
}""",
    "FailLog": """\
{
  "defect": {
    "kind": "stuck-at",
    "net": "n7",
    "pin": null,
    "polarity": null,
    "value": 1
  },
  "defects": [
    {
      "kind": "stuck-at",
      "net": "n7",
      "pin": null,
      "polarity": null,
      "value": 1
    },
    {
      "kind": "transition",
      "net": "u3",
      "pin": 1,
      "polarity": "slow-to-rise",
      "value": null
    }
  ],
  "design": "tiny",
  "fails": [
    {
      "chain": "chain0",
      "cycle": 3,
      "expected": "0",
      "observed": "1",
      "pattern": 0,
      "signal": "ff3"
    },
    {
      "chain": "po",
      "cycle": 0,
      "expected": "1",
      "observed": "0",
      "pattern": 5,
      "signal": "out1"
    }
  ],
  "pattern_count": 12
}""",
    "Plan": """\
{
  "jobs": [
    {
      "cache_key": "k-p",
      "deps": [],
      "id": "p",
      "if_needed": true,
      "kind": "scenario",
      "label": "patterns",
      "params": {
        "design": "tiny",
        "scenario": "a"
      },
      "retries": 0
    },
    {
      "cache_key": null,
      "deps": [
        "p"
      ],
      "id": "d",
      "if_needed": false,
      "kind": "diagnosis",
      "label": "diagnose",
      "params": {
        "batch": 64,
        "log": "die-0"
      },
      "retries": 2
    }
  ],
  "metadata": {
    "grid": [
      "tiny"
    ],
    "seed": 7
  },
  "name": "grid"
}""",
    "LintReport": """\
{
  "findings": [
    {
      "data": {
        "count": 2,
        "nets": [
          "a",
          "b"
        ]
      },
      "message": "no load",
      "rule": "dangling-output",
      "severity": "warning",
      "subject": "dbg_1",
      "waived": true,
      "waived_reason": "debug taps"
    }
  ],
  "rules_run": [
    "dangling-output",
    "scan-chain"
  ],
  "target": "tiny",
  "waivers": [
    {
      "reason": "debug taps",
      "rule": "dangling-output",
      "subject": "dbg_*"
    }
  ]
}""",
}


#: ``Plan.fingerprint`` of :func:`plan` (its resources never reach the digest).
PLAN_FINGERPRINT = "282176a7ece9510d1680de8216881a25d8ba31da2adbfda00693adea8455ea74"

#: ``fail_log_fingerprint`` of :func:`fail_log`.
FAIL_LOG_FINGERPRINT = "5c5f7153522fff1f439c5abc7ac1af0eaf91410bf812e993961c00c8d4a8b1c0"

#: The ``payload`` column ``FailLogStore.add`` writes for :func:`fail_log`.
STORED_PAYLOAD = (
    '{"defect": {"kind": "stuck-at", "net": "n7", "pin": null, "polarity": null,'
    ' "value": 1}, "defects": [{"kind": "stuck-at", "net": "n7", "pin": null,'
    ' "polarity": null, "value": 1}, {"kind": "transition", "net": "u3", "pin": 1,'
    ' "polarity": "slow-to-rise", "value": null}], "design": "tiny",'
    ' "fails": [{"chain": "chain0", "cycle": 3, "expected": "0", "observed": "1",'
    ' "pattern": 0, "signal": "ff3"}, {"chain": "po", "cycle": 0, "expected": "1",'
    ' "observed": "0", "pattern": 5, "signal": "out1"}], "pattern_count": 12}'
)


def test_every_record_has_a_golden():
    assert sorted(instances()) == sorted(SORTED)
    assert set(TO_JSON) <= set(SORTED)


def test_to_dict_text_golden():
    for name, record in instances().items():
        assert json.dumps(record.to_dict(), sort_keys=True) == SORTED[name], name


def test_to_json_golden():
    records = instances()
    for name, text in TO_JSON.items():
        assert records[name].to_json() == text, name


def test_to_dict_holds_only_json_types():
    for name, record in instances().items():
        data = record.to_dict()
        assert data == json.loads(json.dumps(data)), name


def test_round_trip():
    for name, record in instances().items():
        assert type(record).from_dict(record.to_dict()) == record, name
        assert type(record).from_dict(json.loads(SORTED[name])) == record, name


def test_plan_fingerprint_golden():
    assert plan().fingerprint == PLAN_FINGERPRINT
    assert plan().with_resources(None).fingerprint == PLAN_FINGERPRINT


def test_fail_log_fingerprint_golden():
    assert fail_log_fingerprint(fail_log()) == FAIL_LOG_FINGERPRINT


def test_fail_log_store_payload_golden(tmp_path):
    path = tmp_path / "store.sqlite"
    FailLogStore(path).add("die-0", fail_log(), scenario="table1-a")
    connection = sqlite3.connect(path)
    try:
        (payload,) = connection.execute("SELECT payload FROM fail_logs").fetchone()
    finally:
        connection.close()
    assert payload == STORED_PAYLOAD
    assert FailLog.from_json(STORED_PAYLOAD) == fail_log()
    assert FailLogStore(path).get("die-0").log == fail_log()
