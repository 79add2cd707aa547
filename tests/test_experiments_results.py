"""Tests for the experiment configurations and result reporting.

The setups themselves are checked (which constraints each experiment
applies), the shared Table 1 sweep on the tiny SOC is held to the paper's
Section 5.2 relations, and the claim-evaluation/reporting code is tested on
synthetic results.
"""

import json

import pytest

from repro.api.scenarios import TABLE1_DESCRIPTIONS, table1_scenario
from repro.atpg.compaction import CompactionStats
from repro.atpg.generator import AtpgResult, AtpgStatistics
from repro.core import compare_with_paper, format_comparison, format_table1
from repro.faults import FaultList
from repro.patterns import PatternSet, format_table, table_rows
from repro.faults.fault_list import CoverageReport


class TestExperimentSetups:
    def test_experiment_a_is_slow_and_observable(self, tiny_prepared):
        setup = table1_scenario("a").build_setup(tiny_prepared)
        assert setup.observe_pos
        assert not any(p.is_at_speed for p in setup.procedures)
        assert setup.max_pulses == 2

    def test_experiment_b_is_unconstrained_reference(self, tiny_prepared):
        setup = table1_scenario("b").build_setup(tiny_prepared)
        assert setup.observe_pos and not setup.hold_pis
        assert not setup.constrain_scan_enable
        assert setup.max_pulses == 4
        assert "tc" in setup.all_domains

    def test_experiment_c_is_simple_cpf(self, tiny_prepared):
        setup = table1_scenario("c").build_setup(tiny_prepared)
        assert not setup.observe_pos and setup.hold_pis
        assert setup.constrain_scan_enable
        assert setup.max_pulses == 2
        assert not any(p.is_inter_domain for p in setup.procedures)
        assert "tc" not in setup.all_domains
        # One procedure per functional domain, each pulsing a single domain.
        assert len(setup.procedures) == 2
        assert all(len(p.all_domains) == 1 for p in setup.procedures)

    def test_experiment_d_enhanced_cpf(self, tiny_prepared):
        setup = table1_scenario("d").build_setup(tiny_prepared)
        assert setup.max_pulses == 4
        assert any(p.is_inter_domain for p in setup.procedures)
        assert not setup.observe_pos

    def test_experiment_e_constrained_external(self, tiny_prepared):
        setup = table1_scenario("e").build_setup(tiny_prepared)
        assert not setup.observe_pos and setup.hold_pis
        assert setup.constrain_scan_enable
        # Both functional domains pulse together in every procedure.
        for procedure in setup.procedures:
            assert procedure.all_domains == frozenset({"fast", "slow"})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            table1_scenario("z")

    def test_reset_constrained_everywhere(self, tiny_prepared):
        for key in "abcde":
            setup = table1_scenario(key).build_setup(tiny_prepared)
            assert tiny_prepared.soc.reset_net in setup.pin_constraints


def _table1_results(table1_tiny):
    session, _ = table1_tiny
    return {key: session.result_of(f"table1-{key}") for key in "abcde"}


class TestReducedExperimentRun:
    def test_experiments_a_and_c_run_on_tiny_soc(self, table1_tiny):
        results = _table1_results(table1_tiny)
        result_a, result_c = results["a"], results["c"]
        assert result_a.coverage.detected > 0
        assert result_c.coverage.detected > 0
        # The constrained on-chip configuration cannot beat the slow external one.
        assert result_c.coverage.test_coverage <= result_a.coverage.test_coverage + 1e-9
        assert result_a.stats.unconfirmed_podem_tests == 0
        assert result_c.stats.unconfirmed_podem_tests == 0


class TestTable1Shape:
    def test_section_5_2_relations_hold(self, table1_tiny):
        """The qualitative relations of Section 5.2 hold on the measured rows."""
        a, b, c, d, e = (_table1_results(table1_tiny)[key] for key in "abcde")
        # Stuck-at coverage is the highest; transition reference comes close.
        assert a.coverage.test_coverage >= b.coverage.test_coverage - 1.0
        # The simple 2-pulse CPF costs coverage versus the reference.
        assert c.coverage.test_coverage < b.coverage.test_coverage
        # The enhanced CPF recovers part of it.
        assert d.coverage.test_coverage >= c.coverage.test_coverage
        # The constrained external clock bounds the CPF configurations from
        # above (within abort noise) and stays below the unconstrained reference.
        assert e.coverage.test_coverage < b.coverage.test_coverage
        assert e.coverage.test_coverage >= d.coverage.test_coverage - 2.0
        # Transition pattern counts exceed the stuck-at count.
        assert b.pattern_count > a.pattern_count
        # A more flexible scheme needs fewer patterns than the enhanced CPF.
        assert e.pattern_count <= d.pattern_count
        # Most of the published claims reproduce; the tiny SOC understates
        # the pattern-count factors.
        results = _table1_results(table1_tiny)
        assert sum(check.holds for check in compare_with_paper(results)) >= 5


def fake_result(name, coverage_percent, patterns):
    total = 1000
    detected = int(total * coverage_percent / 100)
    report = CoverageReport(
        total_faults=total,
        detected=detected,
        possibly_detected=0,
        atpg_untestable=total - detected,
        untestable=0,
        aborted=0,
        undetected=0,
    )
    return AtpgResult(
        setup_name=name,
        patterns=PatternSet([]),
        fault_list=FaultList([]),
        coverage=report,
        stats=AtpgStatistics(),
        compaction=CompactionStats(),
    )


def paperlike_results():
    """Synthetic results mirroring the paper's reported relations."""
    return {
        "a": fake_result("(a)", 98.7, 1000),
        "b": fake_result("(b)", 95.0, 4800),
        "c": fake_result("(c)", 87.5, 10500),
        "d": fake_result("(d)", 88.1, 10000),
        "e": fake_result("(e)", 88.4, 8400),
    }


class _PatternCountPatch:
    """AtpgResult.pattern_count reads len(patterns); patch via dummy patterns."""

    @staticmethod
    def apply(results, counts):
        from repro.clocking import CapturePulse, NamedCaptureProcedure
        from repro.patterns import TestPattern

        proc = NamedCaptureProcedure(name="p", pulses=(CapturePulse.of("x"),))
        for key, count in counts.items():
            results[key].patterns.extend(
                TestPattern(procedure=proc) for _ in range(count)
            )


class TestReporting:
    def make_results(self):
        results = paperlike_results()
        _PatternCountPatch.apply(
            results, {"a": 10, "b": 48, "c": 105, "d": 100, "e": 84}
        )
        return results

    def test_all_paper_claims_hold_on_paperlike_numbers(self):
        results = self.make_results()
        checks = compare_with_paper(results)
        assert all(check.holds for check in checks)
        text = format_comparison(results)
        assert "7/7" in text
        assert "(b)/(a) = 4.80" in text

    def test_table_formatting(self):
        results = self.make_results()
        table = format_table1(results)
        for key in "abcde":
            assert TABLE1_DESCRIPTIONS[key][:20] in table
        rows = table_rows(results, TABLE1_DESCRIPTIONS)
        assert len(rows) == 5
        assert "Table 1" in format_table(rows)

    def test_records_serializable(self):
        records = [result.summary() for result in self.make_results().values()]
        assert len(records) == 5
        assert all("test_coverage_percent" in r for r in records)
        assert json.loads(json.dumps(records)) == records

    def test_missing_experiment_raises(self):
        results = self.make_results()
        del results["e"]
        with pytest.raises(KeyError):
            compare_with_paper(results)
