"""Shared fixtures: small circuits, scan-inserted designs, cheap ATPG options."""

from __future__ import annotations

import pytest

from repro.api import TestSession, prepare_design, scenarios
from repro.atpg import AtpgOptions, TestSetup
from repro.circuits import c17, pipeline, s27, two_domain_crossing
from repro.clocking import ClockDomain, ClockDomainMap, external_clock_procedures, stuck_at_procedures
from repro.dft import insert_scan
from repro.simulation import build_model


@pytest.fixture(scope="session")
def c17_netlist():
    return c17()


@pytest.fixture(scope="session")
def c17_model(c17_netlist):
    return build_model(c17_netlist)


@pytest.fixture()
def s27_netlist():
    return s27()


@pytest.fixture(scope="session")
def scanned_s27():
    """s27 with one scan chain inserted, plus its model and domain map."""
    netlist = s27()
    netlist, scan = insert_scan(netlist, num_chains=1)
    model = build_model(netlist)
    domain_map = ClockDomainMap.from_netlist(netlist, [ClockDomain("clk", "clk", 100.0)])
    return netlist, scan, model, domain_map


@pytest.fixture(scope="session")
def scanned_pipeline():
    """A 3-stage pipeline with 2 scan chains (model + domain map)."""
    netlist = pipeline(width=4, stages=3, seed=3)
    netlist, scan = insert_scan(netlist, num_chains=2)
    model = build_model(netlist)
    domain_map = ClockDomainMap.from_netlist(netlist, [ClockDomain("clk", "clk", 100.0)])
    return netlist, scan, model, domain_map


@pytest.fixture(scope="session")
def scanned_two_domain():
    """Two-clock-domain crossing circuit with scan (model + domain map)."""
    netlist = two_domain_crossing(width=4)
    netlist, scan = insert_scan(netlist, num_chains=2)
    model = build_model(netlist)
    domain_map = ClockDomainMap.from_netlist(
        netlist,
        [ClockDomain("a", "clk_a", 150.0), ClockDomain("b", "clk_b", 75.0)],
    )
    return netlist, scan, model, domain_map


@pytest.fixture(scope="session")
def cheap_options():
    """ATPG options tuned for unit-test speed."""
    return AtpgOptions(
        random_pattern_batches=2,
        patterns_per_batch=32,
        backtrack_limit=20,
        random_seed=7,
    )


#: The Table 1 effort of perfbench's ``atpg-table1`` workload; its per-scenario
#: coverage and pattern counts on ``tiny`` are the ``perfbench/reference.json``
#: values.
TABLE1_OPTIONS = AtpgOptions(
    random_pattern_batches=4,
    patterns_per_batch=64,
    backtrack_limit=25,
    random_seed=2005,
)


@pytest.fixture(scope="session")
def table1_tiny():
    """The five Table 1 scenarios on ``tiny`` at :data:`TABLE1_OPTIONS`.

    Run once per test session and shared by every suite that checks Table 1
    results; returns ``(session, report)``.
    """
    session = TestSession.for_design("tiny", options=TABLE1_OPTIONS)
    report = session.add_scenarios(*scenarios.table1()).run()
    return session, report


@pytest.fixture(scope="session")
def tiny_prepared():
    """A size-1 SOC prepared (scan inserted, model + domain map built)."""
    return prepare_design(size=1, seed=11, num_chains=4)


@pytest.fixture(scope="session")
def single_clock_transition_setup():
    """A permissive transition test setup for single-clock circuits."""
    return TestSetup(
        name="unit-test transition",
        procedures=external_clock_procedures(["clk"], max_pulses=3),
        observe_pos=True,
        hold_pis=True,
        scan_enable_net="scan_en",
        constrain_scan_enable=True,
        options=AtpgOptions(random_pattern_batches=2, patterns_per_batch=32, backtrack_limit=20),
    )


@pytest.fixture(scope="session")
def single_clock_stuck_setup():
    """A stuck-at setup for single-clock circuits."""
    return TestSetup(
        name="unit-test stuck-at",
        procedures=stuck_at_procedures(["clk"], max_pulses=2),
        observe_pos=True,
        hold_pis=False,
        scan_enable_net="scan_en",
        constrain_scan_enable=False,
        options=AtpgOptions(random_pattern_batches=2, patterns_per_batch=32, backtrack_limit=20),
    )
