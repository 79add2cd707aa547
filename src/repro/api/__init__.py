"""repro.api — the declarative session / scenario / design / campaign front door.

The library's entry point from a device description to Table 1 style
results, in four pieces:

* :class:`~repro.api.scenario.ScenarioSpec` and the scenario registry —
  named, declarative test-generation configurations (the paper's (a)–(e)
  ship pre-registered, alongside extended workloads the old API could not
  express);
* :class:`~repro.api.design.DesignSpec` and the design registry — named,
  declarative device-under-test configurations (the paper's SoC ships as
  ``table1-soc``, alongside variant families: ``tiny``, ``wide-edt``,
  ``many-domain``, ``interdomain-heavy``), built by
  :func:`~repro.api.design.prepare_from_spec` (``build -> scan -> clocking
  -> model``) into a :class:`~repro.api.design.PreparedDesign` (the ATPG
  view);
* :class:`~repro.api.campaign.Campaign` — design×scenario grid sweeps:
  every cell runs the fixed ``setup -> atpg -> compaction -> compression
  -> export`` pipeline (:func:`~repro.api.pipeline.execute_scenario`) on
  any executor backend, with per-cell persistent caching (resumable
  campaigns), kept runs and a streaming
  :class:`~repro.api.campaign.CampaignReport`;
* :class:`~repro.api.session.TestSession` — the same machinery for one
  design: a facade over a one-design campaign that adds in-place design
  overrides, lookups by scenario name and single-device diagnosis.

Quickstart::

    from repro.api import Campaign, TestSession, scenarios
    from repro.runtime import Executor

    report = (
        TestSession.for_soc(size=1)
        .add_scenarios(*scenarios.table1())
        .run()
    )
    print(report.table())

    sweep = Campaign(
        designs=["table1-soc", "wide-edt"],
        scenarios=["a", "b", "c", "d", "e"],
    ).run(executor=Executor(backend="processes"))
    print(sweep.table("table1-soc"))

``session.plan()``, ``campaign.plan()`` and ``campaign.diagnosis_plan()``
expose the compiled :class:`~repro.runtime.Plan` for callers that want
streaming events, cancellation, or cache-aware resume control.
"""

from repro.api import scenarios
from repro.api.campaign import (
    Campaign,
    CampaignCell,
    CampaignHandle,
    CampaignReport,
)
from repro.api.design import (
    DesignNotFound,
    DesignSpec,
    DomainSpec,
    PreparedDesign,
    design_names,
    get_design,
    instrument_soc,
    prepare_design,
    prepare_from_spec,
    register_design,
    resolve_design,
    unregister_design,
)
from repro.api.report import RunReport, ScenarioOutcome
from repro.api.scenario import (
    FAULT_MODELS,
    ProcedureFactory,
    ScenarioNotFound,
    ScenarioSpec,
    get_scenario,
    register_scenario,
    resolve_scenario,
    scenario_names,
    unregister_scenario,
)
from repro.api.pipeline import ScenarioRun, execute_scenario, outcome_of
from repro.api.session import TestSession

__all__ = [
    "FAULT_MODELS",
    "Campaign",
    "CampaignCell",
    "CampaignHandle",
    "CampaignReport",
    "DesignNotFound",
    "DesignSpec",
    "DomainSpec",
    "PreparedDesign",
    "ProcedureFactory",
    "RunReport",
    "ScenarioNotFound",
    "ScenarioOutcome",
    "ScenarioRun",
    "ScenarioSpec",
    "TestSession",
    "design_names",
    "execute_scenario",
    "get_design",
    "get_scenario",
    "instrument_soc",
    "outcome_of",
    "prepare_design",
    "prepare_from_spec",
    "register_design",
    "register_scenario",
    "resolve_design",
    "resolve_scenario",
    "scenario_names",
    "scenarios",
    "unregister_design",
    "unregister_scenario",
]
