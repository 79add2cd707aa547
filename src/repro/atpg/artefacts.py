"""The design-and-setup artefacts of ATPG, built once per model.

The paper's runs (a)–(e) share one design and its capture procedures under
"compatible ATPG settings"; only the seed and the constraint environment
differ.  Everything an ATPG run builds from the design and the setup alone
is therefore memoised on the model (``_atpg_artefacts`` in its
``__dict__``, dropped on pickling like the engine's compiled kernels) and
reused by every later run on it:

* per fault model, the collapsed fault universe: a template
  :class:`~repro.faults.fault_list.FaultList` whose fault tuple, index and
  class sizes every run's list starts from (:meth:`FaultList.blank`);
* per procedure, the :class:`~repro.atpg.timeframe.TimeFrameView`;
* per view and backtrack limit, the :class:`~repro.atpg.podem.PodemTables`
  with their memo of PODEM verdicts.

Every key is the content its artefact reads: a view keys on the procedure,
every state element's clock domain, the effective pin constraints,
``hold_pis`` and ``observe_pos``; tables add the backtrack limit.  Nothing
keys on the random seed or the setup's name, so runs that differ only
there share everything.  Each run still gets its own fault list and its own
:class:`~repro.atpg.podem.PodemEngine` per procedure (:class:`ProcedureEngines`),
so no two runs share mutable search state.  A race between two threads
builds one entry twice, with equal values; the first one stored stays.

The memo lives as long as its model: a session, campaign or server that
keeps its prepared designs (keyed by design identity, see
:func:`repro.api.pipeline.materialize_design`) keeps these with them.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, TypeVar

from repro.atpg.config import TestSetup
from repro.atpg.podem import PodemEngine, PodemTables
from repro.atpg.timeframe import TimeFrameView, build_timeframe_view
from repro.clocking.domains import ClockDomainMap
from repro.clocking.named_capture import NamedCaptureProcedure
from repro.faults.collapse import collapse_faults
from repro.faults.fault_list import FaultList
from repro.faults.models import all_stuck_at_faults, all_transition_faults
from repro.simulation.model import CircuitModel

T = TypeVar("T")

#: Fault universe enumerators by fault model.
_UNIVERSES = {"stuck-at": all_stuck_at_faults, "transition": all_transition_faults}

#: Serializes the creation of a model's artefact memo, so concurrent first
#: uses of one model share one memo.
_MEMO_LOCK = threading.Lock()


class AtpgArtefacts:
    """One model's memoised ATPG artefacts (see the module docstring).

    Nothing in it refers to the model strongly (``model`` is a weak
    reference, views keep only the fanin table), so a discarded design is
    freed by reference counting, without waiting for the cycle collector.
    """

    def __init__(self, model: CircuitModel) -> None:
        self.model = weakref.ref(model)
        self.universes: dict[str, FaultList] = {}
        self.views: dict[tuple, TimeFrameView] = {}
        self.tables: dict[tuple, PodemTables] = {}


def atpg_artefacts(model: CircuitModel) -> AtpgArtefacts:
    """The model's :class:`AtpgArtefacts` (memoised on the instance)."""
    memo = model.__dict__.get("_atpg_artefacts")
    if memo is None or memo.model() is not model:
        with _MEMO_LOCK:
            memo = model.__dict__.get("_atpg_artefacts")
            if memo is None or memo.model() is not model:
                memo = model.__dict__["_atpg_artefacts"] = AtpgArtefacts(model)
    return memo


def _entry(memo: dict, key: object, build: Callable[[], T]) -> T:
    value = memo.get(key)
    if value is None:
        value = memo.setdefault(key, build())
    return value


def collapsed_universe(model: CircuitModel, fault_model: str) -> FaultList:
    """The model's collapsed ``"stuck-at"`` or ``"transition"`` universe:
    a template list with every class size set and its index built.  Call
    :meth:`~repro.faults.fault_list.FaultList.blank` for a list to write."""

    def build() -> FaultList:
        collapse = collapse_faults(model, _UNIVERSES[fault_model](model))
        template: FaultList = FaultList(collapse.representatives)
        for representative, size in zip(collapse.representatives, collapse.class_sizes):
            template.set_uncollapsed_count(representative, size)
        return template

    return _entry(atpg_artefacts(model).universes, fault_model, build)


def _view_key(
    model: CircuitModel,
    domain_map: ClockDomainMap,
    procedure: NamedCaptureProcedure,
    setup: TestSetup,
) -> tuple:
    """Everything :func:`build_timeframe_view` reads besides the model."""
    return (
        procedure,
        tuple(domain_map.domain_of(element.name) for element in model.state_elements),
        frozenset(setup.effective_pin_constraints().items()),
        setup.hold_pis,
        setup.observe_pos,
    )


class ProcedureEngines:
    """One run's PODEM engines, one per capture procedure, each over the
    model's shared view and tables for that procedure."""

    def __init__(
        self, model: CircuitModel, domain_map: ClockDomainMap, setup: TestSetup
    ) -> None:
        self.model = model
        self.domain_map = domain_map
        self.setup = setup
        self._engines: dict[str, tuple[TimeFrameView, PodemEngine]] = {}

    def __call__(self, procedure: NamedCaptureProcedure) -> tuple[TimeFrameView, PodemEngine]:
        """The procedure's view and this run's engine on it."""
        entry = self._engines.get(procedure.name)
        if entry is None:
            entry = self._engines[procedure.name] = self._build(procedure)
        return entry

    def _build(self, procedure: NamedCaptureProcedure) -> tuple[TimeFrameView, PodemEngine]:
        model, domain_map, setup = self.model, self.domain_map, self.setup
        memo = atpg_artefacts(model)
        view_key = _view_key(model, domain_map, procedure, setup)
        view = _entry(
            memo.views, view_key,
            lambda: build_timeframe_view(model, domain_map, procedure, setup),
        )
        limit = setup.options.backtrack_limit
        tables = _entry(
            memo.tables, (view_key, limit),
            lambda: PodemTables(
                view.model, view.controllable, view.fixed, view.observation,
                backtrack_limit=limit,
            ),
        )
        return view, PodemEngine.over(tables)
