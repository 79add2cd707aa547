"""repro.engine — compiled execution backend for simulation and fault sim.

Three pieces:

* :mod:`repro.engine.compile` — lowers a
  :class:`~repro.simulation.model.CircuitModel` once into flat instruction
  tapes (gate-specialized plane evaluators, cached fanout cones), replacing
  the per-call dict walks of the interpreted simulators;
* :mod:`repro.engine.scheduler` — the
  :class:`~repro.engine.scheduler.FaultSimScheduler` that grades fault
  batches on the ``serial`` (interpreted reference) or ``compiled`` backend;
* :mod:`repro.engine.cache` — a persistent content-addressed result store
  keyed on (design fingerprint, scenario fingerprint, engine version).

The fault simulators (:mod:`repro.fault_sim`) and
:class:`~repro.api.session.TestSession` route through this package; the
pre-engine interpreted code paths remain available as the ``serial``
reference backend for equivalence testing.
"""

from repro.engine.cache import (
    CACHE_ENV_VAR,
    ResultCache,
    campaign_cell_key,
    default_cache_root,
    design_fingerprint,
    design_identity,
    design_spec_fingerprint,
    diagnosis_key,
    fail_log_fingerprint,
    spec_fingerprint,
)
from repro.engine.compile import ENGINE_VERSION, CompiledCircuit, compile_circuit
from repro.engine.scheduler import BACKENDS, FaultSimScheduler

__all__ = [
    "BACKENDS",
    "CACHE_ENV_VAR",
    "CompiledCircuit",
    "ENGINE_VERSION",
    "FaultSimScheduler",
    "ResultCache",
    "campaign_cell_key",
    "compile_circuit",
    "default_cache_root",
    "design_fingerprint",
    "design_identity",
    "design_spec_fingerprint",
    "diagnosis_key",
    "fail_log_fingerprint",
    "spec_fingerprint",
]
