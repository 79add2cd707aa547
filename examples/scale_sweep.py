#!/usr/bin/env python3
"""Scaling sweep: hierarchical SoCs from 10³ to 10⁵ gates.

Builds the ``hier-soc-*`` design families, compiles each both flat and
through the hierarchical kernel compiler, and times good-machine fault
simulation per execution backend.  The point of the exercise:

* **compile** — the hierarchical compiler builds one kernel per *unique
  core*, not per instance, so compile time stays near-flat while the
  design grows 100×;
* **simulate** — the in-process backends, and the flat compile, produce
  bit-identical detections at every size (the full suite for that claim is
  ``tests/test_hier_identity.py``); the script exits non-zero when any of
  them diverges;
* **memory** — attach a :class:`~repro.patterns.store.PatternStore` to a
  session or campaign (``with_pattern_store``) and pattern sets spill to
  disk instead of scaling resident memory with design size.

Run with ``python examples/scale_sweep.py``.  The 10⁵-gate member takes
a few seconds to build; pass ``--small`` to sweep only 10³/10⁴.
"""

import argparse
import random
import time

from repro.api.design import prepare_from_spec
from repro.engine.compile import compile_circuit
from repro.fault_sim import StuckAtFaultSimulator
from repro.faults import all_stuck_at_faults, collapse_faults
from repro.hier.designs import register_hier_designs
from repro.logic import Logic


def _patterns(model, count=8, seed=11):
    rng = random.Random(seed)
    sources = model.pi_nodes + model.ppi_nodes
    return [
        {idx: (Logic.ONE if rng.random() < 0.5 else Logic.ZERO) for idx in sources}
        for _ in range(count)
    ]


def sweep(spec) -> bool:
    """Sweep one design family; ``True`` when every kernel agrees."""
    started = time.perf_counter()
    prepared = prepare_from_spec(spec)
    prepare_s = time.perf_counter() - started
    model = prepared.model
    gates = len(prepared.netlist.gates)

    flat = model.without_hierarchy()
    started = time.perf_counter()
    compile_circuit(flat)
    flat_s = time.perf_counter() - started
    started = time.perf_counter()
    compiled = compile_circuit(model)
    hier_s = time.perf_counter() - started
    stats = compiled.hier_stats()

    print(
        f"{spec.name:<14} gates={gates:>7} prepare={prepare_s:5.2f}s "
        f"compile flat={flat_s:5.2f}s hier={hier_s:5.2f}s "
        f"kernels={stats['unique_core_kernels']}/{stats['instances_bound']} instances"
    )

    universe = collapse_faults(model, all_stuck_at_faults(model)).representatives
    rng = random.Random(3)
    faults = [universe[i] for i in sorted(rng.sample(range(len(universe)), 64))]
    patterns = _patterns(model)
    reference = None
    agreed = True
    # The serial reference, the hierarchical kernel, and the flat kernel.
    for label, circuit, backend in (
        ("serial", model, "serial"),
        ("compiled", model, "compiled"),
        ("flat", flat, "compiled"),
    ):
        simulator = StuckAtFaultSimulator(circuit, batch_size=8, backend=backend)
        started = time.perf_counter()
        detections = simulator.simulate(patterns, faults).detections
        elapsed = time.perf_counter() - started
        if reference is None:
            reference = detections
        same = detections == reference
        agreed &= same
        print(f"    {label:<9} sim={elapsed:5.2f}s {'ok' if same else 'DIVERGED'}")
    return agreed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--small", action="store_true",
        help="sweep only the 10^3/10^4 members (the CI smoke subset)",
    )
    args = parser.parse_args()
    specs = register_hier_designs()
    if args.small:
        specs = specs[:2]
    print(f"Sweeping {len(specs)} hierarchical design families:\n")
    diverged = [spec.name for spec in specs if not sweep(spec)]
    print(
        "\nPer-layer timing of fault grading on hier-soc-10k: "
        "python3 perfbench/run.py --workload fault-grade-10k --seed 1 --trace 1"
    )
    if diverged:
        raise SystemExit(f"detections DIVERGED on {', '.join(diverged)}")


if __name__ == "__main__":
    main()
