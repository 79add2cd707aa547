"""Hierarchical kernel compiler: one compiled core, many instances.

:func:`repro.engine.compile.compile_circuit` lowers a flat
:class:`~repro.simulation.model.CircuitModel` into per-gate closures — a
tape op, a plane evaluator and (lazily) a fanout cone per gate.  On a
hierarchical SoC that is wasteful: a 10⁵-gate design built from a few
hundred stamped-out copies of three unique cores pays the full closure
construction cost per *copy* even though the copies are structurally
identical.

:class:`HierCompiledCircuit` compiles each unique core **once**:

* gates are grouped by instance prefix using the design's
  :class:`~repro.netlist.netlist.DesignHierarchy` metadata;
* each instance is *canonicalized* — a local topological order (Kahn over
  intra-instance edges, tie-broken by instance-local cell name) assigns
  stable local ids to member gates and, by first appearance in pin order,
  to the external nets the instance reads;
* the canonical form is fingerprinted and **verified**: only instances with
  byte-identical fingerprints share a :class:`CoreTemplate` (the shared
  kernel — evaluator closures, execution program, fault cones); an instance
  that fails verification simply compiles into its own group;
* instances whose gates feed logic outside the instance ("non-closed", e.g.
  cores a generator accidentally spliced into glue) are demoted to the
  residual flat tape, keeping correctness independent of generator hygiene.

Execution first runs the **residual tape** (constants, glue logic, demoted
instances — ordinary per-gate closures in model order), then every closed
instance's shared template program through its *binding* — a local-id →
global-node translation table.  Closedness guarantees no residual gate ever
reads a core output, so this schedule is topological.

Fault detection reuses the same trick in the stem pass of the batch
kernel inherited from :class:`~repro.engine.compile.CompiledCircuit`.  A
stem at template site *s* has the same local cone in every instance, so
one sweep of that cone carries every instance's stem at *s*:

* **groups** — a live stem whose whole fanout lies in closed instances (a
  member gate, or an external input such as a scan cell's Q whose every
  fanout target is a member) joins one ``(template, local id)`` group per
  instance it belongs to or feeds;
* **lanes per instance** — per call and template, each instance with a
  stem in a wide sweep gets an ordinal *k* and owns lanes ``[k*W,
  (k+1)*W)`` of wide planes (``W`` patterns); a group forces its site to
  the good value XOR each member stem's mask in that stem's lanes, sweeps
  the local cone once with the flat kernel's event loop, and splits each
  observed local's found mask per instance into that instance's stem row;
* **lazy gather** — the wide good planes are gathered per call only for
  the locals a group's cone reads and only for the instances it forces,
  each (local, instance) once, so a dense batch shares the gather across
  every group of the template.

Stems whose fanout reaches residual glue or demoted gates keep the flat
sweep, and so does a stem that shares none of its groups with another
stem: a wide sweep would carry only its own lanes and add the gather, so
a sparse batch runs mostly flat sweeps.  The result is exact, lane
for lane: closed instances never read each other's gates, so the
instances' cones are disjoint; every plane operation is bitwise per lane;
and a lane of an instance the group does not force holds at most what the
good machine knows there (gathered or X), so by the monotonicity of the
dual-rail evaluators it can never show a known, differing value.  The
bit-identity suite (``tests/test_hier_identity.py``) holds both kernels to
identical masks and syndrome rows.

Templates are memoised process-wide by fingerprint digest, so a campaign
sweeping ``hier-soc-1k`` → ``hier-soc-100k`` compiles each unique core once
for the whole family, not once per design.
"""

from __future__ import annotations

import hashlib
import heapq
import threading
from collections import defaultdict
from typing import Any, Callable, Sequence

from repro.engine.compile import (
    CompiledCircuit,
    PlaneEvaluator,
    _At,
    _ffr_successors,
    _known_complement,
    _plane_evaluator,
    _propagate,
    _Row,
    _tape_op,
)
from repro.netlist.gates import GateType
from repro.netlist.netlist import DesignHierarchy
from repro.obs.telemetry import active_metrics
from repro.simulation.model import CircuitModel, NodeKind
from repro.simulation.parallel_sim import PackedPatterns

#: A template cone: ``(local_out, local_fanin, evaluator)`` steps.
_Steps = tuple[tuple[int, tuple[int, ...], PlaneEvaluator], ...]
#: One template's wide planes in a stem pass: good rails, per local the
#: instances gathered (a bit per ordinal), the observed ``(lane shift, at)``
#: per local, and the bindings of the instances by ordinal.
_WidePlanes = tuple[
    list[int], list[int], list[int], dict[int, list[tuple[int, Any]]], list[list[int]]
]

# --------------------------------------------------------------------------
# Shared kernels
# --------------------------------------------------------------------------
class CoreTemplate:
    """The compiled kernel of one unique core: shared by every instance.

    ``ops`` is the core's execution program in canonical topological order:
    ``(local_out, local_fanin, evaluator, arity)`` tuples over local ids.
    Local ids ``0..num_internal-1`` are the member gates in canonical order;
    ids ``num_internal..`` are the instance's external inputs in first-
    appearance order.  An instance binding (``trans``) maps local ids to
    global node indices; executing the program through two different
    bindings simulates two different instances with the same closures.
    """

    __slots__ = (
        "core_type",
        "fingerprint",
        "digest",
        "ops",
        "num_internal",
        "num_external",
        "_local_fanout",
        "_steps",
        "_local_cones",
        "_lock",
    )

    def __init__(
        self,
        core_type: str,
        fingerprint: tuple,
        ops: tuple[tuple[int, tuple[int, ...], PlaneEvaluator, int], ...],
        num_internal: int,
        num_external: int,
    ) -> None:
        self.core_type = core_type
        self.fingerprint = fingerprint
        self.digest = hashlib.sha256(repr(fingerprint).encode("utf-8")).hexdigest()
        self.ops = ops
        self.num_internal = num_internal
        self.num_external = num_external
        fanout: dict[int, list[int]] = defaultdict(list)
        for position, (_, fanin, _, _) in enumerate(ops):
            for local in fanin:
                fanout[local].append(position)
        self._local_fanout = dict(fanout)
        #: Per op, its cone step ``(local_out, local_fanin, evaluator)``.
        self._steps = tuple(op[:3] for op in ops)
        #: local site id -> (cone steps, read set); see :meth:`local_cone`.
        self._local_cones: dict[int, tuple[_Steps, tuple[int, ...]]] = {}
        self._lock = threading.Lock()

    def local_cone(self, site: int) -> tuple[_Steps, tuple[int, ...]]:
        """A local site's cone and read set.

        The cone is the ``(local_out, local_fanin, evaluator)`` steps its
        effect can reach, in program order; the read set is every local a
        sweep of it reads: the site, the steps' outputs and their fanins.
        """
        cached = self._local_cones.get(site)
        if cached is None:
            seen: set[int] = set()
            frontier = [site]
            while frontier:
                current = frontier.pop()
                for position in self._local_fanout.get(current, ()):
                    if position not in seen:
                        seen.add(position)
                        frontier.append(self.ops[position][0])
            steps = tuple(map(self._steps.__getitem__, sorted(seen)))
            reads = {site}
            for local_out, local_fanin, _ in steps:
                reads.add(local_out)
                reads.update(local_fanin)
            cached = (steps, tuple(sorted(reads)))
            with self._lock:
                self._local_cones[site] = cached
        return cached


#: Process-wide template memo: fingerprint -> CoreTemplate.  Lets every
#: design of a hierarchical family (and every campaign cell built in this
#: process) reuse one kernel per unique core.
_TEMPLATE_CACHE: dict[tuple, CoreTemplate] = {}
_TEMPLATE_LOCK = threading.Lock()


def shared_template_count() -> int:
    """Number of unique core kernels compiled in this process (checked by
    the hier tests)."""
    return len(_TEMPLATE_CACHE)


class _CanonicalInstance:
    """One instance's canonical form: order, local ids and fingerprint."""

    __slots__ = ("prefix", "core_type", "order", "local_of", "trans", "fingerprint")

    def __init__(
        self,
        prefix: str,
        core_type: str,
        model: CircuitModel,
        member_indices: Sequence[int],
    ) -> None:
        self.prefix = prefix
        self.core_type = core_type
        nodes = model.nodes
        sep = DesignHierarchy.SEPARATOR
        strip = len(prefix) + len(sep)
        member_set = set(member_indices)
        suffix_of = {
            idx: (nodes[idx].instance or "")[strip:] for idx in member_indices
        }
        # Local Kahn over intra-instance edges, tie-broken by cell suffix:
        # the order is a function of the instance's *local* structure only,
        # so isomorphic instances canonicalize identically no matter how the
        # global topological order interleaved them.
        indegree: dict[int, int] = {}
        dependents: dict[int, list[int]] = defaultdict(list)
        for idx in member_indices:
            count = 0
            for src in nodes[idx].fanin:
                if src in member_set:
                    count += 1
                    dependents[src].append(idx)
            indegree[idx] = count
        ready = [(suffix_of[idx], idx) for idx, deg in indegree.items() if deg == 0]
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            _, idx = heapq.heappop(ready)
            order.append(idx)
            for dep in dependents.get(idx, ()):
                indegree[dep] -= 1
                if indegree[dep] == 0:
                    heapq.heappush(ready, (suffix_of[dep], dep))
        self.order = order
        local_of: dict[int, int] = {idx: pos for pos, idx in enumerate(order)}
        num_internal = len(order)
        externals: list[int] = []
        for idx in order:
            for src in nodes[idx].fanin:
                if src not in local_of:
                    local_of[src] = num_internal + len(externals)
                    externals.append(src)
        self.local_of = local_of
        trans = [0] * (num_internal + len(externals))
        for global_idx, local in local_of.items():
            trans[local] = global_idx
        self.trans = trans
        records = tuple(
            (
                suffix_of[idx],
                nodes[idx].gtype.value if nodes[idx].gtype else "",
                tuple(local_of[src] for src in nodes[idx].fanin),
            )
            for idx in order
        )
        self.fingerprint = (core_type, len(externals), records)


class HierCompiledCircuit(CompiledCircuit):
    """A hierarchical model lowered into one shared kernel per unique core.

    Drop-in for :class:`~repro.engine.compile.CompiledCircuit`: the batch
    fault kernel (``detect_batch``, ``syndrome_batch``), its fault pass and
    the cone API are inherited unchanged.  Good-machine execution runs
    through shared templates, and the stem pass sweeps live stems by
    template site (:meth:`_sweep_stems`): one wide sweep per ``(template,
    local id)`` group, each instance in its own lanes, and flat sweeps for
    stems that reach residual logic or share no group.
    """

    def __init__(self, model: CircuitModel) -> None:
        hierarchy = model.hierarchy
        assert hierarchy is not None, "HierCompiledCircuit needs hierarchy metadata"
        self._bind_model(model)
        self._evaluators: list[PlaneEvaluator | None] = [None] * self.num_nodes
        self._fanin: list[tuple[int, ...]] = [()] * self.num_nodes
        self._cones = {}
        self._cone_sets = {}
        self._ffr_next = _ffr_successors(model)
        self._tls = threading.local()

        nodes = model.nodes
        sep = DesignHierarchy.SEPARATOR
        # Shared plane evaluators: ~|gate types| x |arities| distinct
        # closures for the whole design instead of one per gate.
        eval_cache: dict[tuple[GateType, int], PlaneEvaluator] = {}

        def evaluator_for(gtype: GateType, arity: int) -> PlaneEvaluator:
            key = (gtype, arity)
            shared = eval_cache.get(key)
            if shared is None:
                shared = eval_cache[key] = _plane_evaluator(gtype, arity)
            return shared

        # ---- membership: gate nodes grouped by declared instance prefix.
        # Cell names are ``{instance}{sep}{local}``, so membership is a dict
        # lookup on the name's separator split points — not a scan over
        # every declared instance, which made compile quadratic at 10^5
        # gates x hundreds of instances.  Checking every split point keeps
        # instance names that themselves contain the separator working.
        declared = {prefix for prefix, _ in hierarchy.instances}
        by_prefix: dict[str, list[int]] = defaultdict(list)
        owner_of: dict[int, str] = {}
        for node in nodes:
            if node.kind is not NodeKind.GATE:
                continue
            self._fanin[node.index] = node.fanin
            assert node.gtype is not None
            self._evaluators[node.index] = evaluator_for(node.gtype, len(node.fanin))
            name = node.instance or ""
            pos = name.find(sep)
            while pos != -1:
                candidate = name[:pos]
                if candidate in declared:
                    by_prefix[candidate].append(node.index)
                    owner_of[node.index] = candidate
                    break
                pos = name.find(sep, pos + 1)
        for node in nodes:
            if node.kind in (NodeKind.CONST0, NodeKind.CONST1):
                self._fanin[node.index] = node.fanin

        # ---- closedness: every fanout edge of a member must stay inside.
        # (model.fanout targets are gate nodes only, so this is exactly the
        # "no core output feeds external logic" check.)
        fanout = model.fanout
        closed: dict[str, list[int]] = {}
        for prefix, members in by_prefix.items():
            member_set = set(members)
            if all(
                target in member_set
                for idx in members
                for target in fanout[idx]
            ):
                closed[prefix] = members
            else:
                for idx in members:
                    del owner_of[idx]

        # ---- canonicalize + verify: share a template per exact fingerprint
        core_of = dict(hierarchy.instances)
        self._bindings: list[tuple[CoreTemplate, list[int]]] = []
        #: member node index -> (binding slot, local id).
        binding_of_node: dict[int, tuple[int, int]] = {}
        #: external input -> binding slot, local id, ... per instance it feeds.
        feeds: dict[int, list[int]] = defaultdict(list)
        for prefix, _core in hierarchy.instances:
            members = closed.get(prefix)
            if not members:
                continue
            canonical = _CanonicalInstance(prefix, core_of[prefix], model, members)
            with _TEMPLATE_LOCK:
                template = _TEMPLATE_CACHE.get(canonical.fingerprint)
                if template is None:
                    ops = tuple(
                        (
                            position,
                            tuple(canonical.local_of[src] for src in nodes[idx].fanin),
                            evaluator_for(
                                nodes[idx].gtype, len(nodes[idx].fanin)  # type: ignore[arg-type]
                            ),
                            len(nodes[idx].fanin),
                        )
                        for position, idx in enumerate(canonical.order)
                    )
                    template = CoreTemplate(
                        core_type=canonical.core_type,
                        fingerprint=canonical.fingerprint,
                        ops=ops,
                        num_internal=len(canonical.order),
                        num_external=len(canonical.trans) - len(canonical.order),
                    )
                    _TEMPLATE_CACHE[canonical.fingerprint] = template
            slot = len(self._bindings)
            self._bindings.append((template, canonical.trans))
            for idx in members:
                binding_of_node[idx] = (slot, canonical.local_of[idx])
            for local in range(len(canonical.order), len(canonical.trans)):
                feeds[canonical.trans[local]].extend((slot, local))

        # ---- wide stem sites: a stem whose whole fanout lies in closed
        # instances is swept by template site (see ``_sweep_stems``).
        wide: list[tuple[int, ...] | None] = [None] * self.num_nodes
        for idx, site in binding_of_node.items():
            wide[idx] = site
        for idx, sites in feeds.items():
            if all(target in binding_of_node for target in fanout[idx]):
                wide[idx] = tuple(sites)
        #: Per node: the sites a wide sweep forces for it as a stem, one per
        #: closed instance it belongs to or feeds, flattened as ``(slot,
        #: local, slot, local, ...)``; ``None`` where its fanout reaches
        #: residual logic (a flat sweep).
        self._wide_sites = wide

        # ---- residual tape: constants + glue + demoted gates, model order
        tape = []
        for node in nodes:
            if node.kind is NodeKind.GATE:
                if node.index in binding_of_node:
                    continue
                tape.append(
                    _tape_op(
                        node.kind,
                        node.index,
                        node.fanin,
                        self._evaluators[node.index],
                    )
                )
            elif node.kind in (NodeKind.CONST0, NodeKind.CONST1):
                tape.append(_tape_op(node.kind, node.index, (), None))
        self._tape = tuple(tape)
        self._gate_count = len(self._tape) + sum(
            len(template.ops) for template, _ in self._bindings
        )

    # --------------------------------------------------------------- reporting
    def hier_stats(self) -> dict[str, int]:
        """Kernel-sharing summary (surfaced by ``examples/scale_sweep.py``)."""
        return {
            "instances_bound": len(self._bindings),
            "unique_core_kernels": len({t.digest for t, _ in self._bindings}),
            "core_gates": sum(len(t.ops) for t, _ in self._bindings),
            "residual_ops": len(self._tape),
            "shared_evaluators": len(
                {id(e) for e in self._evaluators if e is not None}
            ),
        }

    def binding_digests(self) -> list[str]:
        """Per-instance template digests, in stamp-out order."""
        return [template.digest for template, _ in self._bindings]

    # ------------------------------------------------------------ good machine
    def simulate(self, packed: PackedPatterns) -> PackedPatterns:
        metrics = active_metrics()
        if metrics is not None:
            metrics.inc("engine.tape_passes")
            metrics.inc("engine.gate_evaluations", self._gate_count)
        can0, can1, full = packed.can0, packed.can1, packed.full_mask
        for op in self._tape:
            op(can0, can1, full)
        # Closed instances read only sources and residual logic, never each
        # other's gates, so any instance order after the residual pass is
        # topological.
        for template, trans in self._bindings:
            for local_out, local_fanin, evaluator, arity in template.ops:
                index = trans[local_out]
                if arity == 1:
                    src = trans[local_fanin[0]]
                    out0, out1 = evaluator((can0[src],), (can1[src],))
                elif arity == 2:
                    a = trans[local_fanin[0]]
                    b = trans[local_fanin[1]]
                    out0, out1 = evaluator((can0[a], can0[b]), (can1[a], can1[b]))
                else:
                    srcs = [trans[local] for local in local_fanin]
                    out0, out1 = evaluator(
                        [can0[i] for i in srcs], [can1[i] for i in srcs]
                    )
                can0[index] = out0
                can1[index] = out1
        return packed

    # ------------------------------------------------------------- fault paths
    def _sweep_stems(
        self,
        final: PackedPatterns,
        live: dict[int, int],
        observed: dict[int, _At],
        fold: Callable[[_Row, _At, int], _Row],
        rows: dict[int, _Row],
    ) -> int:
        """Sweep live stems by template site: one wide sweep per
        ``(template, local)`` group, flat sweeps for the rest (see the
        module docstring for the lanes and why the rows are exact).

        Per call and template, each instance with a stem in a wide sweep
        gets an ordinal *k* and owns lanes ``[k*W, (k+1)*W)`` of the
        template's wide planes.  A group forces its site to the good value
        XOR every member stem's mask in its instance's lanes, sweeps the
        template's local cone once, and splits each observed local's found
        mask per instance.  The stem node itself is checked once, in global
        ids.  A stem that shares none of its groups with another stem is
        swept flat: a wide sweep would carry only its own lanes and add the
        gather.  Returns the number of cone sweeps run.
        """
        can0, can1 = final.can0, final.can1
        width = final.num_patterns
        full = final.full_mask
        scratch = self._scratch()
        bindings = self._bindings
        wide_sites = self._wide_sites
        groups: dict[tuple[CoreTemplate, int], list[tuple[int, int, int]]] = {}
        sweeps = 0
        for stem, mask in live.items():
            sites = wide_sites[stem]
            if sites is None:
                self._sweep_flat(final, stem, mask, observed, fold, rows, scratch)
                sweeps += 1
                continue
            for at_site in range(0, len(sites), 2):
                slot, local = sites[at_site], sites[at_site + 1]
                groups.setdefault((bindings[slot][0], local), []).append(
                    (slot, stem, mask)
                )
        shared = {
            stem for members in groups.values() if len(members) > 1
            for _, stem, _ in members
        }
        for stem, mask in live.items():
            if wide_sites[stem] is None:
                continue
            if stem not in shared:
                self._sweep_flat(final, stem, mask, observed, fold, rows, scratch)
                sweeps += 1
                continue
            # The stem node itself, once in global ids: an external stem
            # is a site in every instance it feeds.
            at = observed.get(stem)
            if at is not None:
                g0, g1 = can0[stem], can1[stem]
                found = _known_complement(g0, g1, g0 ^ mask, g1 ^ mask)
                if found:
                    rows[stem] = fold(rows[stem], at, found)

        ordinal: dict[int, int] = {}
        planes: dict[CoreTemplate, _WidePlanes] = {}
        for (template, site), members in groups.items():
            if members[0][1] not in shared:  # its one stem was swept flat
                continue
            state = planes.get(template)
            if state is None:
                size = template.num_internal + template.num_external
                state = planes[template] = ([0] * size, [0] * size, [0] * size, {}, [])
            wide0, wide1, gathered, observers, trans_of = state
            force = need = 0
            stem_of: dict[int, int] = {}
            lanes = []
            for slot, stem, mask in members:
                k = ordinal.get(slot)
                if k is None:
                    k = ordinal[slot] = len(trans_of)
                    trans_of.append(bindings[slot][1])
                shift = k * width
                force |= mask << shift
                need |= 1 << k
                lanes.append((1 << k, shift, trans_of[k]))
                stem_of[shift] = stem
            steps, reads = template.local_cone(site)
            # Gather lazily: each (local, instance) once per call, only the
            # locals this cone reads and only the instances it forces; note
            # the observed ones on the way.
            for local in reads:
                have = gathered[local]
                if need & ~have:
                    gathered[local] = have | need
                    v0, v1 = wide0[local], wide1[local]
                    for bit, shift, trans in lanes:
                        if not have & bit:
                            node = trans[local]
                            v0 |= can0[node] << shift
                            v1 |= can1[node] << shift
                            at = observed.get(node)
                            if at is not None:
                                observers.setdefault(local, []).append((shift, at))
                    wide0[local] = v0
                    wide1[local] = v1
            touched = _propagate(
                wide0, wide1, steps, scratch,
                site, wide0[site] ^ force, wide1[site] ^ force,
            )
            sweeps += 1
            f0, f1 = scratch.f0, scratch.f1
            for local in touched[1:]:
                at_of = observers.get(local)
                if at_of is None:
                    continue
                found = _known_complement(
                    wide0[local], wide1[local], f0[local], f1[local]
                )
                if not found:
                    continue
                for shift, at in at_of:
                    part = (found >> shift) & full
                    if part:
                        stem = stem_of[shift]
                        rows[stem] = fold(rows[stem], at, part)
        return sweeps
