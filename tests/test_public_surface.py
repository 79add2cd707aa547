"""Every public name in ``src/repro`` has a caller outside the tests.

The scan walks ``src/repro`` with :mod:`ast` and collects every public
module-level function and class and every public method of a public class.
A name passes when something other than its own definition refers to it:

* any identifier (a name or an attribute) in ``src/`` outside the
  definition's own body.  ``__init__.py`` re-exports and ``__all__`` entries
  are imports and strings, so they do not count;
* any identifier in ``examples/``, ``benchmarks/`` or ``perfbench/``;
* the name as a word in ``README.md``.

Functions registered by a decorator call (``@rule(...)``,
``@register_job_kind(...)``, ``@atexit.register``) are reached through
their registry and are skipped.  ``KEPT`` lists the names that only tests
reach on purpose, each with its reason.

The scan is by name, not by binding: a dead method that shares its name
with a live one anywhere (``run``, ``add``, ``summary``) passes.  It finds
the names nothing else spells; it does not prove the rest are used.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CALLER_DIRS = ("examples", "benchmarks", "perfbench")

#: Decorators that wrap a definition without registering it anywhere.
PLAIN_DECORATORS = frozenset(
    {"property", "cached_property", "classmethod", "staticmethod", "contextmanager", "setter"}
)

#: Names that only tests reach, kept on purpose: the oracles and
#: cross-checks tests hold the product to, accessors tests assert product
#: behaviour through, circuit fixtures, registry teardown and framework hooks.
KEPT: dict[str, str] = {
    # Oracles and cross-checks.
    "good_capture": "TransitionFaultSimulator.good_capture: good-machine capture oracle",
    "execute_pattern": "cycle-level shift/capture oracle for the framed fault simulator",
    "elaborate_pattern": "tester-protocol expansion of one pattern, run by execute_pattern",
    "PathDelaySensitizationChecker": "sensitization oracle for the path-delay ATPG",
    "cross_check_with_classifier": "prover-versus-classifier cross-check",
    "expand": "EdtDecompressor.expand: decompressor oracle for the EDT encoder",
    "compact": "XorCompactor.compact: compactor oracle for EDT unload",
    "detects": "single-fault detection check the fault simulators are held to",
    "cone_indices": "CompiledCircuit.cone_indices: fanout-cone oracle for candidate cones",
    "parse_stil_pattern_count": "reads the pattern count back from exported STIL",
    "write_bench": "the .bench writer that read_bench is round-tripped through",
    "round_trip": "Verilog write/read round trip",
    "simulate_by_net": "net-keyed scalar simulation, the reference the simulators meet",
    "enumerate_fault_sites": "fault-site enumeration the collapse tests check",
    "collapse_ratio": "CollapseResult.collapse_ratio, held to the tuple-keyed collapse",
    "same_ranking": "cross-backend diagnosis ranking check",
    "recovered_at_rank_1": "success predicate of the closed-loop diagnosis tests",
    "shared_template_count": "hier core-template sharing, checked by the hier tests",
    "binding_digests": "per-instance template digests, checked by the hier tests",
    "run_stuck_at_atpg": "one-call stuck-at ATPG driver of the ATPG tests",
    "run_transition_atpg": "one-call transition ATPG driver of the ATPG tests",
    "execute_volume_plan": "runs a volume plan in-process for the volume plan tests",
    # Accessors that tests assert product behaviour through.
    "is_at_speed": "NamedCaptureProcedure.is_at_speed: experiment (a) is slow",
    "observed_scan_flops": "which scan cells a capture procedure observes",
    "unload_values": "ScanChain.unload_values: the unload order capture_fail_log follows",
    "reduction": "CompactionStats.reduction: the compaction ratio",
    "contains": "ResultCache.contains: which entries a prune kept",
    "by_rule": "LintReport.by_rule: findings of one lint rule",
    "raise_on_error": "LintReport.raise_on_error: the lint gate",
    "proven_faults": "UntestabilityReport.proven_faults: the faults the prover proved",
    "value_of": "PlanResult.value_of: one job's value",
    # Circuit fixtures.
    "c17": "circuit fixture (ISCAS-85 c17)",
    "s27": "circuit fixture (s27-like sequential circuit)",
    "alu_slice": "circuit fixture",
    "loadable_counter": "circuit fixture",
    "two_domain_crossing": "circuit fixture",
    "random_combinational": "random-circuit fixture of the property tests",
    "random_sequential": "random-circuit fixture of the property tests",
    # Registry teardown and framework hooks.
    "unregister_design": "registry teardown for tests that register designs",
    "unregister_scenario": "registry teardown for tests that register scenarios",
    "verify_request": "WakingTCPServer.verify_request: a socketserver hook",
    # Entry points that open work gives callers.
    "mark_detected_many": "FaultList.mark_detected_many: for the int-code fault path",
    "add_many": "FailLogStore.add_many: for bulk store maintenance",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _registered(node: ast.AST) -> bool:
    for decorator in getattr(node, "decorator_list", ()):
        if isinstance(decorator, ast.Call):
            return True
        if isinstance(decorator, ast.Attribute) and decorator.attr not in PLAIN_DECORATORS:
            return True
        if isinstance(decorator, ast.Name) and decorator.id not in PLAIN_DECORATORS:
            return True
    return False


def _definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Public module-level functions and classes, and public class methods."""
    found: list[tuple[str, ast.AST]] = []
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, defs) and _is_public(node.name) and not _registered(node):
            found.append((node.name, node))
        elif isinstance(node, ast.ClassDef) and _is_public(node.name):
            found.append((node.name, node))
            for item in node.body:
                if isinstance(item, defs) and _is_public(item.name) and not _registered(item):
                    found.append((item.name, item))
    return found


def _references(tree: ast.AST) -> list[tuple[str, int]]:
    """Every identifier a module spells outside imports and strings, with its line."""
    refs: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
    return refs


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def unreferenced_names(kept: "dict[str, str] | frozenset[str]" = frozenset()) -> list[str]:
    """``module:name`` of every public definition nothing outside tests uses,
    apart from the names in ``kept``."""
    modules = {path: _parse(path) for path in sorted(SRC.rglob("*.py"))}
    src_refs: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in modules.items():
        for name, line in _references(tree):
            src_refs.setdefault(name, []).append((path, line))
    outside: set[str] = set()
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            outside.update(name for name, _ in _references(_parse(path)))
    outside.update(_WORD.findall((ROOT / "README.md").read_text()))

    unused: list[str] = []
    for path, tree in modules.items():
        for name, node in _definitions(tree):
            if name in outside or name in kept:
                continue
            span = range(node.lineno, node.end_lineno + 1)
            if any(
                other != path or line not in span for other, line in src_refs.get(name, ())
            ):
                continue
            unused.append(f"{path.relative_to(SRC.parent)}:{name}")
    return unused


def test_every_public_name_has_a_caller_outside_tests():
    unused = unreferenced_names(KEPT)
    assert not unused, (
        "public names only tests reach (delete them, or add them to KEPT with a reason):\n  "
        + "\n  ".join(unused)
    )


def test_every_kept_name_is_still_test_only():
    """A kept name that is gone, or that gained a caller, leaves ``KEPT``."""
    flagged = {entry.rsplit(":", 1)[1] for entry in unreferenced_names()}
    assert not set(KEPT) - flagged, sorted(set(KEPT) - flagged)
