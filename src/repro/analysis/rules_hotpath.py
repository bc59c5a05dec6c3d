"""Hot-path allocation rule (advisory tier — findings get baselined).

``HOT_FUNCTIONS`` is a manifest of the functions that run per event /
per packet in the canonical 144-host benches: the event loop and
schedulers, port enqueue/dequeue, the fused switch ingress, the packet
pool, and the Homa grant path.  Inside those functions we flag
constructs that allocate or pay per call:

* nested ``def`` / ``lambda``   — a fresh closure object per call;
* comprehensions / genexps      — a fresh list/set/dict/generator + an
                                  implicit function call per evaluation;
* string formatting (f-strings, ``.format``, ``%``) — unless it only
  runs on the raise/assert failure path, which costs nothing when the
  simulation is healthy;
* ``try``/``except`` inside a loop — cheap to *enter* on CPython 3.11,
  but usually marks a polymorphic fast path that reads better (and
  traces better) as an explicit test.

The tier is advisory: existing findings are grandfathered in
``baseline.json`` rather than rewritten for lint's sake — several are
deliberate (e.g. a comprehension outside the per-packet branch).  New
findings in these functions still fail CI until baselined or waived,
which is the point: allocation creep in the hot path should be a
conscious decision (see docs/PERFORMANCE.md).

The manifest itself is checked: entries that no longer resolve to a
function raise a ``hot-alloc`` stale finding, so refactors must keep it
current.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Finding, Module, Project, compact, rule

HOT_FUNCTIONS: dict[str, frozenset[str]] = {
    "src/repro/core/engine.py": frozenset(
        {
            "Simulator.schedule",
            "Simulator.schedule0",
            "Simulator.schedule1",
            "Simulator.schedule_at",
            "Simulator.schedule_at1",
            "Simulator._file_far",
            "Simulator._refill",
            "Simulator._run_loop",
        }
    ),
    "src/repro/core/port.py": frozenset(
        {
            "QueuedPort.enqueue",
            "QueuedPort._next",
            "QueuedPort._tx_done",
            "QueuedPort._transmit",
            "PfabricPort.enqueue",
            "PfabricPort._next",
            "PullPort._tx_done",
            "PullPort._next",
        }
    ),
    "src/repro/core/topology.py": frozenset(
        {
            "Network._make_tor_ingress.<locals>.ingress",
            "Network._make_aggr_ingress.<locals>.ingress",
        }
    ),
    "src/repro/core/pool.py": frozenset(
        {
            "PacketPool.alloc_data",
            "PacketPool.alloc_ctrl",
            "PacketPool.free",
        }
    ),
    "src/repro/homa/transport.py": frozenset(
        {
            "HomaTransport.next_packet",
            "HomaTransport._next_data",
            "HomaTransport._make_data_packet",
            "HomaTransport._on_data",
            "HomaTransport._schedule_grants",
            "HomaTransport._grant_packet",
            "HomaTransport._emit_changed_grant",
            "HomaTransport._grant_tick",
            "HomaTransport._on_grant",
        }
    ),
    "src/repro/transport/messages.py": frozenset(
        {
            "Intervals.add",
            "OutboundMessage.next_chunk",
            "InboundMessage.record",
        }
    ),
    "src/repro/transport/base.py": frozenset(
        {
            "Transport.send_ctrl",
            "Transport.next_packet",
        }
    ),
}


def _scan_function(mod: Module, qual: str, fn: ast.AST, out: list[Finding]) -> None:
    def add(node: ast.AST, kind: str, msg: str) -> None:
        out.append(
            Finding(
                rule="hot-alloc",
                path=mod.rel,
                line=getattr(node, "lineno", 0),
                scope=qual,
                detail=f"{kind}:{compact(node, 48)}",
                message=f"[hot {qual}] {msg}",
            )
        )

    def walk(node: ast.AST, in_loop: bool, in_fail_path: bool) -> None:
        for child in ast.iter_child_nodes(node):
            child_in_loop = in_loop
            child_in_fail = in_fail_path
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add(child, "closure", "nested def allocates a closure per call")
                continue  # its own body only runs when the closure is called
            if isinstance(child, ast.Lambda):
                add(child, "closure", "lambda allocates a closure per call")
                continue
            if isinstance(child, (ast.For, ast.AsyncFor, ast.While)):
                child_in_loop = True
            if isinstance(child, (ast.Raise, ast.Assert)):
                # Allocation on the failure path is free in healthy runs.
                child_in_fail = True
            if isinstance(child, ast.Try) and in_loop and not in_fail_path:
                add(child, "try-in-loop", "try/except inside an inner loop")
            if not child_in_fail:
                if isinstance(
                    child,
                    (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
                ):
                    add(
                        child,
                        "comprehension",
                        "comprehension allocates per call",
                    )
                elif isinstance(child, ast.JoinedStr):
                    add(child, "format", "f-string formatting per call")
                elif (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "format"
                    and isinstance(child.func.value, ast.Constant)
                    and isinstance(child.func.value.value, str)
                ):
                    add(child, "format", "str.format() per call")
                elif (
                    isinstance(child, ast.BinOp)
                    and isinstance(child.op, ast.Mod)
                    and isinstance(child.left, ast.Constant)
                    and isinstance(child.left.value, str)
                ):
                    add(child, "format", "%-formatting per call")
            walk(child, child_in_loop, child_in_fail)

    walk(fn, in_loop=False, in_fail_path=False)


@rule("hot-alloc", tier="advisory")
def check_hot_alloc(project: Project) -> list[Finding]:
    """Per-event allocation in manifest-listed hot functions (advisory).

    Flags closures, comprehensions, string formatting and try-in-loop
    inside the hot-function manifest; existing instances live in
    baseline.json.  Also fails on stale manifest entries so the
    manifest tracks refactors.
    """
    out: list[Finding] = []
    manifest = project.hot_manifest or HOT_FUNCTIONS
    for rel, quals in sorted(manifest.items()):
        mod = project.by_rel.get(rel)
        if mod is None:
            if project.full_tree:
                out.append(
                    Finding(
                        rule="hot-alloc",
                        path=rel,
                        line=0,
                        scope="<module>",
                        detail="stale-file",
                        message=(
                            f"hot-function manifest names missing file "
                            f"{rel}; update HOT_FUNCTIONS in "
                            f"rules_hotpath.py"
                        ),
                    )
                )
            continue
        for qual in sorted(quals):
            fn = mod.functions.get(qual)
            if fn is None:
                out.append(
                    Finding(
                        rule="hot-alloc",
                        path=rel,
                        line=0,
                        scope=qual,
                        detail="stale-entry",
                        message=(
                            f"hot-function manifest entry {qual} not found "
                            f"in {rel}; update HOT_FUNCTIONS in "
                            f"rules_hotpath.py"
                        ),
                    )
                )
                continue
            _scan_function(mod, qual, fn, out)
    return out
