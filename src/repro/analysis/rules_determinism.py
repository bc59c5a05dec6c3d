"""Determinism rules.

The repo's headline contract is byte-identical slowdown digests across
engine modes (see docs/PERFORMANCE.md).  Everything here exists to keep
nondeterminism out of the event core statically, before a digest test
can catch it dynamically:

* ``det-unseeded-rng``   — global/unseeded random sources, anywhere.
* ``det-wallclock``      — wall-clock reads inside simulation packages.
* ``det-set-order``      — iterating raw sets (or ``.keys()``) where the
                           order can feed event scheduling.
* ``det-id-order``       — ``id()``-based ordering (memory addresses
                           vary run to run).
* ``det-float-time-eq``  — float ``==``/``!=`` against integer ``_ps``
                           timestamps in comparator code.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.core import (
    Finding,
    Module,
    Project,
    canonical_call,
    compact,
    import_map,
    rule,
)

#: packages whose code runs inside (or feeds) the simulation loop
SIM_PREFIXES = (
    "src/repro/core/",
    "src/repro/homa/",
    "src/repro/baselines/",
    "src/repro/transport/",
    "src/repro/apps/",
    "src/repro/workloads/",
)

#: canonical call names that read the wall clock
WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: numpy.random attributes that are fine to call (explicitly seeded APIs)
_NP_RANDOM_OK = frozenset({"default_rng", "Generator", "SeedSequence"})

#: constructors that are deterministic when given a seed argument
_SEEDED_CTORS = frozenset(
    {"random.Random", "numpy.random.RandomState", "numpy.random.default_rng"}
)


def _in_sim(rel: str) -> bool:
    return rel.startswith(SIM_PREFIXES)


def _finding(mod: Module, node: ast.AST, name: str, detail: str, msg: str) -> Finding:
    return Finding(
        rule=name,
        path=mod.rel,
        line=getattr(node, "lineno", 0),
        scope=mod.scope_of(node),
        detail=detail,
        message=msg,
    )


@rule("det-unseeded-rng")
def check_unseeded_rng(project: Project) -> list[Finding]:
    """No module-global or unseeded random sources, anywhere in the repo.

    Flags calls through the global ``random`` module (``random.shuffle``,
    ``random.seed``, zero-arg ``random.Random()``), ``SystemRandom``, the
    legacy ``numpy.random.*`` global-state API, and zero-arg
    ``numpy.random.default_rng()``.  Fix: thread an explicitly seeded
    ``random.Random(seed)`` / ``np.random.default_rng(seed)`` instance.
    """
    out: list[Finding] = []
    for mod in project.modules:
        imports = import_map(mod.tree)
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            name = canonical_call(node, imports)
            if name is None:
                continue
            bad: Optional[str] = None
            if name in _SEEDED_CTORS:
                if not node.args and not node.keywords:
                    bad = (
                        f"{name}() without a seed is seeded from the OS; "
                        f"pass an explicit seed"
                    )
            elif name in ("random.SystemRandom", "numpy.random.RandomState"):
                bad = f"{name} cannot be made deterministic here; use a seeded generator"
            elif name == "random.seed" or name == "numpy.random.seed":
                bad = (
                    f"{name}() mutates hidden global state; construct a "
                    f"seeded generator instance instead"
                )
            elif name.startswith("random.") and name.count(".") == 1:
                bad = (
                    f"{name}() draws from the process-global RNG; thread a "
                    f"seeded random.Random(seed) instance"
                )
            elif (
                name.startswith("numpy.random.")
                and name.count(".") == 2
                and name.rsplit(".", 1)[1] not in _NP_RANDOM_OK
            ):
                bad = (
                    f"{name}() uses numpy's legacy global RNG; use a "
                    f"seeded np.random.default_rng(seed)"
                )
            if bad:
                out.append(_finding(mod, node, "det-unseeded-rng", name, bad))
    return out


@rule("det-wallclock")
def check_wallclock(project: Project) -> list[Finding]:
    """No wall-clock reads in simulation packages.

    Simulated time is the integer-picosecond ``sim.now``; any
    ``time.time``/``perf_counter``/``datetime.now`` inside
    ``src/repro/{core,homa,baselines,transport,apps,workloads}`` leaks
    host timing into results.  Benchmark/experiment harness code (which
    legitimately measures wall time) lives outside these packages.
    """
    out: list[Finding] = []
    for mod in project.modules:
        if not _in_sim(mod.rel):
            continue
        imports = import_map(mod.tree)
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            name = canonical_call(node, imports)
            if name in WALLCLOCK_CALLS:
                out.append(
                    _finding(
                        mod,
                        node,
                        "det-wallclock",
                        name,
                        f"{name}() reads the wall clock inside a simulation "
                        f"package; use sim.now (integer picoseconds)",
                    )
                )
    return out


def _is_raw_set_expr(node: ast.AST, imports: dict[str, str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = canonical_call(node, imports)
        return name in ("set", "frozenset")
    return False


def _is_keys_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "keys"
        and not node.args
    )


#: consumers whose result order is the iteration order of their argument
_ORDER_SENSITIVE_WRAPPERS = frozenset(
    {"list", "tuple", "enumerate", "iter", "reversed"}
)


@rule("det-set-order")
def check_set_order(project: Project) -> list[Finding]:
    """No iteration over raw ``set`` expressions / ``.keys()`` in src/repro.

    Set iteration order depends on hash seeding and insertion history;
    anything that loops over one can feed event scheduling in an
    unstable order.  Wrap in ``sorted(...)`` (which is never flagged),
    or iterate a dict/list whose insertion order is meaningful.
    ``.keys()`` is flagged too: iterate the dict itself (same order,
    explicit intent) or sort.
    """
    out: list[Finding] = []
    for mod in project.modules:
        if not mod.rel.startswith("src/repro/"):
            continue
        imports = import_map(mod.tree)

        def flag(expr: ast.AST, ctx: str) -> None:
            if _is_raw_set_expr(expr, imports):
                out.append(
                    _finding(
                        mod,
                        expr,
                        "det-set-order",
                        compact(expr),
                        f"iterating a raw set in {ctx} has hash-dependent "
                        f"order; wrap in sorted(...)",
                    )
                )
            elif _is_keys_call(expr):
                out.append(
                    _finding(
                        mod,
                        expr,
                        "det-set-order",
                        compact(expr),
                        f"iterating .keys() in {ctx}; iterate the dict "
                        f"itself (insertion order) or sorted(...) to make "
                        f"the order explicit",
                    )
                )

        for node in ast.walk(mod.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                flag(node.iter, "a for loop")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    flag(gen.iter, "a comprehension")
            elif isinstance(node, ast.Call):
                name = canonical_call(node, imports)
                if name in _ORDER_SENSITIVE_WRAPPERS and node.args:
                    flag(node.args[0], f"{name}(...)")
    return out


@rule("det-id-order")
def check_id_order(project: Project) -> list[Finding]:
    """No ``id()``-based ordering (``sorted(key=id)`` and friends).

    ``id()`` is a memory address: stable within a process, different
    across runs, so any ordering derived from it is nondeterministic.
    Use a stable key (hid, port name, sequence number) instead.
    Applies to src, tests, benchmarks and examples alike — test
    assertions that order by ``id()`` can flake under a different
    allocator.
    """
    out: list[Finding] = []
    for mod in project.modules:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            target = None
            if isinstance(node.func, ast.Name) and node.func.id in (
                "sorted",
                "min",
                "max",
            ):
                target = node.func.id
            elif isinstance(node.func, ast.Attribute) and node.func.attr == "sort":
                target = "sort"
            if target is None:
                continue
            uses_id = any(
                (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == "id")
                or (isinstance(sub, ast.keyword) and isinstance(sub.value, ast.Name) and sub.value.id == "id")
                for sub in ast.walk(node)
            )
            if uses_id:
                out.append(
                    _finding(
                        mod,
                        node,
                        "det-id-order",
                        compact(node),
                        f"{target}(...) orders by id() — a memory address "
                        f"that varies across runs; use a stable key",
                    )
                )
    return out


def _is_ps_operand(node: ast.AST) -> bool:
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    return name is not None and (name == "now" or name.endswith("_ps"))


def _is_floatish(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
        return True
    return any(
        isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div)
        for sub in ast.walk(node)
    )


@rule("det-float-time-eq")
def check_float_time_eq(project: Project) -> list[Finding]:
    """No float ``==``/``!=`` against ``_ps`` timestamps in src/repro.

    Simulated time is *integer* picoseconds precisely so equality is
    exact (the engine's event comparators and the ingress arrival-fusion
    checks rely on it).  Comparing a ``_ps`` value against a float literal, a true
    division, or ``float(...)`` re-introduces rounding: two events meant
    to coincide stop comparing equal.  Use integer arithmetic (``//``,
    ``units.ns_to_ps``) on both sides.
    """
    out: list[Finding] = []
    for mod in project.modules:
        if not mod.rel.startswith("src/repro/"):
            continue
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(_is_ps_operand(o) for o in operands) and any(
                _is_floatish(o) for o in operands
            ):
                out.append(
                    _finding(
                        mod,
                        node,
                        "det-float-time-eq",
                        compact(node),
                        "float equality against an integer _ps timestamp; "
                        "keep both sides integer picoseconds",
                    )
                )
    return out
