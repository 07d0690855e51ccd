"""The individual lint rules (pure ``ast`` — no third-party deps).

Each rule yields raw findings; suppression (inline comments, baseline)
is handled by the caller in :mod:`tools.lint`.  Rules are scoped by
path: the determinism rules apply to simulation code (anything under a
``repro`` package directory), RL005 only to the hot modules whose
attribute access dominates the profile.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

__all__ = ["Fix", "RawFinding", "RULE_DOCS", "collect_findings"]

RULE_DOCS = {
    "RL001": "wall-clock read in simulation code (use repro.sim.walltime)",
    "RL002": "unseeded randomness (module-level random / numpy.random); "
             "use the seeded repro.sim.rng",
    "RL003": "id() call: identity-dependent ordering/formatting is "
             "nondeterministic",
    "RL004": "iteration over a set expression: set order is hash-seed "
             "dependent (wrap in sorted())",
    "RL005": "class in a hot module without __slots__ "
             "(or @dataclass(slots=True))",
    "RL006": "page-table unmap without an IOTLB invalidate in the same "
             "function (stale DMA translations)",
    "RL007": "experiment cell function touches module-level mutable state "
             "(cells must be pure: config in, fragment out)",
    "RL008": "direct heapq operation on Environment scheduler state "
             "outside sim/ (use env.timeout/after/defer/schedule_callback)",
}

#: (start_line, start_col, end_line, end_col, replacement) — 1-based lines.
Fix = Tuple[int, int, int, int, str]


@dataclass
class RawFinding:
    line: int
    col: int
    code: str
    message: str
    fix: Optional[Fix] = None


# -- path scoping -----------------------------------------------------------

def _repro_parts(path: str) -> Optional[Tuple[str, ...]]:
    """Path components below the ``repro`` package, or None."""
    parts = path.split("/")
    if "repro" in parts:
        return tuple(parts[parts.index("repro") + 1:])
    return None


def _is_sim_code(path: str) -> bool:
    return _repro_parts(path) is not None


def _is_hot_module(path: str) -> bool:
    rel = _repro_parts(path)
    if rel is None:
        return False
    return (
        rel == ("sim", "engine.py")
        or rel == ("mem", "memory.py")
        or (len(rel) == 2 and rel[0] in ("iommu", "net", "nic", "transport"))
    )


_WALLTIME_EXEMPT = ("sim", "walltime.py")
_RNG_EXEMPT = ("sim", "rng.py")


# -- RL001: wall-clock reads ------------------------------------------------

_TIME_FUNCS = {
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "localtime",
    "gmtime", "ctime", "clock_gettime",
}
_DATETIME_FUNCS = {"now", "utcnow", "today"}


def _walltime_import_fix(path: str, tree: ast.Module) -> Fix:
    """An import line for the ``walltime`` helper, placed after imports."""
    rel = _repro_parts(path)
    if rel is not None:
        # Relative import: one leading dot per package level above repro/.
        dots = "." * max(len(rel), 1)
        stmt = f"from {dots}sim.walltime import walltime\n"
    else:
        stmt = "from repro.sim.walltime import walltime\n"
    insert_at = 1
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            insert_at = (node.end_lineno or node.lineno) + 1
    return (insert_at, 0, insert_at, 0, stmt)


class _DeterminismVisitor(ast.NodeVisitor):
    """RL001 + RL002 + RL003 + RL004 over one module."""

    def __init__(self, path: str, tree: ast.Module):
        self.path = path
        self.tree = tree
        self.findings: List[RawFinding] = []
        self.rel = _repro_parts(path)
        self.check_clock = self.rel is not None and self.rel != _WALLTIME_EXEMPT
        self.check_random = self.rel is not None and self.rel != _RNG_EXEMPT
        #: module aliases: local name -> canonical module ("time", ...)
        self.modules = {}
        #: names imported from time/datetime/random, name -> (module, orig)
        self.from_names = {}

    # -- imports ------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in ("time", "datetime", "random", "numpy"):
                self.modules[alias.asname or root] = root
            if root == "random" and self.check_random:
                self.findings.append(RawFinding(
                    node.lineno, node.col_offset, "RL002",
                    "import of module-level random; use the seeded "
                    "repro.sim.rng instead",
                ))
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        mod = (node.module or "").split(".")[0]
        if mod in ("time", "datetime", "random"):
            for alias in node.names:
                self.from_names[alias.asname or alias.name] = (mod, alias.name)
            if mod == "random" and self.check_random:
                self.findings.append(RawFinding(
                    node.lineno, node.col_offset, "RL002",
                    "import from module-level random; use the seeded "
                    "repro.sim.rng instead",
                ))
        self.generic_visit(node)

    # -- calls --------------------------------------------------------

    def _clock_attr(self, func: ast.expr) -> Optional[str]:
        """'time.time'-style description if ``func`` reads the clock."""
        if not isinstance(func, ast.Attribute):
            return None
        base = func.value
        if isinstance(base, ast.Name):
            root = self.modules.get(base.id)
            if root == "time" and func.attr in _TIME_FUNCS:
                return f"time.{func.attr}"
            if root == "datetime" and func.attr in _DATETIME_FUNCS:
                return f"datetime.{func.attr}"
            if base.id in self.from_names:
                fmod, orig = self.from_names[base.id]
                if fmod == "datetime" and func.attr in _DATETIME_FUNCS:
                    return f"{orig}.{func.attr}"
        elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            # datetime.datetime.now(...)
            if (self.modules.get(base.value.id) == "datetime"
                    and func.attr in _DATETIME_FUNCS):
                return f"datetime.{base.attr}.{func.attr}"
        return None

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if self.check_clock:
            desc = self._clock_attr(func)
            if desc is None and isinstance(func, ast.Name):
                entry = self.from_names.get(func.id)
                if entry and entry[0] == "time" and entry[1] in _TIME_FUNCS:
                    desc = f"time.{entry[1]}"
            if desc is not None:
                fix = None
                if not node.args and not node.keywords:
                    fix = (node.lineno, node.col_offset,
                           node.end_lineno, node.end_col_offset, "walltime()")
                self.findings.append(RawFinding(
                    node.lineno, node.col_offset, "RL001",
                    f"wall-clock read {desc}() in simulation code; use the "
                    f"walltime() helper from repro.sim.walltime",
                    fix,
                ))
        if (isinstance(func, ast.Name) and func.id == "id"
                and len(node.args) == 1 and not node.keywords):
            self.findings.append(RawFinding(
                node.lineno, node.col_offset, "RL003",
                "id() is allocation-order dependent; derive ordering and "
                "repr text from stable model state instead",
            ))
        if self.check_random and isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and self.modules.get(base.id) == "random":
                self.findings.append(RawFinding(
                    node.lineno, node.col_offset, "RL002",
                    f"module-level random.{func.attr}() is unseeded; use "
                    f"the simulation Rng",
                ))
            elif (isinstance(base, ast.Attribute) and base.attr == "random"
                    and isinstance(base.value, ast.Name)
                    and self.modules.get(base.value.id) == "numpy"):
                self.findings.append(RawFinding(
                    node.lineno, node.col_offset, "RL002",
                    f"numpy.random.{func.attr}() is unseeded; use the "
                    f"simulation Rng",
                ))
        self.generic_visit(node)

    # -- set iteration ------------------------------------------------

    _SET_METHODS = {
        "union", "intersection", "difference", "symmetric_difference",
    }

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Set):
            return True
        if isinstance(node, ast.SetComp):
            return True
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id in ("set", "frozenset"):
                return True
            if isinstance(f, ast.Attribute) and f.attr in self._SET_METHODS:
                return True
        return False

    def _check_iter(self, iter_node: ast.expr) -> None:
        if self.rel is not None and self._is_set_expr(iter_node):
            self.findings.append(RawFinding(
                iter_node.lineno, iter_node.col_offset, "RL004",
                "iteration over a set expression: order is hash-seed "
                "dependent; wrap in sorted()",
                (iter_node.lineno, iter_node.col_offset,
                 iter_node.end_lineno, iter_node.end_col_offset, None),
            ))

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)


# -- RL005: __slots__ in hot modules ----------------------------------------

def _base_names(node: ast.ClassDef) -> Iterator[str]:
    for base in node.bases:
        if isinstance(base, ast.Name):
            yield base.id
        elif isinstance(base, ast.Attribute):
            yield base.attr


_SLOTS_EXEMPT_BASES = {
    "Exception", "BaseException", "Enum", "IntEnum", "Flag", "IntFlag",
    "Protocol", "NamedTuple", "TypedDict",
}


def _is_slots_exempt(node: ast.ClassDef) -> bool:
    for name in _base_names(node):
        if (name in _SLOTS_EXEMPT_BASES or name.endswith("Error")
                or name.endswith("Exception") or name.endswith("Warning")):
            return True
    return False


def _has_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        targets = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for t in targets:
            if isinstance(t, ast.Name) and t.id == "__slots__":
                return True
    for dec in node.decorator_list:
        if isinstance(dec, ast.Call):
            name = dec.func.id if isinstance(dec.func, ast.Name) else (
                dec.func.attr if isinstance(dec.func, ast.Attribute) else "")
            if name == "dataclass":
                for kw in dec.keywords:
                    if (kw.arg == "slots"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value is True):
                        return True
    return False


def _check_slots(path: str, tree: ast.Module) -> Iterator[RawFinding]:
    if not _is_hot_module(path):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if _is_slots_exempt(node) or _has_slots(node):
            continue
        yield RawFinding(
            node.lineno, node.col_offset, "RL005",
            f"class {node.name} in a hot module has no __slots__ "
            f"(instance dicts dominate the profile here); add __slots__ "
            f"or @dataclass(slots=True)",
        )


# -- RL006: unmap without IOTLB shootdown ------------------------------------

def _receiver_text(func: ast.Attribute) -> str:
    parts = []
    node: ast.expr = func.value
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts)).lower()


def _check_unmap_shootdown(path: str, tree: ast.Module) -> Iterator[RawFinding]:
    if not _is_sim_code(path):
        return
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        unmaps: List[Tuple[ast.Call, str]] = []
        has_invalidate = False
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            attr = node.func.attr
            if attr in ("unmap", "unmap_range"):
                unmaps.append((node, _receiver_text(node.func)))
            elif attr.startswith("invalidate") or attr.startswith("shootdown"):
                has_invalidate = True
        if has_invalidate:
            continue
        for call, receiver in unmaps:
            # An Iommu-level unmap embeds its own shootdown; only bare
            # page-table unmaps leave the IOTLB stale.
            if "iommu" in receiver:
                continue
            yield RawFinding(
                call.lineno, call.col_offset, "RL006",
                f"{receiver or 'page table'}.{call.func.attr}() with no "
                f"IOTLB invalidate in this function: DMA can keep using "
                f"the stale translation (use-after-unmap)",
            )


# -- RL008: direct heap access to the scheduler -------------------------------

_HEAPQ_OPS = {"heappush", "heappop", "heappushpop", "heapreplace", "heapify"}


def _mentions_env(node: ast.expr) -> bool:
    """Does the expression reach through an Environment reference?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in ("env", "environment"):
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in (
                "env", "environment", "_env"):
            return True
    return False


def _check_scheduler_heap(path: str, tree: ast.Module) -> Iterator[RawFinding]:
    """RL008: ``heapq.heappush(env...something, ...)`` outside ``sim/``.

    The calendar-queue engine does not keep a heap at all — events live
    in time buckets with a FIFO tie-break — so a direct heap operation
    on anything reached through an Environment cannot preserve the
    dispatch order the determinism gates ride on.  All scheduling goes
    through the Environment API (``timeout``/``after``/``defer``/
    ``schedule_callback``); ``sim/`` itself is exempt (the queue
    discipline lives there, e.g. ``PriorityStore``'s item heap).
    """
    rel = _repro_parts(path)
    if rel is None or (rel and rel[0] == "sim"):
        return
    from_heapq: set = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "heapq":
            for alias in node.names:
                if alias.name in _HEAPQ_OPS:
                    from_heapq.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        op = None
        if (isinstance(func, ast.Attribute) and func.attr in _HEAPQ_OPS
                and isinstance(func.value, ast.Name)
                and func.value.id == "heapq"):
            op = func.attr
        elif isinstance(func, ast.Name) and func.id in from_heapq:
            op = func.id
        if op is not None and _mentions_env(node.args[0]):
            yield RawFinding(
                node.lineno, node.col_offset, "RL008",
                f"heapq.{op}() on Environment state outside sim/: the "
                f"scheduler is a calendar queue, not a heap — use "
                f"env.timeout/after/defer/schedule_callback",
            )


# -- RL007: cell purity in experiment modules --------------------------------
#
# The parallel runner pickles each ``cell_*`` function's config to a
# worker process; anything the cell reads from module-level mutable
# state is invisible to the cache key and may differ between the
# parent and the workers.  Immutable module constants (tuples,
# strings, numbers, frozensets) are fine — only mutable bindings and
# ``global`` rebinding are flagged.

_MUTABLE_CALLS = {
    "list", "dict", "set", "bytearray", "defaultdict", "OrderedDict",
    "deque", "Counter",
}


def _is_experiments_module(path: str) -> bool:
    rel = _repro_parts(path)
    return rel is not None and len(rel) > 1 and rel[0] == "experiments"


def _is_mutable_expr(node: Optional[ast.expr]) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        f = node.func
        name = f.id if isinstance(f, ast.Name) else (
            f.attr if isinstance(f, ast.Attribute) else "")
        return name in _MUTABLE_CALLS
    return False


def _module_mutable_names(tree: ast.Module) -> set:
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and _is_mutable_expr(stmt.value):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and _is_mutable_expr(stmt.value)):
            names.add(stmt.target.id)
    return names


def _local_bindings(fn: ast.FunctionDef) -> set:
    bound = {a.arg for a in fn.args.args + fn.args.posonlyargs
             + fn.args.kwonlyargs}
    if fn.args.vararg:
        bound.add(fn.args.vararg.arg)
    if fn.args.kwarg:
        bound.add(fn.args.kwarg.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                     (ast.Store, ast.Del)):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)) and node is not fn:
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add((alias.asname or alias.name).split(".")[0])
    return bound


def _check_cell_purity(path: str, tree: ast.Module) -> Iterator[RawFinding]:
    if not _is_experiments_module(path):
        return
    mutable = _module_mutable_names(tree)
    for fn in ast.walk(tree):
        if not (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                and fn.name.startswith("cell_")):
            continue
        for node in ast.walk(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                yield RawFinding(
                    node.lineno, node.col_offset, "RL007",
                    f"cell function {fn.name} declares "
                    f"{'global' if isinstance(node, ast.Global) else 'nonlocal'}"
                    f" state; cells must be pure (config in, fragment out)",
                )
        if not mutable:
            continue
        local = _local_bindings(fn)
        for node in ast.walk(fn):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id in mutable and node.id not in local):
                yield RawFinding(
                    node.lineno, node.col_offset, "RL007",
                    f"cell function {fn.name} reads module-level mutable "
                    f"state '{node.id}'; pass it through the cell config "
                    f"(or make the module binding immutable)",
                )


# -- entry point -------------------------------------------------------------

def collect_findings(path: str, tree: ast.Module,
                     lines: Sequence[str]) -> List[RawFinding]:
    """Run every rule over one parsed module."""
    visitor = _DeterminismVisitor(path, tree)
    visitor.visit(tree)
    findings = list(visitor.findings)
    findings.extend(_check_slots(path, tree))
    findings.extend(_check_unmap_shootdown(path, tree))
    findings.extend(_check_scheduler_heap(path, tree))
    findings.extend(_check_cell_purity(path, tree))
    # RL001 fixes need the import line too; attach it to the first fix.
    for f in findings:
        if f.code == "RL001" and f.fix is not None:
            f.message += " (auto-fixable)"
    return findings
