"""Layer spans for noncent, recorded from outside the library.

The tracer wraps the public functions of each layer with a timing span.
Several modules copy functions by name (`from .core import from_table`) and
`checks.run_suite` dispatches through the `checks.CHECK_IDS` dict, so wrapping
one module attribute would miss most calls: `install` replaces every
module-level alias, class attribute and dict value in the `noncent` modules
that refers to a traced function, and `uninstall` puts the originals back.

Spans nest on one stack (the library is single-threaded). A span's self time
is its duration minus the time covered by the wrapped calls made inside it;
its total time counts only the outermost call of a recursive name.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from types import FunctionType, ModuleType

# Traced functions per module; "Class.method" names a method.
LAYERS = {
    "core": ["from_table", "from_permutations", "direct_product",
             "is_isomorphic", "all_subgroups",
             "FiniteGroup.generated_subgroup", "FiniteGroup.subgroup",
             "FiniteGroup.is_normal", "FiniteGroup.quotient",
             "FiniteGroup.commutator_subgroup", "FiniteGroup.frattini",
             "FiniteGroup.conjugacy_classes", "FiniteGroup.element_orders",
             "Subgroup.as_group", "Subgroup.cosets"],
    "families": ["cyclic", "elementary_abelian", "dihedral",
                 "generalized_quaternion", "modular_M", "heisenberg"],
    "presentation": ["parse", "enumerate_presentation"],
    "analysis": ["beta_partition", "is_regular", "is_induced_regular",
                 "maximal_centralizers", "h_subgroup", "is_reduced_regular",
                 "build_report"],
    "graph": ["build_graph", "export"],
    "catalog": ["load", "CatalogEntry.group", "table1_search"],
    "cli": ["main"],
}

# Which statistics each module reports (checks are handled per check id).
_STATS = {"families": ("self_s",)}
_DEFAULT_STATS = ("calls", "self_s", "total_s")
_CHECK_STATS = ("total_s",)
_UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}

BETA = "analysis.beta_partition"
ALL_SUBGROUPS = "core.all_subgroups"
CLOSURE = "core.FiniteGroup.generated_subgroup"

# Derived metrics: name -> (unit, better).
DERIVED = {
    BETA + ".calls_per_group": ("calls/group", "lower"),
    ALL_SUBGROUPS + ".subgroups_per_closure": ("subgroups/call", "higher"),
    ALL_SUBGROUPS + ".raised": ("count", "lower"),
    "raised": ("count", "lower"),
    "unattributed_s": ("s", "lower"),
    "coverage": ("ratio", "higher"),
    "traced_pass_s": ("s", "lower"),
    "overhead_s": ("s", "lower"),
}


def _noncent_modules() -> list[ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "noncent" or name.startswith("noncent."))]


def span_targets() -> dict[str, object]:
    """Map span name -> original function, for every traced function."""
    out: dict[str, object] = {}
    for mod_name, attrs in LAYERS.items():
        mod = importlib.import_module(f"noncent.{mod_name}")
        for attr in attrs:
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            fn = vars(owner)[fn_name]
            if not isinstance(fn, FunctionType):
                raise TypeError(f"noncent.{mod_name}.{attr} is not a plain function")
            out[f"{mod_name}.{attr}"] = fn
    for cid, fn in importlib.import_module("noncent.checks").CHECK_IDS.items():
        out[f"checks.{cid}"] = fn
    return out


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric the traced run reports."""
    specs = []
    for name in span_targets():
        module = name.split(".", 1)[0]
        stats = _CHECK_STATS if module == "checks" else _STATS.get(module, _DEFAULT_STATS)
        specs += [(f"{name}.{s}", _UNITS[s], "lower") for s in stats]
    specs += [(name, unit, better) for name, (unit, better) in DERIVED.items()]
    return specs


def _slots():
    """(container, key, value, where) for every module-level name, attribute
    of a noncent class, and entry of a module-level dict in noncent."""
    for mod in _noncent_modules():
        for key, value in list(vars(mod).items()):
            where = f"{mod.__name__}.{key}"
            yield mod, key, value, where
            inner = None
            if isinstance(value, type) and value.__module__.startswith("noncent"):
                inner = vars(value)
            elif isinstance(value, dict):
                inner = value
            for k, v in list((inner or {}).items()):
                yield value, k, v, f"{where}[{k!r}]"


def _store(container, key, value):
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


def _hidden(fn: FunctionType) -> list:
    """Objects held by a function's defaults and closure cells."""
    out = list(fn.__defaults__ or ())
    for cell in fn.__closure__ or ():
        try:
            out.append(cell.cell_contents)
        except ValueError:  # empty cell
            pass
    return out


def unwrapped_references(originals) -> list[str]:
    """Places in noncent that still refer to one of `originals` directly.

    Besides names, class attributes and dict entries, which `install`
    patches, this looks into module-level lists, tuples and sets and into
    function defaults and closures, which it cannot patch.
    """
    ids = {id(fn) for fn in originals}
    found = set()
    for _, _, value, where in _slots():
        held = [value]
        if isinstance(value, (list, tuple, set, frozenset)):
            held += list(value)
        elif isinstance(value, FunctionType) and not hasattr(value, "__wrapped_span__"):
            held += _hidden(value)
        if any(id(v) in ids for v in held):
            found.add(where)
    return sorted(found)


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "raised", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.raised = 0
        self.depth = 0


class Tracer:
    """Span aggregates for the traced functions, summed over traced passes."""

    def __init__(self):
        self.originals = span_targets()
        self.stats = {name: _Stat() for name in self.originals}
        self.stack: list[float] = []
        self.covered = 0.0
        self.pass_walls: list[float] = []
        self._beta_groups: dict[int, object] = {}
        self.distinct_beta_groups = 0
        self.subgroups_found = 0
        self.closures_in_all_subgroups = 0
        self._patches: list[tuple[object, str, object]] = []
        self.wrappers = {name: self._span(name, self._observe(name, fn))
                         for name, fn in self.originals.items()}

    def _observe(self, name, fn):
        if name == BETA:
            groups = self._beta_groups

            @functools.wraps(fn)
            def beta(g, *args, **kwargs):
                groups[id(g)] = g  # held until the pass ends, so ids stay unique
                return fn(g, *args, **kwargs)
            return beta
        if name == ALL_SUBGROUPS:
            closure = self.stats[CLOSURE]

            @functools.wraps(fn)
            def all_subgroups(*args, **kwargs):
                before = closure.calls
                try:
                    subs = fn(*args, **kwargs)
                    self.subgroups_found += len(subs)
                    return subs
                finally:
                    self.closures_in_all_subgroups += closure.calls - before
            return all_subgroups
        return fn

    def _span(self, name, fn):
        st = self.stats[name]
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            st.depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                st.raised += 1
                raise
            finally:
                dt = clock() - t0
                st.depth -= 1
                st.calls += 1
                st.self_s += dt - stack.pop()
                if st.depth == 0:
                    st.total_s += dt
                if stack:
                    stack[-1] += dt
                else:
                    self.covered += dt
        span.__wrapped_span__ = name
        return span

    def install(self) -> None:
        by_id = {id(fn): self.wrappers[name] for name, fn in self.originals.items()}
        for container, key, value, _ in _slots():
            wrapper = by_id.get(id(value))
            if wrapper is not None:
                self._patches.append((container, key, value))
                _store(container, key, wrapper)
        missed = unwrapped_references(self.originals.values())
        if missed:
            self.uninstall()
            raise RuntimeError(f"unwrapped references remain: {missed}")

    def uninstall(self) -> None:
        while self._patches:
            container, key, value = self._patches.pop()
            _store(container, key, value)

    def end_pass(self, seconds: float) -> None:
        self.pass_walls.append(seconds)
        self.distinct_beta_groups += len(self._beta_groups)
        self._beta_groups.clear()

    def metrics(self, untraced_pass_s: float) -> dict[str, float]:
        """Per-pass means over the traced passes (at least one); pass times
        are medians."""
        n = len(self.pass_walls)
        traced_s = sum(self.pass_walls)
        out: dict[str, float] = {}
        for name, unit, _ in metric_specs():
            fn_name, _, stat = name.rpartition(".")
            if fn_name in self.stats and stat in _UNITS:
                value = getattr(self.stats[fn_name], stat)
                out[name] = value // n if stat == "calls" else value / n
        beta_calls = self.stats[BETA].calls
        out[BETA + ".calls_per_group"] = beta_calls / max(self.distinct_beta_groups, 1)
        out[ALL_SUBGROUPS + ".subgroups_per_closure"] = (
            self.subgroups_found / max(self.closures_in_all_subgroups, 1))
        out[ALL_SUBGROUPS + ".raised"] = self.stats[ALL_SUBGROUPS].raised // n
        out["raised"] = sum(st.raised for st in self.stats.values()) // n
        self_sum = sum(st.self_s for st in self.stats.values())
        out["unattributed_s"] = (traced_s - self.covered) / n
        out["coverage"] = self_sum / traced_s
        out["traced_pass_s"] = statistics.median(self.pass_walls)
        out["overhead_s"] = out["traced_pass_s"] - untraced_pass_s
        return out
