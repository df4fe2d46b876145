"""Outside-in tracer: wraps named oamsim functions from the benchmark's side.

No code inside ``src/`` is changed.  ``Tracer.install`` replaces each target
function by a wrapper in every ``oamsim`` module namespace that holds it,
including module-level dicts such as ``cli._HANDLERS`` (``dynamics`` imports
``polarization_tensor`` by name, so patching ``am_core`` alone would miss
those calls).  Each call records a span ``[name, parent, start, end]``; self
time is a span's duration minus the time its child spans cover.  A target
that no longer exists in the program is reported as absent, never as an
error.
"""

import functools
import importlib
import inspect
import sys
import threading
import time
from contextlib import contextmanager

# Functions wrapped in a traced run, as "<module>.<function>" under oamsim.
TARGETS = (
    "am_core.polarization_tensor",
    "am_core.polarization_vector",
    "am_core.expi_hermitian",
    "am_core.build_operators",
    "dynamics.initial_state",
    "dynamics._series_from_states",
    "dynamics._state_diagnostics",
    "dynamics._propagate",
    "dynamics._interval_unitaries",
    "dynamics.evolve_oracle",
    "dynamics.oracle_vs_closed_form",
    "dynamics.closed_form",
    "dynamics.write_series_csv",
    "dynamics.series_to_dict",
    "dynamics.resonance_scan",
    "cli.cmd_simulate",
    "cli.cmd_scan",
    "cli.scenario_from_config",
    "config.load_config",
    "ring_config.frozen_setup",
    "moments.moment_set",
)

# Counters kept beside the spans; all are sums, so summaries merge by addition.
COUNTERS = ("interval_bytes", "interval_substeps", "useful_substeps",
            "oracle_runs", "refinement_levels", "accepted_substeps")

ROOT_SPAN = "bench.op"


def _oamsim_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "oamsim" or name.startswith("oamsim."))]


class Tracer:
    """Span recorder over the functions named in TARGETS."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans = []              # [name, parent index, start, end, extra]
        self.absent = []
        self.hook_errors = 0
        self._local = threading.local()
        self._patches = []           # (namespace, key, original)
        self.external = []           # summaries from traced child processes

    # -- installation -----------------------------------------------------
    def install(self):
        for target in self.targets:
            mod_name, func_name = target.split(".", 1)
            try:
                module = importlib.import_module(f"oamsim.{mod_name}")
            except ImportError:
                self.absent.append(target)
                continue
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, original)
            for mod in _oamsim_modules():
                namespace = vars(mod)
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patch(namespace, key, original, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._patch(value, k, original, wrapper)
        return self

    def _patch(self, namespace, key, original, wrapper):
        namespace[key] = wrapper
        self._patches.append((namespace, key, original))

    def uninstall(self):
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    # -- spans ------------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        idx = len(self.spans)
        self.spans.append([name, stack[-1] if stack else -1, time.perf_counter(), 0.0, None])
        stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name=ROOT_SPAN):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, target, fn):
        hook = _HOOKS.get(target)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(target)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.spans[idx][4] = hook(bound.arguments, result)
                except Exception:      # a changed signature must not fail the op
                    self.hook_errors += 1
            return result

        return wrapper

    # -- aggregation ------------------------------------------------------
    def summary(self):
        """Per-function calls/self time plus counters, merged with child summaries."""
        return merge([self._own_summary()] + self.external)

    def _own_summary(self):
        n = len(self.spans)
        child = [0.0] * n
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        driven = {self._ancestor(i, "dynamics.evolve_oracle")
                  for i, span in enumerate(self.spans)
                  if span[0] == "dynamics._interval_unitaries"}
        funcs = {}
        counters = dict.fromkeys(COUNTERS, 0)
        total = 0.0
        for i, (name, parent, start, end, extra) in enumerate(self.spans):
            dur = end - start
            if name == ROOT_SPAN:
                total += dur
                continue
            entry = funcs.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += dur - child[i]
            if name == "dynamics._interval_unitaries" and extra:
                counters["interval_bytes"] += extra["bytes"]
                counters["interval_substeps"] += extra["substeps"]
            if name == "dynamics.evolve_oracle" and extra:
                counters["oracle_runs"] += 1
                counters["refinement_levels"] += extra["levels"]
                counters["accepted_substeps"] += extra["n_substeps"]
                if i in driven:
                    counters["useful_substeps"] += extra["intervals"] * extra["n_substeps"]
        return {"funcs": funcs, "counters": counters, "root_s": total,
                "absent": sorted(self.absent), "hook_errors": self.hook_errors}

    def _ancestor(self, idx, name):
        """Index of the nearest enclosing span called name, or -1."""
        idx = self.spans[idx][1]
        while idx >= 0 and self.spans[idx][0] != name:
            idx = self.spans[idx][1]
        return idx


def merge(summaries):
    """Sum several summaries (one per fresh-process command, for example)."""
    out = {"funcs": {}, "counters": dict.fromkeys(COUNTERS, 0), "root_s": 0.0,
           "absent": [], "hook_errors": 0}
    absent = set()
    for s in summaries:
        for name, entry in s["funcs"].items():
            acc = out["funcs"].setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += entry["calls"]
            acc["self_s"] += entry["self_s"]
        for key, value in s["counters"].items():
            out["counters"][key] += value
        out["root_s"] += s["root_s"]
        out["hook_errors"] += s["hook_errors"]
        absent.update(s["absent"])
    out["absent"] = sorted(absent)
    return out


def _interval_hook(arguments, result):
    scn, ops, n_sub = arguments["scn"], arguments["ops"], arguments["n_sub"]
    intervals = int(scn.steps) - 1
    dim = int(ops.dim)
    return {"substeps": intervals * int(n_sub),
            # complex128 unitaries the layer computes before its reduction
            "bytes": intervals * int(n_sub) * dim * dim * 16}


def _oracle_hook(arguments, result):
    series = result[0] if isinstance(result, tuple) else result
    diag = getattr(series, "diagnostics", None) or {}
    return {"levels": int(diag.get("refinement_levels") or 0),
            "n_substeps": int(diag.get("n_substeps") or 0),
            "intervals": int(arguments["scn"].steps) - 1}


_HOOKS = {
    "dynamics._interval_unitaries": _interval_hook,
    "dynamics.evolve_oracle": _oracle_hook,
}
