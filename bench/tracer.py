"""Per-layer tracing of one `cli.main` call, from outside the package.

`Tracer.install()` rebinds every public function and public method of the
layer modules to a timing wrapper (in each hedgelab module that holds a
reference to it); `uninstall()` puts the originals back.  Nothing under
src/ changes.  Each wrapper keeps, per callable:

* calls, and busy time counted once per outermost call (recursion and
  grouped callables calling each other are not double counted);
* self time: its span minus the spans of wrapped calls made inside it;
* for `update` and `predict`, every call's duration in a preallocated array,
  so medians and p99 come from all rounds, not a sample;
* for `weight_arr` and `phi_arr`, the number of elements passed in.

No callable stores a span per call: counters and running totals live in
memory and are read after the run, which keeps high-rate callables such as
`SleepingRegistry.state` (hundreds of calls per tree round) affordable.  A
wrapped call costs three clock reads and a few attribute updates, about
1.5 us on a 2-vCPU Xeon; the caller is charged for all of it, so wrapper
cost lands in busy times of enclosing spans but not in anyone's self time.
`layer_metrics()` turns the counters into the benchmark's named metrics.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("potential", "fixed", "sleeping", "interval", "tree", "lab", "cli")

# Callables whose busy time is also summed into one group, counted once per
# outermost call: the per-round certificate sweeps and the loss generators.
GROUPS = {
    "fixed.FixedLearner.potential_sum": "fixed.cert_sweep",
    "fixed.FixedLearner.certificate": "fixed.cert_sweep",
    "sleeping.SleepingRegistry.ids": "sleeping.cert_sweep",
    "sleeping.SleepingRegistry.state": "sleeping.cert_sweep",
    "sleeping.SleepingRegistry.potential_sum": "sleeping.cert_sweep",
    "sleeping.SleepingRegistry.certificate": "sleeping.cert_sweep",
    "sleeping.SleepingRegistry.regret_bound": "sleeping.cert_sweep",
    "interval.TvLearner.potential_sum": "interval.cert_sweep",
    "interval.TvLearner.certificate": "interval.cert_sweep",
    "lab.gen_adversarial": "lab.gen",
    "lab.gen_stochastic_gap": "lab.gen",
    "lab.gen_shifting": "lab.gen",
}
ELEMENTS = {"potential.weight_arr", "potential.phi_arr"}
DURATION_METHODS = {"update", "predict"}


class Stat:
    __slots__ = ("calls", "busy", "self_ns", "elems", "depth", "durs", "n")

    def __init__(self, capacity: int = 0):
        self.calls = self.busy = self.self_ns = self.elems = self.depth = self.n = 0
        self.durs = array("q", bytes(8 * capacity)) if capacity else None

    def add_duration(self, dt: int) -> None:
        if self.n == len(self.durs):
            self.durs.extend(array("q", bytes(8 * max(1, self.n))))
        self.durs[self.n] = dt
        self.n += 1

    def durations(self) -> np.ndarray:
        return np.frombuffer(self.durs, dtype=np.int64)[: self.n] if self.durs is not None else np.empty(0)


class Tracer:
    def __init__(self, capacity: int):
        self.capacity = capacity  # expected calls per update/predict method (rounds in the run)
        self.stats: dict[str, Stat] = {}
        self.instances: dict[str, list] = {"TvLearner": [], "SleepingRegistry": []}
        self._stack = [0]
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"hedgelab.{layer}") for layer in LAYERS}
        for layer, mod in modules.items():
            names = ["main"] if layer == "cli" else mod.__all__
            for name in names:
                obj = getattr(mod, name)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._rebind_everywhere(obj, self._wrap(obj, f"{layer}.{name}"))
                elif inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not attr.startswith("_"):
                            key = f"{layer}.{name}.{attr}"
                            self._set(obj, attr, self._wrap(fn, key, attr in DURATION_METHODS))
        for cls in (modules["interval"].TvLearner, modules["sleeping"].SleepingRegistry):
            self._set(cls, "__init__", self._keep_instances(cls.__init__, self.instances[cls.__name__]))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname == "hedgelab" or modname.startswith("hedgelab."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)

    @staticmethod
    def _keep_instances(init, sink: list):
        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            sink.append(self)

        return __init__

    def _stat(self, key: str, capacity: int = 0) -> Stat:
        if key not in self.stats:
            self.stats[key] = Stat(capacity)
        return self.stats[key]

    def _wrap(self, fn, key: str, record_durations: bool = False):
        own = self._stat(key, self.capacity if record_durations else 0)
        group = self._stat(GROUPS[key]) if key in GROUPS else None
        count_elems = key in ELEMENTS
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            t0 = clock()
            if count_elems:
                own.elems += getattr(args[0], "size", 1)
            own.depth += 1
            if group is not None:
                group.depth += 1
            stack.append(0)
            try:
                return fn(*args, **kwargs)
            finally:
                inner = stack.pop()
                dt = clock() - t0
                own.calls += 1
                own.self_ns += dt - inner
                own.depth -= 1
                if own.depth == 0:
                    own.busy += dt
                if own.durs is not None:
                    own.add_duration(dt)
                if group is not None:
                    group.depth -= 1
                    if group.depth == 0:
                        group.calls += 1
                        group.busy += dt
                # Charge the caller for this whole call, bookkeeping included,
                # so that the wrapper's own cost stays out of the caller's self time.
                stack[-1] += clock() - t0

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    # -- derived metrics ---------------------------------------------------

    def _get(self, key: str) -> Stat:
        return self.stats.get(key) or Stat()

    def busy_s(self, key: str) -> float:
        return self._get(key).busy / 1e9

    def self_s(self, key: str) -> float:
        return self._get(key).self_ns / 1e9

    def pct_us(self, key: str, q: float) -> float:
        d = self._get(key).durations()
        return float(np.percentile(d, q)) / 1e3 if d.size else 0.0

    def per_elem_ns(self, key: str) -> float:
        s = self._get(key)
        return s.busy / s.elems if s.elems else 0.0

    def layer_metrics(self) -> dict[str, float]:
        """Named per-layer metrics; a layer that did not run reports 0.

        Call after `uninstall()`, so that reading learner state is not traced.
        """
        tv = self.instances["TvLearner"]
        copies_touched = sum(lr.n * lr.t * (lr.t + 1) // 2 for lr in tv)  # sum over rounds of N*t
        copies_end = sum(lr.n_sleeping for lr in tv)
        live = sum(
            lr.copy_state(tau, i)[0] > -1.0 for lr in tv for tau in range(1, lr.t + 1) for i in range(lr.n)
        )
        tv_update = self._get("interval.TvLearner.update")
        wa = self._get("potential.weight_arr")
        qc = self._get("lab.quantile_competitor")
        return {
            "potential.weight_arr.calls": wa.calls,
            "potential.weight_arr.elems": wa.elems,
            "potential.weight_arr.ns_per_elem": self.per_elem_ns("potential.weight_arr"),
            "potential.phi_arr.ns_per_elem": self.per_elem_ns("potential.phi_arr"),
            "fixed.update.us_p50": self.pct_us("fixed.FixedLearner.update", 50),
            "fixed.update.us_p99": self.pct_us("fixed.FixedLearner.update", 99),
            "fixed.update.busy_s": self.busy_s("fixed.FixedLearner.update"),
            "fixed.cert_sweep.busy_s": self.busy_s("fixed.cert_sweep"),
            "sleeping.update.us_p50": self.pct_us("sleeping.SleepingRegistry.update", 50),
            "sleeping.update.us_p99": self.pct_us("sleeping.SleepingRegistry.update", 99),
            "sleeping.predict.us_p50": self.pct_us("sleeping.SleepingRegistry.predict", 50),
            "sleeping.cert_sweep.busy_s": self.busy_s("sleeping.cert_sweep"),
            "sleeping.ids_registered": sum(reg.seen_count for reg in self.instances["SleepingRegistry"]),
            "interval.update.us_p50": self.pct_us("interval.TvLearner.update", 50),
            "interval.update.us_p99": self.pct_us("interval.TvLearner.update", 99),
            "interval.update.ns_per_copy": tv_update.busy / copies_touched if copies_touched else 0.0,
            "interval.cert_sweep.busy_s": self.busy_s("interval.cert_sweep"),
            "interval.interval_bound.busy_s": self.busy_s("interval.interval_bound"),
            "interval.live_copy_ratio": live / copies_end if copies_end else 0.0,
            "tree.predict.us_p50": self.pct_us("tree.TreeLearner.predict", 50),
            "tree.update.us_p50": self.pct_us("tree.TreeLearner.update", 50),
            "tree.best_pruning.busy_s": self.busy_s("tree.best_pruning"),
            "tree.pruning_certificate.busy_s": self.busy_s("tree.TreeLearner.pruning_certificate"),
            "lab.gen.busy_s": self.busy_s("lab.gen"),
            "lab.play.self_s": self.self_s("lab.play"),
            "lab.hedge.update.us_p50": self.pct_us("lab.HedgeLearner.update", 50),
            "lab.kshift_oracle.busy_s": self.busy_s("lab.kshift_oracle"),
            "lab.quantile_competitor.calls": qc.calls,
            "lab.quantile_competitor.busy_s": qc.busy / 1e9,
            "cli.self_s": self.self_s("cli.main"),
        }
