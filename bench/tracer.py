"""Layer tracing from outside the program.

The traced run replaces the public functions of the layer modules (config,
rng, traffic, broker, detection, metrics, pipeline) and the few methods the
layer metrics need with wrappers, and puts the originals back afterwards.
Modules bind imported names locally (``detection`` holds its own
``validate_event_stream`` and ``relevance``), so every binding of a function
in every ``bluffsim`` module is replaced, all by the same wrapper.

Timed wrappers keep per-function call counts, total and self time (total
minus the time of wrapped callees), and record spans (name, start, end,
parent) up to ``SPAN_CAP`` per name and round; calls beyond the cap are
still counted and timed.  Functions called once per ad or per relevance
lookup get a count-only wrapper: timing them would cost more than the work.
"""

from __future__ import annotations

import sys
import time
import types
from collections import defaultdict

LAYER_MODULES = ("config", "rng", "traffic", "broker", "detection", "metrics", "pipeline")
# Core-vocabulary functions the layer metrics need, wrapped wherever bound.
EXTRA_FUNCTIONS = (("domain", "relevance"), ("domain", "validate_event_stream"))
TIMED_METHODS = (
    ("broker", "Broker", ("serve_page", "rank_ads", "record_click", "make_bluff_a", "make_bluff_b", "catalog")),
    ("rng", "SplitMix64", ("for_stream",)),
)
COUNTED_METHODS = (
    ("broker", "Broker", ("score",)),
    ("domain", "RelevanceCache", ("get",)),
    ("detection", "Blacklist", ("add",)),
)
COUNTED_FUNCTIONS = frozenset({"domain.relevance", "traffic.benign_click_prob"})
SPAN_CAP = 8
PACKAGE = "bluffsim"


class Tracer:
    """Wraps the layers on ``install``, restores them on ``uninstall``;
    ``reset`` starts a new round's counts, times and spans."""

    def __init__(self):
        self._saved = []  # (owner, attribute, original object)
        self.reset()

    # -- per-round state ---------------------------------------------------------

    def reset(self) -> None:
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total_s, self_s]
        self.counters = defaultdict(int)
        self.spans = []  # (span_id, name, start_s, end_s, parent_id)
        self._span_counts = defaultdict(int)
        self._child = []  # per open timed call: time spent in wrapped callees
        self._open = [0]  # ids of open recorded spans; 0 is the round itself
        self._in_lookup = 0
        self._t0 = time.perf_counter()

    # -- wrappers ----------------------------------------------------------------

    def _timed(self, name: str, fn, observe=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stat = tracer.stats[name]
            record = tracer._span_counts[name] < SPAN_CAP
            if record:
                tracer._span_counts[name] += 1
                span_id = len(tracer.spans) + 1
                parent = tracer._open[-1]
                tracer.spans.append(None)  # reserve the id, filled at exit
                tracer._open.append(span_id)
            tracer._child.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                dt = t1 - t0
                child = tracer._child.pop()
                if tracer._child:
                    tracer._child[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
                if record:
                    tracer._open.pop()
                    tracer.spans[span_id - 1] = (span_id, name, t0 - tracer._t0, t1 - tracer._t0, parent)
            if observe is not None:
                observe(tracer.counters, args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        tracer = self

        if name == "domain.relevance":
            # Counted as a computation only when a cache lookup misses.
            def wrapper(*args, **kwargs):
                tracer.stats[name][0] += 1
                if tracer._in_lookup:
                    tracer.counters["relevance_computed"] += 1
                return fn(*args, **kwargs)

        elif name == "domain.RelevanceCache.get":

            def wrapper(*args, **kwargs):
                tracer.stats[name][0] += 1
                tracer._in_lookup += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._in_lookup -= 1

        else:

            def wrapper(*args, **kwargs):
                tracer.stats[name][0] += 1
                return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall -----------------------------------------------------------

    def _module(self, short: str):
        return sys.modules[f"{PACKAGE}.{short}"]

    def install(self) -> None:
        """Replace every binding; idempotence is not supported."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original function) -> wrapper
        for short in LAYER_MODULES:
            mod = self._module(short)
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    name = f"{short}.{attr}"
                    wrappers[id(obj)] = self._wrap(name, obj)
        for short, attr in EXTRA_FUNCTIONS:
            obj = getattr(self._module(short), attr)
            wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._replace(mod, attr, wrapper)

        for specs, timed in ((TIMED_METHODS, True), (COUNTED_METHODS, False)):
            for short, cls_name, methods in specs:
                cls = getattr(self._module(short), cls_name)
                for attr in methods:
                    raw = cls.__dict__[attr]
                    name = f"{short}.{cls_name}.{attr}"
                    if isinstance(raw, classmethod):
                        inner = self._timed(name, raw.__func__) if timed else self._counted(name, raw.__func__)
                        self._replace(cls, attr, classmethod(inner))
                    else:
                        observe = _OBSERVERS.get(name)
                        inner = self._timed(name, raw, observe) if timed else self._counted(name, raw)
                        self._replace(cls, attr, inner)

    def _wrap(self, name: str, fn):
        if name in COUNTED_FUNCTIONS:
            return self._counted(name, fn)
        return self._timed(name, fn, _OBSERVERS.get(name))

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- results ---------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def total(self, name: str) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def self_time(self, name: str) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def module_self_time(self, short: str) -> float:
        return sum(s[2] for name, s in self.stats.items() if name.startswith(short + "."))


# -- observers: counts read off arguments and results -----------------------------


def _observe_run_traffic(counters, args, result):
    events = result[0]
    counters["traffic_events"] += len(events)
    counters["traffic_clicks"] += sum(1 for e in events if e.etype.value == "click")


def _observe_record_click(counters, args, result):
    if result > 0:
        counters["clicks_charged"] += 1


def _observe_run_detection(counters, args, result):
    counters["events_scanned"] += len(args[0])


def _observe_write_outputs(counters, args, result):
    for path in (result.events_path, result.truth_path, result.verdicts_path, result.summary_path, result.config_path):
        counters["bytes_written"] += path.stat().st_size


_OBSERVERS = {
    "traffic.run_traffic": _observe_run_traffic,
    "broker.Broker.record_click": _observe_record_click,
    "detection.run_detection": _observe_run_detection,
    "pipeline.write_outputs": _observe_write_outputs,
}


def layer_metrics(t: Tracer, factor: float) -> dict:
    """Per-layer metrics of one traced round; times scaled by ``factor``."""
    lookups = t.calls("domain.RelevanceCache.get")
    computed = t.counters["relevance_computed"]
    recorded = t.calls("broker.Broker.record_click")
    charged = t.counters["clicks_charged"]
    return {
        "rng.streams": t.calls("rng.SplitMix64.for_stream"),
        "rng.stream_s": t.total("rng.SplitMix64.for_stream") * factor,
        "traffic.population_s": t.total("traffic.build_population") * factor,
        "traffic.plan_s": t.total("traffic.plan_sessions") * factor,
        "traffic.decide_s": t.total("traffic.decide_clicks") * factor,
        "traffic.loop_self_s": t.self_time("traffic.run_traffic") * factor,
        "traffic.page_views": t.calls("broker.Broker.serve_page"),
        "traffic.events": t.counters["traffic_events"],
        "traffic.clicks": t.counters["traffic_clicks"],
        "broker.serve_s": t.total("broker.Broker.serve_page") * factor,
        "broker.rank_s": t.total("broker.Broker.rank_ads") * factor,
        "broker.ads_scored": t.calls("broker.Broker.score"),
        "broker.relevance_lookups": lookups,
        "broker.relevance_computed": computed,
        "broker.relevance_hit_ratio": 1.0 - computed / lookups if lookups else 0.0,
        "broker.decoys_served": t.calls("broker.Broker.make_bluff_a") + t.calls("broker.Broker.make_bluff_b"),
        "broker.record_click_s": t.total("broker.Broker.record_click") * factor,
        "broker.clicks_recorded": recorded,
        "broker.clicks_charged": charged,
        "broker.charged_ratio": charged / recorded if recorded else 0.0,
        "detection.run_s": t.total("detection.run_detection") * factor,
        "detection.passes": t.calls("detection.run_detection"),
        "detection.events_scanned": t.counters["events_scanned"],
        "detection.validate_s": t.total("domain.validate_event_stream") * factor,
        "detection.pvalue_calls": t.calls("detection.binom_tail_pvalue"),
        "detection.pvalue_s": t.total("detection.binom_tail_pvalue") * factor,
        "detection.profile_s": t.total("detection.profile_divergence") * factor,
        "detection.loop_self_s": t.self_time("detection.run_detection") * factor,
        "detection.blacklist_adds": t.calls("detection.Blacklist.add"),
        "metrics.s": t.module_self_time("metrics") * factor,
        "metrics.economics_s": t.total("metrics.economics") * factor,
        "pipeline.write_s": t.total("pipeline.write_outputs") * factor,
        "pipeline.bytes_written": t.counters["bytes_written"],
        "pipeline.traffic_passes": t.calls("traffic.run_traffic"),
    }
