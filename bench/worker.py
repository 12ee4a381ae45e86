"""One measuring process: cold set-up, then whole rounds until time is up.

    python3 bench/worker.py --workload W --config CFG.yaml --out DIR \
        --seconds S --seed N --result RESULT.json [--traced --spans SPANS.csv]

Plain mode times each round and each ``Broker.serve_page`` call (one timer
pair per page), records the process's peak RSS after the last round, and then
checks the outputs.  Traced mode wraps the layers (see tracer.py) and reports
per-layer metrics instead.  Every time is probe-scaled (see probe.py).

Nothing from the program or from YAML is imported before the set-up timer
starts, so set-up is cold: import, load_config on the workload's YAML,
validate and broker construction.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import sys
import threading
import time
import traceback
from pathlib import Path

import workloads
from probe import SpeedSampler

MIN_ROUNDS = 2  # determinism compares two rounds
# Serve latency percentiles are taken per window of this many consecutive
# pages (50 pages beyond p99) and reported as the median over windows: a
# burst of host noise then spoils a few windows instead of moving the whole
# run's tail.
SERVE_WINDOW = 5000
SRC = Path(__file__).resolve().parent.parent / "src"


def _stray_activity() -> str:
    """Threads or child processes besides this one's main thread; with them
    about, the probe no longer measures this process's speed."""
    if threading.active_count() != 1:
        return f"{threading.active_count()} Python threads"
    tasks = os.listdir("/proc/self/task")
    if len(tasks) != 1:
        return f"{len(tasks)} OS threads"
    children = Path(f"/proc/self/task/{tasks[0]}/children").read_text().split()
    if children:
        return f"child processes {children}"
    return ""


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _close_windows(latencies: list) -> list:
    """(p50, p99) of each full window of SERVE_WINDOW consecutive pages; the
    pages of an unfinished window stay in the list for the next round."""
    full = len(latencies) - len(latencies) % SERVE_WINDOW
    windows = []
    for k in range(0, full, SERVE_WINDOW):
        window = sorted(latencies[k : k + SERVE_WINDOW])
        windows.append((_percentile(window, 0.50), _percentile(window, 0.99)))
    del latencies[:full]
    return windows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    sampler = SpeedSampler()
    sampler.start()
    try:
        result, check = _measure(args, sampler)
    finally:
        sampler.stop()
    if check is not None:
        result["checks"] = check()
    Path(args.result).write_text(json.dumps(result))
    return 0


def _measure(args, sampler: SpeedSampler) -> tuple:
    """Set-up and rounds; returns the result record and, in plain mode, the
    output check to run once sampling has stopped."""
    # -- cold set-up ---------------------------------------------------------
    mark = sampler.mark()
    sys.path.insert(0, str(SRC))
    import bluffsim  # noqa: E402  (timed: part of set-up)
    import bluffsim.pipeline  # noqa: E402

    tracer = None
    if args.traced:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    cfg = bluffsim.config.load_config(args.config)
    cfg.validate()
    bluffsim.pipeline.build_broker(cfg)
    setup_raw, setup_factor = sampler.interval(mark)
    config_load_s = tracer.total("config.load_config") * setup_factor if tracer else None

    round_fn, digest = workloads.make_round(args.workload, bluffsim.pipeline, cfg, Path(args.out))

    # -- serve latency timer (plain mode only) -----------------------------------
    serve_us = []
    broker_cls = bluffsim.broker.Broker
    original_serve = broker_cls.__dict__["serve_page"]
    if tracer is None:
        perf_ns = time.perf_counter_ns
        append = serve_us.append

        def timed_serve_page(self, *a, **kw):
            probe0 = sampler.probe_total_ns
            t = perf_ns()
            slate = original_serve(self, *a, **kw)
            append((perf_ns() - t - (sampler.probe_total_ns - probe0)) * sampler.speed / 1e3)
            return slate

        broker_cls.serve_page = timed_serve_page

    # -- rounds ----------------------------------------------------------------
    rounds = []
    digests = []
    last = None
    spans_written = False
    loop_start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - loop_start < args.seconds:
        last = None
        gc.collect()
        if tracer:
            tracer.reset()
        error = ""
        mark = sampler.mark()
        try:
            last = round_fn()
        except Exception:  # noqa: BLE001 - a failed round is counted, not fatal
            error = traceback.format_exc(limit=3)
        raw, factor = sampler.interval(mark)
        error = error or _stray_activity()
        rec = {"raw_s": raw, "round_s": raw * factor, "speed": factor, "error": error}
        if not error:
            if tracer:
                rec["layers"] = tracer_mod.layer_metrics(tracer, factor)
                if args.spans and not spans_written:
                    _write_spans(args.spans, tracer.spans)
                    spans_written = True
            else:
                rec["serve_windows"] = _close_windows(serve_us)
            digests.append(digest(last))
        else:
            serve_us.clear()
        rounds.append(rec)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
    broker_cls.serve_page = original_serve

    result = {
        "mode": "traced" if tracer else "plain",
        "setup_s": setup_raw * setup_factor,
        "setup_raw_s": setup_raw,
        "config_load_s": config_load_s,
        "peak_rss_mb": peak_rss_mb,
        "rounds": rounds,
    }
    check = None
    if tracer is None and last is not None:

        def check():
            return workloads.check_outputs(args.workload, bluffsim, args.config, last, digests, args.seed)

    return result, check


def _write_spans(path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("span_id,name,start_s,end_s,parent_id\n")
        for span_id, name, start, end, parent in spans:
            fh.write(f"{span_id},{name},{start:.6f},{end:.6f},{parent}\n")


if __name__ == "__main__":
    sys.exit(main())
