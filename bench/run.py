"""Benchmark of bluffsim's serve, bill and detect paths.

    python3 bench/run.py --workload {attack-run,click-flood,detector-sweep} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the program is imported from
``src/``).  The workload's scenario file is generated from ``--seed``; a
fresh worker process then measures whole rounds for ``--seconds`` and checks
the outputs (see worker.py, checks.py).  With ``--trace 1`` the time is split
between a plain worker, whose round time is the base of the tracing
overhead, and a traced worker that yields the per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (counted in rounds) and ``metrics``.  The process
exits non-zero without that line if the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import compileall
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = BENCH / ".scratch"
WORKER_EXTRA_S = 60  # beyond --seconds: one round past the deadline, then the checks

_UNIT_SUFFIXES = (("_pct", "%"), ("_s", "s"), (".s", "s"), ("_us", "us"), ("_mb", "MB"), ("_ratio", "ratio"))


def unit(name: str) -> str:
    """A metric's unit, from its name; unsuffixed names are counts."""
    return next((u for suffix, u in _UNIT_SUFFIXES if name.endswith(suffix)), "count")


def run_worker(workload: str, seed: int, seconds: float, config: Path, run_dir: Path, traced: bool) -> dict:
    mode = "traced" if traced else "plain"
    result_path = run_dir / f"{mode}.json"
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", workload,
        "--config", str(config),
        "--out", str(run_dir / "out"),
        "--seconds", repr(seconds),
        "--seed", str(seed),
        "--result", str(result_path),
    ]
    if traced:
        cmd += ["--traced", "--spans", str(SCRATCH / f"spans-{workload}.csv")]
    proc = subprocess.run(cmd, cwd=ROOT, timeout=seconds + WORKER_EXTRA_S, stdout=subprocess.DEVNULL)
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"{mode} worker failed with exit code {proc.returncode}")
    return json.loads(result_path.read_text())


def ok_rounds(result: dict) -> list:
    return [r for r in result["rounds"] if not r["error"]]


def end_to_end(plain: dict) -> dict:
    ok = ok_rounds(plain)
    windows = [w for r in ok for w in r["serve_windows"]]
    return {
        "setup_s": plain["setup_s"],
        "round_s": statistics.median(r["round_s"] for r in ok),
        "serve_p50_us": statistics.median(p50 for p50, _ in windows),
        "serve_p99_us": statistics.median(p99 for _, p99 in windows),
        "peak_rss_mb": plain["peak_rss_mb"],
    }


def per_layer(plain: dict, traced: dict) -> dict:
    ok = ok_rounds(traced)
    names = ok[0]["layers"]
    metrics = {"config.load_s": traced["config_load_s"]}
    for name in names:
        metrics[name] = statistics.median(r["layers"][name] for r in ok)
    plain_round = statistics.median(r["round_s"] for r in ok_rounds(plain))
    traced_round = statistics.median(r["round_s"] for r in ok)
    metrics["trace.overhead_pct"] = (traced_round / plain_round - 1.0) * 100.0
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")

    package = ROOT / "src" / "bluffsim"
    if not (package / "__init__.py").is_file():
        print(f"error: program source not found at {package}", file=sys.stderr)
        return 2
    # Bytecode is compiled here, outside any timer, so that every run's
    # set-up measures the same cold import, the first run in a checkout too.
    compileall.compile_dir(str(package), quiet=1)

    run_dir = SCRATCH / f"{args.workload}-{args.seed}-{'traced' if args.trace else 'plain'}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = run_dir / "scenario.yaml"
    config.write_text(workloads.config_yaml(args.workload, args.seed))
    try:
        if args.trace:
            plain = run_worker(args.workload, args.seed, args.seconds / 2, config, run_dir, traced=False)
            traced = run_worker(args.workload, args.seed, args.seconds / 2, config, run_dir, traced=True)
            runs = (plain, traced)
        else:
            plain = run_worker(args.workload, args.seed, args.seconds, config, run_dir, traced=False)
            runs = (plain,)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(len(r["rounds"]) for r in runs)
    failed = sum(1 for r in runs for rnd in r["rounds"] if rnd["error"])
    for r in runs:
        for rnd in r["rounds"]:
            if rnd["error"]:
                print(f"failed round ({r['mode']}): {rnd['error'].strip()}", file=sys.stderr)
    if not all(ok_rounds(r) for r in runs):
        print("error: every round of a worker failed", file=sys.stderr)
        return 1
    checks = plain.get("checks")
    correct = bool(checks) and not any(checks.values())
    for name, problems in (checks or {}).items():
        print(f"check {name}: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"    {p}")

    values = per_layer(plain, traced) if args.trace else end_to_end(plain)
    metrics = {name: {"value": v, "unit": unit(name)} for name, v in values.items()}
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:>14.6g} {m['unit']}")
    print(f"rounds attempted {attempted}, failed {failed}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
