"""Run-to-run spread of the end-to-end metrics, raw against probe-scaled.

    python3 bench/noise_study.py --workload attack-run --seeds 0,1,2,3,4 --seconds 30

Runs one plain worker per seed, one after another, exactly as ``run.py
--trace 0`` does, and prints each run's medians with and without the probe
scaling, then the spread of each metric over the runs: the distance between
the first and third quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import shutil
import statistics

import run
import workloads


def _spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _raw(plain: dict) -> dict:
    ok = run.ok_rounds(plain)

    # Latencies are scaled page by page; dividing by the round's mean speed
    # factor approximates the unscaled percentile.
    windows = [(p50 / r["speed"], p99 / r["speed"]) for r in ok for p50, p99 in r["serve_windows"]]
    return {
        "setup_s": plain["setup_raw_s"],
        "round_s": statistics.median(r["raw_s"] for r in ok),
        "serve_p50_us": statistics.median(p50 for p50, _ in windows),
        "serve_p99_us": statistics.median(p99 for _, p99 in windows),
        "peak_rss_mb": plain["peak_rss_mb"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seeds", required=True, help="comma-separated seeds")
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)

    raw_runs, scaled_runs = [], []
    for seed in (int(s) for s in args.seeds.split(",")):
        run_dir = run.SCRATCH / f"noise-{args.workload}-{seed}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        config = run_dir / "scenario.yaml"
        config.write_text(workloads.config_yaml(args.workload, seed))
        try:
            plain = run.run_worker(args.workload, seed, args.seconds, config, run_dir, traced=False)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        raw_runs.append(_raw(plain))
        scaled_runs.append(run.end_to_end(plain))
        speeds = [r["speed"] for r in plain["rounds"]]
        print(
            f"seed {seed}: rounds {len(plain['rounds'])}, speed {min(speeds):.3f}-{max(speeds):.3f}, "
            + ", ".join(f"{k} {raw_runs[-1][k]:.4g}/{v:.4g}" for k, v in scaled_runs[-1].items()),
            flush=True,
        )
    if len(raw_runs) >= 2:
        print(f"\n| metric | raw spread | scaled spread | scaled median |  ({args.workload}, {len(raw_runs)} runs)")
        print("|---|---|---|---|")
        for name in scaled_runs[0]:
            raw_values = [r[name] for r in raw_runs]
            scaled_values = [r[name] for r in scaled_runs]
            print(
                f"| {name} | {_spread(raw_values):.1%} | {_spread(scaled_values):.1%} "
                f"| {statistics.median(scaled_values):.4g} |"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
