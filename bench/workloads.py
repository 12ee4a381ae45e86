"""The benchmark's workloads: each one's YAML input, its round, and the
checks its outputs get.

A round is one call of the program's public API on the workload's config,
always the same call with the same inputs within one run, so every round does
identical work and the rounds of a run can be compared with each other
(determinism) and pooled (medians).

    attack-run      pipeline.run on the stock default-attack scenario, writing
                    all five output files: the read-heavy serving loop.
    click-flood     run_scenario in memory on a bot-heavy mix: the billing and
                    budget path and the detector's window scan and blacklist.
                    Writes no files.
    detector-sweep  pipeline.sweep over detector.fusion_threshold on
                    dictionary-attack: one traffic pass, then one detection
                    and metrics pass per threshold.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

# Simulated days per round.  attack-run needs five: its output must meet the
# detection floor (recall >= 0.9 at precision >= 0.95), and with four days
# the trained bots' evidence is thin enough that some seeds land on recall
# 0.90 exactly (seed 7).  The other two are sized to a round of a few seconds.
ATTACK_DAYS = 5
FLOOD_DAYS = 2
SWEEP_DAYS = 1

SWEEP_PARAM = "detector.fusion_threshold"
SWEEP_VALUES = tuple(round(0.2 + 0.05 * i, 2) for i in range(16))  # 0.20 .. 0.95

_YAML = {
    "attack-run": (
        "preset: default-attack\n"
        "seed: {seed}\n"
        f"horizon_days: {ATTACK_DAYS}\n"
    ),
    "click-flood": (
        "preset: default-attack\n"
        "seed: {seed}\n"
        f"horizon_days: {FLOOD_DAYS}\n"
        "mix:\n"
        "  n_benign: 100\n"
        "  n_random_bot: 240\n"
        "  n_trained_bot: 0\n"
        "  ip_sharing_factor: 8\n"
        "behavior:\n"
        "  bot_click_rate: 0.5\n"
    ),
    "detector-sweep": (
        "preset: dictionary-attack\n"
        "seed: {seed}\n"
        f"horizon_days: {SWEEP_DAYS}\n"
    ),
}

WORKLOADS = tuple(_YAML)


def config_yaml(workload: str, seed: int) -> str:
    """The workload's scenario file.  Only the scenario seed depends on the
    benchmark seed; the population and horizon are fixed, so every seed asks
    for the same amount of work up to sampling noise."""
    return _YAML[workload].format(seed=seed % (1 << 64))


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def result_digest(result) -> str:
    """Digest of an in-memory run: every event, verdict, charge and summary
    value, in order."""
    h = hashlib.sha256()
    for e in result.events:
        h.update(repr((e.t, e.etype.value, e.agent_id, e.ip, e.page_id, e.ad_id, e.ad_kind.value, e.slot)).encode())
    for agent_id in sorted(result.reports):
        r = result.reports[agent_id]
        h.update(repr((agent_id, r.s_bluff, r.s_thresh, r.s_profile, r.fused, r.flagged)).encode())
    for entry in result.broker.ledger.entries:
        h.update(repr((entry.t, entry.advertiser_id, entry.ad_id, entry.amount_micros, entry.agent_id)).encode())
    h.update(repr(sorted(result.summary_values().items())).encode())
    return h.hexdigest()


def rows_digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def make_round(workload: str, pipeline, cfg, out_dir: Path):
    """The round function and a digest of its output, for determinism."""
    if workload == "attack-run":

        def round_fn():
            return pipeline.run(cfg, out_dir)

        def digest(outputs):
            return file_digest(
                [outputs.events_path, outputs.truth_path, outputs.verdicts_path, outputs.summary_path, outputs.config_path]
            )

    elif workload == "click-flood":

        def round_fn():
            return pipeline.run_scenario(cfg)

        digest = result_digest

    elif workload == "detector-sweep":

        def round_fn():
            return pipeline.sweep(cfg, SWEEP_PARAM, SWEEP_VALUES)

        digest = rows_digest

    else:
        raise ValueError(f"unknown workload {workload}")
    return round_fn, digest


def check_outputs(workload: str, bluffsim, config_path: str, last, digests: list, seed: int) -> dict:
    """Every output check that applies to the workload, on the last round's
    outputs; name -> problems."""
    import checks  # imports YAML, so not before set-up is timed

    results = {"determinism": checks.check_determinism(digests)}
    if workload == "attack-run":
        outputs = checks.outputs_from_files(last.out_dir)
        results.update(checks.check_all(outputs, detection_floor=True))
    elif workload == "click-flood":
        results.update(checks.check_all(checks.outputs_from_result(last)))
    else:
        index = seed % len(SWEEP_VALUES)  # the row re-run as a separate full scenario
        ref_cfg = bluffsim.load_config(config_path)
        ref_cfg.detector.fusion_threshold = float(SWEEP_VALUES[index])
        reference = bluffsim.pipeline.run_scenario(ref_cfg)
        results["sweep"] = checks.check_sweep(last, SWEEP_VALUES, reference.summary_values(), index)
        results.update(checks.check_all(checks.outputs_from_result(reference)))
    return results
