"""``pipeline.run`` streams the event stream to disk in one pass: its files
equal the in-memory path's, a failed run leaves nothing behind, and its
memory does not grow with the events it writes."""

import tracemalloc

import pytest

from bluffsim import pipeline
from bluffsim.config import PRESETS, load_config
from bluffsim.domain import MS_PER_DAY, StreamCheck, StreamViolation
from bluffsim.pipeline import run, run_scenario, write_outputs
from bluffsim.traffic import build_population, plan_sessions
from conftest import small_config

FILES = ("events.jsonl", "truth.csv", "verdicts.csv", "summary.csv", "config.yaml")


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_streamed_run_files_equal_in_memory_run(tmp_path, preset, seed):
    cfg = load_config(preset)
    cfg.seed = seed
    cfg.horizon_days = 1
    run(cfg, tmp_path / "streamed")
    write_outputs(run_scenario(cfg), tmp_path / "in_memory")
    for name in FILES:
        assert (tmp_path / "streamed" / name).read_bytes() == (tmp_path / "in_memory" / name).read_bytes(), name


def test_failed_stream_check_leaves_no_files(tmp_path, monkeypatch):
    class FailingCheck(StreamCheck):
        def feed(self, events):
            super().feed(events)
            self.violations.append(StreamViolation(0, "injected"))

    monkeypatch.setattr(pipeline, "StreamCheck", FailingCheck)
    with pytest.raises(ValueError, match="first at index 0: injected"):
        run(small_config(horizon_days=1), tmp_path)
    assert list(tmp_path.iterdir()) == []


# What the peak of a run may gain with the horizon.  The ledger keeps one
# entry per charged click (about 144 bytes under CPython 3.11: the entry,
# its __dict__ and its timestamp int) and the page-view schedule one int per
# page view (about 36 bytes); both are allowed, with headroom.  Per-agent and
# per-IP state (detection evidence, click windows, memoised JSON strings,
# relevance rows) is bounded by the population, not the horizon, but a
# longer run sees more of it: the fixed slack covers that.  An events list
# would cost at least 150 bytes per event (an 8-field tuple, its page-id int
# and a list slot), and a run makes about four events per page view and
# eight per charged click.
LEDGER_ENTRY_BYTES = 160
PAGE_VIEW_BYTES = 48
SLACK_BYTES = 256 * 1024


def test_run_peak_memory_does_not_grow_with_horizon(tmp_path):
    run(small_config(horizon_days=1), tmp_path)  # first-call allocations, untraced
    peak, ledger, views = {}, {}, {}
    for days in (1, 4):
        cfg = small_config(horizon_days=days)
        tracemalloc.start()
        try:
            run(cfg, tmp_path)
            peak[days] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ledger[days] = len(run_scenario(cfg).broker.ledger.entries)
        agents, _ = build_population(cfg.mix, cfg.topic_dim, cfg.seed)
        plans = plan_sessions(agents, cfg.behavior, days * MS_PER_DAY, cfg.diurnal, cfg.seed)
        views[days] = sum(len(p.arrivals) for p in plans)
    allowance = (
        LEDGER_ENTRY_BYTES * (ledger[4] - ledger[1]) + PAGE_VIEW_BYTES * (views[4] - views[1]) + SLACK_BYTES
    )
    assert peak[4] - peak[1] <= allowance
