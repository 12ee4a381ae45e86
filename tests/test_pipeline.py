"""``pipeline.run`` streams the event stream to disk in one pass: its files
equal the in-memory path's, a failed run leaves nothing behind, and its
memory does not grow with the events it writes.  Every ``sweep``, on the
detector side or the traffic side, streams through the same pass, validates
every value before any traffic runs, serves nothing when given no values
and serves consecutive values that leave the traffic unchanged once.  The
broker's own impression counts, which the bluff impression share is worked
out from, equal the impressions of the event stream."""

import tracemalloc

import pytest

from bluffsim import detection, pipeline, traffic
from bluffsim.broker import ConfigError
from bluffsim.config import PRESETS, load_config
from bluffsim.domain import MS_PER_DAY, AdKind, EventType, StreamCheck, StreamViolation
from bluffsim.metrics import economics
from bluffsim.pipeline import build_broker, run, run_scenario, sweep, write_outputs
from bluffsim.traffic import _sessions, build_population
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


def stream_impressions(events) -> tuple:
    """(decoy, real) impression events of a stream, counted from the stream."""
    decoys = real = 0
    for e in events:
        if e.etype is EventType.IMPRESSION:
            if e.ad_kind is AdKind.REAL:
                real += 1
            else:
                decoys += 1
    return decoys, real


# Every preset at seeds 0-2 as it stands, then with no decoys and with
# every slot a decoy.
BROKER_COUNT_CASES = [(preset, seed, None) for preset in sorted(PRESETS) for seed in range(3)]
BROKER_COUNT_CASES += [(preset, 0, rho) for rho in (0.0, 1.0) for preset in sorted(PRESETS)]


@pytest.mark.parametrize("preset, seed, rho", BROKER_COUNT_CASES)
def test_broker_impression_counts_equal_the_stream(preset, seed, rho):
    cfg = load_config(preset)
    cfg.seed = seed
    cfg.horizon_days = 1
    if rho is not None:
        cfg.injection.rho = rho
    res = run_scenario(cfg)
    decoys, real = stream_impressions(res.events)
    assert res.broker.decoy_impressions == decoys
    assert sum(qs.impressions for qs in res.broker.quality.values()) == real
    share = decoys / (decoys + real) if decoys + real else 0.0
    assert res.summary_values()["bluff_impression_share"] == share
    if rho is not None:
        assert share == rho


def test_broker_that_served_nothing_has_no_bluff_share():
    econ = economics(build_broker(small_config()), {})
    assert econ.bluff_impression_share == 0.0
    assert econ.bluff_slot_overhead_micros == 0


def test_failed_stream_check_leaves_no_files(tmp_path, monkeypatch):
    class FailingCheck(StreamCheck):
        def feed(self, events):
            super().feed(events)
            self.violations.append(StreamViolation(0, "injected"))

    monkeypatch.setattr(pipeline, "StreamCheck", FailingCheck)
    with pytest.raises(ValueError, match="first at index 0: injected"):
        run(small_config(horizon_days=1), tmp_path)
    assert list(tmp_path.iterdir()) == []


# What the peak of a run, or of a sweep, may gain with the
# horizon.  The ledger keeps one entry per charged click (about 112 bytes
# under CPython 3.11: the slotted entry, its list slot and its timestamp int)
# and the page-view schedule one int per page view (about 36 bytes); both are
# allowed, with headroom.  Per-agent and per-IP state (detection evidence,
# click windows, memoised JSON strings, relevance rows) is bounded by the
# population, not the horizon, but a longer run sees more of it: the fixed
# slack covers that.  An events list would cost at least 150 bytes per event
# (an 8-field tuple, its page-id int and a list slot), and a run makes about
# four events per page view and eight per charged click.
LEDGER_ENTRY_BYTES = 120
PAGE_VIEW_BYTES = 48
SLACK_BYTES = 256 * 1024


def peak_growth_and_allowance(call) -> tuple:
    """The tracemalloc peak of ``call(cfg)`` at 4 days less that at 1 day,
    and what the ledger, the page-view schedule and the slack allow."""
    call(small_config(horizon_days=1))  # first-call allocations, untraced
    peak, ledger, views = {}, {}, {}
    for days in (1, 4):
        cfg = small_config(horizon_days=days)
        tracemalloc.start()
        try:
            call(cfg)
            peak[days] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ledger[days] = len(run_scenario(cfg).broker.ledger.entries)
        agents, _ = build_population(cfg.mix, cfg.topic_dim, cfg.seed)
        sessions = _sessions(agents, cfg.behavior, days * MS_PER_DAY, cfg.diurnal, cfg.seed)
        views[days] = sum(len(arrivals) for _, arrivals in sessions)
    allowance = (
        LEDGER_ENTRY_BYTES * (ledger[4] - ledger[1]) + PAGE_VIEW_BYTES * (views[4] - views[1]) + SLACK_BYTES
    )
    return peak[4] - peak[1], allowance


def test_run_peak_memory_does_not_grow_with_horizon(tmp_path):
    growth, allowance = peak_growth_and_allowance(lambda cfg: run(cfg, tmp_path))
    assert growth <= allowance


@pytest.mark.parametrize(
    "param,values", [("detector.fusion_threshold", [0.3, 0.5, 0.7]), ("injection.rho", [0.0, 0.1, 0.3])]
)
def test_sweep_peak_memory_does_not_grow_with_horizon(param, values):
    growth, allowance = peak_growth_and_allowance(lambda cfg: sweep(cfg, param, values))
    assert growth <= allowance


def counting_serve(monkeypatch) -> list:
    """Patch ``traffic._serve`` where bound with a wrapper that records each
    call's arguments, and return that record."""
    served = []

    def counting(*args):
        served.append(args)
        return serve(*args)

    serve = traffic._serve
    monkeypatch.setattr(traffic, "_serve", counting)
    monkeypatch.setattr(pipeline, "_serve", counting)
    return served


@pytest.mark.parametrize("param", ["detector.p0", "injection.rho"])
def test_empty_sweep_serves_nothing(tmp_path, monkeypatch, param):
    served = counting_serve(monkeypatch)
    assert sweep(small_config(horizon_days=1), param, [], tmp_path) == []
    assert served == []
    assert (tmp_path / "sweep_summary.csv").read_text().splitlines() == [
        "param,value," + ",".join(pipeline.SUMMARY_METRICS)
    ]


def test_repeated_traffic_values_share_one_pass(monkeypatch):
    served = counting_serve(monkeypatch)
    rows = sweep(small_config(horizon_days=2), "injection.rho", [0.1, 0.1, 0.1])
    assert len(served) == 1
    assert rows[0] == rows[1] == rows[2]


@pytest.mark.parametrize("param,values", [("injection.rho", [0.1, 1.5]), ("detector.p0", [0.02, 1.5])])
def test_sweep_validates_every_value_before_serving(monkeypatch, param, values):
    served = counting_serve(monkeypatch)
    with pytest.raises(ConfigError, match=param.split(".")[1]):
        sweep(small_config(horizon_days=1), param, values)
    assert served == []


def counting_scores(monkeypatch):
    """Count the calls of the decoy test, the profile divergence and the
    threshold-curve build where a run or a sweep calls them."""
    calls = dict.fromkeys(("binom_tail_pvalue", "profile_divergence", "threshold_curve"), 0)
    for module, name in ((detection, "binom_tail_pvalue"), (detection, "profile_divergence"), (pipeline, "threshold_curve")):

        def counting(*args, _fn=getattr(module, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


def test_sweep_scores_once_per_scoring_setting(monkeypatch):
    calls = counting_scores(monkeypatch)
    cfg = small_config(horizon_days=1)
    run_scenario(cfg)
    once = dict(calls)
    assert once["binom_tail_pvalue"] > 0 and once["threshold_curve"] == 1

    # Sixteen fusion thresholds share one scoring and one curve.
    calls.update(dict.fromkeys(calls, 0))
    sweep(cfg, "detector.fusion_threshold", [round(0.2 + 0.05 * i, 2) for i in range(16)])
    assert calls == once

    # Two distinct p0 values score twice, the repeat not at all.
    calls.update(dict.fromkeys(calls, 0))
    sweep(cfg, "detector.p0", [0.02, 0.005, 0.02])
    assert calls == {name: 2 * n for name, n in once.items()}
