"""Golden outputs: a fast guard that serve-path and detection changes keep
every output byte identical.

The digests are of 1-day runs at seed 0: default-attack, dictionary-attack
(the heaviest targeted-decoy path), default-attack with an uneven diurnal
curve (every preset's is flat) and a bot-heavy mix with shared bot IPs and
a short budget, and of a dictionary-attack ``fusion_threshold`` sweep's
sweep_summary.csv.  A change that is meant to alter outputs must update
them and say why; any other change that trips these tests altered
behaviour by accident.  The events writer is also
checked line by line against ``json.dumps`` on ids no preset produces, and
the default-attack traffic files against their digests with every
``math.log`` result in ``bluffsim.rng`` moved by a few ulps.
"""

import dataclasses
import functools
import hashlib
import json
import math
import types

import pytest
from hypothesis import given, settings, strategies as st

import bluffsim.rng
from bluffsim import traffic
from bluffsim.config import load_config
from bluffsim.detection import EvidenceScan, ReferenceProfile
from bluffsim.domain import MS_PER_DAY, AdKind, Event, EventType
from bluffsim.pipeline import run, run_scenario, sweep, write_outputs
from conftest import ReferenceEvidenceScan, small_config

GOLDEN_SHA256 = {
    "events.jsonl": "004dee085659f3c31aee41bf3a31977e1c6d0ba5ec0576f27fb1fc9fc48ec05f",
    "truth.csv": "65b73f75f2966546ab9e869ddcd9f88ce398299456ad446a94a1ba51a85fa776",
    "verdicts.csv": "03f8d81a69b70fec30c32e70f5f25d0ab99a7cc249f38187836c5a2b33e05c96",
    "summary.csv": "fed9e42f37641de70ae366e8fca7b4d8899383b49293fffedf3826b262d8394c",
    "config.yaml": "00fedf4760ef25307d431762cb8c809fefbcce0679c3daffaba4c93c3888dae8",
}


def run_digests(cfg, out_dir):
    """sha256 of each of ``run``'s five files, by file name."""
    outputs = run(cfg, out_dir)
    paths = (outputs.events_path, outputs.truth_path, outputs.verdicts_path, outputs.summary_path, outputs.config_path)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def test_one_day_default_attack_outputs_match_golden_digests(tmp_path):
    cfg = load_config("default-attack")
    cfg.seed = 0
    cfg.horizon_days = 1
    assert run_digests(cfg, tmp_path) == GOLDEN_SHA256


def moved_ulps(x: float, ulps: int) -> float:
    """``x`` moved by ``abs(ulps)`` ulps, up for a positive ``ulps`` and down
    for a negative one."""
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        x = math.nextafter(x, toward)
    return x


@pytest.mark.parametrize("ulps", [1, -1, 8, -8, 64, -64])
def test_traffic_outputs_hold_when_rng_log_moves_by_ulps(tmp_path, monkeypatch, ulps):
    """Traffic does not hang on the host libm's last digits: with every
    ``math.log`` result in ``bluffsim.rng`` moved by 2^k ulps, the page gaps
    and Poisson counts it draws, and so events.jsonl and truth.csv, keep
    their golden digests."""
    calls = []

    def log(x):
        calls.append(x)
        return moved_ulps(math.log(x), ulps)

    monkeypatch.setattr(bluffsim.rng, "math", types.SimpleNamespace(log=log))
    cfg = load_config("default-attack")
    cfg.seed = 0
    cfg.horizon_days = 1
    digests = run_digests(cfg, tmp_path)
    assert len(calls) > 1000
    for name in ("events.jsonl", "truth.csv"):
        assert digests[name] == GOLDEN_SHA256[name]


# Overnight trough with empty first and last hours, a morning and an evening peak.
UNEVEN_DIURNAL = (0.0, 0.2, 0.1, 0.1, 0.2, 0.5, 1.0, 1.5, 1.75, 1.25, 1.0, 1.1,
                  1.3, 1.2, 1.0, 0.9, 1.0, 1.4, 2.0, 2.5, 2.25, 1.5, 0.6, 0.0)

MORE_GOLDEN_SHA256 = {
    "dictionary-attack": {
        "events.jsonl": "6666a73f7a6a292d72a9abd7eda13bbc8317e793e480bdad8b26dd4f450c4cfa",
        "truth.csv": "688303be9980fee2bdd0823f265a5928508d821ca3f538296896614c54edde25",
        "verdicts.csv": "5a5fc86a7f91d68b45769ea2b0c6d9da967109fb123095f3683d47f04bc2a20c",
        "summary.csv": "a73195697be21a3dac3f3b91b5dfa81db0333db59b6cefef69ba45935b652212",
        "config.yaml": "d26d71c0d3a9b1713a67f95729ff38ff0ef6af7d52dcfa24a86acd5a139eef0d",
    },
    "default-attack-uneven-diurnal": {
        "events.jsonl": "3a3bbf8ba07181dd515d6f552ff2ceaacdad2eec4ad0a224a1de2b3aee4ce64f",
        "truth.csv": "65b73f75f2966546ab9e869ddcd9f88ce398299456ad446a94a1ba51a85fa776",
        "verdicts.csv": "ebb1f85ee613c686cf55f4da65162df412998473a28f3499ec71e619b97e232c",
        "summary.csv": "c5c848d14b9a305488eef0e9f2115e6a8931a2f76f08467a23cfea37171bf0c4",
        "config.yaml": "7858520a71dc5c87d8dd48c60134b34aa9021bc245253f5c610d1703f774424c",
    },
}


@pytest.mark.parametrize("case", sorted(MORE_GOLDEN_SHA256))
def test_one_day_runs_match_golden_digests(tmp_path, case):
    cfg = load_config(case.removesuffix("-uneven-diurnal"))
    cfg.seed = 0
    cfg.horizon_days = 1
    if case.endswith("-uneven-diurnal"):
        cfg.diurnal = UNEVEN_DIURNAL
    assert run_digests(cfg, tmp_path) == MORE_GOLDEN_SHA256[case]


def bot_heavy_config():
    """One day at seed 0 on the bench's click-flood mix: 100 benign users and
    240 random bots, eight to an IP, clicking at 0.5.  niche00's daily budget
    is cut to 1,000,000 micros, so its clicks are clamped early in the day."""
    cfg = load_config("default-attack")
    cfg.seed = 0
    cfg.horizon_days = 1
    cfg.mix.n_benign = 100
    cfg.mix.n_random_bot = 240
    cfg.mix.n_trained_bot = 0
    cfg.mix.ip_sharing_factor = 8
    cfg.behavior.bot_click_rate = 0.5
    (niche00,) = [c for c in cfg.campaigns if c.advertiser_id == "niche00"]
    niche00.daily_budget_micros = 1_000_000
    return cfg


BOT_HEAVY_SHA256 = {
    "events.jsonl": "18852a49e8cb662c32698f20a170f20fa8f9d4a17b61069d7503fb44c1144fce",
    "truth.csv": "5c4ed9469313cbb4ba9d2b4ab2910425b731b6654cdfa4aafc0d701145dec233",
    "verdicts.csv": "bea14b76810b874e70f81414abc005baceaeba198f7374eafc94411bf84164c6",
    "summary.csv": "8e90eb69e28a695bcdb7bce907ee0a9b6fa171b80b831b994f5e48e87a2993fd",
    "config.yaml": "b9a7ff07b07ec73f999d32f619f3634f2b43950a957317293af0b27d6a6d841e",
}


@functools.cache
def _bot_heavy_result():
    return run_scenario(bot_heavy_config())


def test_one_day_bot_heavy_outputs_match_golden_digests(tmp_path):
    assert run_digests(bot_heavy_config(), tmp_path) == BOT_HEAVY_SHA256


def test_bot_heavy_case_reaches_blacklist_clamp_and_vouching_paths():
    result = _bot_heavy_result()
    assert any(r.blacklisted for r in result.reports.values())
    bids = {ad_id: ad.bid_micros for ad_id, ad in result.broker.ads.items() if ad.kind is AdKind.REAL}
    assert any(e.amount_micros < bids[e.ad_id] for e in result.broker.ledger.entries)
    min_clicks = result.config.detector.min_clicks
    real_clicks: dict = {}
    past_gate = 0
    for e in result.events:
        if e.etype is EventType.CLICK:
            if e.ad_kind is AdKind.REAL:
                real_clicks[e.agent_id] = real_clicks.get(e.agent_id, 0) + 1
            elif e.ad_kind is AdKind.BLUFF_B and real_clicks.get(e.agent_id, 0) >= min_clicks:
                past_gate += 1
    assert past_gate > 0


def test_bot_heavy_counters_match_recounts():
    """``Broker.clicks_clamped``, the decoy counts and ``Evidence.blacklist_adds``,
    recounted from the run's events and ledger and by the reference scan, and
    ``Broker.pages_served``, recounted from the page views ``_sessions`` plans."""
    result = _bot_heavy_result()
    broker = result.broker
    bids = {ad_id: ad.bid_micros for ad_id, ad in broker.ads.items() if ad.kind is AdKind.REAL}
    entries = broker.ledger.entries
    real_clicks = sum(1 for e in result.events if e.etype is EventType.CLICK and e.ad_kind is AdKind.REAL)
    below_bid = sum(1 for e in entries if e.amount_micros < bids[e.ad_id])
    assert broker.clicks_clamped == real_clicks - len(entries) + below_bid > 0

    impressions = [e for e in result.events if e.etype is EventType.IMPRESSION]
    assert broker.decoy_impressions == sum(1 for e in impressions if e.ad_kind is not AdKind.REAL) > 0
    assert broker.bluff_b_impressions == sum(1 for e in impressions if e.ad_kind is AdKind.BLUFF_B) > 0
    assert broker.bluff_b_impressions < broker.decoy_impressions

    cfg = result.config
    targeting = {c.advertiser_id: c.targeting for c in cfg.campaigns}
    agents, _ = traffic.build_population(cfg.mix, cfg.topic_dim, cfg.seed, targeting)
    sessions = traffic._sessions(agents, cfg.behavior, cfg.horizon_days * MS_PER_DAY, cfg.diurnal, cfg.seed)
    planned = sum(len(arrivals) for _, arrivals in sessions)
    # Every planned view is served, including those with an empty slate.
    assert broker.pages_served == planned >= len({(e.agent_id, e.page_id) for e in impressions}) > 0

    # The mix has one region, so no IP -> region map is needed.
    reference_profile = ReferenceProfile.from_config(cfg.diurnal, cfg.mix.region_count)
    args = (cfg.detector, broker.catalog(), None, reference_profile)
    scan = EvidenceScan(*args)
    reference = ReferenceEvidenceScan(*args)
    scan.feed(result.events)
    reference.feed(result.events)
    assert scan.evidence().blacklist_adds == reference.blacklist_adds > 0


SWEEP_GOLDEN_SHA256 = "bac220f5bfe8351507370341d357466000232d542440fca2f71d8dc4b9eb2a99"


def test_one_day_fusion_threshold_sweep_matches_golden_digest(tmp_path):
    """The benchmark's sixteen thresholds (0.20 .. 0.95) and both ends of the
    range; 0.0 is the fused score of most of its agents."""
    cfg = load_config("dictionary-attack")
    cfg.seed = 0
    cfg.horizon_days = 1
    values = [round(0.2 + 0.05 * i, 2) for i in range(16)] + [0.0, 1.0]
    sweep(cfg, "detector.fusion_threshold", values, tmp_path)
    assert hashlib.sha256((tmp_path / "sweep_summary.csv").read_bytes()).hexdigest() == SWEEP_GOLDEN_SHA256


# -- events.jsonl line format ---------------------------------------------------

# Strings a YAML advertiser_id can carry into an ad_id: quotes, backslashes,
# control characters, non-ASCII text; plus any other code point.
_AWKWARD = st.text(
    alphabet=st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7fé漢 \U0001f600'), st.characters()),
    max_size=12,
)
_EVENTS = st.lists(
    st.builds(
        Event,
        st.integers(),
        st.sampled_from(EventType),
        _AWKWARD,
        _AWKWARD,
        st.integers(),
        _AWKWARD,
        st.sampled_from(AdKind),
        st.integers(),
    ),
    max_size=20,
)


@functools.cache
def _small_result():
    return run_scenario(small_config(horizon_days=1))


@settings(max_examples=60, deadline=None)
@given(events=_EVENTS)
def test_events_file_equals_json_dumps_reference(tmp_path_factory, events):
    result = dataclasses.replace(_small_result(), events=events)
    outputs = write_outputs(result, tmp_path_factory.mktemp("events"))
    reference = "".join(
        json.dumps(
            {
                "t": e.t,
                "etype": e.etype.value,
                "agent_id": e.agent_id,
                "ip": e.ip,
                "page_id": e.page_id,
                "ad_id": e.ad_id,
                "ad_kind": e.ad_kind.value,
                "slot": e.slot,
            },
            separators=(",", ":"),
        )
        + "\n"
        for e in events
    )
    assert outputs.events_path.read_bytes() == reference.encode("utf-8")
