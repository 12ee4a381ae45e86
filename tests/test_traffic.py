import functools
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from bluffsim import traffic
from bluffsim.broker import ConfigError
from bluffsim.config import load_config
from bluffsim.domain import (
    MAX_DWELL_MS,
    MS_PER_DAY,
    MS_PER_HOUR,
    AdKind,
    AdUnit,
    Agent,
    AgentKind,
    EventType,
    RelevanceCache,
    basis_vector,
    event_sort_key,
    relevance,
    validate_event_stream,
)
from bluffsim.pipeline import build_broker, run, run_scenario
from bluffsim.rng import SplitMix64
from bluffsim.traffic import (
    BehaviorParams,
    TrafficMix,
    build_population,
    decide_clicks,
    run_traffic,
)
from conftest import small_config, weighted_index

D = 16


def agent_of(kind, profile=None, index=0):
    return Agent(
        agent_id=f"t{index:04d}",
        kind=kind,
        profile=profile or basis_vector(D, 0),
        ip="10.9.9.9",
        index=index,
    )


def bluff_a_for(profile):
    # Orthogonal decoy: content in a coordinate the profile does not touch.
    free = min(i for i, w in enumerate(profile) if w == 0.0)
    return AdUnit("ba-test", AdKind.BLUFF_A, profile, basis_vector(D, free))


def real_for(topic):
    t = basis_vector(D, topic)
    return AdUnit(f"ad-{topic}", AdKind.REAL, t, t, bid_micros=100, advertiser_id=f"a{topic}")


# -- click model -----------------------------------------------------------------


class FixedDraw:
    """An RNG stub whose every ``random()`` draw is ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def benign_clicks_at(content, draw):
    """Whether a benign user with interests on topic 0 clicks an ad with
    ``content`` when the click draw is ``draw``."""
    ad = AdUnit("ad-x", AdKind.REAL, content, content, bid_micros=100, advertiser_id="ax")
    agent = agent_of(AgentKind.BENIGN)
    return decide_clicks(agent, [ad], BehaviorParams(), FixedDraw(draw), RelevanceCache()) == [0]


def test_benign_click_prob_floor_and_ceiling():
    # Relevance 0 clicks with exactly accidental_rate, relevance 1 with base_ctr.
    for content, p in ((basis_vector(D, 1), 0.002), (basis_vector(D, 0), 0.05)):
        assert benign_clicks_at(content, math.nextafter(p, 0.0))
        assert not benign_clicks_at(content, p)


def test_benign_click_prob_affine_midpoint():
    # Relevance 0.5 against topic 0: halfway between floor and ceiling.
    content = (1.0, 1.0, 1.0, 1.0) + (0.0,) * (D - 4)
    assert relevance(basis_vector(D, 0), content) == 0.5
    assert benign_clicks_at(content, 0.026 * (1 - 1e-12))
    assert not benign_clicks_at(content, 0.026 * (1 + 1e-12))


def test_view_bot_never_clicks():
    rng = SplitMix64.for_stream(1, 1)
    slate = [real_for(0), real_for(1), bluff_a_for(basis_vector(D, 0))]
    agent = agent_of(AgentKind.VIEW_BOT)
    for _ in range(200):
        assert decide_clicks(agent, slate, BehaviorParams(), rng, RelevanceCache()) == []


def test_perfect_dictionary_skips_all_type_a():
    b = BehaviorParams(dictionary_skill=1.0, accidental_rate=0.0)
    agent = agent_of(AgentKind.DICTIONARY_BOT)
    slate = [bluff_a_for(agent.profile) for _ in range(4)]
    rng = SplitMix64.for_stream(2, 1)
    rel = RelevanceCache()
    for _ in range(500):
        assert decide_clicks(agent, slate, b, rng, rel) == []


def test_random_bot_click_rate_law_of_large_numbers():
    rng = SplitMix64.for_stream(3, 1)
    agent = agent_of(AgentKind.RANDOM_BOT)
    slate = [real_for(i % 10) for i in range(10)]
    rel = RelevanceCache()
    b = BehaviorParams()
    clicks = 0
    for _ in range(1000):  # 10,000 served ads
        clicks += len(decide_clicks(agent, slate, b, rng, rel))
    assert abs(clicks / 10_000 - 0.3) <= 0.01


def test_harvester_clicks_only_matching_content():
    b = BehaviorParams(bot_click_rate=1.0)
    profile = basis_vector(D, 3)
    agent = agent_of(AgentKind.PROFILE_HARVESTER, profile=profile)
    matching = real_for(3)
    non_matching = real_for(7)
    rng = SplitMix64.for_stream(4, 1)
    out = decide_clicks(agent, [matching, non_matching], b, rng, RelevanceCache())
    assert out == [0]


def test_harvester_never_touches_type_a():
    b = BehaviorParams(bot_click_rate=1.0)
    profile = basis_vector(D, 3)
    agent = agent_of(AgentKind.PROFILE_HARVESTER, profile=profile)
    out = decide_clicks(agent, [bluff_a_for(profile)], b, rng=SplitMix64.for_stream(5, 1), rel=RelevanceCache())
    assert out == []


def test_benign_type_a_click_rate_at_accidental_floor():
    # Orthogonal decoy content: click probability is exactly alpha; the
    # empirical rate over 1e5 trials must sit within 3 sigma of it.
    b = BehaviorParams()
    agent = agent_of(AgentKind.BENIGN)
    slate = [bluff_a_for(agent.profile)]
    rng = SplitMix64.for_stream(6, 1)
    rel = RelevanceCache()
    n = 100_000
    clicks = sum(len(decide_clicks(agent, slate, b, rng, rel)) for _ in range(n))
    alpha = b.accidental_rate
    sigma = math.sqrt(alpha * (1 - alpha) / n)
    assert abs(clicks / n - alpha) <= 3 * sigma


def test_unknown_agent_kind_rejected():
    class FakeKind:
        pass

    agent = Agent("x", FakeKind(), basis_vector(D, 0), "10.0.0.1", 0)
    with pytest.raises(ValueError):
        decide_clicks(agent, [real_for(0)], BehaviorParams(), SplitMix64.for_stream(1, 1), RelevanceCache())


def reference_clicks(agent, slate, behavior, rng):
    """Brute force: the kind tested on every slot in one if-chain, relevance
    recomputed from the ad's content for every served ad (no cache) and the
    benign click probability spelled out."""
    clicked = []
    kind = agent.kind
    for slot, ad in enumerate(slate):
        r = relevance(agent.profile, ad.content)
        if kind is AgentKind.BENIGN:
            a = behavior.accidental_rate
            if rng.random() < a + (behavior.base_ctr - a) * r:
                clicked.append(slot)
        elif kind in (AgentKind.RANDOM_BOT, AgentKind.TRAINED_BOT):
            if rng.random() < behavior.bot_click_rate:
                clicked.append(slot)
        elif kind is AgentKind.DICTIONARY_BOT:
            if ad.kind is AdKind.BLUFF_A:
                p = (
                    behavior.accidental_rate
                    if rng.random() < behavior.dictionary_skill
                    else behavior.bot_click_rate
                )
            else:
                p = behavior.bot_click_rate
            if rng.random() < p:
                clicked.append(slot)
        elif kind is AgentKind.PROFILE_HARVESTER:
            if r >= behavior.harvest_threshold:
                if rng.random() < behavior.bot_click_rate:
                    clicked.append(slot)
        elif kind is AgentKind.VIEW_BOT:
            continue
        else:
            raise ValueError(f"unknown agent kind {kind}")
    return clicked


@functools.cache
def click_test_world():
    """A broker and a roster of four agents of every kind, in cohort order."""
    cfg = small_config()
    mix = TrafficMix(
        n_benign=4,
        n_random_bot=4,
        n_trained_bot=4,
        n_dictionary_bot=4,
        n_profile_harvester=4,
        n_view_bot=4,
    )
    targeting = {c.advertiser_id: c.targeting for c in cfg.campaigns}
    agents, _ = build_population(mix, cfg.topic_dim, 5, campaign_targeting=targeting)
    return build_broker(cfg), agents


# A slate entry: a real ad by index, or a decoy of either type drawn with a seed.
_SLATE = st.lists(
    st.tuples(st.sampled_from(("real", "bluff_a", "bluff_b")), st.integers(0, 1 << 32)),
    min_size=1,
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(
    pages=st.lists(st.tuples(st.integers(0, 23), _SLATE, st.integers(0, 1 << 32)), min_size=1, max_size=6),
    base_ctr=st.floats(0.3, 1.0),
    harvest_threshold=st.floats(0.0, 1.0),
    dictionary_skill=st.floats(0.0, 1.0),
)
def test_decide_clicks_matches_brute_force_reference(pages, base_ctr, harvest_threshold, dictionary_skill):
    broker, agents = click_test_world()
    assert {a.kind for a in agents} == set(AgentKind)
    reals = sorted(ad_id for ad_id, ad in broker.ads.items() if ad.kind is AdKind.REAL)
    b = BehaviorParams(
        base_ctr=base_ctr,
        accidental_rate=0.1,
        harvest_threshold=harvest_threshold,
        bot_click_rate=0.7,
        dictionary_skill=dictionary_skill,
    )
    rel = RelevanceCache()  # shared across pages and profiles, as in a run
    for who, entries, click_seed in pages:
        agent = agents[who]
        slate = []
        for kind, seed in entries:
            draw = SplitMix64(seed)
            if kind == "real":
                slate.append(broker.ads[reals[draw.randrange(len(reals))]])
            elif kind == "bluff_a":
                slate.append(broker.make_bluff_a(agent.profile, draw))
            else:
                slate.append(broker.make_bluff_b(draw))
        got = decide_clicks(agent, slate, b, SplitMix64(click_seed), rel)
        assert got == reference_clicks(agent, slate, b, SplitMix64(click_seed))


# -- population -----------------------------------------------------------------


def test_population_zero_total_rejected():
    with pytest.raises(ConfigError):
        build_population(TrafficMix(n_benign=0, n_random_bot=0, n_trained_bot=0), D, seed=1)


def test_population_benign_ips_unique_bots_shared():
    mix = TrafficMix(n_benign=20, n_random_bot=8, n_trained_bot=0, ip_sharing_factor=4)
    agents, ip_regions = build_population(mix, D, seed=1)
    benign_ips = [a.ip for a in agents if a.kind is AgentKind.BENIGN]
    bot_ips = [a.ip for a in agents if a.kind is AgentKind.RANDOM_BOT]
    assert len(set(benign_ips)) == 20
    assert len(set(bot_ips)) == 2  # 8 bots / 4 per IP
    assert set(ip_regions) == set(benign_ips) | set(bot_ips)


def test_population_bot_ips_continue_past_65536_groups():
    # Group 65,536 opens 172.17.0.0; earlier groups keep their 172.16 address.
    mix = TrafficMix(n_benign=1, n_random_bot=65_537, n_trained_bot=0, ip_sharing_factor=1)
    agents, _ = build_population(mix, D, seed=0)
    bot_ips = [a.ip for a in agents if a.kind is AgentKind.RANDOM_BOT]
    assert len(set(bot_ips)) == 65_537
    assert bot_ips[0] == "172.16.0.0"
    assert bot_ips[65_535] == "172.16.255.255"
    assert bot_ips[65_536] == "172.17.0.0"


@pytest.mark.parametrize(
    "mix",
    [
        TrafficMix(n_benign=(1 << 24) + 1, n_random_bot=0, n_trained_bot=0),
        TrafficMix(n_benign=1, n_random_bot=(1 << 20) + 1, n_trained_bot=0, ip_sharing_factor=1),
        TrafficMix(n_benign=1, n_random_bot=1 << 21, n_trained_bot=1, ip_sharing_factor=2),
    ],
)
def test_population_beyond_address_space_rejected(mix):
    with pytest.raises(ConfigError, match="mix"):
        build_population(mix, D, seed=0)


def test_population_at_address_space_limit_validates():
    TrafficMix(n_benign=1 << 24, n_random_bot=0, n_trained_bot=0).validate(D)
    TrafficMix(n_benign=1, n_random_bot=1 << 21, n_trained_bot=0, ip_sharing_factor=2).validate(D)


def test_population_ids_stable_when_view_bots_added():
    mix = TrafficMix(n_benign=10, n_random_bot=2, n_trained_bot=2)
    base, _ = build_population(mix, D, seed=3)
    mix_v = TrafficMix(n_benign=10, n_random_bot=2, n_trained_bot=2, n_view_bot=5)
    extended, _ = build_population(mix_v, D, seed=3, campaign_targeting={"adv": basis_vector(D, 0)})
    for a, b in zip(base, extended):
        assert (a.agent_id, a.kind, a.profile, a.ip) == (b.agent_id, b.kind, b.profile, b.ip)
    assert sum(1 for a in extended if a.kind is AgentKind.VIEW_BOT) == 5


# -- sessions ---------------------------------------------------------------------


def flat_diurnal():
    return tuple(1.0 for _ in range(24))


def test_zero_horizon_means_no_sessions():
    agents, _ = build_population(TrafficMix(n_benign=1, n_random_bot=0, n_trained_bot=0), D, 1)
    assert list(traffic._sessions(agents, BehaviorParams(), 0, flat_diurnal(), seed=1)) == []


def test_empty_population_rejected():
    cfg = small_config()
    cfg.mix.n_benign = cfg.mix.n_random_bot = cfg.mix.n_trained_bot = 0
    with pytest.raises(ConfigError, match="mix"):
        run_traffic(cfg, build_broker(cfg))


def test_benign_poisson_page_volume():
    # 1000 benign agents, 7 days, 2 sessions/day, 3 pages/session:
    # page views within 5% of 42,000.
    mix = TrafficMix(n_benign=1000, n_random_bot=0, n_trained_bot=0)
    agents, _ = build_population(mix, D, seed=2)
    sessions = traffic._sessions(agents, BehaviorParams(), 7 * MS_PER_DAY, flat_diurnal(), seed=2)
    pages = sum(len(arrivals) for _, arrivals in sessions)
    expected = 1000 * 2.0 * 7 * 3
    assert abs(pages - expected) / expected < 0.05


def test_arrivals_strictly_increasing_within_session():
    mix = TrafficMix(n_benign=50, n_random_bot=5, n_trained_bot=5)
    agents, _ = build_population(mix, D, seed=4)
    sessions = list(traffic._sessions(agents, BehaviorParams(), 2 * MS_PER_DAY, flat_diurnal(), seed=4))
    # Agent by agent, each agent's sessions by start.
    starts = [(agent.index, arrivals[0]) for agent, arrivals in sessions]
    assert starts == sorted(starts)
    for _, arrivals in sessions:
        assert all(a < b for a, b in zip(arrivals, arrivals[1:]))


def test_random_bot_arrivals_uniform_ks():
    mix = TrafficMix(n_benign=0, n_random_bot=100, n_trained_bot=0)
    agents, _ = build_population(mix, D, seed=5)
    horizon = 7 * MS_PER_DAY
    sessions = traffic._sessions(agents, BehaviorParams(), horizon, flat_diurnal(), seed=5)
    starts = [arrivals[0] / horizon for _, arrivals in sessions]
    assert len(starts) >= 10_000
    stat = stats.kstest(starts, "uniform").statistic
    assert stat < 0.05


def test_trained_bot_hours_match_diurnal_curve():
    # Skewed curve; chi-square of trained-bot session-start hours against it
    # must not reject at p > 0.01 with n ~ 1e4.
    curve = tuple(0.2 if h < 8 else (2.0 if h < 16 else 1.0) for h in range(24))
    mix = TrafficMix(n_benign=0, n_random_bot=0, n_trained_bot=100)
    agents, _ = build_population(mix, D, seed=6)
    counts = [0] * 24
    for _, arrivals in traffic._sessions(agents, BehaviorParams(), 7 * MS_PER_DAY, curve, seed=6):
        counts[(arrivals[0] // MS_PER_HOUR) % 24] += 1
    n = sum(counts)
    assert n >= 10_000
    total_w = sum(curve)
    expected = [n * w / total_w for w in curve]
    result = stats.chisquare(counts, f_exp=expected)
    assert result.pvalue > 0.01


# Uneven hours: empty at both ends, fractional weights whose running sums
# round in binary.
UNEVEN_DIURNAL = (0.0, 0.0, 0.1, 0.3, 0.7, 1.1, 2.5, 0.05, 1.9, 3.3, 0.45, 2.2,
                  1.0, 0.9, 0.1, 1.7, 2.9, 0.6, 1.25, 1 / 3, 0.8, 1.6, 0.0, 0.0)


def test_hour_draw_matches_weighted_index():
    draw = traffic._hour_draw(UNEVEN_DIURNAL)
    for seed in range(20):
        rng, ref = SplitMix64.for_stream(seed, 9), SplitMix64.for_stream(seed, 9)
        hours = [draw(rng) for _ in range(500)]
        assert hours == [weighted_index(ref, UNEVEN_DIURNAL) for _ in range(500)]
        assert {0, 1, 22, 23}.isdisjoint(hours)
    # Draws at each running sum's share of the total, either side of it, and
    # 1.0, which no SplitMix64 draw reaches: both pick the last hour there.
    edges = [0.0, 1.0, 1.0 - 2**-53]
    running = 0.0
    total = sum(UNEVEN_DIURNAL)
    for w in UNEVEN_DIURNAL:
        running += w
        u = running / total
        edges += [u, math.nextafter(u, 0.0), math.nextafter(u, 1.0)]
    for u in edges:
        assert draw(FixedDraw(u)) == weighted_index(FixedDraw(u), UNEVEN_DIURNAL)
    assert draw(FixedDraw(1.0)) == 23


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from((0.0, 0.0, 0.1, 0.25, 1 / 3, 0.7, 1.0, 2.5, 1e-9)), min_size=1, max_size=30).filter(any),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_hour_draw_matches_weighted_index_on_any_weights(weights, u):
    assert traffic._hour_draw(weights)(FixedDraw(u)) == weighted_index(FixedDraw(u), weights)


def reference_sessions(agents, behavior, horizon_ms, diurnal, seed):
    """``traffic._sessions`` drawing each session's hour with
    ``weighted_index``, which sums the weights on every call."""
    days = horizon_ms // MS_PER_DAY
    for agent in agents:
        rng = SplitMix64.for_stream(seed, traffic.STREAM_TRAFFIC, instance=agent.index)
        rate = traffic._session_rate(agent.kind, behavior)
        starts = []
        if agent.kind in traffic._MIMIC_KINDS:
            for day in range(days):
                for _ in range(rng.poisson(rate)):
                    hour = weighted_index(rng, diurnal)
                    starts.append(day * MS_PER_DAY + hour * MS_PER_HOUR + rng.randrange(MS_PER_HOUR))
        else:
            starts = [rng.randrange(horizon_ms) for _ in range(rng.poisson(rate * (horizon_ms / MS_PER_DAY)))]
        for start in sorted(starts):
            arrivals = [start]
            for _ in range(behavior.pages_per_session - 1):
                arrivals.append(arrivals[-1] + max(1, int(round(rng.expovariate(behavior.page_gap_ms)))))
            yield agent, tuple(arrivals)


def test_sessions_on_uneven_diurnal_match_weighted_index_reference():
    mix = TrafficMix(n_benign=60, n_random_bot=5, n_trained_bot=5, n_dictionary_bot=5, n_profile_harvester=5)
    agents, _ = build_population(mix, D, seed=8)
    behavior = BehaviorParams()
    got = list(traffic._sessions(agents, behavior, 3 * MS_PER_DAY, UNEVEN_DIURNAL, seed=8))
    assert got == list(reference_sessions(agents, behavior, 3 * MS_PER_DAY, UNEVEN_DIURNAL, 8))
    hours = {(arrivals[0] // MS_PER_HOUR) % 24 for agent, arrivals in got if agent.kind is AgentKind.BENIGN}
    assert len(hours) >= 15 and hours <= {h for h, w in enumerate(UNEVEN_DIURNAL) if w > 0}


# -- end-to-end traffic ------------------------------------------------------------


def test_traffic_stream_validates_and_counts(tmp_path):
    cfg = small_config()
    res = run_scenario(cfg)
    assert validate_event_stream(res.events) == []
    n_imp = sum(1 for e in res.events if e.etype is EventType.IMPRESSION)
    n_clk = len(res.events) - n_imp
    assert n_imp > 0 and 0 < n_clk < n_imp
    # slates never exceed the slot count
    assert max(e.slot for e in res.events) < cfg.slots_per_page


def test_traffic_deterministic_repeat():
    r1 = run_scenario(small_config(seed=99))
    r2 = run_scenario(small_config(seed=99))
    assert r1.events == r2.events
    assert r1.truth == r2.truth


def test_view_bots_add_impressions_never_clicks():
    cfg = small_config(seed=7)
    base = run_scenario(cfg)
    cfg_v = small_config(seed=7)
    cfg_v.mix.n_view_bot = 10
    withv = run_scenario(cfg_v)
    view_agents = {a for a, k in withv.truth.items() if k is AgentKind.VIEW_BOT}
    assert not any(
        e.agent_id in view_agents and e.etype is EventType.CLICK for e in withv.events
    )
    n_imp_base = sum(1 for e in base.events if e.etype is EventType.IMPRESSION)
    n_imp_view = sum(1 for e in withv.events if e.etype is EventType.IMPRESSION)
    assert n_imp_view > n_imp_base
    # other agents' page arrivals are untouched by the added cohort
    # (slate contents may shift through shared quality state)
    def pages(events, exclude):
        return {
            (e.t, e.agent_id, e.page_id)
            for e in events
            if e.etype is EventType.IMPRESSION and e.agent_id not in exclude
        }

    assert pages(base.events, view_agents) == pages(withv.events, view_agents)


def one_day_attack():
    cfg = load_config("default-attack")
    cfg.horizon_days = 1
    return cfg


def test_click_delays_within_dwell_bound():
    # The broker drops a page MAX_DWELL_MS after it was served, so no click
    # may come later than that.
    cfg = one_day_attack()
    events, _, _ = run_traffic(cfg, build_broker(cfg))
    served = {}
    delays = []
    for e in events:
        key = (e.agent_id, e.page_id, e.ad_id)
        if e.etype is EventType.IMPRESSION:
            served[key] = e.t
        else:
            delays.append(e.t - served[key])
    assert len(delays) > 1000
    assert 1 <= min(delays) and max(delays) <= MAX_DWELL_MS


def most_page_views(cfg):
    agents, _ = build_population(cfg.mix, cfg.topic_dim, cfg.seed)
    views = {}
    horizon_ms = cfg.horizon_days * MS_PER_DAY
    for agent, arrivals in traffic._sessions(agents, cfg.behavior, horizon_ms, cfg.diurnal, cfg.seed):
        views[agent.agent_id] = views.get(agent.agent_id, 0) + len(arrivals)
    return max(views.values())


def test_pages_per_agent_limit_raises_config_error(monkeypatch):
    cfg = one_day_attack()
    events, _, _ = run_traffic(cfg, build_broker(cfg))
    most = most_page_views(cfg)
    monkeypatch.setattr(traffic, "MAX_PAGES_PER_AGENT", most)
    assert run_traffic(cfg, build_broker(cfg))[0] == events
    monkeypatch.setattr(traffic, "MAX_PAGES_PER_AGENT", most - 1)
    with pytest.raises(ConfigError, match=r"horizon_days.*behavior\.pages_per_session"):
        run_traffic(cfg, build_broker(cfg))


def test_pages_per_agent_limit_stops_a_streamed_run_without_leftovers(monkeypatch, tmp_path):
    # pipeline.run is writing events.jsonl when the limit stops the serve loop.
    cfg = one_day_attack()
    monkeypatch.setattr(traffic, "MAX_PAGES_PER_AGENT", most_page_views(cfg) - 1)
    with pytest.raises(ConfigError, match="MAX_PAGES_PER_AGENT|page views"):
        run(cfg, tmp_path)
    assert not (tmp_path / "events.jsonl").exists()
    assert list(tmp_path.glob("*.tmp")) == []


def test_emitted_order_is_event_sort_key_order_with_cross_page_ties():
    # Trained bots crowd one diurnal hour in sessions of pages 1-2 ms apart
    # and click nearly every ad, so pages share a millisecond with other
    # pages and with clicks, and the tie groups need sorting.
    cfg = small_config(horizon_days=1)
    cfg.mix.n_benign = 20
    cfg.mix.n_random_bot = 0
    cfg.mix.n_trained_bot = 20
    cfg.behavior.bot_click_rate = 0.9
    cfg.behavior.bot_sessions_per_day = 60.0
    cfg.behavior.pages_per_session = 10
    cfg.behavior.page_gap_ms = 2.0
    cfg.diurnal = tuple(1.0 if h == 9 else 0.0 for h in range(24))
    events, _, _ = run_traffic(cfg, build_broker(cfg))
    page_ties = click_ties = 0
    for _, group in itertools.groupby(events, key=lambda e: e.t):
        group = list(group)
        pages = {(e.agent_id, e.page_id) for e in group}
        shown = {(e.agent_id, e.page_id) for e in group if e.etype is EventType.IMPRESSION}
        page_ties += len(shown) > 1
        click_ties += len(pages) > 1 and any(e.etype is EventType.CLICK for e in group)
    assert page_ties > 0 and click_ties > 0
    assert events == sorted(events, key=event_sort_key)
