import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from bluffsim.broker import Broker, Campaign, ConfigError, InjectionConfig, LedgerEntry
from bluffsim.domain import EPSILON_BLUFF, MAX_DWELL_MS, MS_PER_DAY, AdKind, AdUnit, basis_vector, relevance
from bluffsim.rng import SplitMix64
from bluffsim.traffic import TrafficMix, build_population
from conftest import per_advertiser_day

D = 16


def real_ad(ad_id, advertiser, topic, bid):
    t = basis_vector(D, topic)
    return AdUnit(ad_id, AdKind.REAL, t, t, bid_micros=bid, advertiser_id=advertiser)


def make_broker(campaigns, rho=0.0, type_b_share=0.5, seed=1):
    inj = InjectionConfig(rho=rho, type_b_share=type_b_share)
    return Broker(campaigns, inj, topic_dim=D, seed=seed)


def single_ad_campaign(advertiser, topic, bid, budget=10**9):
    ad = real_ad(f"ad-{advertiser}", advertiser, topic, bid)
    return Campaign(advertiser_id=advertiser, ads=[ad], daily_budget_micros=budget)


def remaining_micros(campaign):
    """What the campaign may still be charged today."""
    return campaign.daily_budget_micros - campaign.spent_today_micros


# -- ranking ---------------------------------------------------------------------


def serve(broker, profile, slots, t, page):
    return [ad.ad_id for ad in broker.serve_page(profile, slots, SplitMix64.for_stream(page, 2), t, "u", page)]


def test_rank_prefers_higher_quality_at_equal_bid():
    broker = make_broker([single_ad_campaign("a", 0, 100), single_ad_campaign("b", 0, 100)])
    profile = basis_vector(D, 0)
    assert serve(broker, profile, 1, 0, 0) == ["ad-a"]  # the ad_id tie
    # An impression without a click: q_a = 1/3 vs q_b = 1/2.
    assert [ad.ad_id for ad in broker.rank_ads(profile, slots=2)] == ["ad-b", "ad-a"]
    # Give ad-a a better click record: q_a = 2/3 vs q_b = 1/2.
    broker.record_click("ad-a", 1, "u", 0)
    slate = broker.rank_ads(profile, slots=2)
    assert [ad.ad_id for ad in slate] == ["ad-a", "ad-b"]


def test_rank_excludes_exhausted_budget():
    c = single_ad_campaign("a", 0, 100, budget=500)
    c.spent_today_micros = 500
    broker = make_broker([c, single_ad_campaign("b", 0, 100)])
    slate = broker.rank_ads(basis_vector(D, 0), slots=2)
    assert [ad.ad_id for ad in slate] == ["ad-b"]


def test_rank_hand_computed_score_order():
    # bids (100, 90), q (0.5, 0.6), relevance (1, 1): scores (50, 54).
    a = single_ad_campaign("a", 0, 100, budget=100)
    broker = make_broker([a, single_ad_campaign("b", 0, 90)])
    profile = basis_vector(D, 0)
    # Day 0: ad-a's one click spends its budget, so later pages serve ad-b,
    # which gets 3 impressions and 2 clicks: (2+1)/(3+2) = 0.6.
    assert serve(broker, profile, 1, 0, 0) == ["ad-a"]
    assert broker.record_click("ad-a", 1, "u", 0) == 100
    for page in (1, 2, 3):
        assert serve(broker, profile, 1, page * 10, page) == ["ad-b"]
        if page < 3:
            broker.record_click("ad-b", page * 10 + 1, "u", page)
    # Day 1: the budget is back and ad-a (q 2/3) leads until one more
    # impression without a click brings it to (1+1)/(2+2) = 0.5.
    assert serve(broker, profile, 1, MS_PER_DAY, 4) == ["ad-a"]
    assert (broker.quality["ad-a"].q, broker.quality["ad-b"].q) == (0.5, 0.6)
    slate = broker.rank_ads(profile, slots=2)
    assert [ad.ad_id for ad in slate] == ["ad-b", "ad-a"]


def test_rank_ties_break_by_ad_id():
    broker = make_broker([single_ad_campaign("b", 0, 100), single_ad_campaign("a", 0, 100)])
    slate = broker.rank_ads(basis_vector(D, 0), slots=2)
    assert [ad.ad_id for ad in slate] == ["ad-a", "ad-b"]


def test_rank_drops_an_ad_whose_score_underflows_to_zero():
    # Relevance 5e-324 (the least positive float) puts ad-b in the profile's
    # row; at bid 1 and the fresh quality 1/2 its score rounds to 0.0, so it
    # is not served even with a slot to spare.
    faint = tuple(5e-324 if i == 0 else 1.0 if i == 1 else 0.0 for i in range(D))
    b = AdUnit("ad-b", AdKind.REAL, faint, faint, bid_micros=1, advertiser_id="b")
    broker = make_broker([single_ad_campaign("a", 0, 100), Campaign("b", [b], daily_budget_micros=10**9)])
    profile = basis_vector(D, 0)
    assert relevance(profile, faint) > 0.0 and broker.score(profile, b) == 0.0
    assert [ad.ad_id for ad in broker.rank_ads(profile, slots=2)] == ["ad-a"]


def test_rank_empty_inventory_gives_empty_slate():
    broker = make_broker([single_ad_campaign("a", 1, 100)])
    # Profile orthogonal to all targeting: zero-score ads are not served.
    assert broker.rank_ads(basis_vector(D, 0), slots=4) == []


# -- quality ----------------------------------------------------------------------


def test_quality_laplace_prior():
    broker = make_broker([single_ad_campaign("a", 0, 100)])
    assert broker.quality["ad-a"].q == 0.5


def test_quality_hand_computed():
    broker = make_broker([single_ad_campaign("a", 0, 100)])
    broker.quality["ad-a"].impressions = 1000
    broker.quality["ad-a"].clicks = 10
    assert math.isclose(broker.quality["ad-a"].q, 11 / 1002, rel_tol=1e-12)


def test_quality_view_fraud_effect():
    # (100 clicks, 1000 impressions) then +10k impressions with no clicks.
    broker = make_broker([single_ad_campaign("a", 0, 100)])
    qs = broker.quality["ad-a"]
    qs.impressions, qs.clicks = 1000, 100
    before = broker.quality["ad-a"].q
    qs.impressions += 10_000
    after = broker.quality["ad-a"].q
    assert math.isclose(before, 101 / 1002, rel_tol=1e-12)
    assert math.isclose(after, 101 / 11_002, rel_tol=1e-12)
    assert after < before


def test_quality_monotonicity_exact_formula():
    # q strictly decreases on an impression without a click, and an
    # increment (dc, dn) raises q iff dc/dn exceeds the current q.
    broker = make_broker([single_ad_campaign("a", 0, 100)])
    qs = broker.quality["ad-a"]
    qs.impressions, qs.clicks = 50, 5
    q0 = qs.q
    qs.impressions += 1
    assert qs.q < q0
    q1 = qs.q
    qs.impressions += 1
    qs.clicks += 1  # increment ratio 1 > q1
    assert qs.q > q1


# -- decoy construction -------------------------------------------------------------


def test_bluff_a_orthogonal_for_basis_profile():
    broker = make_broker([single_ad_campaign("a", 0, 100)])
    rng = SplitMix64.for_stream(7, stream=2)
    ad = broker.make_bluff_a(basis_vector(D, 0), rng)
    assert ad.kind is AdKind.BLUFF_A
    assert ad.bid_micros == 0 and ad.advertiser_id is None
    assert relevance(ad.targeting, ad.content) < 0.05


def test_bluff_a_holds_across_generated_population():
    # Every profile the population generator produces admits a valid decoy.
    mix = TrafficMix(
        n_benign=50, n_random_bot=10, n_trained_bot=10, n_dictionary_bot=10,
        n_profile_harvester=10, n_view_bot=0,
    )
    agents, _ = build_population(mix, D, seed=5)
    broker = make_broker([single_ad_campaign("a", 0, 100)])
    rng = SplitMix64.for_stream(5, stream=2)
    for i in range(1000):
        profile = agents[i % len(agents)].profile
        ad = broker.make_bluff_a(profile, rng)
        assert relevance(profile, ad.content) < 0.05


def test_bluff_a_rejects_dense_profile():
    # A strictly positive near-uniform profile has no unrelated direction:
    # cosine against any non-negative content is bounded well above the
    # decoy threshold, so construction must fail loudly.
    broker = make_broker([single_ad_campaign("a", 0, 100)])
    rng = SplitMix64.for_stream(5, stream=2)
    dense = tuple(1.0 / D for _ in range(D))
    with pytest.raises(ConfigError):
        broker.make_bluff_a(dense, rng)


def reference_bluff_a(broker, profile, rng):
    """Brute-force targeted decoy: a fresh unit per call, every draw checked
    with a fresh relevance, as ``make_bluff_a`` did before its memo."""
    pool = broker._bluff_pool
    for _ in range(broker.injection.bluff_pool_size):
        ad_id, content = pool[rng.randrange(len(pool))]
        if relevance(profile, content) < EPSILON_BLUFF:
            return AdUnit(ad_id=ad_id, kind=AdKind.BLUFF_A, targeting=profile, content=content)
    min_topic = min(range(len(profile)), key=lambda i: (profile[i], i))
    content = basis_vector(len(profile), min_topic)
    if relevance(profile, content) >= EPSILON_BLUFF:
        raise ConfigError(
            f"profile is too dense to admit an unrelated decoy (best achievable relevance "
            f"{relevance(profile, content):.4f})"
        )
    return AdUnit(ad_id=f"ba-basis{min_topic:02d}", kind=AdKind.BLUFF_A, targeting=profile, content=content)


@pytest.mark.parametrize("pool_size", [4, 64])
def test_bluff_a_memo_matches_brute_force_reference(pool_size):
    inj = InjectionConfig(rho=0.5, bluff_pool_size=pool_size)
    broker = Broker([single_ad_campaign("a", 0, 100)], inj, topic_dim=D, seed=3)
    reference = Broker([single_ad_campaign("a", 0, 100)], inj, topic_dim=D, seed=3)
    mix = TrafficMix(n_benign=40, n_random_bot=5, n_trained_bot=5, n_dictionary_bot=5, n_profile_harvester=5)
    agents, _ = build_population(mix, D, seed=3)
    dense = tuple(1.0 / D for _ in range(D))
    profiles = [a.profile for a in agents] + [basis_vector(D, t) for t in range(D)] + [dense]
    # Each pool vector weighs 0.95 on one topic.  A profile with mass on
    # every topic but one that no pool vector weighs relates to every pool
    # vector, so only the basis fallback serves it.  A pool of 4 leaves such
    # a topic free.
    free_topics = set(range(D)) - {content.index(max(content)) for _, content in broker._bluff_pool}
    assert free_topics or pool_size == 64
    profiles += [tuple(0.0 if i == t else 1.0 for i in range(D)) for t in sorted(free_topics)[:1]]
    rng = SplitMix64.for_stream(3, stream=2)
    ref_rng = SplitMix64.for_stream(3, stream=2)
    served_fallback = False
    for k in range(3000):
        profile = profiles[(k * 7) % len(profiles)]
        try:
            ad = broker.make_bluff_a(profile, rng)
        except ConfigError as exc:
            with pytest.raises(ConfigError) as ref_exc:
                reference_bluff_a(reference, profile, ref_rng)
            assert str(exc) == str(ref_exc.value)
            assert profile == dense
        else:
            assert ad == reference_bluff_a(reference, profile, ref_rng)
            served_fallback |= ad.ad_id.startswith("ba-basis")
        assert rng.next_u64() == ref_rng.next_u64()
    assert served_fallback == bool(free_topics)
    distinct = len(set(profiles))
    assert len(broker._bluff_a) <= distinct
    assert sum(len(memo) for memo in broker._bluff_a.values()) <= distinct * pool_size


def test_bluff_b_untargeted_and_specialized():
    broker = make_broker([single_ad_campaign("a", 0, 100)])
    rng = SplitMix64.for_stream(9, stream=2)
    ad = broker.make_bluff_b(rng)
    assert ad.targeting == tuple(1.0 / D for _ in range(D))
    assert max(ad.content) / sum(ad.content) >= 0.9


def test_bluff_b_relevance_spans_wide_range():
    broker = make_broker([single_ad_campaign("a", 0, 100)])
    rng = SplitMix64.for_stream(11, stream=2)
    mix = TrafficMix(n_benign=100, n_random_bot=0, n_trained_bot=0)
    agents, _ = build_population(mix, D, seed=11)
    rels = []
    for i in range(1000):
        ad = broker.make_bluff_b(rng)
        rels.append(relevance(agents[i % len(agents)].profile, ad.content))
    assert all(0.0 <= r < 1.0 for r in rels)
    assert min(rels) < 0.15 and max(rels) > 0.7


# -- serving ---------------------------------------------------------------------


def ten_campaigns():
    return [single_ad_campaign(f"c{i}", i % 10, 100 + i) for i in range(12)]


def test_serve_page_rho_zero_is_rank_ads():
    broker = make_broker(ten_campaigns(), rho=0.0)
    profile = tuple(1.0 if i < 10 else 0.0 for i in range(D))
    ranked = broker.rank_ads(profile, 8)
    served = broker.serve_page(profile, 8, SplitMix64.for_stream(1, 2), t=0, agent_id="u", page_id=0)
    assert [a.ad_id for a in served] == [a.ad_id for a in ranked]


def test_serve_page_full_replacement():
    broker = make_broker(ten_campaigns(), rho=1.0, type_b_share=0.0)
    profile = tuple(1.0 if i < 10 else 0.0001 for i in range(D))
    served = broker.serve_page(profile, 6, SplitMix64.for_stream(1, 2), t=0, agent_id="u", page_id=0)
    assert len(served) == 6
    assert all(ad.kind is AdKind.BLUFF_A for ad in served)


def test_serve_page_injection_rate_binomial_mean():
    broker = make_broker(ten_campaigns(), rho=0.1)
    profile = tuple(1.0 if i < 10 else 0.0 for i in range(D))
    rng = SplitMix64.for_stream(3, stream=2)
    pages = 10_000
    bluff_slots = 0
    for p in range(pages):
        served = broker.serve_page(profile, 10, rng, t=0, agent_id="u", page_id=p)
        bluff_slots += sum(1 for ad in served if ad.kind is not AdKind.REAL)
    assert abs(bluff_slots / pages - 1.0) <= 0.06


def test_replaced_real_ads_get_no_impression():
    broker = make_broker(ten_campaigns(), rho=1.0)
    profile = tuple(1.0 if i < 10 else 0.0 for i in range(D))
    broker.serve_page(profile, 10, SplitMix64.for_stream(1, 2), t=0, agent_id="u", page_id=0)
    assert all(broker.quality[f"ad-c{i}"].impressions == 0 for i in range(12))


# -- billing ---------------------------------------------------------------------


def serve_and_click(broker, profile, t, agent, page):
    served = broker.serve_page(profile, 4, SplitMix64.for_stream(page, 2), t, agent, page)
    charges = [broker.record_click(ad.ad_id, t + 1, agent, page) for ad in served]
    return served, charges


def test_bluff_click_never_charged():
    broker = make_broker(ten_campaigns(), rho=1.0)
    profile = tuple(1.0 if i < 10 else 0.0 for i in range(D))
    _, charges = serve_and_click(broker, profile, 0, "u", 0)
    assert charges and all(c == 0 for c in charges)
    assert broker.ledger.entries == []


def test_campaign_holding_another_advertisers_ad_rejected():
    # Clicks bill the ad's own advertiser, so a campaign may hold only its own ads.
    stray = Campaign(advertiser_id="a", ads=[real_ad("ad-b", "b", 0, 100)], daily_budget_micros=10**9)
    with pytest.raises(ConfigError, match="ad ad-b of advertiser b in campaign a"):
        make_broker([stray, single_ad_campaign("b", 1, 100)])


def test_budget_clamp_charges_remainder():
    broker = make_broker([single_ad_campaign("a", 0, bid=100, budget=40)])
    profile = basis_vector(D, 0)
    _, charges = serve_and_click(broker, profile, 0, "u", 0)
    assert charges == [40]
    assert remaining_micros(broker.campaigns["a"]) == 0
    assert broker.rank_ads(profile, 4) == []


def test_clamped_clicks_are_counted_down_to_a_zero_charge():
    broker = make_broker([single_ad_campaign("a", 0, bid=100, budget=250)])
    profile = basis_vector(D, 0)
    # Four pages served before any click, so each click finds the ad on its page.
    for page in range(4):
        assert serve(broker, profile, 1, 0, page) == ["ad-a"]
    charges = [broker.record_click("ad-a", 1, "u", page) for page in range(4)]
    assert charges == [100, 100, 50, 0]
    assert broker.clicks_clamped == 2
    assert len(broker.ledger.entries) == 3


def test_ledger_entry_fields_keep_their_names_and_order():
    # Read by name and position outside the broker, e.g. by the benchmark's
    # output checks and result digest.
    assert [f.name for f in dataclasses.fields(LedgerEntry)] == ["t", "advertiser_id", "ad_id", "amount_micros", "agent_id"]
    assert LedgerEntry.__slots__ == ("t", "advertiser_id", "ad_id", "amount_micros", "agent_id")


def test_budget_depletion_trace():
    # 1000 clicks at bid 1000 against a 500k budget: exactly 500 charged
    # clicks, then the campaign drops out of every slate.
    broker = make_broker([single_ad_campaign("a", 0, bid=1000, budget=500_000)])
    profile = basis_vector(D, 0)
    charged_clicks = 0
    for page in range(1000):
        served = broker.serve_page(profile, 1, SplitMix64.for_stream(page, 2), 0, "bot", page)
        if not served:
            break
        charge = broker.record_click(served[0].ad_id, 1, "bot", page)
        if charge:
            charged_clicks += 1
    assert charged_clicks == 500
    assert sum(e.amount_micros for e in broker.ledger.entries) == 500_000
    assert broker.rank_ads(profile, 1) == []


def test_budget_resets_at_day_boundary():
    broker = make_broker([single_ad_campaign("a", 0, bid=100, budget=100)])
    profile = basis_vector(D, 0)
    serve_and_click(broker, profile, 0, "u", 0)
    assert broker.rank_ads(profile, 1) == []
    served = broker.serve_page(profile, 1, SplitMix64.for_stream(9, 2), MS_PER_DAY + 1, "u", 1)
    assert [a.ad_id for a in served] == ["ad-a"]


def test_click_on_unknown_ad_rejected():
    broker = make_broker([single_ad_campaign("a", 0, 100)])
    with pytest.raises(ValueError):
        broker.record_click("nope", 0, "u", 0)


def test_click_without_impression_rejected():
    broker = make_broker([single_ad_campaign("a", 0, 100)])
    with pytest.raises(ValueError):
        broker.record_click("ad-a", 0, "u", 0)


def test_click_on_ad_not_on_the_page_rejected():
    broker = make_broker([single_ad_campaign("a", 0, 100), single_ad_campaign("b", 1, 100)])
    served = broker.serve_page(basis_vector(D, 0), 1, SplitMix64.for_stream(1, 2), 0, "u", 0)
    assert [ad.ad_id for ad in served] == ["ad-a"]
    with pytest.raises(ValueError, match="without a served impression"):
        broker.record_click("ad-b", 1, "u", 0)


def test_click_charged_up_to_the_dwell_bound():
    broker = make_broker([single_ad_campaign("a", 0, 100)])
    profile = basis_vector(D, 0)
    for page in (0, 1):
        broker.serve_page(profile, 1, SplitMix64.for_stream(page, 2), 1000, "u", page)
    assert broker.record_click("ad-a", 1000 + MAX_DWELL_MS, "u", 0) == 100
    with pytest.raises(ValueError, match="without a served impression"):
        broker.record_click("ad-a", 1000 + MAX_DWELL_MS + 1, "u", 1)


def test_page_clickable_after_later_pages_are_served():
    broker = make_broker([single_ad_campaign("a", 0, 100)])
    profile = basis_vector(D, 0)
    # The page at 3000 outlives a change of generation at MAX_DWELL_MS + 1.
    for page, t in enumerate((0, 3000, MAX_DWELL_MS + 1, MAX_DWELL_MS + 2000)):
        broker.serve_page(profile, 1, SplitMix64.for_stream(page, 2), t, "u", page)
    assert broker.record_click("ad-a", 3000 + MAX_DWELL_MS, "u", 1) == 100
    with pytest.raises(ValueError, match="without a served impression"):
        broker.record_click("ad-a", 3000 + MAX_DWELL_MS, "u", 0)


def test_page_state_holds_at_most_two_dwell_windows():
    broker = make_broker([single_ad_campaign("a", 0, 100)])
    profile = basis_vector(D, 0)
    pages_per_window = MAX_DWELL_MS // 1000 + 1
    for page in range(10_000):
        broker.serve_page(profile, 1, SplitMix64.for_stream(page, 2), page * 1000, "u", page)
        assert len(broker._pages) + len(broker._pages_prev) <= 2 * pages_per_window
    assert broker.record_click("ad-a", 9999 * 1000 + MAX_DWELL_MS, "u", 9999) == 100


def test_per_advertiser_daily_ledger_within_budget():
    broker = make_broker([single_ad_campaign("a", 0, bid=300, budget=1000)])
    profile = basis_vector(D, 0)
    for page in range(6):
        t = page * 1000
        served = broker.serve_page(profile, 1, SplitMix64.for_stream(page, 2), t, "u", page)
        if served:
            broker.record_click(served[0].ad_id, t + 1, "u", page)
    for (advertiser, _day), spent in per_advertiser_day(broker.ledger).items():
        assert spent <= broker.campaigns[advertiser].daily_budget_micros


# -- ranking equivalence -------------------------------------------------------------


def reference_rank(broker, profile, slots):
    """Brute force over every campaign and ad with ``Broker.score``."""
    scored = []
    for c in broker.campaigns.values():
        if remaining_micros(c) <= 0:
            continue
        for ad in c.ads:
            s = broker.score(profile, ad)
            if s > 0.0:
                scored.append((-s, ad.ad_id, ad))
    scored.sort(key=lambda x: (x[0], x[1]))
    return [ad for _, _, ad in scored[:slots]]


# Few distinct vectors and bids, so equal scores and zero relevance are common.
VECTORS = (
    basis_vector(D, 0),
    basis_vector(D, 1),
    tuple(1.0 if i < 2 else 0.0 for i in range(D)),
    tuple(0.6 if i == 0 else 0.3 if i == 1 else 0.01 for i in range(D)),
)
BIDS = (50, 100, 100, 200)


@st.composite
def inventories(draw):
    n_campaigns = draw(st.integers(1, 4))
    sizes = [draw(st.integers(1, 4)) for _ in range(n_campaigns)]
    # Ad ids in an order unrelated to campaign order, so ties test the sort.
    ids = draw(st.permutations(range(sum(sizes))))
    campaigns = []
    k = 0
    for ci, size in enumerate(sizes):
        ads = []
        for _ in range(size):
            v = draw(st.sampled_from(VECTORS))
            bid = draw(st.sampled_from(BIDS))
            ads.append(AdUnit(f"ad{ids[k]:02d}", AdKind.REAL, v, v, bid_micros=bid, advertiser_id=f"c{ci}"))
            k += 1
        budget = draw(st.sampled_from((100, 300, 10**9)))
        campaigns.append(Campaign(advertiser_id=f"c{ci}", ads=ads, daily_budget_micros=budget))
    return campaigns


def expected_weight(broker, ad):
    """bid x quality from the live counters while the campaign has budget."""
    if remaining_micros(broker.campaigns[ad.advertiser_id]) <= 0:
        return 0.0
    return ad.bid_micros * broker.quality[ad.ad_id].q


operations = st.one_of(
    st.tuples(st.just("serve"), st.sampled_from(VECTORS), st.integers(1, 6)),
    st.tuples(st.just("click"), st.integers(0, 15), st.integers(0, 5)),
    st.tuples(st.just("next_day"), st.sampled_from(VECTORS), st.integers(1, 6)),
)


@settings(max_examples=200, deadline=None)
@given(inventories(), st.sampled_from((0.0, 0.5)), st.lists(operations, min_size=1, max_size=25))
def test_rank_ads_matches_brute_force_reference(campaigns, rho, ops):
    # Quality counters and budgets reach their states only through the
    # broker's writers: served impressions, clicks on served slots (which
    # can spend a budget mid-day) and the day rollover.  After every one,
    # each cached row and weight must still give the brute-force ranking,
    # and each counter must equal its recount from the slates served and
    # the clicks recorded, charged against a budget kept here.
    broker = make_broker(campaigns, rho=rho)
    t = 0
    page = 0
    served = []  # (page, slate) of today's pages, all within the dwell time
    impressions = {ad.ad_id: 0 for c in campaigns for ad in c.ads}
    clicks = dict(impressions)
    spent = {c.advertiser_id: 0 for c in campaigns}
    clamped = 0
    decoys = {kind: 0 for kind in AdKind}
    for op in ops:
        kind = op[0]
        t += 1
        if kind == "click":
            if served:
                page_id, slate = served[op[1] % len(served)]
                ad = slate[op[2] % len(slate)]
                charge = broker.record_click(ad.ad_id, t, "u", page_id)
                if ad.kind is AdKind.REAL:
                    clicks[ad.ad_id] += 1
                    budget = broker.campaigns[ad.advertiser_id].daily_budget_micros
                    expected_charge = min(ad.bid_micros, max(0, budget - spent[ad.advertiser_id]))
                    spent[ad.advertiser_id] += expected_charge
                    clamped += expected_charge < ad.bid_micros
                else:
                    expected_charge = 0
                assert charge == expected_charge
        else:
            _, profile, slots = op
            if kind == "next_day":
                # serve_page resets every budget at the day boundary.
                t = (t // MS_PER_DAY + 1) * MS_PER_DAY
                served = []
                spent = dict.fromkeys(spent, 0)
            page += 1
            slate = broker.serve_page(profile, slots, SplitMix64.for_stream(page, 2), t, "u", page)
            if kind == "next_day":
                assert all(c.spent_today_micros == 0 for c in campaigns)
            if slate:
                served.append((page, slate))
            for ad in slate:
                if ad.kind is AdKind.REAL:
                    impressions[ad.ad_id] += 1
                else:
                    decoys[ad.kind] += 1
            expected = reference_rank(broker, profile, slots)
            assert broker.rank_ads(profile, slots) == expected
        for profile in VECTORS:
            assert broker.rank_ads(profile, 16) == reference_rank(broker, profile, 16)
        for (_, ad, _), weight in zip(broker._inventory, broker._weights):
            assert weight == expected_weight(broker, ad)
        assert {ad_id: qs.impressions for ad_id, qs in broker.quality.items()} == impressions
        assert {ad_id: qs.clicks for ad_id, qs in broker.quality.items()} == clicks
        assert {c.advertiser_id: c.spent_today_micros for c in campaigns} == spent
        assert broker.clicks_clamped == clamped
        # Every page counts, those with an empty slate too.
        assert broker.pages_served == page
        assert broker.decoy_impressions == decoys[AdKind.BLUFF_A] + decoys[AdKind.BLUFF_B]
        assert broker.bluff_b_impressions == decoys[AdKind.BLUFF_B]


@pytest.mark.parametrize("rho", [1.0, 0.5])
def test_overhead_is_the_ranked_score_of_each_displaced_ad(rho):
    broker = make_broker(ten_campaigns(), rho=rho)
    profiles = [tuple(1.0 if i < 10 else 0.0 for i in range(D))] + list(VECTORS)
    rng = SplitMix64.for_stream(4, stream=2)
    expected = 0
    for page in range(300):
        profile = profiles[page % len(profiles)]
        scores = [int(round(broker.score(profile, ad))) for ad in broker.rank_ads(profile, 4)]
        slate = broker.serve_page(profile, 4, rng, page * 10, "u", page)
        expected += sum(s for s, ad in zip(scores, slate) if ad.kind is not AdKind.REAL)
        assert broker.overhead_micros == expected
        # Clicks move the quality of the ads that later pages rank.
        for ad in slate[: page % 3]:
            broker.record_click(ad.ad_id, page * 10 + 1, "u", page)
    assert expected > 0
