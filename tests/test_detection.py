import dataclasses
import inspect
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import jensenshannon as scipy_js

from bluffsim.detection import (
    ACCUMULATION_FIELDS,
    AgentEvidence,
    Blacklist,
    DetectorConfig,
    EvidenceScan,
    ReferenceProfile,
    binom_tail_pvalue,
    classify_decoy_click,
    fuse,
    jensen_shannon,
    profile_divergence,
    run_detection,
    score_bluff,
    score_evidence,
    threshold_score,
)
from bluffsim.domain import (
    MAX_DWELL_MS,
    MS_PER_HOUR,
    AdKind,
    Event,
    EventType,
    basis_vector,
    event_sort_key,
    validate_event_stream,
)
from conftest import ReferenceEvidenceScan, one_ip_max_window

D = 16


def exact_binom_tail(k, n, p0):
    """Independent oracle: exact rational pmf summation."""
    p = Fraction(p0)
    q = 1 - p
    total = Fraction(0)
    for j in range(k, n + 1):
        total += math.comb(n, j) * p**j * q ** (n - j)
    return total


# -- binomial tail ---------------------------------------------------------------


def test_binom_tail_at_zero_is_one():
    for n in (0, 1, 5, 50, 500):
        assert binom_tail_pvalue(0, n, 0.3) == 1.0


def test_binom_tail_all_successes():
    assert math.isclose(binom_tail_pvalue(3, 3, 0.5), 0.125, rel_tol=1e-12)


def test_binom_tail_hand_computed():
    # P(X >= 2), X ~ Binomial(10, 0.05) = 1 - q^10 - 10 p q^9
    assert math.isclose(binom_tail_pvalue(2, 10, 0.05), 0.08613835589931641, rel_tol=1e-10)


def test_binom_tail_rejects_bad_parameters():
    with pytest.raises(ValueError):
        binom_tail_pvalue(5, 3, 0.5)
    with pytest.raises(ValueError):
        binom_tail_pvalue(-1, 3, 0.5)
    with pytest.raises(ValueError):
        binom_tail_pvalue(1, 3, 0.0)
    with pytest.raises(ValueError):
        binom_tail_pvalue(1, 3, 1.0)


@given(
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=50),
    st.floats(min_value=0.001, max_value=0.999),
)
def test_binom_tail_matches_exact_oracle_small_n(k, n, p0):
    if k > n:
        k, n = n, k
    mine = binom_tail_pvalue(k, n, p0)
    oracle = float(exact_binom_tail(k, n, p0))
    assert abs(mine - oracle) < 1e-12


@given(
    st.integers(min_value=51, max_value=300),
    st.floats(min_value=0.01, max_value=0.5),
    st.data(),
)
@settings(max_examples=50, deadline=None)
def test_binom_tail_log_space_matches_oracle(n, p0, data):
    k = data.draw(st.integers(min_value=1, max_value=n))
    mine = binom_tail_pvalue(k, n, p0)
    oracle = float(exact_binom_tail(k, n, p0))
    assert math.isclose(mine, oracle, rel_tol=1e-9, abs_tol=1e-300)


@given(st.integers(min_value=1, max_value=40), st.floats(min_value=0.01, max_value=0.9))
def test_binom_tail_monotone_in_k(n, p0):
    values = [binom_tail_pvalue(k, n, p0) for k in range(n + 1)]
    assert all(a >= b for a, b in zip(values, values[1:]))


@given(
    st.integers(min_value=1, max_value=40),
    st.data(),
)
def test_binom_tail_monotone_in_p0(n, data):
    k = data.draw(st.integers(min_value=1, max_value=n))
    p_lo = data.draw(st.floats(min_value=0.01, max_value=0.5))
    p_hi = data.draw(st.floats(min_value=0.5, max_value=0.99))
    assert binom_tail_pvalue(k, n, p_lo) <= binom_tail_pvalue(k, n, p_hi) + 1e-15


# -- decoy score -----------------------------------------------------------------


def test_score_bluff_no_decoys_is_zero():
    s, p = score_bluff(total_clicks=20, decoy_clicks=0, cfg=DetectorConfig())
    assert s == 0.0 and p == 1.0


def test_score_bluff_below_evidence_gate():
    cfg = DetectorConfig(min_clicks=5)
    assert score_bluff(4, 4, cfg) == (0.0, 1.0)


def test_score_bluff_ramp_endpoint():
    # p = 0.125 for (3 of 3, p0=0.5); with tau_b = 0.125 the ramp hits 1.
    cfg = DetectorConfig(p0=0.5, pvalue_threshold=0.125, min_clicks=1)
    s, p = score_bluff(3, 3, cfg)
    assert math.isclose(p, 0.125, rel_tol=1e-12)
    assert s == 1.0


def test_score_bluff_ramp_midpoint():
    # p = sqrt(tau_b) scores exactly one half.
    cfg = DetectorConfig(p0=0.5, pvalue_threshold=0.015625, min_clicks=1)
    s, p = score_bluff(3, 3, cfg)
    assert math.isclose(s, 0.5, rel_tol=1e-12)


def test_score_bluff_saturates_below_tau():
    cfg = DetectorConfig(p0=0.01, pvalue_threshold=1e-4, min_clicks=1)
    s, p = score_bluff(30, 30, cfg)
    assert s == 1.0 and p < 1e-4


# -- decoy classification -----------------------------------------------------------


def test_type_a_click_always_counts():
    cfg = DetectorConfig()
    assert classify_decoy_click(AdKind.BLUFF_A, basis_vector(D, 1), None, 0, cfg)


def test_real_click_never_counts():
    cfg = DetectorConfig()
    assert not classify_decoy_click(AdKind.REAL, basis_vector(D, 1), basis_vector(D, 2), 50, cfg)


def test_type_b_excused_by_matching_history():
    # Relevance 0.8 to a supported observed profile: not a decoy click.
    cfg = DetectorConfig(min_clicks=5)
    observed = (0.8, 0.6) + tuple(0.0 for _ in range(D - 2))
    content = basis_vector(D, 0)  # relevance 0.8 to observed
    assert not classify_decoy_click(AdKind.BLUFF_B, content, observed, 10, cfg)


def test_type_b_counts_when_history_mismatches():
    cfg = DetectorConfig(min_clicks=5)
    observed = basis_vector(D, 5)
    content = basis_vector(D, 0)
    assert classify_decoy_click(AdKind.BLUFF_B, content, observed, 10, cfg)


def test_type_b_counts_without_established_history():
    # No real-click history to vouch for the topic: presumed decoy.
    cfg = DetectorConfig(min_clicks=5)
    content = basis_vector(D, 0)
    assert classify_decoy_click(AdKind.BLUFF_B, content, None, 0, cfg)
    assert classify_decoy_click(AdKind.BLUFF_B, content, basis_vector(D, 0), 3, cfg)


# -- window scan -----------------------------------------------------------------


def brute_force_max_window(times, window_ms):
    best = 0
    for t in times:
        count = sum(1 for u in times if t - window_ms < u <= t)
        best = max(best, count)
    return best


def test_window_scan_one_over_cap():
    cfg = DetectorConfig(click_cap=10)
    times = list(range(0, 55_000, 5_000))  # 11 clicks within 60s
    c = one_ip_max_window(times, cfg.window_ms)
    assert c == 11
    assert math.isclose(threshold_score(c, cfg), 0.1, rel_tol=1e-12)


def test_window_scan_boundary_is_exclusive():
    cfg = DetectorConfig(click_cap=10)
    times = list(range(0, 50_000, 5_000))  # exactly 10 clicks
    c = one_ip_max_window(times, cfg.window_ms)
    assert c == 10
    assert threshold_score(c, cfg) == 0.0


def test_window_scan_documented_trace():
    # Clicks at 0, 30s, 59s, 61s, 90s with W=60s: best window holds 3.
    cfg = DetectorConfig(click_cap=2)
    times = [0, 30_000, 59_000, 61_000, 90_000]
    c = one_ip_max_window(times, 60_000)
    assert c == brute_force_max_window(times, 60_000) == 3
    assert math.isclose(threshold_score(c, cfg), 0.5, rel_tol=1e-12)


@given(
    st.lists(st.integers(min_value=0, max_value=500_000), min_size=0, max_size=200),
    st.integers(min_value=1, max_value=120_000),
)
def test_window_scan_equals_brute_force(times, window):
    times = sorted(times)
    assert one_ip_max_window(times, window) == brute_force_max_window(times, window)


# -- blacklist -------------------------------------------------------------------


def test_blacklist_empty_check():
    assert not Blacklist(1000).check("1.1.1.1", 0)


def test_blacklist_expiry_exclusive():
    bl = Blacklist(ttl_ms=1000)
    bl.add("1.1.1.1", 100)
    assert bl.check("1.1.1.1", 1099)
    assert not bl.check("1.1.1.1", 1100)


def test_blacklist_readd_extends():
    day = 86_400_000
    bl = Blacklist(ttl_ms=7 * day)
    bl.add("1.1.1.1", 0)
    bl.add("1.1.1.1", day)
    assert bl.check("1.1.1.1", 7 * day + 12 * 3_600_000)
    assert not bl.check("1.1.1.1", 8 * day)


# -- profile divergence --------------------------------------------------------------


def test_jsd_identity():
    p = [1 / 24] * 24
    assert jensen_shannon(p, p) == 0.0


def test_jsd_disjoint_supports_is_one():
    p = [1.0, 0.0]
    q = [0.0, 1.0]
    assert math.isclose(jensen_shannon(p, q), 1.0, rel_tol=1e-12)


@given(
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=8, max_size=8),
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=8, max_size=8),
)
def test_jsd_matches_scipy(p, q):
    p = [x / sum(p) for x in p]
    q = [x / sum(q) for x in q]
    mine = jensen_shannon(p, q)
    oracle = scipy_js(p, q, base=2) ** 2
    assert math.isclose(mine, oracle, rel_tol=1e-8, abs_tol=1e-12)
    assert 0.0 <= mine <= 1.0


def flat_reference(regions=1):
    return ReferenceProfile.from_config((1.0,) * 24, regions)


def test_profile_divergence_identity():
    cfg = DetectorConfig(min_clicks=5)
    ref = flat_reference()
    # Uniform-ish agent: 96 clicks spread 4 per hour.
    s, div = profile_divergence([4] * 24, [96], 96, ref, cfg)
    assert div < 1e-3
    assert s < 0.01


def test_profile_divergence_uniform_agent_low_at_100_clicks():
    cfg = DetectorConfig(min_clicks=5)
    ref = flat_reference()
    counts = [5 if h < 4 else 4 for h in range(24)]  # 100 clicks, near-uniform
    s, div = profile_divergence(counts, [100], 100, ref, cfg)
    assert div < 1e-3


def test_profile_divergence_night_clicker_saturates():
    cfg = DetectorConfig(min_clicks=5)
    business = tuple(1.0 if 9 <= h < 17 else 0.0 for h in range(24))
    ref = ReferenceProfile.from_config(business, 1)
    # Disjoint supports: hour JSD is exactly 1 before smoothing and only
    # slightly less after add-one smoothing.
    point_mass = tuple(1.0 if h == 3 else 0.0 for h in range(24))
    assert math.isclose(jensen_shannon(point_mass, ref.hours), 1.0, rel_tol=1e-12)
    counts = [0] * 24
    counts[3] = 200  # all clicks at 3am
    s, div = profile_divergence(counts, [200], 200, ref, cfg)
    assert 0.4 < div < 0.5  # half of the smoothed hour JSD; regions agree
    assert s == 1.0


def test_profile_divergence_below_min_clicks_is_zero():
    cfg = DetectorConfig(min_clicks=5)
    counts = [0] * 24
    counts[3] = 3
    assert profile_divergence(counts, [3], 3, flat_reference(), cfg) == (0.0, 0.0)


# -- fusion ----------------------------------------------------------------------


def test_fuse_all_zero_not_flagged():
    fused, flagged = fuse(0.0, 0.0, 0.0, DetectorConfig())
    assert fused == 0.0 and not flagged


def test_fuse_bluff_alone_suffices_at_defaults():
    fused, flagged = fuse(1.0, 0.0, 0.0, DetectorConfig())
    assert math.isclose(fused, 0.6, rel_tol=1e-12) and flagged


def test_fuse_hand_computed_below_threshold():
    fused, flagged = fuse(0.5, 0.4, 0.0, DetectorConfig())
    assert math.isclose(fused, 0.40, rel_tol=1e-12) and not flagged


def test_fuse_blacklist_override():
    fused, flagged = fuse(0.0, 0.0, 0.0, DetectorConfig(), blacklisted=True)
    assert fused == 0.0 and flagged


def test_detector_config_weight_validation():
    cfg = DetectorConfig(w_bluff=0.5, w_thresh=0.5, w_profile=0.5)
    with pytest.raises(Exception):
        cfg.validate()


# -- end-to-end detection --------------------------------------------------------------


def catalog_with(*ads):
    cat = {}
    for ad_id, kind, topic in ads:
        cat[ad_id] = (kind, basis_vector(D, topic))
    return cat


def imp(t, agent, ad_id, kind, ip="10.0.0.1", page=0):
    return Event(t, EventType.IMPRESSION, agent, ip, page, ad_id, kind, 0)


def clk(t, agent, ad_id, kind, ip="10.0.0.1", page=0):
    return Event(t, EventType.CLICK, agent, ip, page, ad_id, kind, 0)


def test_run_detection_empty_stream():
    assert run_detection([], DetectorConfig(), {}) == {}


def test_run_detection_benign_like_agent_not_flagged():
    # 100 real clicks, no decoys, timing spread over the day.
    cat = catalog_with(("ad-a", AdKind.REAL, 0))
    events = []
    for i in range(100):
        t = i * MS_PER_HOUR // 4
        events.append(imp(t, "u1", "ad-a", AdKind.REAL, page=i))
        events.append(clk(t + 10, "u1", "ad-a", AdKind.REAL, page=i))
    reports = run_detection(events, DetectorConfig(), cat)
    r = reports["u1"]
    assert not r.flagged
    assert r.s_bluff == 0.0 and r.fused < 0.25
    assert (r.total_clicks, r.decoy_clicks) == (100, 0)


def test_run_detection_decoy_hammerer_flagged():
    cat = catalog_with(("ad-a", AdKind.REAL, 0), ("ba0", AdKind.BLUFF_A, 9))
    events = []
    for i in range(40):
        t = i * 10 * MS_PER_HOUR // 4
        ad = "ba0" if i % 2 == 0 else "ad-a"
        kind = AdKind.BLUFF_A if i % 2 == 0 else AdKind.REAL
        events.append(imp(t, "bot", ad, kind, page=i))
        events.append(clk(t + 5, "bot", ad, kind, page=i))
    reports = run_detection(events, DetectorConfig(), cat)
    assert reports["bot"].flagged
    assert reports["bot"].s_bluff == 1.0
    assert (reports["bot"].total_clicks, reports["bot"].decoy_clicks) == (40, 20)


def test_run_detection_permutation_stable():
    cat = catalog_with(("ad-a", AdKind.REAL, 0), ("bb01", AdKind.BLUFF_B, 1))
    events = []
    for i in range(30):
        ad = "bb01" if i % 3 == 0 else "ad-a"
        kind = AdKind.BLUFF_B if i % 3 == 0 else AdKind.REAL
        events.append(imp(1000, "u1", ad, kind, page=i))
        events.append(clk(1000, "u1", ad, kind, page=i))
    base = run_detection(events, DetectorConfig(), cat)
    shuffled = list(reversed(events))
    again = run_detection(shuffled, DetectorConfig(), cat)
    assert base == again
    # Detection sorts a copy: the caller's out-of-order list is untouched.
    assert shuffled == list(reversed(events))
    assert run_detection(iter(events), DetectorConfig(), cat) == base


@pytest.mark.parametrize("n_real,decoys", [(4, 1), (5, 0)])
def test_run_detection_bluff_b_vouched_from_min_clicks_real_clicks(n_real, decoys):
    # A bluff_b click on the topic of the agent's real-ad clicks counts as a
    # decoy click until the agent has min_clicks (5) of them.
    cat = catalog_with(("ad-r", AdKind.REAL, 1), ("bb01", AdKind.BLUFF_B, 1))
    events = []
    for i in range(n_real):
        events += [imp(i * 1000, "u1", "ad-r", AdKind.REAL, page=i), clk(i * 1000 + 1, "u1", "ad-r", AdKind.REAL, page=i)]
    t = n_real * 1000
    events += [imp(t, "u1", "bb01", AdKind.BLUFF_B, page=n_real), clk(t + 1, "u1", "bb01", AdKind.BLUFF_B, page=n_real)]
    r = run_detection(events, DetectorConfig(), cat)["u1"]
    assert (r.total_clicks, r.decoy_clicks) == (n_real + 1, decoys)


@pytest.mark.parametrize("name", ACCUMULATION_FIELDS)
def test_score_evidence_refuses_evidence_from_other_settings(name):
    cat = catalog_with(("ad-a", AdKind.REAL, 0))
    events = [imp(5, "u1", "ad-a", AdKind.REAL), clk(6, "u1", "ad-a", AdKind.REAL)]
    ref = ReferenceProfile.from_config((1.0,) * 24, 1)
    scan = EvidenceScan(DetectorConfig(), cat, None, ref)
    scan.feed(events)
    evidence = scan.evidence()
    assert score_evidence(evidence, DetectorConfig(fusion_threshold=0.9), ref) == run_detection(
        events, DetectorConfig(fusion_threshold=0.9), cat
    )
    other = DetectorConfig()
    setattr(other, name, getattr(other, name) * 2 if name != "mismatch_epsilon" else 0.5)
    with pytest.raises(ValueError, match=name):
        score_evidence(evidence, other, ref)


def test_run_detection_zero_click_agent_reported_unflagged():
    cat = catalog_with(("ad-a", AdKind.REAL, 0))
    events = [imp(5, "viewer", "ad-a", AdKind.REAL)]
    reports = run_detection(events, DetectorConfig(), cat)
    assert reports["viewer"].flagged is False
    assert reports["viewer"].s_bluff == 0.0


def test_run_detection_threshold_blacklist_override():
    # 30 clicks from one IP within a minute: window cap exceeded, the IP is
    # blacklisted, and the agent is flagged even though decoy evidence is nil.
    cat = catalog_with(("ad-a", AdKind.REAL, 0))
    events = []
    for i in range(30):
        t = 1000 + i * 1500
        events.append(imp(t, "burst", "ad-a", AdKind.REAL, ip="9.9.9.9", page=i))
        events.append(clk(t + 1, "burst", "ad-a", AdKind.REAL, ip="9.9.9.9", page=i))
    reports = run_detection(events, DetectorConfig(), cat)
    r = reports["burst"]
    assert r.max_window_clicks > 10
    assert r.flagged


def test_run_detection_rejects_invalid_stream():
    cat = catalog_with(("ad-a", AdKind.REAL, 0))
    with pytest.raises(ValueError):
        run_detection([clk(5, "u", "ad-a", AdKind.REAL)], DetectorConfig(), cat)


def test_run_detection_rejects_unknown_ad():
    events = [imp(1, "u", "ad-x", AdKind.REAL), clk(2, "u", "ad-x", AdKind.REAL)]
    with pytest.raises(ValueError):
        run_detection(events, DetectorConfig(), {})


def test_detector_cannot_see_agent_kinds():
    # Structural: no detection entry point takes a ground-truth argument.
    for fn in (run_detection, EvidenceScan, score_evidence):
        params = inspect.signature(fn).parameters
        assert "truth" not in params and "agents" not in params
    assert set(inspect.signature(run_detection).parameters) == {"events", "cfg", "catalog", "ip_regions", "reference"}


# -- EvidenceScan against its reference ------------------------------------------


def evidence_view(evidence):
    """Everything an ``Evidence`` holds, in order, floats by ``float.hex``."""

    def exact(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, list):
            return [exact(x) for x in value]
        return value

    agents = [
        (agent_id, [(f.name, exact(getattr(led, f.name))) for f in dataclasses.fields(AgentEvidence)])
        for agent_id, led in evidence.agents.items()
    ]
    return (
        agents,
        list(evidence.window_max.items()),
        evidence.blacklisted,
        evidence.settings,
        evidence.blacklist_adds,
    )


def assert_scan_matches_reference(events, cfg, catalog, ip_regions, cuts, read_at):
    """Feed ``events`` to an ``EvidenceScan`` and to the reference in the
    chunks that ``cuts`` mark, comparing their evidence after each chunk
    whose index is in ``read_at`` and at the end."""
    ref = ReferenceProfile.from_config((1.0,) * 24, 2)
    scan = EvidenceScan(cfg, catalog, ip_regions, ref)
    reference = ReferenceEvidenceScan(cfg, catalog, ip_regions, ref)
    bounds = [0, *sorted(cuts), len(events)]
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        scan.feed(events[lo:hi])
        reference.feed(events[lo:hi])
        if k in read_at:
            assert evidence_view(scan.evidence()) == evidence_view(reference.evidence())
    assert evidence_view(scan.evidence()) == evidence_view(reference.evidence())


DIFF_DIM = 4
DIFF_IPS = ("ip0", "ip1", "ip2")
DIFF_REGIONS = {"ip0": 0, "ip1": 1}  # ip2 falls back to region 0


def diff_catalog(contents):
    """Three real ads, two profile-targeted and two untargeted decoys."""
    kinds = (AdKind.REAL,) * 3 + (AdKind.BLUFF_A,) * 2 + (AdKind.BLUFF_B,) * 2
    return {f"ad{j}": (kind, content) for j, (kind, content) in enumerate(zip(kinds, contents))}


def diff_stream(pages):
    """Events of ``pages``: (gap ms, agent, IP, ad, click delay or None),
    one impression each and a click ``delay`` ms later, in stream order."""
    events = []
    t = 0
    for page_id, (gap, agent, ip, ad, delay) in enumerate(pages):
        t += gap
        events.append(Event(t, EventType.IMPRESSION, agent, ip, page_id, ad, AdKind.REAL, 0))
        if delay is not None:
            events.append(Event(t + delay, EventType.CLICK, agent, ip, page_id, ad, AdKind.REAL, 0))
    events.sort(key=event_sort_key)
    assert validate_event_stream(events) == []
    return events


_COORD = st.one_of(st.sampled_from((0.0, -0.0, 0.1, 0.5)), st.floats(0.0, 1.0))
_CONTENT = st.tuples(*[_COORD] * DIFF_DIM).filter(any)
_PAGE = st.tuples(
    st.one_of(st.integers(0, 20_000), st.integers(0, 3 * MS_PER_HOUR)),
    st.sampled_from(("u0", "u1", "u2", "u3")),
    st.sampled_from(DIFF_IPS),
    st.sampled_from([f"ad{j}" for j in range(7)]),
    st.one_of(st.none(), st.integers(1, MAX_DWELL_MS)),
)


@settings(max_examples=200, deadline=None)
@given(
    contents=st.lists(_CONTENT, min_size=7, max_size=7),
    pages=st.lists(_PAGE, max_size=60),
    click_cap=st.integers(1, 4),
    min_clicks=st.integers(1, 4),
    mismatch_epsilon=st.sampled_from((0.0, 0.2, 0.9)),
    data=st.data(),
)
def test_evidence_scan_matches_reference(contents, pages, click_cap, min_clicks, mismatch_epsilon, data):
    events = diff_stream(pages)
    cuts = data.draw(st.lists(st.integers(0, len(events)), max_size=4))
    read_at = data.draw(st.sets(st.integers(0, len(cuts))))
    cfg = DetectorConfig(window_ms=30_000, click_cap=click_cap, min_clicks=min_clicks, mismatch_epsilon=mismatch_epsilon)
    assert_scan_matches_reference(events, cfg, diff_catalog(contents), DIFF_REGIONS, cuts, read_at)


def test_evidence_scan_matches_reference_on_every_path():
    # u0 only views; u1 moves from ip0 to ip1; u2 clicks a BLUFF_A decoy and
    # BLUFF_B decoys before and past the two-click gate, on ad contents with
    # zero and nonzero coordinates; ip2 goes over the cap and is blacklisted.
    contents = [
        (0.5, 0.0, 0.0, 0.5),
        (0.0, -0.0, 0.25, 0.0),
        (0.1, 0.2, 0.3, 0.4),
        (0.0, 1.0, 0.0, 0.0),
        (0.0, 0.0, 1.0, 0.0),
        (1.0, 0.0, 0.0, 0.2),  # on u2's real-click topic: vouched past the gate
        (0.0, 1.0, 0.0, 0.0),
    ]
    pages = [
        (0, "u0", "ip0", "ad0", None),
        (10, "u1", "ip0", "ad1", 5),
        (10, "u2", "ip2", "ad5", 5),
        (10, "u2", "ip2", "ad0", 5),
        (10, "u2", "ip2", "ad3", 5),
        (10, "u2", "ip2", "ad0", 5),
        (10, "u2", "ip2", "ad5", 5),
        (10, "u2", "ip2", "ad6", 5),
        (10, "u1", "ip1", "ad2", 5),
        (MS_PER_HOUR, "u0", "ip1", "ad4", None),
        (10, "u1", "ip1", "ad1", 5),
    ]
    events = diff_stream(pages)
    cfg = DetectorConfig(window_ms=30_000, click_cap=2, min_clicks=2)
    catalog = diff_catalog(contents)
    for cuts in ([], [1, 7], list(range(1, len(events)))):
        assert_scan_matches_reference(events, cfg, catalog, DIFF_REGIONS, cuts, set(range(len(cuts) + 1)))
    scan = EvidenceScan(cfg, catalog, DIFF_REGIONS, ReferenceProfile.from_config((1.0,) * 24, 2))
    scan.feed(events)
    evidence = scan.evidence()
    assert list(evidence.agents) == ["u0", "u1", "u2"]
    assert [led.ip for led in evidence.agents.values()] == ["ip1", "ip1", "ip2"]
    u2 = evidence.agents["u2"]
    # ad5 before the gate and ad6 past it count; ad5 past the gate is vouched for.
    assert (u2.total_clicks, u2.real_clicks, u2.decoy_clicks) == (6, 2, 3)
    assert evidence.blacklisted == {"ip2"} and evidence.blacklist_adds == 4
