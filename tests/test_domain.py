import math

import pytest
from hypothesis import given, strategies as st

from bluffsim.domain import (
    EPSILON_BLUFF,
    MAX_DWELL_MS,
    AdKind,
    AdUnit,
    Event,
    EventType,
    basis_vector,
    event_sort_key,
    in_event_order,
    relevance,
    validate_event_stream,
)

D = 16


def vec(*pairs):
    v = [0.0] * D
    for topic, w in pairs:
        v[topic] = w
    return tuple(v)


# -- relevance ----------------------------------------------------------------


def test_relevance_identical_vectors():
    e0 = basis_vector(D, 0)
    assert relevance(e0, e0) == 1.0


def test_relevance_orthogonal():
    assert relevance(basis_vector(D, 0), basis_vector(D, 1)) == 0.0


def test_relevance_hand_computed():
    # (0.6, 0.8, 0...) vs (1, 0, ...): dot 0.6, norms 1 and 1.
    a = vec((0, 0.6), (1, 0.8))
    b = basis_vector(D, 0)
    assert math.isclose(relevance(a, b), 0.6, rel_tol=1e-12)


def test_relevance_zero_vector_rejected():
    with pytest.raises(ValueError):
        relevance(tuple([0.0] * D), basis_vector(D, 0))


def test_relevance_length_mismatch():
    with pytest.raises(ValueError):
        relevance((1.0, 0.0), basis_vector(D, 0))


positive_vectors = st.lists(
    st.floats(min_value=0.0, max_value=10.0), min_size=D, max_size=D
).filter(lambda v: sum(v) > 0)


@given(positive_vectors, positive_vectors)
def test_relevance_symmetric_and_bounded(a, b):
    a, b = tuple(a), tuple(b)
    r = relevance(a, b)
    assert 0.0 <= r <= 1.0
    assert relevance(b, a) == r


@given(positive_vectors, positive_vectors, st.floats(min_value=0.01, max_value=100.0))
def test_relevance_scale_invariant(a, b, lam):
    a, b = tuple(a), tuple(b)
    scaled = tuple(lam * x for x in a)
    assert math.isclose(relevance(scaled, b), relevance(a, b), rel_tol=1e-9, abs_tol=1e-12)


# -- ad units --------------------------------------------------------------------


def test_real_ad_requires_advertiser_and_bid():
    t = basis_vector(D, 0)
    with pytest.raises(ValueError):
        AdUnit("a1", AdKind.REAL, t, t, bid_micros=100)
    with pytest.raises(ValueError):
        AdUnit("a1", AdKind.REAL, t, t, bid_micros=0, advertiser_id="x")
    AdUnit("a1", AdKind.REAL, t, t, bid_micros=100, advertiser_id="x")


def test_bluff_ads_are_house_ads():
    t = basis_vector(D, 0)
    with pytest.raises(ValueError):
        AdUnit("b", AdKind.BLUFF_B, t, t, bid_micros=5)
    with pytest.raises(ValueError):
        AdUnit("b", AdKind.BLUFF_B, t, t, advertiser_id="x")


def test_bluff_a_relevance_bound_enforced():
    profile = basis_vector(D, 0)
    with pytest.raises(ValueError):
        AdUnit("b", AdKind.BLUFF_A, profile, profile)  # relevance 1
    ok = AdUnit("b", AdKind.BLUFF_A, profile, basis_vector(D, 1))
    assert relevance(ok.targeting, ok.content) < EPSILON_BLUFF


# -- event stream validation ----------------------------------------------------


def imp(t, ad="ad-1", agent="u1", page=0):
    return Event(t, EventType.IMPRESSION, agent, "10.0.0.1", page, ad, AdKind.REAL, 0)


def clk(t, ad="ad-1", agent="u1", page=0):
    return Event(t, EventType.CLICK, agent, "10.0.0.1", page, ad, AdKind.REAL, 0)


def test_empty_stream_ok():
    assert validate_event_stream([]) == []


def test_matched_pair_ok():
    assert validate_event_stream([imp(1), clk(2)]) == []


def test_orphan_click_is_violation():
    violations = validate_event_stream([clk(1)])
    assert len(violations) == 1
    assert "without matching impression" in violations[0].reason


def test_decreasing_timestamps_flagged():
    violations = validate_event_stream([imp(5), imp(3)])
    assert any("decreases" in v.reason for v in violations)


def test_click_on_other_page_is_orphan():
    violations = validate_event_stream([imp(1, page=0), clk(2, page=1)])
    assert len(violations) == 1


@given(
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.sampled_from(list(EventType)),
            st.sampled_from(["u1", "u2"]),
            st.sampled_from(["ad-1", "ad-2"]),
            st.integers(0, 2),
        ),
        max_size=12,
    )
)
def test_in_event_order_matches_sorting(rows):
    # Small value ranges force ties on every key component, and the page id
    # varies outside the key, so a stable sort is the only correct reference.
    events = [Event(t, etype, agent, "10.0.0.1", page, ad, AdKind.REAL, 0) for t, etype, agent, ad, page in rows]
    assert in_event_order(events) == (sorted(events, key=event_sort_key) == events)
    # From a sorted stream, swapping two neighbours breaks the order exactly
    # when their keys differ.
    events.sort(key=event_sort_key)
    assert in_event_order(events)
    for i in range(len(events) - 1):
        swapped = events[:i] + [events[i + 1], events[i]] + events[i + 2:]
        assert in_event_order(swapped) == (event_sort_key(events[i]) == event_sort_key(events[i + 1]))


def reference_violations(events):
    """Brute force: remembers every impression of the stream."""
    out = []
    seen = set()
    prev_t = None
    for i, e in enumerate(events):
        if prev_t is not None and e.t < prev_t:
            out.append((i, f"timestamp {e.t} decreases from {prev_t}"))
        prev_t = e.t
        key = (e.agent_id, e.page_id, e.ad_id)
        if e.etype is EventType.IMPRESSION:
            seen.add(key)
        elif key not in seen:
            out.append((i, f"click without matching impression: {key}"))
        if e.slot < 0:
            out.append((i, f"negative slot index {e.slot}"))
    return out


@given(
    st.lists(
        st.tuples(
            st.integers(0, 4),
            st.sampled_from(list(EventType)),
            st.sampled_from(["u1", "u2"]),
            st.integers(0, 2),
            st.sampled_from(["ad-1", "ad-2"]),
            st.integers(-1, 2),
        ),
        max_size=20,
    )
)
def test_validate_event_stream_matches_brute_force(rows):
    # Few distinct keys and times: orphan clicks, clicks before their
    # impression, repeated keys, decreasing t and negative slots all occur.
    events = [Event(t, etype, agent, "10.0.0.1", page, ad, AdKind.REAL, slot) for t, etype, agent, page, ad, slot in rows]
    expected = reference_violations(events)
    assert [(v.index, v.reason) for v in validate_event_stream(events)] == expected
    assert [(v.index, v.reason) for v in validate_event_stream(e for e in events)] == expected


def reference_dwell_violations(events):
    """Brute force with the dwell rule: a click needs an earlier impression
    of its key at most ``MAX_DWELL_MS`` older; remembers every impression."""
    out = []
    shown = {}
    prev_t = None
    for i, e in enumerate(events):
        if prev_t is not None and e.t < prev_t:
            out.append((i, f"timestamp {e.t} decreases from {prev_t}"))
        prev_t = e.t
        key = (e.agent_id, e.page_id, e.ad_id)
        if e.etype is EventType.IMPRESSION:
            shown.setdefault(key, []).append(e.t)
        elif not any(e.t - t <= MAX_DWELL_MS for t in shown.get(key, ())):
            out.append((i, f"click without matching impression: {key}"))
        if e.slot < 0:
            out.append((i, f"negative slot index {e.slot}"))
    return out


@given(
    st.lists(
        st.tuples(
            st.sampled_from([0, 1, 1000, MAX_DWELL_MS - 1, MAX_DWELL_MS, MAX_DWELL_MS + 1, 3 * MAX_DWELL_MS]),
            st.sampled_from(list(EventType)),
            st.sampled_from(["u1", "u2"]),
            st.integers(0, 2),
            st.sampled_from(["ad-1", "ad-2"]),
            st.integers(-1, 2),
        ),
        max_size=30,
    )
)
def test_validate_event_stream_matches_dwell_reference(rows):
    # Steps of 0 to 3 dwell windows between events: t spans many windows,
    # clicks land just inside and just outside the window of their
    # impression, and impressions age out of both generations.
    events = []
    t = 0
    for step, etype, agent, page, ad, slot in rows:
        t += step
        events.append(Event(t, etype, agent, "10.0.0.1", page, ad, AdKind.REAL, slot))
    assert [(v.index, v.reason) for v in validate_event_stream(events)] == reference_dwell_violations(events)


def test_click_after_dwell_window_is_violation():
    assert validate_event_stream([imp(10), clk(10 + MAX_DWELL_MS)]) == []
    violations = validate_event_stream([imp(10), clk(11 + MAX_DWELL_MS)])
    assert [(v.index, v.reason) for v in violations] == [
        (1, "click without matching impression: ('u1', 0, 'ad-1')")
    ]
