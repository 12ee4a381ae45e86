import pytest
from hypothesis import given, strategies as st

from bluffsim import rng as rng_module
from bluffsim.rng import GOLDEN, MASK64, SplitMix64, _mix
from bluffsim.traffic import MAX_PAGES_PER_AGENT
from conftest import weighted_index


def test_reference_vector_from_state_zero():
    # Canonical SplitMix64 outputs for initial state 0.
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_streams_are_independent_of_each_other():
    a = SplitMix64.for_stream(42, stream=1)
    b = SplitMix64.for_stream(42, stream=2)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_same_tuple_reproduces():
    a = SplitMix64.for_stream(7, stream=3, instance=11)
    b = SplitMix64.for_stream(7, stream=3, instance=11)
    assert [a.next_u64() for _ in range(16)] == [b.next_u64() for _ in range(16)]


def test_instance_isolation():
    # Draws in one instance's stream never depend on other instances existing.
    lone = SplitMix64.for_stream(5, stream=1, instance=3)
    expected = [lone.next_u64() for _ in range(4)]
    others = [SplitMix64.for_stream(5, stream=1, instance=i) for i in range(10)]
    for other in others[:3]:
        other.next_u64()
    again = SplitMix64.for_stream(5, stream=1, instance=3)
    assert [again.next_u64() for _ in range(4)] == expected


@given(st.integers(min_value=0, max_value=MASK64))
def test_mix_stays_in_range(z):
    assert 0 <= _mix(z) <= MASK64


def test_random_unit_interval():
    rng = SplitMix64.for_stream(1, stream=1)
    xs = [rng.random() for _ in range(10_000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert abs(sum(xs) / len(xs) - 0.5) < 0.02


@given(st.integers(min_value=1, max_value=1000), st.integers(min_value=0, max_value=2**64 - 1))
def test_randrange_bounds(n, seed):
    rng = SplitMix64.for_stream(seed, stream=9)
    for _ in range(20):
        assert 0 <= rng.randrange(n) < n


def test_poisson_mean_and_variance():
    rng = SplitMix64.for_stream(3, stream=4)
    lam = 12.0
    draws = [rng.poisson(lam) for _ in range(20_000)]
    mean = sum(draws) / len(draws)
    var = sum((d - mean) ** 2 for d in draws) / len(draws)
    assert abs(mean - lam) < 0.15
    assert abs(var - lam) < 0.6


def test_poisson_zero_rate():
    rng = SplitMix64.for_stream(3, stream=4)
    assert rng.poisson(0.0) == 0


def test_expovariate_mean():
    rng = SplitMix64.for_stream(8, stream=4)
    draws = [rng.expovariate(30_000.0) for _ in range(20_000)]
    assert abs(sum(draws) / len(draws) - 30_000.0) < 1_000.0


def test_weighted_index_follows_weights():
    rng = SplitMix64.for_stream(11, stream=4)
    weights = [1.0, 0.0, 3.0]
    counts = [0, 0, 0]
    for _ in range(20_000):
        counts[weighted_index(rng, weights)] += 1
    assert counts[1] == 0
    assert abs(counts[2] / 20_000 - 0.75) < 0.02


class TwoCallReference:
    """SplitMix64 as written before the finaliser was inlined: every draw
    advances the state and calls ``_mix`` on it."""

    def __init__(self, state):
        self.state = state & MASK64

    def next_u64(self):
        self.state = (self.state + GOLDEN) & MASK64
        return _mix(self.state)

    def random(self):
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randrange(self, n):
        limit = ((1 << 64) // n) * n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n


_DRAWS = st.lists(
    st.one_of(st.just("next_u64"), st.just("random"), st.integers(min_value=1, max_value=1 << 64)),
    max_size=40,
)


@given(st.integers(min_value=0, max_value=1 << 70), _DRAWS)
def test_draws_equal_two_call_reference(state, draws):
    rng, ref = SplitMix64(state), TwoCallReference(state)
    for draw in draws:
        if isinstance(draw, int):
            assert rng.randrange(draw) == ref.randrange(draw)
        else:
            assert getattr(rng, draw)() == getattr(ref, draw)()


@given(st.integers(min_value=0, max_value=MASK64), st.integers(0, 8), st.integers(min_value=0, max_value=1 << 40))
def test_for_stream_equals_folded_mix(seed, stream, instance):
    state = _mix(_mix(_mix(seed) ^ (stream * GOLDEN & MASK64)) ^ (instance * GOLDEN & MASK64))
    rng, ref = SplitMix64.for_stream(seed, stream, instance), TwoCallReference(state)
    assert [rng.next_u64() for _ in range(4)] == [ref.next_u64() for _ in range(4)]


def three_mix_state(seed, stream, instance):
    """The stream's initial state derived in full on every call: seed, then
    stream, then instance, each folded in and mixed."""
    s = _mix(seed & MASK64)
    s = _mix(s ^ ((stream & MASK64) * GOLDEN & MASK64))
    return _mix(s ^ ((instance & MASK64) * GOLDEN & MASK64))


_STREAMS = sorted(value for name, value in vars(rng_module).items() if name.startswith("STREAM_"))


def test_for_stream_with_cached_prefix_equals_three_mix_reference():
    # Agent i's page-view streams start at i * 2**20 (traffic._event_batches);
    # the click streams sit at 2**32 + i.
    instances = [0, 1, (1 << 32) + 7, MASK64, 1 << 64]
    for i in (0, 1, 2, 999):
        instances += [i * 2**20 + counter for counter in (0, 1, MAX_PAGES_PER_AGENT - 1)]
    assert len(_STREAMS) == 4
    for seed in (0, 2**64 - 1, 2**64):
        for stream in _STREAMS:
            for instance in instances:
                rng = SplitMix64.for_stream(seed, stream, instance)
                ref = TwoCallReference(three_mix_state(seed, stream, instance))
                assert [rng.next_u64() for _ in range(3)] == [ref.next_u64() for _ in range(3)]
    # Seed 2**64 wraps to seed 0.
    assert SplitMix64.for_stream(2**64, 1, 5).next_u64() == SplitMix64.for_stream(0, 1, 5).next_u64()


def test_for_stream_prefix_cache_evicts_without_changing_streams():
    maxsize = rng_module._stream_prefix.cache_info().maxsize
    pairs = [(seed, stream) for seed in range(maxsize) for stream in _STREAMS]
    assert len(pairs) > maxsize
    for _ in range(2):  # the second pass finds the first pass's pairs evicted
        for seed, stream in pairs:
            for instance in (0, 3, 2**20 + 1):
                got = SplitMix64.for_stream(seed, stream, instance).next_u64()
                assert got == TwoCallReference(three_mix_state(seed, stream, instance)).next_u64()
    assert rng_module._stream_prefix.cache_info().currsize == maxsize


def test_for_stream_refuses_a_float_seed_even_when_its_int_is_cached():
    SplitMix64.for_stream(5, 1, 0)
    with pytest.raises(TypeError):
        SplitMix64.for_stream(5.0, 1, 0)
