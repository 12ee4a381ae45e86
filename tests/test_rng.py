from hypothesis import given, strategies as st

from bluffsim.rng import GOLDEN, MASK64, SplitMix64, _mix


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
        counts[rng.weighted_index(weights)] += 1
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
