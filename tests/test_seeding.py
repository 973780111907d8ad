import random

from hypothesis import given, settings, strategies as st

from votesim.seeding import draws, flags

WIDTHS = (1, 2, 3, 127, 128, 254, 255, 256, 257, 501, 2 ** 32, 2 ** 32 + 5)


def reference(rng, start, stop, count):
    return [start + rng._randbelow(stop - start) for _ in range(count)]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 64), count=st.integers(0, 600), width=st.sampled_from(WIDTHS),
       start=st.sampled_from((0, 1)) | st.integers(-3, 300))
def test_draws_equal_the_randbelow_loop(seed, count, width, start):
    fast, slow = random.Random(seed), random.Random(seed)
    assert draws(fast, start, start + width, count) == reference(slow, start, start + width, count)
    assert fast.getrandbits(32) == slow.getrandbits(32)


def counted(seed):
    """A random.Random whose getrandbits calls are logged by bit count."""
    rng, calls = random.Random(seed), []
    bits = rng.getrandbits
    rng.getrandbits = lambda k: calls.append(k) or bits(k)
    return rng, calls


def test_byte_sized_draws_take_the_loops_words_in_few_calls():
    fast, bulk = counted(7)
    slow, single = counted(7)
    assert draws(fast, 0, 2, 600) == reference(slow, 0, 2, 600)
    assert len(bulk) < 30 and all(k % 32 == 0 for k in bulk)
    assert sum(bulk) // 32 == len(single)


def test_subclass_with_its_own_random_takes_the_loop():
    class Stepped(random.Random):
        def random(self):
            return (super().random() + 0.5) % 1.0

    for width in (2, 100, 255, 600):
        fast, slow = Stepped(11), Stepped(11)
        assert draws(fast, 1, 1 + width, 200) == reference(slow, 1, 1 + width, 200)
        assert fast.random() == slow.random()


def test_subclass_with_its_own_random_draws_wide_values_by_the_loop():
    class Stepped(random.Random):
        def getrandbits(self, k):
            return super().getrandbits(k) ^ 1

    for width in (256, 500, 65535):
        fast, slow = Stepped(12), Stepped(12)
        assert draws(fast, 0, width, 300) == reference(slow, 0, width, 300)
        assert fast.getrandbits(32) == slow.getrandbits(32)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 64), count=st.integers(0, 600),
       width=st.sampled_from((256, 257, 500, 65535, 65536)), start=st.integers(-3, 70000))
def test_sixteen_bit_draws_equal_the_randbelow_loop(seed, count, width, start):
    fast, slow = random.Random(seed), random.Random(seed)
    assert draws(fast, start, start + width, count) == reference(slow, start, start + width, count)
    assert fast.getrandbits(32) == slow.getrandbits(32)


def test_sixteen_bit_draws_take_the_loops_words_in_few_calls():
    for width in (256, 257, 500, 65535):
        fast, bulk = counted(width)
        slow, single = counted(width)
        assert draws(fast, 1, 1 + width, 600) == reference(slow, 1, 1 + width, 600)
        assert len(bulk) < 30 and all(k % 32 == 0 for k in bulk)
        assert sum(bulk) // 32 == len(single)


def test_draws_just_past_sixteen_bits_take_the_loop():
    fast, bulk = counted(3)
    slow, single = counted(3)
    assert draws(fast, 0, 65536, 50) == reference(slow, 0, 65536, 50)
    assert bulk == single and set(bulk) == {17}


def flags_reference(rng, p, count):
    return bytes(rng.random() >= p for _ in range(count))


#: p values whose threshold is exact in bytes (j/256), at the ends, and one ulp off them
SPECIAL_P = (0.0, 1.0, 1 - 2 ** -53, 5e-324, 2 ** -53, 0.5, 0.1, 0.25)


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2 ** 64), count=st.integers(0, 600),
       p=st.sampled_from(SPECIAL_P) | st.integers(0, 256).map(lambda j: j / 256)
       | st.floats(0.0, 1.0) | st.floats(allow_nan=True, allow_infinity=True))
def test_flags_equal_the_random_loop(seed, count, p):
    fast, slow = random.Random(seed), random.Random(seed)
    got = flags(fast, p, count)
    assert type(got) is bytes
    assert got == flags_reference(slow, p, count)
    assert fast.getrandbits(32) == slow.getrandbits(32)


def test_flags_settle_ties_on_the_full_53_bits():
    # p on either side of, and at, a drawn value m / 2**53: each one ties on
    # the top byte, and only the full comparison tells them apart
    for seed in range(200):
        m = random.Random(seed).random() * 2 ** 53
        probe = m + 0.5 if m < 2 ** 52 else m - 1
        for p in (m / 2 ** 53, (m + 1) / 2 ** 53, (m - 1) / 2 ** 53, probe / 2 ** 53):
            fast, slow = random.Random(seed), random.Random(seed)
            assert flags(fast, p, 3) == flags_reference(slow, p, 3), (seed, p)
            assert fast.getrandbits(32) == slow.getrandbits(32)


def test_flags_take_the_loops_words_in_one_call():
    fast, bulk = counted(9)
    slow, _ = counted(9)
    assert flags(fast, 0.3, 500) == flags_reference(slow, 0.3, 500)
    assert bulk == [64 * 500]


def test_subclass_with_its_own_random_takes_the_flag_loop():
    class Stepped(random.Random):
        def random(self):
            return (super().random() + 0.5) % 1.0

    for p in (0.0, 0.1, 0.5, 1.0):
        fast, slow = Stepped(13), Stepped(13)
        assert flags(fast, p, 300) == flags_reference(slow, p, 300)
        assert fast.random() == slow.random()
