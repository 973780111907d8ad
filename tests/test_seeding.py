import random

from hypothesis import given, settings, strategies as st

from votesim.seeding import draws

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
