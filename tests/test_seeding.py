import random

import pytest
from hypothesis import given, settings, strategies as st

from votesim.seeding import WorldReader, derive_seed, derive_seeds, flags, reseed, spawn


def randranges(rng, start, stop, count):
    """``count`` values as full mode draws them: one ``randrange(start, stop)`` each."""
    return [rng.randrange(start, stop) for _ in range(count)]


def counted(seed):
    """A random.Random whose getrandbits calls are logged by bit count."""
    rng, calls = random.Random(seed), []
    bits = rng.getrandbits
    rng.getrandbits = lambda k: calls.append(k) or bits(k)
    return rng, calls


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


#: widths at each edge of the reader's paths: one byte, 9 to 12 bits, 13 to 16 bits
READER_WIDTHS = (1, 2, 3, 255, 256, 257, 500, 511, 512, 2048, 4095, 4096, 4097, 65535)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 64), width=st.sampled_from(READER_WIDTHS),
       counts=st.lists(st.integers(0, 400), min_size=3, max_size=3),
       words=st.sampled_from((0, 1, 100)) | st.integers(0, 3000), density=st.floats(0.0, 1.0))
def test_reader_reads_the_values_draws_makes(seed, width, counts, words, density):
    marks = random.Random(-seed)
    table = bytes(marks.random() < density for _ in range(width))
    slow = random.Random(seed)
    votes = randranges(slow, 0, 2, counts[0])
    randranges(slow, 0, width, counts[1])
    looked_up = bytes(table[v] for v in randranges(slow, 0, width, counts[2]))
    reader = WorldReader(random.Random(seed), words)
    assert reader.lookup(b"\x00\x01", counts[0]) == bytes(votes)
    reader.skip(width, counts[1])
    assert reader.lookup(table, counts[2]) == looked_up


@pytest.mark.parametrize("width", READER_WIDTHS)
def test_reader_refills_a_short_block_with_just_the_missing_words(width):
    # An empty first block makes every read refill; each refill draws only
    # the words still missing, so the stream ends where the loop leaves it.
    fast, bulk = counted(width)
    slow = random.Random(width)
    table = bytes(v % 3 == 0 for v in range(width))
    reader = WorldReader(fast, 0)
    assert reader.lookup(b"\x00\x01", 300) == bytes(randranges(slow, 0, 2, 300))
    reader.skip(width, 200)
    randranges(slow, 0, width, 200)
    assert reader.lookup(table, 300) == bytes(table[v] for v in randranges(slow, 0, width, 300))
    assert len(bulk) > 5
    assert fast.getrandbits(32) == slow.getrandbits(32)


@pytest.mark.parametrize("width", (0, 65536))
def test_reader_takes_widths_up_to_sixteen_bits(width):
    reader = WorldReader(random.Random(1), 10)
    with pytest.raises(ValueError):
        reader.lookup(bytes(width), 1)
    with pytest.raises(ValueError):
        reader.skip(width, 1)


#: ints a seed or an index may be: negative, 0, and above 2**64
SEED_INTS = st.integers(-2 ** 80, -1) | st.just(0) | st.integers(2 ** 64, 2 ** 80) | st.integers()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(parts=st.lists(SEED_INTS | st.sampled_from(("trial", "world", "")), max_size=3),
       start=SEED_INTS, length=st.integers(0, 12))
def test_seed_helpers_equal_derive_seed_and_spawn(parts, start, length):
    indices = range(start, start + length)
    seeds = list(derive_seeds(tuple(parts), indices))
    assert seeds == [derive_seed(*parts, index) for index in indices]
    # one generator, reseeded for every stream, even after a gauss() draw
    rng = random.Random(1)
    rng.gauss()
    for seed in (*seeds, *parts, start):
        assert reseed(rng, seed, "world") is rng
        assert rng.getstate() == spawn(seed, "world").getstate()
        assert rng.random() == spawn(seed, "world").random()
