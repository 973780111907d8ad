import math
import pickle
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import votesim.group
from votesim.errors import DiscreteLogNotFound, GroupGenerationError
from votesim.group import (
    FIXED_BASE_MIN_USES,
    TINY_GROUP,
    TWO_TABLE_MIN_USES,
    WIDE_COMB_MIN_USES,
    CombTable,
    FixedBase,
    GroupParams,
    default_group,
    discrete_log_bounded,
    generate_group,
    is_probable_prime,
)

# all hand-checkable examples below live in the order-11 subgroup mod 23


def test_tiny_group_satisfies_invariants():
    TINY_GROUP.validate()
    assert pow(2, 11, 23) == 1


def test_default_group_satisfies_invariants():
    params = default_group()
    params.validate()
    assert params.order.bit_length() == 256
    assert params.modulus == 2 * params.order + 1


def test_exp_examples(tiny):
    assert tiny.exp(tiny.generator, 0) == 1
    assert tiny.exp(tiny.generator, 3) == 8
    # exponents reduce modulo the order
    assert tiny.exp(tiny.generator, 12) == tiny.exp(tiny.generator, 1) == 2


def test_mul_inv_examples(tiny):
    assert tiny.mul(16, 18) == 12  # 288 mod 23
    assert tiny.inv(12) == 2       # 12 * 2 = 24 = 1 mod 23
    for a in (2, 4, 8, 16, 9):
        assert tiny.mul(a, tiny.inv(a)) == 1


def test_membership(tiny):
    powers = {tiny.exp(tiny.generator, e) for e in range(11)}
    for value in range(1, 23):
        assert tiny.is_element(value) == (value in powers)


def test_random_scalar_range_and_coverage(tiny):
    rng = random.Random(5)
    draws = [tiny.random_scalar(rng) for _ in range(2000)]
    assert min(draws) >= 1 and max(draws) <= tiny.order - 1
    assert set(draws) == set(range(1, 11))


def test_random_nonce_includes_zero(tiny):
    rng = random.Random(5)
    draws = {tiny.random_nonce(rng) for _ in range(2000)}
    assert draws == set(range(11))


@given(a=st.integers(0, 10), b=st.integers(0, 10))
def test_exponent_addition_law(a, b):
    g = TINY_GROUP.generator
    left = TINY_GROUP.mul(TINY_GROUP.exp(g, a), TINY_GROUP.exp(g, b))
    assert left == TINY_GROUP.exp(g, (a + b) % TINY_GROUP.order)


@given(a=st.integers(1, 22))
def test_inverse_is_two_sided(a):
    if not TINY_GROUP.is_element(a):
        a = TINY_GROUP.exp(TINY_GROUP.generator, a)
    assert TINY_GROUP.mul(a, TINY_GROUP.inv(a)) == 1
    assert TINY_GROUP.mul(TINY_GROUP.inv(a), a) == 1


def test_generate_group_tests_only_q_whose_2q_plus_1_passes_the_sieve(monkeypatch):
    tested = []
    real_test = votesim.group.is_probable_prime

    def spy(n):
        tested.append(n)
        return real_test(n)

    monkeypatch.setattr(votesim.group, "is_probable_prime", spy)
    for bits, seed in ((24, 7), (48, 1), (64, 2)):
        tested.clear()
        params = generate_group(bits, random.Random(seed))
        candidates = [n for n in tested if n.bit_length() == bits - 1]
        assert params.order in candidates
        assert not any(votesim.group._has_sieve_factor(2 * q + 1) for q in candidates)


def test_generate_group_is_deterministic_and_valid():
    a = generate_group(16, random.Random(42))
    b = generate_group(16, random.Random(42))
    assert a == b
    a.validate()
    assert a.modulus.bit_length() == 16


def test_generate_group_rejects_small_bits():
    with pytest.raises(ValueError):
        generate_group(8, random.Random(1))


def test_generate_group_gives_up_quickly_without_attempts():
    with pytest.raises(GroupGenerationError):
        generate_group(64, random.Random(1), max_attempts=1)


def test_is_probable_prime_small_cases():
    primes = {2, 3, 5, 7, 11, 13, 23, 97, 3233 // 53}
    for n in range(2, 100):
        expected = all(n % d for d in range(2, n))
        assert is_probable_prime(n) == expected, n
    assert not is_probable_prime(3233)


_REFERENCE_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                    53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def reference_is_probable_prime(n):
    """The predicate before trial division by one gcd: 25 trial divisions, then
    Miller-Rabin with the same 25 bases."""
    if n < 2:
        return False
    for p in _REFERENCE_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _REFERENCE_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


PRIMES_BELOW_1000 = [n for n in range(2, 1000) if all(n % d for d in range(2, n))]

#: strong pseudoprimes to base 2 that only the Lucas test rejects, two of them
#: squares of Wieferich primes (1093**2, 3511**2)
BASE_2_PSEUDOPRIMES = (1678541, 2284453, 3125281, 3375041, 4513841, 21359521, 1194649, 12327121)
#: strong Lucas pseudoprimes that only the base-2 round rejects
LUCAS_PSEUDOPRIMES = (1711469, 2263127, 2518889, 2624399)
#: Carmichael numbers, and strong pseudoprimes to the first prime bases up to 41
#: (the last one sets the 3.3e24 bound below which 25 bases are deterministic);
#: then the two sets above. Each of those two has a prime factor in [1000, 4096),
#: as have 1373653, 25326001 and 3474749660383, so trial division rejects them
#: before either round runs; test_each_bpsw_round_rejects_the_others_pseudoprimes
#: checks the rounds on them directly.
PSEUDOPRIMES = (
    561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 46657,
    52633, 62745, 63973, 75361, 101101, 115921, 126217, 162401, 172081, 188461,
    252601, 278545, 294409, 314821, 334153, 340561, 399001, 410041, 449065,
    488881, 512461, 825265, 2047, 1373653, 25326001, 3215031751, 2152302898747,
    3474749660383, 341550071728321, 3825123056546413051,
    318665857834031151167461, 3317044064679887385961981,
    *BASE_2_PSEUDOPRIMES, *LUCAS_PSEUDOPRIMES,
)


def test_sieved_prime_test_matches_reference_below_3000():
    for n in range(-3, 3000):
        assert is_probable_prime(n) == reference_is_probable_prime(n), n


def test_sieved_prime_test_rejects_pseudoprimes():
    for n in PSEUDOPRIMES:
        assert not is_probable_prime(n), n
        assert not reference_is_probable_prime(n), n


def test_each_bpsw_round_rejects_the_others_pseudoprimes():
    for n in BASE_2_PSEUDOPRIMES:
        assert votesim.group._has_sieve_factor(n), n
        assert votesim.group._is_strong_probable_prime_base_2(n), n
        assert not votesim.group._is_strong_lucas_probable_prime(n), n
    for n in LUCAS_PSEUDOPRIMES:
        assert votesim.group._has_sieve_factor(n), n
        assert votesim.group._is_strong_lucas_probable_prime(n), n
        assert not votesim.group._is_strong_probable_prime_base_2(n), n


@settings(max_examples=300, deadline=None)
@given(n=st.one_of(st.integers(0, 2 ** 600), st.integers(0, 2 ** 64), st.integers(-2 ** 70, 0)))
def test_sieved_prime_test_matches_reference(n):
    assert is_probable_prime(n) == reference_is_probable_prime(n)


def next_reference_prime(n):
    while not reference_is_probable_prime(n):
        n += 1
    return n


@settings(max_examples=60, deadline=None)
@given(x=st.integers(1000, 2 ** 600), y=st.integers(1000, 2 ** 300))
def test_sieved_prime_test_matches_reference_on_primes_and_semiprimes(x, y):
    p, q = next_reference_prime(x), next_reference_prime(y)
    assert is_probable_prime(p) and is_probable_prime(q)
    assert not is_probable_prime(p * q)
    assert not reference_is_probable_prime(p * q)


def test_sieved_prime_test_rejects_products_of_sieve_primes():
    # every product of two primes in 101-997: the old trial division missed all of them
    primes = [p for p in PRIMES_BELOW_1000 if p > 100]
    for i, p in enumerate(primes):
        for q in primes[i:]:
            assert not is_probable_prime(p * q), (p, q)
            assert not reference_is_probable_prime(p * q), (p, q)


def count_pows(monkeypatch):
    """Count the modexps is_probable_prime makes, through the module's `pow`."""
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(votesim.group, "pow", counting_pow, raising=False)
    return calls


def test_small_factors_cost_no_modexp(monkeypatch):
    calls = count_pows(monkeypatch)
    big_prime = 2 ** 127 - 1
    for p in PRIMES_BELOW_1000:
        assert is_probable_prime(p)
        assert not is_probable_prime(p * 1009)
        assert not is_probable_prime(p * big_prime)
    assert calls == []


def test_sieve_stages_cover_every_prime_below_4096(monkeypatch):
    primes = [n for n in range(2, 4096) if all(n % d for d in range(2, math.isqrt(n) + 1))]
    assert sorted(votesim.group._SIEVE_PRIMES) == primes
    assert math.prod(votesim.group._SIEVE_STAGES) == math.prod(primes)
    calls = count_pows(monkeypatch)
    big_prime = 2 ** 127 - 1
    for p in primes:
        assert is_probable_prime(p)
        assert not is_probable_prime(p * 4099)
        assert not is_probable_prime(p * big_prime)
    assert calls == []


def test_prime_costs_one_modexp(monkeypatch):
    # the base-2 round is the only pow; the Lucas test doubles by hand
    calls = count_pows(monkeypatch)
    n = 2 ** 127 - 1
    assert is_probable_prime(n)
    assert calls == [(2, (n - 1) // 2, n)]


def test_lucas_test_rejects_a_square_at_once():
    # no D has (D/n) = -1 for a square n, so only the square check ends this
    start = time.perf_counter()
    assert not votesim.group._is_strong_lucas_probable_prime((2 ** 61 - 1) ** 2)
    assert time.perf_counter() - start < 1.0


def reference_jacobi(a, n):
    """The Jacobi symbol, stripping one factor of two per step."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def test_jacobi_matches_reference():
    jacobi = votesim.group._jacobi
    for n in range(1, 400, 2):
        for a in range(-5, 3 * n):
            assert jacobi(a, n) == reference_jacobi(a, n), (a, n)
    modulus = default_group().modulus
    rng = random.Random(13)
    for _ in range(2000):
        a = rng.randrange(modulus)
        assert jacobi(a, modulus) == reference_jacobi(a, modulus)


def test_dlog_examples(tiny):
    assert discrete_log_bounded(tiny, 1, 5) == 0
    assert discrete_log_bounded(tiny, 9, 10) == 5  # 2**5 = 32 = 9 mod 23
    with pytest.raises(DiscreteLogNotFound):
        discrete_log_bounded(tiny, 7, 10)  # 7 is not a power of 2 mod 23
    with pytest.raises(DiscreteLogNotFound):
        discrete_log_bounded(tiny, 9, 3)  # exponent 5 above bound 3


def test_dlog_rejects_negative_bound(tiny):
    with pytest.raises(ValueError):
        discrete_log_bounded(tiny, 1, -1)


@settings(max_examples=40)
@given(exponent=st.integers(0, 100), data=st.data())
def test_dlog_roundtrip_property(big, exponent, data):
    bound = data.draw(st.integers(exponent, 120))
    target = big.exp(big.generator, exponent)
    assert discrete_log_bounded(big, target, bound) == exponent


def test_dlog_roundtrip_in_generated_group():
    params = generate_group(24, random.Random(7))
    rng = random.Random(9)
    for _ in range(50):
        exponent = rng.randrange(0, 60)
        target = params.exp(params.generator, exponent)
        assert discrete_log_bounded(params, target, 60) == exponent


# fixed-base comb tables and the element memo: every result must equal the
# plain computation, on a hand-sized, the default and a generated group
GROUPS = {
    "tiny": TINY_GROUP,
    "default": default_group(),
    "generated24": generate_group(24, random.Random(7)),
    # order 5 in the integers mod 31, which is not 2 * 5 + 1
    "nonsafe31": GroupParams(31, 5, 2),
}


def edge_exponents(order):
    return [0, 1, 2, order - 1, order, order + 1, 2 * order, -1, -order, -order - 1,
            2**300, 2**300 + 1, -(2**300)]


exponents = st.one_of(st.integers(-(2**40), 2**40), st.integers(-(2**310), 2**310),
                      st.integers(2**300, 2**320))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(GROUPS)), data=st.data())
def test_table_exp_matches_pow(name, data):
    group = GROUPS[name]
    p, q, g = group.modulus, group.order, group.generator
    # members, non-members, 0, and values outside [0, p) alike
    base = data.draw(st.one_of(st.integers(1, q - 1).map(lambda e: pow(g, e, p)),
                               st.integers(-p, 2 * p)))
    assert group.fixed_base(base, FIXED_BASE_MIN_USES - 1) is base
    # uses on both sides of WIDE_COMB_MIN_USES and TWO_TABLE_MIN_USES give all three comb shapes
    uses = data.draw(st.integers(FIXED_BASE_MIN_USES, 64))
    fixed = group.fixed_base(base, uses)
    assert type(fixed) is FixedBase and fixed == base and fixed.uses == uses
    # a FixedBase raised in another group is a plain int there
    other = GROUPS["tiny"] if group is not GROUPS["tiny"] else GROUPS["generated24"]
    for e in edge_exponents(q) + data.draw(st.lists(exponents, min_size=1, max_size=6)):
        assert group.exp(g, e) == pow(g, e % q, p)
        assert group.exp(fixed, e) == pow(base, e % q, p)
        assert other.exp(fixed, e) == pow(base, e % other.order, other.modulus)


def test_comb_table_matches_pow_at_every_small_width():
    # every tooth count and span the bit lengths 1-40 give, and tails of
    # exponents that fill or miss the top tooth; the last shape is the
    # generator's, one 8-tooth table of span 1 per byte
    rng = random.Random(13)
    for bits in range(1, 41):
        modulus = rng.randrange(2**bits, 2**(bits + 8)) | 1
        base = rng.randrange(-modulus, 2 * modulus)
        exponents = [0, 1, 2**bits - 1, 2**(bits - 1)] + [rng.randrange(2**bits) for _ in range(20)]
        byte_digits = -(-bits // 8)
        for width, tables, teeth in ((bits, 1, 8), (bits, 2, 8), (bits, 2, 4),
                                     (8 * byte_digits, byte_digits, 8)):
            table = CombTable(base, modulus, width, tables, teeth)
            assert table.teeth <= teeth
            assert table.teeth * table.span * tables >= bits
            assert [table.exp(e) for e in exponents] == [pow(base, e, modulus) for e in exponents]
        assert (table.teeth, table.span, len(table.rows)) == (8, 1, byte_digits)


@pytest.mark.parametrize("name, entries", [("tiny", (4, 16, 4)), ("default", (16, 256, 256))])
def test_fixed_base_builds_two_tables_from_the_crossover(name, entries):
    group = GROUPS[name]
    base = pow(group.generator, 7, group.modulus)
    narrow, one_table, two_tables = entries
    for uses, sizes in ((FIXED_BASE_MIN_USES, [narrow] * 2), (WIDE_COMB_MIN_USES - 1, [narrow] * 2),
                        (WIDE_COMB_MIN_USES, [one_table]), (TWO_TABLE_MIN_USES - 1, [one_table]),
                        (TWO_TABLE_MIN_USES, [two_tables] * 2)):
        fixed = group.fixed_base(base, uses)
        assert fixed.table is None
        assert group.exp(fixed, 5) == pow(base, 5, group.modulus)
        assert type(fixed.table) is CombTable
        assert [len(row) for row in fixed.table.rows] == sizes


def uncached_is_element(group, value):
    return 1 <= value <= group.modulus - 1 and pow(value, group.order, group.modulus) == 1


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(GROUPS)), data=st.data())
def test_is_element_matches_uncached(name, data):
    group = GROUPS[name]
    p, q, g = group.modulus, group.order, group.generator
    fresh = GroupParams(p, q, g)
    values = data.draw(st.lists(st.one_of(
        st.sampled_from([0, 1, g, p - 1, p, p + 1, -1]),
        st.integers(1, q - 1).map(lambda e: pow(g, e, p)),
        st.integers(-p, 2 * p),
    ), max_size=40))
    # every residue of the two smallest groups, one of them not safe-prime
    residues = list(range(p)) if p < 100 else []
    # a FixedBase keeps the verdict of its own group, so ask each one twice
    fixed = [fresh.fixed_base(value, FIXED_BASE_MIN_USES) for value in values]
    for value in residues + values + fixed + values[::-1] + fixed[::-1]:
        assert fresh.is_element(value) == uncached_is_element(group, value)
        assert group.is_element(value) == uncached_is_element(group, value)
    assert all(type(value) is FixedBase for value in fixed)
    assert all(value.is_element == uncached_is_element(group, value) for value in fixed)


def test_fixed_base_keeps_the_verdict_of_its_own_group(monkeypatch):
    jacobi_calls = []
    jacobi = votesim.group._jacobi

    def counting_jacobi(a, n):
        jacobi_calls.append(n)
        return jacobi(a, n)

    monkeypatch.setattr(votesim.group, "_jacobi", counting_jacobi)
    group = GroupParams(TINY_GROUP.modulus, TINY_GROUP.order, TINY_GROUP.generator)
    square, nonsquare = (group.fixed_base(value, FIXED_BASE_MIN_USES) for value in (4, 7))
    for _ in range(3):
        assert group.is_element(square) and not group.is_element(nonsquare)
    assert jacobi_calls == [23, 23]
    assert (square.is_element, nonsquare.is_element) == (True, False)

    # an equal group and a group mod 47, where 7 is a square, each take their own verdict
    for other in (GroupParams(23, 11, 2), GroupParams(47, 23, 2)):
        jacobi_calls.clear()
        for _ in range(2):
            assert other.is_element(square)
            assert other.is_element(nonsquare) == (other.modulus == 47)
        assert jacobi_calls == [other.modulus] * 4
    assert (square.is_element, nonsquare.is_element) == (True, False)

    # plain ints are never remembered
    jacobi_calls.clear()
    for _ in range(3):
        assert group.is_element(4) and not group.is_element(7)
    assert len(jacobi_calls) == 6


def test_caches_stay_out_of_equality_and_repr():
    group = GroupParams(TINY_GROUP.modulus, TINY_GROUP.order, TINY_GROUP.generator)
    group.exp(group.generator, 3)
    group.is_element(4)
    assert group == TINY_GROUP and hash(group) == hash(TINY_GROUP)
    assert repr(group) == "GroupParams(modulus=23, order=11, generator=2)"
    assert default_group() is default_group()


def test_a_pickled_group_or_fixed_base_carries_no_table():
    big = default_group()
    big.exp(big.generator, 5)  # builds the generator table
    data = pickle.dumps(big)
    assert len(data) < 100 and pickle.loads(data) is big
    fixed = big.fixed_base(big.generator + 1, TWO_TABLE_MIN_USES)
    big.exp(fixed, 7)
    assert fixed.table is not None
    data = pickle.dumps(fixed)
    loaded = pickle.loads(data)
    assert len(data) < 300 and type(loaded) is FixedBase and loaded == fixed
    assert loaded.group is big and loaded.uses == TWO_TABLE_MIN_USES and loaded.table is None
    assert big.exp(loaded, 7) == big.exp(fixed, 7) == pow(fixed, 7, big.modulus)
    # another group loads as a new instance, with no table until its first
    # generator exp there
    other = generate_group(24, random.Random(1))
    other.exp(other.generator, 3)
    loaded = pickle.loads(pickle.dumps(other))
    assert loaded == other and loaded is not other and loaded._generator_table is None
    assert loaded.exp(loaded.generator, 3) == other.exp(other.generator, 3)
