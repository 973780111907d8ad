"""Prime-order cyclic group arithmetic used by the homomorphic voting protocols.

The group is the order-q subgroup of squares modulo a safe prime p = 2q + 1.
Group elements and scalars are plain Python integers; :class:`GroupParams`
carries the modulus, the subgroup order, and a generator, and provides the
arithmetic. Everything is simulation-grade: no constant-time hardening.

Two caches make the hot paths cheap without changing any result:

* ``GroupParams.exp`` raises fixed bases through Lim-Lee combs
  (:class:`CombTable`, CRYPTO '94) shaped by the number of exps each will
  serve. The generator's serves any number: one 8-tooth, span-1 table per
  exponent byte, which is the 8-bit window table of Brickell, Gordon,
  McCurley and Wilson (EUROCRYPT '92), kept on the ``GroupParams`` instance
  that ``default_group()`` shares across the process. A :class:`FixedBase`,
  made of each sampled key and busy aggregate, gets one or two tables and
  dies with the value. At 256-bit order a narrow comb of two 4-tooth tables
  costs about 0.9 ``pow`` calls to build and each exp then costs about 0.34
  of one; one 8-tooth table costs about 1.7 ``pow`` to build and 0.23 per
  exp; a second 8-tooth table costs another 0.9 ``pow`` and cuts each exp to
  about 0.19 of one.
* ``GroupParams.is_element`` keeps its verdict on a :class:`FixedBase` of its
  own group, so each sampled key is checked once however many voters encrypt
  under it; plain ints are checked every time. In a safe-prime group a
  verdict is a Jacobi symbol, about a quarter of a ``pow``.

Every ``exp`` result still equals ``pow(base, exponent % order, modulus)``.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field

from .errors import DiscreteLogNotFound, GroupGenerationError

#: trial division covers every prime below this bound, at most 2**15 (see generate_group)
SIEVE_BOUND = 4096


def _primes_below(bound: int) -> list[int]:
    """The primes below `bound`, by the sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (bound - 2)
    for p in range(2, math.isqrt(bound - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, bound, p)))
    return [p for p in range(bound) if sieve[p]]


_SIEVE_PRIMES = frozenset(_primes_below(SIEVE_BOUND))
#: products of the primes in [2, 50), [50, 1000) and [1000, SIEVE_BOUND)
_SIEVE_STAGES = tuple(math.prod(p for p in _SIEVE_PRIMES if low <= p < high)
                      for low, high in ((2, 50), (50, 1000), (1000, SIEVE_BOUND)))


def _has_sieve_factor(n: int) -> bool:
    """True iff a prime below SIEVE_BOUND divides n; stops at the first stage that finds one."""
    return any(math.gcd(n, product) != 1 for product in _SIEVE_STAGES)


def is_probable_prime(n: int) -> bool:
    """The Baillie-PSW test: trial division by the primes below SIEVE_BOUND,
    one strong Miller-Rabin round to base 2, then one strong Lucas test.

    The trial division is one gcd each with the products of the primes below
    50, to 1000 and to 4096, stopping at the first common factor; it leaves
    13.5 % of random odd n for the modexps. The two probable-prime tests are
    Baillie and Wagstaff's (Math. Comp. 1980) with Selfridge's parameters
    (Pomerance, Selfridge and Wagstaff, Math. Comp. 1980). Their failure sets
    look unrelated: no composite is known to pass both, and none exists below
    2**64, since every base-2 strong pseudoprime there has been listed
    (Feitsma and Galway) and each one fails the Lucas test. That is ample for
    the 256-bit group and 512-bit RSA parameters simulated here.
    """
    if n < 2:
        return False
    if _has_sieve_factor(n):
        return n in _SIEVE_PRIMES
    return _is_strong_probable_prime_base_2(n) and _is_strong_lucas_probable_prime(n)


def _is_strong_probable_prime_base_2(n: int) -> bool:
    """One strong Miller-Rabin round for odd n > 2: with n - 1 = d * 2**s, n
    passes iff 2**d = 1 or 2**(d * 2**r) = -1 (mod n) for some 0 <= r < s."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(2, (n - 1) >> s, n)
    if x == 1:
        return True
    for _ in range(s):
        if x == n - 1:
            return True
        x = x * x % n
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and n & 7 in (3, 5):
            sign = -sign
        if a & n & 3 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def _is_strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test for odd n > 2, with Selfridge's method A.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4. Writing n + 1 = d * 2**s, n passes iff U_d = 0 or
    V_(d * 2**r) = 0 (mod n) for some 0 <= r < s.
    """
    root = math.isqrt(n)
    if root * root == n:
        return False  # no D has (D/n) = -1, so the search below would run on
    D = 5
    while True:
        symbol = _jacobi(D, n)
        if symbol == -1:
            break
        if symbol == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    # U_k, V_k and Q**k from k = 1, doubling and stepping k up to d by its bits
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U = U * V % n
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U = (U + n if U & 1 else U) // 2 % n
            V = (V + n if V & 1 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


#: maps the ASCII digits of a bit string to the bytes 0 and 1
_BIT_BYTES = bytes(c == ord("1") for c in range(256))


class CombTable:
    """Fixed-base exponentiation by the Lim-Lee comb (CRYPTO '94).

    The exponent's bits are cut into ``tables * teeth`` teeth of ``span``
    bits each, tooth t holding bits t*span to (t+1)*span - 1; ``teeth`` is 8
    or 4, or fewer for exponents too short to fill them. Table k holds, for
    every ``teeth``-bit digit d, the product of base**(2**(t*span)) over the
    teeth t = k*teeth + i whose bit i is set in d. Column c of the exponent,
    bit c of every tooth, then names one entry per table, and base**e is
    ``span`` rounds of one squaring and one multiplication per table. With 8
    teeth, one table costs about one squaring per bit and 255 multiplications
    to build; a second table adds 255 multiplications and halves the
    squarings of each exp. Two tables of 4 teeth cost the squarings of one
    8-tooth table and 30 multiplications to build, and one multiplication
    more per round of each exp.

    With 8 teeth of one bit, table k holds base**(d * 256**k) for each byte d:
    the 8-bit window table of Brickell, Gordon, McCurley and Wilson (EUROCRYPT
    '92). exp then costs one multiplication per nonzero exponent byte and no
    squaring, and takes any number of tables; other shapes have one or two.
    """

    __slots__ = ("modulus", "teeth", "span", "rows")

    def __init__(self, base: int, modulus: int, bits: int, tables: int, teeth: int = 8):
        # a power of two, so that exp can gather the digits in log2(teeth) folds
        self.teeth = teeth = min(teeth, 1 << (-(-bits // tables)).bit_length() - 1)
        self.span = span = -(-bits // (tables * teeth))
        self.modulus = modulus
        powers = [base % modulus]
        for _ in range(tables * teeth - 1):
            power = powers[-1]
            for _ in range(span):
                power = power * power % modulus
            powers.append(power)
        self.rows = []
        for k in range(tables):
            row = [1]
            for power in powers[k * teeth:(k + 1) * teeth]:
                row += [entry * power % modulus for entry in row]
            self.rows.append(row)

    def exp(self, exponent: int) -> int:
        """base ** exponent for 0 <= exponent < 2**bits."""
        span, teeth = self.span, self.teeth
        modulus = self.modulus
        if span == 1 and teeth == 8:
            digits = exponent.to_bytes((exponent.bit_length() + 7) // 8, "little")
            acc = 1
            for row, digit in zip(self.rows, digits):
                if digit:
                    acc = acc * row[digit] % modulus
            return acc
        # One byte per bit of the exponent, lowest bit last; each fold adds
        # the upper half of every group of teeth onto the lower half, shifted
        # into bits of its own, until byte c of tooth k*teeth holds column c's
        # digit of table k. No byte ever carries into the next.
        merged = int.from_bytes(format(exponent, "b").encode().translate(_BIT_BYTES), "big")
        folded = teeth
        while folded > 1:
            folded >>= 1
            merged += merged >> (8 * span * folded) << folded
        data = merged.to_bytes(len(self.rows) * teeth * span, "big")
        if len(self.rows) == 1:
            row = self.rows[0]
            acc = 1
            for digit in data[-span:]:
                acc = acc * acc % modulus * row[digit] % modulus
            return acc
        low, high = self.rows
        acc = 1
        for low_digit, high_digit in zip(data[-span:], data[-(teeth + 1) * span:-teeth * span]):
            acc = acc * acc % modulus * low[low_digit] % modulus * high[high_digit] % modulus
        return acc


#: Fewest exps of one base for which a narrow CombTable (two 4-tooth tables)
#: is cheaper than pow. At 256-bit order the comb costs about 0.9 pow calls to
#: build and each use then saves about 0.66 of one: build and 2 exps took 200
#: us against 254 us for 2 pow calls, build and 1 exp 163 us against 132 us.
FIXED_BASE_MIN_USES = 2
#: Fewest exps of one base for which one 8-tooth table is cheaper than the
#: narrow comb. It costs about 0.85 pow calls more to build and saves about
#: 0.11 of one per exp. Measured as build plus u exps, paired per base: the
#: narrow comb took 0.986 of the 8-tooth time at 7 uses and 1.024 at 8.
WIDE_COMB_MIN_USES = 8
#: Fewest exps of one base for which a two-table CombTable is cheaper than one
#: table. At 256-bit order the second table costs about 0.9 pow calls more to
#: build and saves about 0.05 of one per exp: the costs cross at about 19 uses.
TWO_TABLE_MIN_USES = 20


class FixedBase(int):
    """A group element that will be raised to many exponents in one group.

    ``group.exp`` raises it through a :class:`CombTable` built on the first
    such call and dropped with the value, shaped by its use count: two
    4-tooth tables below WIDE_COMB_MIN_USES uses, one 8-tooth table from
    there, and two from TWO_TABLE_MIN_USES. The generator's comb is the same
    type in its widest shape. ``group.is_element`` keeps its verdict in the
    ``is_element`` attribute. Every other group, and every other operation,
    treats it as a plain int. Make one with ``GroupParams.fixed_base``.
    """

    def __new__(cls, value: int, group: "GroupParams", uses: int):
        self = super().__new__(cls, value)
        self.group = group
        self.uses = uses
        self.table = None
        self.is_element = None
        return self

    def __reduce__(self):
        # pickled without its table or verdict, which the loading process rebuilds
        return FixedBase, (int(self), self.group, self.uses)


@dataclass(frozen=True)
class GroupParams:
    """A cyclic group of prime order inside the integers modulo a safe prime."""

    modulus: int
    order: int
    generator: int
    _generator_table: CombTable | None = field(
        default=None, init=False, compare=False, hash=False, repr=False)

    def __reduce__(self):
        # pickled without the generator table: the default group loads as its
        # one instance, another group as a new one that builds its own
        if self == _DEFAULT_GROUP:
            return default_group, ()
        return GroupParams, (self.modulus, self.order, self.generator)

    def validate(self) -> None:
        if not is_probable_prime(self.modulus):
            raise ValueError("modulus is not prime")
        if not is_probable_prime(self.order):
            raise ValueError("order is not prime")
        if (self.modulus - 1) % self.order != 0:
            raise ValueError("order does not divide modulus - 1")
        if not 2 <= self.generator <= self.modulus - 1:
            raise ValueError("generator out of range")
        if pow(self.generator, self.order, self.modulus) != 1:
            raise ValueError("generator does not have the declared order")

    def is_element(self, value: int) -> bool:
        """Membership test for the order-q subgroup.

        When the modulus is the safe prime 2q + 1, as in every group this
        module makes, the subgroup is the quadratic residues, and the Jacobi
        symbol decides membership without a modexp. Any other group takes
        pow(value, q, modulus) == 1. A FixedBase of this group keeps its
        verdict, so it is computed once per value.
        """
        fixed = type(value) is FixedBase and value.group is self
        if fixed and value.is_element is not None:
            return value.is_element
        key = operator.index(value)
        modulus = self.modulus
        if not 1 <= key < modulus:
            verdict = False
        elif modulus == 2 * self.order + 1:
            verdict = _jacobi(key, modulus) == 1
        else:
            verdict = pow(key, self.order, modulus) == 1
        if fixed:
            value.is_element = verdict
        return verdict

    def exp(self, base: int, exponent: int) -> int:
        """base ** exponent in the subgroup; exponents live modulo the order.

        The generator goes through one 8-tooth, span-1 comb table per byte of
        the order, built once per instance; a FixedBase through its own comb.
        """
        exponent %= self.order
        if base == self.generator:
            table = self._generator_table
            if table is None:
                # whole bytes, or CombTable would cut fewer teeth of a wider span
                tables = -(-self.order.bit_length() // 8)
                table = CombTable(base, self.modulus, 8 * tables, tables)
                object.__setattr__(self, "_generator_table", table)
            return table.exp(exponent)
        if type(base) is FixedBase and base.group is self:
            if base.table is None:
                bits = self.order.bit_length()
                if base.uses < WIDE_COMB_MIN_USES:
                    base.table = CombTable(base, self.modulus, bits, 2, 4)
                else:
                    tables = 2 if base.uses >= TWO_TABLE_MIN_USES else 1
                    base.table = CombTable(base, self.modulus, bits, tables)
            return base.table.exp(exponent)
        return pow(base, exponent, self.modulus)

    def fixed_base(self, value: int, uses: int) -> int:
        """value as a FixedBase when `uses` exps will raise it, else as is."""
        return FixedBase(value, self, uses) if uses >= FIXED_BASE_MIN_USES else value

    def mul(self, a: int, b: int) -> int:
        return a * b % self.modulus

    def inv(self, a: int) -> int:
        return pow(a, -1, self.modulus)

    def random_scalar(self, rng: random.Random) -> int:
        """Uniform draw from {1, ..., order-1}, the secret-key domain."""
        return rng.randrange(1, self.order)

    def random_nonce(self, rng: random.Random) -> int:
        """Uniform draw from {0, ..., order-1}, the encryption-nonce domain."""
        return rng.randrange(self.order)


#: Hand-checkable parameters for unit tests: the order-11 subgroup mod 23.
TINY_GROUP = GroupParams(modulus=23, order=11, generator=2)

# Pinned 257-bit safe prime (256-bit order), produced by generate_group(257,
# random.Random(20240901)) and frozen so imports stay fast and deterministic.
_DEFAULT_P = int("14a95c29a12209c1294ea72a403a55d216a084e7a6f7a83225c63bd690dc01ee7", 16)
_DEFAULT_Q = (_DEFAULT_P - 1) // 2
_DEFAULT_G = int("940de489cf6794e8c00fdf9fcd599851fa32077d37d08204f12974060e44258a", 16)


_DEFAULT_GROUP = GroupParams(modulus=_DEFAULT_P, order=_DEFAULT_Q, generator=_DEFAULT_G)


def default_group() -> GroupParams:
    """The library-default group: 256-bit prime order, safe-prime modulus.

    Every call returns the same instance, so its generator table serves every
    election in the process.
    """
    return _DEFAULT_GROUP


#: smallest modulus generate_group accepts
MIN_GROUP_BITS = 16
#: largest modulus an ElectionConfig asks generate_group for; the safe-prime
#: search's cost grows steeply with the size, so a larger one would not finish
MAX_GROUP_BITS = 4096


def generate_group(bits: int, rng: random.Random, max_attempts: int | None = None) -> GroupParams:
    """Generate fresh parameters with a modulus of exactly `bits` bits.

    Searches for a safe prime p = 2q + 1 and picks a square as generator,
    which has order q automatically. Deterministic for a seeded rng. A
    candidate q is dropped before any primality test when a sieve prime, one
    below SIEVE_BOUND, divides 2q + 1: p is at least 2**15, above every one of
    them, so that factor proves p composite and the draws stay the same.
    """
    if bits < MIN_GROUP_BITS:
        raise ValueError(f"modulus below {MIN_GROUP_BITS} bits cannot hold a meaningful subgroup")
    attempts = max_attempts if max_attempts is not None else 400 * bits
    for _ in range(attempts):
        q = rng.getrandbits(bits - 1) | (1 << (bits - 2)) | 1
        p = 2 * q + 1
        if _has_sieve_factor(p) or not is_probable_prime(q):
            continue
        if not is_probable_prime(p):
            continue
        while True:
            h = rng.randrange(2, p - 1)
            g = h * h % p
            if g != 1:
                break
        params = GroupParams(modulus=p, order=q, generator=g)
        params.validate()
        return params
    raise GroupGenerationError(f"no safe prime of {bits} bits found in {attempts} attempts")


def discrete_log_bounded(params: GroupParams, target: int, bound: int) -> int:
    """Recover t with generator**t == target, searching t in [0, bound].

    The tally of a vote is bounded by the electorate size, so a linear scan
    is sufficient. Raises DiscreteLogNotFound when no exponent within the
    bound matches, which signals a corrupted aggregate or a bound that is
    too small.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    acc = 1
    for t in range(bound + 1):
        if acc == target:
            return t
        acc = acc * params.generator % params.modulus
    raise DiscreteLogNotFound(target, bound)
