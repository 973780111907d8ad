"""Deterministic seed derivation and bulk integer draws.

Every component that needs randomness gets its own child generator derived
from (seed, labels...), so streams never interleave and adding draws in one
place cannot shift results anywhere else.
"""

from __future__ import annotations

import functools
import hashlib
import random


def derive_seed(*parts) -> int:
    material = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def spawn(*parts) -> random.Random:
    return random.Random(derive_seed(*parts))


def draws(rng: random.Random, start: int, stop: int, count: int) -> list[int]:
    """``count`` uniform ints in [start, stop), drawn as ``randrange`` would.

    The result, and the state ``rng`` is left in, equal those of
    ``[start + rng._randbelow(stop - start) for _ in range(count)]``, which
    is CPython's ``randrange(start, stop)`` without its argument checks; so
    a caller that switches to this keeps every seeded output. ``_randbelow(n)``
    takes one 32-bit Mersenne Twister word per try, keeps its top
    ``n.bit_length()`` bits, and draws again while they are >= n.

    For an exact ``random.Random`` and byte-sized values (0 <= start,
    stop <= 256, 1 <= stop - start <= 255) the same words are drawn in
    rounds: one ``getrandbits(32 * need)`` for the ``need`` values still
    missing, whose word top bytes are mapped and filtered by one
    ``bytes.translate``. A round cannot draw a word the loop would not,
    since every value the loop still has to make takes at least one word.
    This relies on CPython's ``getrandbits`` word order (its first word is
    the least significant 32 bits, and so on up), which the seeded fixtures
    pin. Any other input, and any subclass, takes the loop itself.
    """
    n = stop - start
    if type(rng) is not random.Random or not (0 <= start and stop <= 256 and 1 <= n <= 255):
        draw = rng._randbelow
        return [start + draw(n) for _ in range(count)]
    table, reject = _byte_tables(start, n)
    values = b""
    while (need := count - len(values)) > 0:
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        values += words[3::4].translate(table, reject)
    return list(values)


@functools.cache
def _byte_tables(start: int, n: int) -> tuple[bytes, bytes]:
    """(translation table, rejected bytes) turning a word's top byte into a draw."""
    shift = 8 - n.bit_length()
    table = bytes(start + (b >> shift) if b >> shift < n else 0 for b in range(256))
    reject = bytes(b for b in range(256) if b >> shift >= n)
    return table, reject
