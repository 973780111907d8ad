"""Deterministic seed derivation and block reads of seeded streams.

Every component that needs randomness gets its own child generator derived
from (seed, labels...), so streams never interleave and adding draws in one
place cannot shift results anywhere else.

``derive_seeds`` and ``reseed`` give what ``derive_seed`` and ``spawn`` give,
bit for bit, for callers that derive many seeds: ``derive_seeds`` hashes the
labels the seeds share once, and ``reseed`` puts a generator the caller keeps
in a spawned one's state instead of allocating a new one. A sweep's trial
kernel (``experiments``) draws each trial's seed and world stream through them.

``flags`` leaves a generator in exactly the state the one-call-per-value
``random()`` loop would, for streams that are read on afterwards.
``WorldReader`` reads what ``randrange`` calls would draw from a stream's words
taken ahead of need, in one block, so it serves a stream whose last reader it
is, such as a sweep trial's world.
"""

from __future__ import annotations

import _random
import functools
import hashlib
import math
import random
from typing import Iterable, Iterator


def derive_seed(*parts) -> int:
    material = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def spawn(*parts) -> random.Random:
    return random.Random(derive_seed(*parts))


def derive_seeds(parts: tuple, indices: Iterable) -> Iterator[int]:
    """``derive_seed(*parts, index)`` for each index, in order.

    The material's prefix, each part followed by the separator, is hashed
    once; each index's hash goes on from a copy of that sha256 state."""
    prefix = hashlib.sha256("".join(str(p) + "\x1f" for p in parts).encode("utf-8"))
    for index in indices:
        material = prefix.copy()
        material.update(str(index).encode("utf-8"))
        yield int.from_bytes(material.digest()[:8], "big")


def reseed(rng: random.Random, *parts) -> random.Random:
    """``rng``, an exact ``random.Random``, in the state ``spawn(*parts)``
    starts in (``getstate()`` equal), so one generator serves many streams.

    It sets the Mersenne Twister as ``Random.seed`` does for an int, through
    the C seed, and clears the cached ``gauss`` value as that method does.
    """
    _seed(rng, derive_seed(*parts))
    rng.gauss_next = None
    return rng


_seed = _random.Random.seed


def flags(rng: random.Random, p: float, count: int) -> bytes:
    """``count`` flags, 1 where ``rng.random() >= p`` and 0 elsewhere.

    The result, and the state ``rng`` is left in, equal those of
    ``bytes(rng.random() >= p for _ in range(count))``. CPython's
    ``random()`` is m / 2**53 with m = (a >> 5) * 2**26 + (b >> 6), built
    from two consecutive 32-bit words a and b. So for 0 <= p <= 1 the test
    holds exactly when m >= T, where T = ceil(p * 2**53) (the product is
    exact, being a power-of-two scaling).

    For an exact ``random.Random`` the words come from one
    ``getrandbits(64 * count)``. The top byte of a is the top byte of m, so
    one ``bytes.translate`` of those bytes settles every flag whose byte
    differs from T's top byte; the ties (about 1 in 256, found by
    ``bytes.find``) are settled one by one on the full 53 bits. This relies
    on CPython's ``getrandbits`` word order (its first word is the least
    significant 32 bits) and ``random()`` construction, both pinned by the
    seeded fixtures. Any other p, a count below 1, and any subclass take the
    loop itself.
    """
    if type(rng) is not random.Random or not 0.0 <= p <= 1.0 or count < 1:
        return bytes(rng.random() >= p for _ in range(count))
    threshold = math.ceil(p * 2.0 ** 53)
    words = rng.getrandbits(64 * count).to_bytes(8 * count, "little")
    verdicts = words[3::8].translate(_flag_table(threshold >> 45))
    tie = verdicts.find(_TIE)
    if tie < 0:
        return verdicts
    verdicts = bytearray(verdicts)
    while tie >= 0:
        a = int.from_bytes(words[8 * tie:8 * tie + 4], "little")
        b = int.from_bytes(words[8 * tie + 4:8 * tie + 8], "little")
        verdicts[tie] = (a >> 5 << 26 | b >> 6) >= threshold
        tie = verdicts.find(_TIE, tie + 1)
    return bytes(verdicts)


#: a top byte equal to the threshold's, left for the 53-bit comparison
_TIE = 2


@functools.cache
def _flag_table(top: int) -> bytes:
    """Translation table from a's top byte to 1 (m >= T), 0 (m < T) or a tie.

    ``top`` is 256 when p == 1, and then no byte reaches it."""
    return bytes(1 if b > top else 0 if b < top else _TIE for b in range(256))


class WorldReader:
    """Where ``randrange`` draws end, and a table byte per draw, read from
    the next 32-bit words of a stream, taken from it ahead of need in one block.

    A sweep trial's ``"world"`` stream holds its honesty flags, then one
    ``randrange(2)`` per honest voter, then the plan's ``randrange(1, n + 1)``
    per index, and nothing reads that stream after the plan. So once the flags
    are drawn, a reader takes the ``words`` the rest is expected to need in
    one ``getrandbits`` call, and draws more only if that block runs short,
    just the words still missing. Drawing past the last word the plan uses is
    safe: those words would only be read by draws that never happen. Every
    draw equals what the one-call-per-value loop makes from the same stream,
    since both read the same words in the same order (CPython's
    ``getrandbits`` gives its least significant word first, which the seeded
    fixtures pin). A reader whose first block is empty draws just the words
    each round needs, and so leaves the stream where the loop does.
    """

    def __init__(self, rng: random.Random, words: int):
        self._rng = rng
        self._block = b""  # little-endian words; the first _read are read
        self._read = 0
        self._draw(words)

    def _draw(self, words: int) -> None:
        """Append the stream's next ``words`` words to the block."""
        self._block += self._rng.getrandbits(32 * words).to_bytes(4 * words, "little")

    def _bytes(self, offset: int, words: int) -> bytes:
        """Byte ``offset`` (3 is the top one) of each of the next ``words``
        unread words, drawing the words that are missing."""
        if (short := self._read + words - len(self._block) // 4) > 0:
            self._draw(short)
        first = 4 * self._read + offset
        return self._block[first:first + 4 * words:4]

    def lookup(self, table: bytes, count: int) -> bytes:
        """``table[v]`` for each of the next ``count`` draws
        v = ``randrange(len(table))``. Every table byte is 0 or 1."""
        statuses, end = self._statuses_to_end(table, count)
        self._read += end
        return statuses[:end].translate(None, _REJECTED)

    def skip(self, n: int, count: int) -> None:
        """Pass over the words of the next ``count`` draws in [0, n)."""
        self._read += self._statuses_to_end(bytes(n), count)[1]

    def _statuses_to_end(self, table: bytes, count: int) -> tuple[bytes, int]:
        """(status bytes of the unread words, the end of the ``count``-th draw).

        Each unread word becomes one status byte: the table byte of its draw,
        or 2 where the draw rejects the word. ``randrange(n)`` takes one word
        per try, keeps its top ``n.bit_length()`` bits, and tries again while
        they are >= n. So the end is found in rounds: each round takes one
        word per draw still missing and counts the rejections among them.
        """
        if not 1 <= len(table) <= 65535:
            raise ValueError(f"the reader draws widths 1 to 65535, not {len(table)}")
        statuses = b""
        end, need = 0, count
        while need:
            if end + need > len(statuses):
                unread = len(self._block) // 4 - self._read
                statuses = self._statuses(table, max(end + need, unread))
            end, need = end + need, statuses.count(_REJECTED, end, end + need)
        return statuses, end

    def _statuses(self, table: bytes, words: int) -> bytes:
        """The status bytes of the next ``words`` words.

        A draw below width 9 is its word's top byte shifted, so one
        ``bytes.translate`` table turns every word into its status. From
        width 9 to 12 the draw is the top byte and the top bits of the next
        byte: 2^(width - 8) tables, one per value of those bits, each give
        every word the status it would have with them; masks made from the
        next byte keep each word's own, combined by int AND and OR. Wider
        draws are read one by one from the words' top 16 bits: each table is
        one more pass over the words, and from 32 tables on (width 13) that
        pass costs more than reading the words one by one.
        """
        width = len(table).bit_length()
        top = self._bytes(3, words)
        if width <= 8:
            return top.translate(_spread(8 - width).translate(table.ljust(256, _REJECTED)))
        low = self._bytes(2, words)
        shift = 16 - width
        statuses = table.ljust(1 << width, _REJECTED)
        if width > 12:
            return bytes([statuses[(hi << 8 | lo) >> shift] for hi, lo in zip(top, low)])
        step = 1 << width - 8
        picked = 0
        for bits in range(step):
            picked |= (int.from_bytes(top.translate(statuses[bits::step]), "little")
                       & int.from_bytes(low.translate(_select(shift, bits)), "little"))
        return picked.to_bytes(words, "little")


#: the status of a word its draw rejects
_REJECTED = b"\x02"


@functools.cache
def _spread(shift: int) -> bytes:
    """Translation table from a byte to the byte shifted right by ``shift``."""
    return bytes(b >> shift for b in range(256))


@functools.cache
def _select(shift: int, bits: int) -> bytes:
    """Translation table from a byte to 255 where its top bits, shifted right by
    ``shift``, equal ``bits``, and to 0 elsewhere."""
    return bytes(255 if b >> shift == bits else 0 for b in range(256))
