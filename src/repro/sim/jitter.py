"""The machine's timing-jitter stream, generated in bulk.

Every simulated access adds ``s_n % (timing_jitter + 1)`` cycles, where
``s_n`` is the n-th state of the xorshift64 (13/7/17) stream seeded with
``jitter_seed``. Stepping that stream once per access in Python costs
more than the rest of a private hit, so :class:`JitterStream` produces
the same draws a chunk at a time, as a ``bytes`` the engine indexes:

- ``LANES`` copies of the generator run side by side in one big int,
  64 bits each, lane ``i`` starting ``ROWS`` steps after lane ``i - 1``
  (a jump through byte-indexed tables of the map ``A**ROWS``). One
  packed step, with per-lane masks keeping shifted bits inside their
  lane, advances every lane at once and yields one row of states.
- The modulus is taken over the whole chunk: ``s % m`` is the sum of
  ``byte_b * 256**b % m`` over the state's eight bytes, read for every
  state at once with one strided slice and one ``bytes.translate`` per
  byte position. With ``m <= 32`` the eight terms sum below 256, so the
  big-int sum of the eight translated slices never carries.
- Rows hold one state per lane; strided slices put the lanes back in
  draw order, and the last lane's final state seeds the next chunk.

A chunk holds ``CHUNK`` (8,192) draws, and its transient buffers stay
well below 1 MB. The draws equal the serial stream's exactly
(``tests/test_jitter.py``; the sanitizer keeps a serial mirror).
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Largest ``timing_jitter`` the byte-sum reduction covers (8 * 31 < 256).
MAX_JITTER = 31
#: Generator lanes per chunk. Also the state's width in bits, so the
#: jump tables' basis (one lane per state bit) steps like a chunk.
LANES = 64
#: Steps each lane takes per chunk (the jump distance between lanes).
ROWS = 128
#: Draws per chunk.
CHUNK = LANES * ROWS


def _repeat(mask: int) -> int:
    return int.from_bytes(mask.to_bytes(8, "little") * LANES, "little")


#: Per-lane masks dropping the bits each shift carries across lanes.
_M13 = _repeat(_MASK64 ^ 0x1FFF)
_M7 = _repeat(_MASK64 >> 7)
_M17 = _repeat(_MASK64 ^ 0x1FFFF)


def _rows(packed: int) -> List[bytes]:
    """Step every lane of ``packed`` ``ROWS`` times; one ``bytes`` per
    row, lane ``i`` in bytes ``8i .. 8i + 7`` (little-endian)."""
    rows = []
    append = rows.append
    for _ in range(ROWS):
        packed ^= (packed << 13) & _M13
        packed ^= (packed >> 7) & _M7
        packed ^= (packed << 17) & _M17
        append(packed.to_bytes(8 * LANES, "little"))
    return rows


@lru_cache(maxsize=None)
def _jump_tables() -> Tuple[Tuple[int, ...], ...]:
    """``A**ROWS`` as 8 tables: entry ``v`` of table ``b`` is the image
    of the state ``v << 8b``. Built once per process, on first use."""
    basis = int.from_bytes(b"".join((1 << j).to_bytes(8, "little")
                                    for j in range(64)), "little")
    images = _rows(basis)[-1]
    columns = [int.from_bytes(images[8 * j:8 * j + 8], "little")
               for j in range(64)]
    tables = []
    for b in range(8):
        table = [0] * 256
        for v in range(1, 256):
            low = v & -v
            table[v] = table[v ^ low] ^ columns[8 * b + low.bit_length() - 1]
        tables.append(tuple(table))
    return tuple(tables)


def _jump(state: int) -> int:
    """The state ``ROWS`` steps after ``state``."""
    t0, t1, t2, t3, t4, t5, t6, t7 = _jump_tables()
    return (t0[state & 255] ^ t1[state >> 8 & 255] ^ t2[state >> 16 & 255]
            ^ t3[state >> 24 & 255] ^ t4[state >> 32 & 255]
            ^ t5[state >> 40 & 255] ^ t6[state >> 48 & 255]
            ^ t7[state >> 56])


@lru_cache(maxsize=None)
def _mod_tables(modulus: int) -> Tuple[List[Tuple[int, bytes]], bytes]:
    """``(b, byte -> byte * 256**b % m)`` for each byte position whose
    weight is nonzero, and the final ``sum -> sum % m`` table."""
    positions = [(b, bytes(v * pow(256, b, modulus) % modulus
                           for v in range(256)))
                 for b in range(8) if pow(256, b, modulus)]
    return positions, bytes(v % modulus for v in range(256))


class JitterStream:
    """The draws ``s_n % (jitter + 1)``, n = 1, 2, ..., a chunk at a time.

    ``state`` is the stream's state after the last draw handed out.
    """

    __slots__ = ("jitter", "state")

    def __init__(self, jitter: int, state: int):
        self.jitter = jitter
        self.state = state

    def next_chunk(self) -> bytes:
        """The next ``CHUNK`` draws, in stream order."""
        starts = [self.state]
        for _ in range(LANES - 1):
            starts.append(_jump(starts[-1]))
        packed = int.from_bytes(b"".join(s.to_bytes(8, "little")
                                         for s in starts), "little")
        rows = b"".join(_rows(packed))
        self.state = int.from_bytes(rows[-8:], "little")
        positions, final = _mod_tables(self.jitter + 1)
        total = 0
        for b, table in positions:
            total += int.from_bytes(rows[b::8].translate(table), "little")
        draws = total.to_bytes(CHUNK, "little").translate(final)
        return b"".join([draws[i::LANES] for i in range(LANES)])
