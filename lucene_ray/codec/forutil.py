"""FOR / PFor / constant-run bit-packing of 128-int blocks (numpy kernels).

Logical parity with the reference's packed-postings kernels:
  - FOR bit-packing of 128-int blocks: codecs/lucene99/ForUtil.java:30-56
    (block size fixed at 128, per-block bit width)
  - PFor with <= 7 patched exceptions, each exception's high bits stored as
    one byte: codecs/lucene99/PForUtil.java:27-60
  - delta + all-equal fast path (dense runs encode as a single marker):
    codecs/lucene99/ForDeltaUtil.java:25-62

This is a *storage-format re-expression*, not a byte-level port: the
reference's SIMD lane layout (gen_ForUtil.py) is replaced by MSB-first
bit-packing; partial tail blocks are packed with their own width instead of
Lucene's VInt tail encoding. Logical content (the int sequences)
round-trips exactly.

There is one encode kernel. ``_pack`` writes any set of blocks, full or
tail, of any widths, from a (blocks, 128) matrix of their values: CONST
when a block's values are equal, else FOR at its width, or for a full
block PFor when shorter (the base from the 8th largest value, the
exceptions placed with one scatter). The bits are packed by one left shift
per (width, slot) into 64-bit windows of 32-bit half-words, one
``np.add.reduceat`` per half-word's run of slots and one spill of each
window's bottom half into the next half-word, all from precomputed tables;
one row per block holds its header and bits, and one mask keeps their
bytes. ``encode_blocks_batched`` calls it per ENCODE_CHUNK_BLOCKS blocks
(build and merge encode a whole segment in one call); ``encode_stream``
is that call for one stream. No path encodes block by block in Python.

There is one decode kernel. ``_unpack`` extracts every FOR/PFor value of
any set of blocks at once, as a (blocks, 128) matrix: one gather of 8-byte
big-endian words from a zero-padded copy of the bytes, one right shift per
(width, slot) and one mask per width, both from small precomputed tables;
CONST blocks get their value and ``_patch`` ORs the PFor exceptions in with
one scatter. Its callers differ only in how they read block headers:
``decode_blocks_batched`` reads those of many streams' blocks in one
vectorized pass (merge); the query-time ``decode_stream`` (a whole stream)
and ``decode_stream_blocks`` (selected blocks) read their one stream's
headers in Python, one to three bytes per block, which costs less than
the ~20 numpy calls of the vectorized pass for the few blocks of a
stream. No path decodes block by block in Python.

Stream grammar (one stream = one term's docid-deltas, tfs, or pos-deltas):

  stream      := block*
  block       := FOR | CONST | PFOR          (values-per-block = 128, except
                                              the final block = n % 128)
  FOR         := width:u8 (0..32)  packed[ceil(n*width/8)]
  CONST       := 0x40  value:u32le           (all n values equal)
  PFOR        := 0x41 base_width:u8 n_exc:u8
                 (pos:u8 high:u8)*n_exc  packed[ceil(n*base_width/8)]

Width 0 encodes an all-zero block with zero payload bytes.
"""

from __future__ import annotations

import numpy as np

from lucene_ray.config import BLOCK_SIZE, PFOR_MAX_EXCEPTIONS

_CONST_MARKER = 0x40
_PFOR_MARKER = 0x41


_SLOT = np.arange(BLOCK_SIZE)
_WIDTHS = np.arange(33)[:, None]
_WIDTH_MASK = ((np.uint64(1) << _WIDTHS.astype(np.uint64)) - np.uint64(1)).astype(np.uint32)
_U32BE = np.dtype(">u4")
_U64_32, _U64_LOW32 = np.uint64(32), np.uint64(0xFFFFFFFF)
# blocks per ``_pack`` call: bounds the kernel's temporaries (a few
# (blocks, BLOCK_SIZE) matrices, ~1 MB each) however many blocks are encoded
ENCODE_CHUNK_BLOCKS = 1024
# encode tables. Values are packed into the 32-bit half-words of the packed
# bits: a slot starting in half-word h is shifted (by _PACK_SHIFT, per
# (width, slot)) to its place in the 64-bit window of half-words h and h + 1,
# and one sum per half-word over the slots starting in it (from
# _HALF_FIRST[width, h]; width <= 32, so every half-word holds a start)
# gives that window: its top half is h, its bottom half spills into h + 1.
# A block of width w fills its first 4 * w half-words (_HALVES)
_POW2 = 1 << np.arange(32)  # bit length = _POW2.searchsorted(v, "right")
_PACK_SHIFT = (64 - _WIDTHS - ((_SLOT * _WIDTHS) & 31)).astype(np.uint64)
_HALF_FIRST = -(-32 * _SLOT // np.maximum(_WIDTHS, 1))
_HALVES = _SLOT < 4 * _WIDTHS
_ROW_START = BLOCK_SIZE * np.arange(ENCODE_CHUNK_BLOCKS)[:, None]
# per (width, length): the packed bytes, and whether PFor may apply (full
# blocks only, as Lucene encodes tails apart)
_LENS = np.arange(BLOCK_SIZE + 1)
_PACKED_BYTES = (_WIDTHS * _LENS + 7) >> 3
_PFOR_CANDIDATE = (_WIDTHS > 1) & (_LENS == BLOCK_SIZE)
# a block as one row: its header (at most 3 + 2 * PFOR_MAX_EXCEPTIONS bytes,
# padded to whole half-words), then the half-words of its packed bits
_HDR = 20
_HDR_COL = np.arange(_HDR)
_BIT_COL = np.arange(4 * BLOCK_SIZE)
_EIGHTH = BLOCK_SIZE - 1 - PFOR_MAX_EXCEPTIONS  # sorted slot of the 8th largest


def _pack(values, lens, vmin, vmax, allow_pfor: bool):
    """The pack kernel: the encoded bytes of the blocks that tile
    ``values``, ``lens`` (1..BLOCK_SIZE) values each, with their minima
    and maxima, and each block's byte count. The blocks become the rows of
    a (blocks, BLOCK_SIZE) matrix, zero past a short block's end; every
    block, full or tail, is packed at its width by one shift from
    ``_PACK_SHIFT`` and one ``np.add.reduceat`` over the ``_HALF_FIRST``
    runs; one row per block holds its header and bits, and one mask keeps
    each row's bytes."""
    k = len(lens)
    vals = np.zeros((k, BLOCK_SIZE), dtype=np.uint32)
    vals[_SLOT < lens[:, None]] = values
    const = vmin == vmax
    width = _POW2.searchsorted(vmax, side="right")
    width[const] = 0  # CONST packs no bits
    wide = 4 * int(width.max())  # half-words of the widest block
    rows = np.zeros((k, _HDR + 4 * wide), dtype=np.uint8)
    rows[:, 0] = np.where(const, _CONST_MARKER, width)
    rows[:, 1:5].view("<u4")[:, 0] = vmax  # read only for CONST
    head = np.where(const, 5, 1)
    p = _PFOR_CANDIDATE[width, lens].nonzero()[0] if allow_pfor else ()
    if len(p):
        # PFor for a full block: the narrowest base of at most 8 bits below
        # its width that leaves <= PFOR_MAX_EXCEPTIONS wider values, each
        # stored as a (slot, high bits) byte pair, when that is shorter
        sub = vals[p]
        eighth = np.sort(sub, axis=1)[:, _EIGHTH]
        base = np.maximum(_POW2.searchsorted(eighth, side="right"),
                          np.maximum(width[p] - 8, 1))
        high = sub >> base[:, None].astype(np.uint32)
        exc = high != 0
        n_exc = exc.sum(axis=1)
        use = (base < width[p]) & (2 + 2 * n_exc + 16 * base < 16 * width[p])
        p, base, high, exc, n_exc = p[use], base[use], high[use], exc[use], n_exc[use]
        vals[p] = sub[use] & _WIDTH_MASK[base]
        width[p] = base
        head[p] = 3 + 2 * n_exc
        rows[p, 0] = _PFOR_MARKER
        rows[p, 1] = base
        rows[p, 2] = n_exc
        # exception j of a block: its (slot, high bits) at header bytes 3 + 2j
        e_row, e_slot = np.nonzero(exc)
        col = 3 + 2 * (np.arange(len(e_row)) - (np.cumsum(n_exc) - n_exc)[e_row])
        rows[p[e_row], col] = e_slot
        rows[p[e_row], col + 1] = high[e_row, e_slot]
    # a CONST row keeps its values: _PACK_SHIFT[0] is 64, which numpy shifts
    # to 0, so they add nothing to the last run of the block before it
    shifted = np.left_shift(vals, _PACK_SHIFT[width], dtype=np.uint64)
    halves = _HALVES[:, :wide][width]
    window = np.add.reduceat(shifted.ravel(), (_ROW_START[:k] + _HALF_FIRST[:, :wide][width])[halves])
    bits = window >> _U64_32
    # a block's last half-word ends with its last slot: its window's bottom
    # half is 0, so nothing spills from one block into the next
    bits[1:] |= window[:-1] & _U64_LOW32
    rows[:, _HDR:].view(_U32BE)[halves] = bits
    n_bytes = _PACKED_BYTES[width, lens]
    keep = np.concatenate((_HDR_COL < head[:, None], _BIT_COL[: 4 * wide] < n_bytes[:, None]), axis=1)
    return rows[keep], head + n_bytes


def encode_blocks_batched(
    values: np.ndarray,
    lens: np.ndarray,
    allow_pfor: bool = True,
) -> tuple[bytes, np.ndarray]:
    """Encode many blocks: ``values`` is a contiguous tiling of blocks,
    ``lens`` (each 1..BLOCK_SIZE) their lengths in order. Returns (buffer,
    per-block byte offsets). One ``_pack`` call per ENCODE_CHUNK_BLOCKS
    blocks (gen_ForUtil.py's generated SIMD kernels are the reference
    analog, codecs/lucene99/ForUtil.java:30)."""
    if not len(lens):
        return b"", np.zeros(0, dtype=np.int64)
    values = np.asarray(values, dtype=np.uint32)
    lens = np.asarray(lens, dtype=np.intp)
    ends = lens.cumsum()
    starts = ends - lens
    vmin = np.minimum.reduceat(values, starts)
    vmax = np.maximum.reduceat(values, starts)
    chunks = []
    for i in range(0, len(lens), ENCODE_CHUNK_BLOCKS):
        j = min(i + ENCODE_CHUNK_BLOCKS, len(lens))
        chunks.append(_pack(values[starts[i] : ends[j - 1]], lens[i:j], vmin[i:j], vmax[i:j], allow_pfor))
    out, sizes = chunks[0] if len(chunks) == 1 else (np.concatenate(c) for c in zip(*chunks))
    return out.tobytes(), sizes.cumsum() - sizes


def encode_stream(
    values: np.ndarray, allow_pfor: bool = True
) -> tuple[bytes, np.ndarray]:
    """Encode a full int stream into blocks of BLOCK_SIZE.

    Returns (blob, block_byte_offsets int32) — offsets allow selective
    per-block decode (the skip-list replacement, SURVEY.md §2.1 skip-list
    sink row: random access over ``block_meta`` replaces skip levels).
    """
    n = len(values)
    if not n:  # one empty FOR block
        return b"\x00", np.zeros(1, dtype=np.int32)
    lens = np.minimum(n - np.arange(0, n, BLOCK_SIZE), BLOCK_SIZE)
    blob, offsets = encode_blocks_batched(values, lens, allow_pfor)
    return blob, offsets.astype(np.int32)


_WORD = 8  # bytes read per value: bit offset (< 8) + width (<= 32) fits
# zeros after the copied bytes: the words read for the slots past a short
# block's end (and past the last byte) stay inside the copy
_PAD = bytes(BLOCK_SIZE * 32 // 8 + _WORD)
_U64LE, _U32LE = np.dtype("<u8"), np.dtype("<u4")
# (width, slot) tables: the byte of the slot's first bit within its block's
# packed bits, and the right shift that brings the slot's bits to the
# bottom of the big-endian word read there
_SLOT_BYTE = (_SLOT * _WIDTHS) >> 3
_SLOT_SHIFT = (64 - _WIDTHS - ((_SLOT * _WIDTHS) & 7)).astype(np.uint64)
# per header byte: the bit width (read from the header byte, or for PFor
# from the byte after it), the header bytes before the packed bits (PFor
# adds two per exception), and whether the block is CONST
_WIDTH_OF = np.zeros(256, dtype=np.intp)
_WIDTH_OF[:33] = np.arange(33)
_HEADER_BYTES = np.ones(256, dtype=np.intp)
_HEADER_BYTES[_PFOR_MARKER] = 3
_IS_PFOR = np.zeros(256, dtype=np.intp)
_IS_PFOR[_PFOR_MARKER] = 1
_IS_CONST = np.zeros(256, dtype=np.uint32)
_IS_CONST[_CONST_MARKER] = 1


def _unpack(padded, packed, width) -> np.ndarray:
    """The value extraction: the uint32 values of the blocks whose packed
    bits start at byte ``packed`` of ``padded`` (bytes followed by
    ``_PAD``) at ``width`` bits per value, BLOCK_SIZE slots per block.
    ``packed`` and ``width`` are ints for one block (a (BLOCK_SIZE,) result;
    the tables are then read by row views), or a (blocks, 1) column and a
    (blocks,) array (a (blocks, BLOCK_SIZE) result). Slots past a short
    block's length hold garbage for the caller to drop."""
    # the 8 bytes at each slot's first byte, as one big-endian word (an
    # index, not .take, which would first copy this overlapping view whole)
    words = np.ndarray((len(padded) - _WORD + 1,), _U64LE, padded, 0, (1,))
    w = words[_SLOT_BYTE[width] + packed]
    w.byteswap(inplace=True)
    w >>= _SLOT_SHIFT[width]
    vals = w.astype(np.uint32)
    vals &= _WIDTH_MASK[width]
    return vals


def _patch(vals: np.ndarray, p: np.ndarray, width: np.ndarray, exc_block, exc_at) -> None:
    """OR the PFor exceptions into ``vals``: the (slot, high bits) byte
    pairs at ``exc_at`` of ``p``, of blocks ``exc_block``."""
    high = p[exc_at + 1].astype(np.uint32) << width[exc_block].astype(np.uint32)
    vals[exc_block, p[exc_at]] |= high


def decode_blocks_batched(buf, block_offsets, block_lens) -> np.ndarray:
    """Decode any set of blocks in one vectorized pass: every header is
    read at once, then one ``_unpack`` call.

    ``buf``: the bytes holding every block (bytes, memoryview or uint8
    array, copied whole: pass the span the blocks occupy; unrelated bytes
    may lie between blocks); ``block_offsets``: the offset of each block's
    header in ``buf``; ``block_lens``: each block's value count
    (1..BLOCK_SIZE). Returns the values of all blocks, concatenated in the
    given order, as uint32.

    Every block is unpacked as BLOCK_SIZE slots of a (blocks, BLOCK_SIZE)
    matrix, so per-block fields broadcast instead of being repeated per
    value; the slots past a short block's length are dropped at the end.
    """
    o = np.asarray(block_offsets, dtype=np.intp)
    if not len(o):
        return np.zeros(0, dtype=np.uint32)
    p = np.frombuffer(bytes(memoryview(buf)) + _PAD, dtype=np.uint8)
    head = p[o]
    pfor = _IS_PFOR[head]
    n_exc = p[o + 2] * pfor
    width = _WIDTH_OF[p[o + pfor]]
    vals = _unpack(p, (o + _HEADER_BYTES[head] + 2 * n_exc)[:, None], width)
    # a CONST block's value: the u32le after its header
    u32le = np.ndarray((len(p) - 3,), _U32LE, p, 0, (1,))
    vals |= (u32le[o + 1] * _IS_CONST[head])[:, None]
    if n_exc.any():
        # exception j of a block: its (slot, high bits) bytes at header + 3 + 2j
        exc_block = np.repeat(np.arange(len(o)), n_exc)
        first = np.cumsum(n_exc) - n_exc
        _patch(vals, p, width, exc_block,
               np.repeat(o + 3 - 2 * first, n_exc) + 2 * np.arange(len(exc_block)))
    return vals[_SLOT < np.asarray(block_lens)[:, None]]


def _read_header(buf: memoryview, at: int, cnt: int, b: int, fields) -> int:
    """Read the header of block ``b`` (``cnt`` values) at offset ``at`` of
    ``buf`` into ``fields`` (packed-bits offsets, widths, CONST blocks and
    values, PFor exception blocks and byte offsets); returns the offset
    after the block. One to three byte reads, no values decoded."""
    packed, width, const_block, const, exc_block, exc_at = fields
    head = buf[at]
    if head == _CONST_MARKER:
        const_block.append(b)
        const.append(int.from_bytes(buf[at + 1 : at + 5], "little"))
        head = 0  # packs no bits
        at += 4
    elif head == _PFOR_MARKER:
        head, k = buf[at + 1], buf[at + 2]
        exc_block += [b] * k
        exc_at += range(at + 3, at + 3 + 2 * k, 2)
        at += 2 + 2 * k
    packed.append(at + 1)
    width.append(head)
    return at + 1 + (cnt * head + 7) // 8


def _values(buf: memoryview, fields) -> np.ndarray:
    """The (blocks, BLOCK_SIZE) values of the blocks whose headers
    ``_read_header`` read into ``fields``, from one ``_unpack`` call."""
    packed, width, const_block, const, exc_block, exc_at = fields
    if len(const) == len(width):  # nothing packed
        values = np.repeat(np.asarray(const, dtype=np.uint32), BLOCK_SIZE)
        return values.reshape(-1, BLOCK_SIZE)
    padded = bytes(buf) + _PAD
    if len(width) == 1:  # row views of the tables cost less than gathers
        vals = _unpack(padded, packed[0], width[0])[None]
    else:
        vals = _unpack(padded, np.asarray(packed)[:, None], np.asarray(width))
    if const:
        vals[const_block] = np.asarray(const, dtype=np.uint32)[:, None]
    if exc_at:
        _patch(vals, np.frombuffer(padded, dtype=np.uint8), np.asarray(width),
               np.asarray(exc_block), np.asarray(exc_at))
    return vals


def decode_stream(blob, n: int) -> np.ndarray:
    """Decode a full stream of ``n`` values: its headers are read in
    Python (locating its blocks needs them anyway), its values come from
    one ``_unpack`` call."""
    buf = memoryview(blob)
    fields = ([], [], [], [], [], [])
    at = 0
    for b, start in enumerate(range(0, n, BLOCK_SIZE)):
        at = _read_header(buf, at, min(BLOCK_SIZE, n - start), b, fields)
    return _values(buf, fields).ravel()[:n]


def decode_stream_blocks(
    blob,
    n: int,
    block_offsets: np.ndarray,
    block_indices: np.ndarray,
) -> np.ndarray:
    """Decode only the blocks ``block_indices`` (sorted) of a stream of
    ``n`` values, at their stored ``block_offsets``, with one ``_unpack``
    call; returns their values concatenated in order."""
    buf = memoryview(blob)
    fields = ([], [], [], [], [], [])
    blocks = np.asarray(block_indices).tolist()
    total = 0
    for b, bi in enumerate(blocks):
        cnt = min(BLOCK_SIZE, n - bi * BLOCK_SIZE)
        _read_header(buf, int(block_offsets[bi]), cnt, b, fields)
        total += cnt
    # only a stream's last block is short, and it sorts last
    return _values(buf, fields).ravel()[:total]
