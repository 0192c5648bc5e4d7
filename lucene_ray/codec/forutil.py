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
bit-packing (``np.packbits`` and uint64 word-lane shift-or on encode);
partial tail blocks are packed with their own width instead of Lucene's
VInt tail encoding. Logical content (the int sequences) round-trips exactly.

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


def _bit_width(max_val: int) -> int:
    return int(max_val).bit_length()


def _pack_bits(values: np.ndarray, width: int) -> bytes:
    """MSB-first pack of uint32 values at ``width`` bits each."""
    n = len(values)
    if width == 0:
        return b""
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint32)
    bits = ((values[:, None] >> shifts) & 1).astype(np.uint8).reshape(-1)
    return np.packbits(bits).tobytes()


def _encode_block(values: np.ndarray, allow_pfor: bool = True) -> bytes:
    """Encode one block (<= BLOCK_SIZE uint32 values)."""
    n = len(values)
    vmax = int(values.max()) if n else 0
    vmin = int(values.min()) if n else 0
    if n and vmax == vmin:
        return bytes([_CONST_MARKER]) + np.uint32(vmax).tobytes()
    width = _bit_width(vmax)
    for_bytes = 1 + (n * width + 7) // 8

    if allow_pfor and width > 1 and n == BLOCK_SIZE:
        # PFor: pick the base width covering all but <= 7 exceptions, with
        # exception high bits fitting one byte (width - base <= 8), as in
        # PForUtil.java: exceptions are (position, top-bits-byte) pairs.
        # Only full blocks (Lucene encodes tails separately too).
        # bit widths via frexp exponent (exact for ints < 2^53, vectorized)
        widths = np.frexp(values.astype(np.float64))[1]
        hist = np.bincount(widths, minlength=width + 2)
        tail = hist[::-1].cumsum()[::-1]  # tail[b] = count(widths >= b)
        for base in range(max(width - 8, 1), width):
            n_exc = int(tail[base + 1])
            if n_exc <= PFOR_MAX_EXCEPTIONS:
                pfor_bytes = 3 + 2 * n_exc + (n * base + 7) // 8
                if pfor_bytes < for_bytes:
                    exc = np.nonzero(widths > base)[0]
                    low = values.copy()
                    high = (values[exc] >> np.uint32(base)).astype(np.uint8)
                    low[exc] = values[exc] & ((np.uint32(1) << np.uint32(base)) - 1)
                    out = bytearray([_PFOR_MARKER, base, n_exc])
                    for p, h in zip(exc, high):
                        out += bytes([int(p), int(h)])
                    out += _pack_bits(low, base)
                    return bytes(out)
                break  # wider bases only cost more
    return bytes([width]) + _pack_bits(values, width)


def _pack_full_blocks(vals: np.ndarray, width: int) -> np.ndarray:
    """Pack a (k, BLOCK_SIZE) uint32 matrix at ``width`` bits/value into
    (k, 16*width) bytes, MSB-first — identical layout to ``_pack_bits`` but
    via uint64 word-lane shift-or (no 8-bytes-per-bit expansion; ~10x less
    memory traffic than the bit-tensor + packbits route)."""
    k = vals.shape[0]
    n_words = BLOCK_SIZE * width // 64  # BLOCK_SIZE*width is a multiple of 64
    words = np.zeros((k, n_words), dtype=np.uint64)
    v64 = vals.astype(np.uint64)
    for i in range(BLOCK_SIZE):
        bitpos = i * width
        w_idx = bitpos >> 6
        shift = 64 - (bitpos & 63) - width
        col = v64[:, i]
        if shift >= 0:
            words[:, w_idx] |= col << np.uint64(shift)
        else:
            words[:, w_idx] |= col >> np.uint64(-shift)
            words[:, w_idx + 1] |= col << np.uint64(64 + shift)
    # MSB-first byte order == big-endian words
    return words.byteswap().view(np.uint8).reshape(k, n_words * 8)


def encode_blocks_batched(
    values: np.ndarray,
    lens: np.ndarray,
    allow_pfor: bool = True,
) -> tuple[bytes, np.ndarray]:
    """Batch-encode MANY blocks in one vectorized pass.

    ``values`` is a contiguous tiling of blocks; ``lens`` (each 1..BLOCK_SIZE)
    gives the block lengths in order. Produces the same byte grammar as
    ``_encode_block`` per block. Returns (buffer, per-block byte offsets).

    Vectorization: per-block min/max via ``reduceat``; constant blocks
    scatter 5-byte runs; full FOR blocks group by bit width and pack each
    width group with ONE ``np.packbits`` call; PFor-eligible blocks pick the
    base as the 8th-largest per-value width; only partial tail blocks and
    the (rare) PFor blocks fall back to the scalar encoder. This is what
    makes segment build vectorized end-to-end (gen_ForUtil.py's generated
    SIMD kernels are the reference analog, codecs/lucene99/ForUtil.java:30).
    """
    n_b = len(lens)
    offsets = np.zeros(n_b, dtype=np.int64)
    if n_b == 0:
        return b"", offsets
    values = np.ascontiguousarray(values, dtype=np.uint32)
    lens = np.asarray(lens, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    ends = starts + lens
    maxs = np.maximum.reduceat(values, starts)
    mins = np.minimum.reduceat(values, starts)
    widths = np.frexp(maxs.astype(np.float64))[1].astype(np.int64)  # bit_length

    is_const = maxs == mins
    is_full = lens == BLOCK_SIZE

    # scheme per block: 0=const, 1=FOR-full (width-grouped), 2=scalar
    scheme = np.full(n_b, 2, dtype=np.int8)
    scheme[is_const] = 0
    scheme[(~is_const) & is_full] = 1

    pfor_base = np.zeros(n_b, dtype=np.int64)
    n_exc_arr = np.zeros(n_b, dtype=np.int64)
    if allow_pfor:
        cand = np.nonzero((scheme == 1) & (widths > 1))[0]
        if len(cand):
            idx = starts[cand][:, None] + np.arange(BLOCK_SIZE)
            vw = np.frexp(values[idx].astype(np.float64))[1].astype(np.int64)
            vw_sorted = np.sort(vw, axis=1)
            eighth = vw_sorted[:, -(PFOR_MAX_EXCEPTIONS + 1)]
            w = widths[cand]
            base = np.maximum(np.maximum(eighth, w - 8), 1)
            n_exc = (vw > base[:, None]).sum(axis=1)
            pfor_bytes = 3 + 2 * n_exc + (BLOCK_SIZE * base + 7) // 8
            for_bytes = 1 + (BLOCK_SIZE * w + 7) // 8
            use = (base < w) & (pfor_bytes < for_bytes)
            sel = cand[use]
            scheme[sel] = 3
            pfor_base[sel] = base[use]
            n_exc_arr[sel] = n_exc[use]

    # encoded byte size per block
    sizes = np.empty(n_b, dtype=np.int64)
    sizes[scheme == 0] = 5
    sizes[scheme == 1] = 1 + (BLOCK_SIZE * widths[scheme == 1] + 7) // 8
    sizes[scheme == 2] = 1 + (lens[scheme == 2] * widths[scheme == 2] + 7) // 8
    sizes[scheme == 3] = (
        3 + 2 * n_exc_arr[scheme == 3] + (BLOCK_SIZE * pfor_base[scheme == 3] + 7) // 8
    )
    offsets[1:] = np.cumsum(sizes)[:-1]
    buf = np.zeros(int(sizes.sum()), dtype=np.uint8)

    # constant blocks: header 0x40 + u32le, scattered in one shot
    ci = np.nonzero(scheme == 0)[0]
    if len(ci):
        rows = np.empty((len(ci), 5), dtype=np.uint8)
        rows[:, 0] = _CONST_MARKER
        rows[:, 1:] = maxs[ci].astype("<u4").view(np.uint8).reshape(len(ci), 4)
        buf[offsets[ci][:, None] + np.arange(5)] = rows

    # full FOR blocks, one word-lane pack per distinct width
    fi = np.nonzero(scheme == 1)[0]
    if len(fi):
        for w in np.unique(widths[fi]):
            grp = fi[widths[fi] == w]
            if w == 0:
                buf[offsets[grp]] = 0
                continue
            idx = starts[grp][:, None] + np.arange(BLOCK_SIZE)
            packed = _pack_full_blocks(values[idx], int(w))
            nbytes = (BLOCK_SIZE * int(w) + 7) // 8
            buf[offsets[grp]] = w
            buf[offsets[grp][:, None] + 1 + np.arange(nbytes)] = packed[:, :nbytes]

    # PFor blocks, batched by base width (positions-delta streams are mostly
    # PFor: small deltas + few large gaps)
    pi = np.nonzero(scheme == 3)[0]
    if len(pi):
        for base in np.unique(pfor_base[pi]):
            grp = pi[pfor_base[pi] == base]
            idx = starts[grp][:, None] + np.arange(BLOCK_SIZE)
            vals = values[idx]
            vw = np.frexp(vals.astype(np.float64))[1]
            exc_mask = vw > base
            lows = np.where(
                exc_mask, vals & ((np.uint32(1) << np.uint32(base)) - 1), vals
            ).astype(np.uint32)
            packed = _pack_full_blocks(lows, int(base))
            nbytes = (BLOCK_SIZE * int(base) + 7) // 8
            hdr_off = offsets[grp]
            n_exc_g = n_exc_arr[grp]
            buf[hdr_off] = _PFOR_MARKER
            buf[hdr_off + 1] = base
            buf[hdr_off + 2] = n_exc_g
            # exception (pos, high-byte) pairs: ragged/tiny -> python loop,
            # no numpy calls inside
            highs = (vals >> np.uint32(base)).astype(np.uint8)
            exc_rows, exc_pos = np.nonzero(exc_mask)
            high_vals = highs[exc_rows, exc_pos]
            row_start = np.searchsorted(exc_rows, np.arange(len(grp)))
            row_end = np.append(row_start[1:], len(exc_rows))
            for r in range(len(grp)):
                o = int(hdr_off[r]) + 3
                for e in range(int(row_start[r]), int(row_end[r])):
                    buf[o] = exc_pos[e]
                    buf[o + 1] = high_vals[e]
                    o += 2
            pack_start = hdr_off + 3 + 2 * n_exc_g
            buf[pack_start[:, None] + np.arange(nbytes)] = packed[:, :nbytes]

    # scalar fallback: partial tail blocks only (one per term)
    rest = np.nonzero(scheme == 2)[0]
    for b in rest:
        enc = _encode_block(values[starts[b] : ends[b]], allow_pfor=False)
        if len(enc) != sizes[b]:  # both paths must agree on the scheme
            raise AssertionError(
                f"batched size mismatch: block {b} "
                f"expected {sizes[b]} got {len(enc)}"
            )
        buf[offsets[b] : offsets[b] + len(enc)] = np.frombuffer(enc, dtype=np.uint8)
    return buf.tobytes(), offsets


def encode_stream(
    values: np.ndarray, allow_pfor: bool = True
) -> tuple[bytes, np.ndarray]:
    """Encode a full int stream into blocks of BLOCK_SIZE.

    Returns (blob, block_byte_offsets int32) — offsets allow selective
    per-block decode (the skip-list replacement, SURVEY.md §2.1 skip-list
    sink row: random access over ``block_meta`` replaces skip levels).
    """
    values = np.ascontiguousarray(values, dtype=np.uint32)
    n = len(values)
    n_blocks = max(1, (n + BLOCK_SIZE - 1) // BLOCK_SIZE)
    offsets = np.empty(n_blocks, dtype=np.int32)
    parts: list[bytes] = []
    pos = 0
    for i in range(n_blocks):
        block = values[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE]
        offsets[i] = pos
        enc = _encode_block(block, allow_pfor=allow_pfor)
        parts.append(enc)
        pos += len(enc)
    return b"".join(parts), offsets


_WORD = 8  # bytes read per value: bit offset (< 8) + width (<= 32) fits
# zeros after the copied bytes: the words read for the slots past a short
# block's end (and past the last byte) stay inside the copy
_PAD = bytes(BLOCK_SIZE * 32 // 8 + _WORD)
_U64LE, _U32LE = np.dtype("<u8"), np.dtype("<u4")
_SLOT = np.arange(BLOCK_SIZE)
# (width, slot) tables: the byte of the slot's first bit within its block's
# packed bits, and the right shift that brings the slot's bits to the
# bottom of the big-endian word read there; one mask per width
_WIDTHS = np.arange(33)[:, None]
_SLOT_BYTE = (_SLOT * _WIDTHS) >> 3
_SLOT_SHIFT = (64 - _WIDTHS - ((_SLOT * _WIDTHS) & 7)).astype(np.uint64)
_WIDTH_MASK = ((np.uint64(1) << _WIDTHS.astype(np.uint64)) - np.uint64(1)).astype(np.uint32)
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
