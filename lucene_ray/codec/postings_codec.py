"""Segment postings construction and decode (the postings sink/reader).

Logical parity targets:
  - postings sink: codecs/lucene99/Lucene99PostingsWriter.java:198-357
    (term-ordered postings, 128-doc packed blocks, per-block skip/impact data,
    SingletonDocID optimization at finishTerm:357)
  - competitive impacts (block-max metadata):
    codecs/CompetitiveImpactAccumulator.java:29-90 — per block the Pareto
    front of (tf, norm) pairs, a true score upper bound for any
    monotone-in-tf / anti-monotone-in-norm similarity
  - term dictionary: the postings table itself sorted by term, with Parquet
    row-group stats as the prefix index (replaces the FST block-tree,
    codecs/lucene90/blocktree/Lucene90BlockTreeTermsWriter.java:223)
  - postings reader: codecs/lucene99/Lucene99PostingsReader.java:54 — here a
    numpy block decoder with random access via stored block offsets
    (replacing multi-level skip lists, Lucene99SkipWriter.java:48-214)

One segment => one Arrow table, one row per term:

  term:str df:int64 ttf:int64 singleton_docid:int64 singleton_tf:int64
  doc_blob:large_binary tf_blob:large_binary pos_blob:large_binary
  block_last_docid:list<int64>  doc_block_offsets:list<int64>
  impacts:list<list<int64>>     # per block, packed (tf << 8) | norm_byte

docids are segment-local (0..doc_count-1); the segment's global base lives in
the manifest (the DocIDMerger docBase analog, index/DocIDMerger.java:27-43).
All columns are plain Arrow types so the table round-trips Parquet untouched.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np
import pyarrow as pa

from lucene_ray.codec.forutil import decode_blocks_batched, decode_stream
from lucene_ray.config import BLOCK_SIZE

#: bumped when the on-disk layout changes (invalidates segment fingerprints)
FORMAT_VERSION = 9  # v9: shapes sidecar carries per-edge origin flags
# (fab/fbc/fca — ShapeField.encodeTriangle's ab/bc/ca bits; CONTAINS needs
# them to tell boundary edges from tessellation diagonals).
# v8: per-analyzed-field norm_<f>/doc_len_<f> columns in
# norms.parquet (CombinedFieldQuery / MultiNormsLeafSimScorer backing).
# v7: optional per-occurrence payload stream (pay_blob,
# raw uint32 values — the .pay payload lane, Lucene90PostingsFormat payloads).
# v6: discountOverlaps norms (posInc==0 tokens excluded from doc_len;
# sum_ttf still counts them). v5: optional per-occurrence offsets streams

POSTINGS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("df", pa.int64()),
        ("ttf", pa.int64()),
        ("singleton_docid", pa.int64()),
        ("singleton_tf", pa.int64()),
        ("doc_blob", pa.large_binary()),
        ("tf_blob", pa.large_binary()),
        ("pos_blob", pa.large_binary()),
        # offsets option (IndexOptions ..._AND_OFFSETS,
        # Lucene99PostingsWriter .pay stream): per occurrence, aligned with
        # the positions stream — start-byte deltas (first absolute per doc)
        # and raw token byte lengths. Empty blobs when not indexed.
        ("off_blob", pa.large_binary()),
        ("offlen_blob", pa.large_binary()),
        # payloads option (queries/payloads/, Lucene90PostingsWriter .pay
        # payload lane): one RAW uint32 value per occurrence, aligned with
        # the positions stream (no delta coding — payloads aren't ordered).
        # Empty blobs when not indexed.
        ("pay_blob", pa.large_binary()),
        ("block_last_docid", pa.list_(pa.int64())),
        ("doc_block_offsets", pa.list_(pa.int64())),
        ("tf_block_offsets", pa.list_(pa.int64())),
        ("pos_block_offsets", pa.list_(pa.int64())),
        ("off_block_offsets", pa.list_(pa.int64())),
        ("offlen_block_offsets", pa.list_(pa.int64())),
        ("pay_block_offsets", pa.list_(pa.int64())),
        ("impacts", pa.list_(pa.list_(pa.int64()))),
    ]
)


def pareto_impacts(tfs: np.ndarray, norms: np.ndarray) -> list[int]:
    """Pareto-competitive (tf, norm) pairs of one block, packed as
    (tf << 8) | norm. A pair survives if no other pair has tf' >= tf with
    norm' <= norm (CompetitiveImpactAccumulator.java:29-90)."""
    # max tf per distinct norm
    order = np.argsort(norms, kind="stable")
    n_sorted = norms[order]
    t_sorted = tfs[order]
    uniq_norms, starts = np.unique(n_sorted, return_index=True)
    max_tf = np.maximum.reduceat(t_sorted, starts)
    # walk norms ascending; keep entries whose tf strictly exceeds the best
    # tf seen at any smaller-or-equal norm
    out: list[int] = []
    best = -1
    for nm, tf in zip(uniq_norms, max_tf):
        if int(tf) > best:
            best = int(tf)
            out.append((int(tf) << 8) | int(nm))
    return out


def _pareto_impacts_batched(
    blk_of_pair: np.ndarray, tfs: np.ndarray, norms: np.ndarray, n_blocks: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized per-block pareto fronts. Returns (packed int64 values,
    counts per block) with the same contents/order as ``pareto_impacts``."""
    order = np.lexsort((tfs, norms, blk_of_pair))
    b_s = blk_of_pair[order]
    n_s = norms[order].astype(np.int64)
    t_s = tfs[order]
    # (block, norm) group boundaries
    change = np.empty(len(b_s), dtype=bool)
    change[0] = True
    np.logical_or(b_s[1:] != b_s[:-1], n_s[1:] != n_s[:-1], out=change[1:])
    g_starts = np.nonzero(change)[0]
    g_max = np.maximum.reduceat(t_s, g_starts)
    g_blk = b_s[g_starts]
    g_norm = n_s[g_starts]
    # pareto: within block (groups in norm-asc order) keep strictly
    # increasing tf; running max with per-block reset via the offset trick
    LARGE = np.int64(1) << np.int64(40)
    aug = g_max.astype(np.int64) + g_blk.astype(np.int64) * LARGE
    run = np.maximum.accumulate(aug)
    keep = np.empty(len(aug), dtype=bool)
    keep[0] = True
    keep[1:] = aug[1:] > run[:-1]
    packed = (g_max[keep].astype(np.int64) << 8) | g_norm[keep]
    counts = np.bincount(g_blk[keep], minlength=n_blocks)
    return packed, counts


def build_segment_postings(
    row_idx: np.ndarray,
    terms: pa.Array,
    positions: np.ndarray,
    doc_count: int,
    norm_bytes: np.ndarray,
    with_positions: bool = True,
    tok_starts: np.ndarray | None = None,
    tok_lens: np.ndarray | None = None,
    payloads: np.ndarray | None = None,
) -> tuple[pa.Table, dict]:
    """Build a segment postings table from exploded (docid, term, position)
    token arrays (output of ``CodeAnalyzer.tokenize_flat``).

    This is the DWPT-flush analog (index/FreqProxTermsWriter.java:84): the
    in-memory TermsHash accumulation is replaced by vectorized sort +
    reduceat over the segment's tokens, and ALL block encoding goes through
    the batched width-grouped encoder (no per-term python work beyond blob
    slicing). Runs inside ONE build task — the segment is sized
    (TARGET_DOCS_PER_SEGMENT) so this fits a worker heap.

    ``tok_starts``/``tok_lens`` (both given or neither): per-token byte
    offset + length aligned with ``positions`` — writes the optional
    offsets streams (IndexOptions ..._AND_OFFSETS,
    Lucene99PostingsWriter.java payload/offset stream).
    """
    if len(row_idx) == 0:
        table = POSTINGS_SCHEMA.empty_table()
        return table, {"doc_count": doc_count, "sum_ttf": 0, "unique_terms": 0}

    dict_arr = terms.dictionary_encode() if not isinstance(terms, pa.DictionaryArray) else terms
    term_ids = dict_arr.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vocab_np = dict_arr.dictionary.to_numpy(zero_copy_only=False)

    # relabel term ids so ascending id == lexicographic term order, then ONE
    # global sort puts everything in final layout (term dict order,
    # TermsHashPerField.sortTerms:112)
    lex = np.argsort(vocab_np, kind="stable")
    rank = np.empty(len(vocab_np), dtype=np.int64)
    rank[lex] = np.arange(len(vocab_np))
    term_ids = rank[term_ids]
    vocab_sorted = vocab_np[lex]

    # tokenize_flat emits tokens in (doc, position) order, so ONE stable
    # sort by term id yields (term, doc, position) order — much cheaper
    # than a 3-key lexsort over millions of tokens. The ids are dense, so it
    # is a counting sort: numpy's stable argsort of uint16 keys is a radix
    # sort, one pass per 16 bits of the vocabulary size
    order = np.argsort((term_ids & 0xFFFF).astype(np.uint16), kind="stable")
    if len(vocab_np) > 1 << 16:
        high = (term_ids[order] >> 16).astype(np.uint16)
        order = order[np.argsort(high, kind="stable")]
    t_sorted = term_ids[order]
    d_sorted = row_idx[order]
    p_sorted = positions[order].astype(np.int64)

    # (term, doc) pair boundaries -> tf per pair
    pair_change = np.empty(len(t_sorted), dtype=bool)
    pair_change[0] = True
    np.logical_or(
        t_sorted[1:] != t_sorted[:-1], d_sorted[1:] != d_sorted[:-1],
        out=pair_change[1:],
    )
    pair_starts = np.nonzero(pair_change)[0]
    tfs = np.diff(np.append(pair_starts, len(t_sorted))).astype(np.int64)
    pair_term = t_sorted[pair_starts]
    pair_doc = d_sorted[pair_starts]

    # per-doc position deltas (first position absolute, then gaps), as in
    # FreqProxTermsWriterPerField.java:84-108 (prox stream delta coding)
    pos_delta = np.empty(len(p_sorted), dtype=np.int64)
    pos_delta[0] = p_sorted[0]
    np.subtract(p_sorted[1:], p_sorted[:-1], out=pos_delta[1:])
    pos_delta[pair_starts] = p_sorted[pair_starts]
    pos_delta = pos_delta.astype(np.uint32)

    # offsets streams: start-byte deltas reset per (term, doc) pair exactly
    # like positions (starts ascend within a doc), lengths raw
    off_delta = off_len = None
    if tok_starts is not None:
        s_sorted = tok_starts[order].astype(np.int64)
        off_delta = np.empty(len(s_sorted), dtype=np.int64)
        off_delta[0] = s_sorted[0]
        np.subtract(s_sorted[1:], s_sorted[:-1], out=off_delta[1:])
        off_delta[pair_starts] = s_sorted[pair_starts]
        off_delta = off_delta.astype(np.uint32)
        off_len = tok_lens[order].astype(np.uint32)

    # payload stream: raw per-occurrence values in the same (term, doc,
    # position) order — NOT delta coded (payloads carry no ordering)
    pay = payloads[order].astype(np.uint32) if payloads is not None else None

    table = postings_table_from_pairs(
        vocab_sorted, pair_term, pair_doc, tfs, pos_delta, norm_bytes,
        with_positions=with_positions, off_delta=off_delta, off_len=off_len,
        pay=pay,
    )
    stats = {
        "doc_count": int(doc_count),
        "sum_ttf": int(tfs.sum()),
        "unique_terms": table.num_rows,
    }
    return table, stats


def postings_table_from_pairs(
    vocab_sorted: np.ndarray,
    pair_term: np.ndarray,
    pair_doc: np.ndarray,
    tfs: np.ndarray,
    pos_delta: np.ndarray,
    norm_bytes: np.ndarray,
    with_positions: bool = True,
    off_delta: np.ndarray | None = None,
    off_len: np.ndarray | None = None,
    pay: np.ndarray | None = None,
) -> pa.Table:
    """Encode a postings table from (term, doc, tf) pair arrays + the
    aligned per-pair position-delta stream. Shared by the segment build and
    the merge rewrite (SegmentMerger re-encodes postings exactly as at
    flush, index/SegmentMerger.java:109-165).

    Preconditions: ``pair_term`` ascending; ``pair_doc`` ascending within a
    term; ``pos_delta`` is the concatenation of each pair's per-doc position
    deltas in pair order (first delta of a pair = absolute position).
    ``off_delta``/``off_len`` (optional, both or neither): per-occurrence
    start-byte deltas (same reset-per-pair scheme) and raw byte lengths —
    they share the positions stream's block structure exactly.
    """
    from lucene_ray.codec.forutil import encode_blocks_batched

    n_pairs = len(pair_term)
    term_change = np.empty(n_pairs, dtype=bool)
    term_change[0] = True
    np.not_equal(pair_term[1:], pair_term[:-1], out=term_change[1:])
    term_starts = np.nonzero(term_change)[0]
    term_df = np.diff(np.append(term_starts, n_pairs))
    n_terms = len(term_starts)
    uniq_terms = vocab_sorted[pair_term[term_starts]]
    term_ttf = np.add.reduceat(tfs, term_starts)

    # docid deltas with reset at term starts (first docid absolute)
    deltas = np.empty(n_pairs, dtype=np.int64)
    deltas[0] = pair_doc[0]
    np.subtract(pair_doc[1:], pair_doc[:-1], out=deltas[1:])
    deltas[term_starts] = pair_doc[term_starts]
    deltas = deltas.astype(np.uint32)

    # ---- doc/tf block structure: blocks of 128 pairs within each term ----
    n_blocks_per_term = (term_df + BLOCK_SIZE - 1) // BLOCK_SIZE
    blk_term = np.repeat(np.arange(n_terms), n_blocks_per_term)
    blk_ord = np.arange(len(blk_term)) - np.repeat(
        np.concatenate(([0], np.cumsum(n_blocks_per_term)[:-1])), n_blocks_per_term
    )
    blk_start_in_term = blk_ord * BLOCK_SIZE
    blk_len = np.minimum(term_df[blk_term] - blk_start_in_term, BLOCK_SIZE)
    blk_start = term_starts[blk_term] + blk_start_in_term
    blk_end = blk_start + blk_len
    n_blocks = len(blk_term)
    block_last = pair_doc[blk_end - 1]

    # ---- per-occurrence streams (positions, offset starts, offset
    # lengths, payloads): blocks of 128 within each term, one block
    # structure for all (each has term_ttf entries per term) --------------
    with_offsets = off_delta is not None
    with_payloads = pay is not None
    occ = {
        name: v for name, v, on in (
            ("pos", pos_delta, with_positions), ("off", off_delta, with_offsets),
            ("offlen", off_len, with_offsets), ("pay", pay, with_payloads)) if on
    }
    pos_nblocks = (term_ttf + BLOCK_SIZE - 1) // BLOCK_SIZE
    pos_blk_bounds = np.concatenate(([0], np.cumsum(pos_nblocks)))
    p_blk_term = np.repeat(np.arange(n_terms), pos_nblocks)
    p_blk_ord = np.arange(len(p_blk_term)) - np.repeat(pos_blk_bounds[:-1], pos_nblocks)
    p_len = np.minimum(term_ttf[p_blk_term] - p_blk_ord * BLOCK_SIZE, BLOCK_SIZE)

    # one encode call for the doc, tf and occurrence streams; each stream is
    # a contiguous byte range of the output
    names = ["doc", "tf", *occ]
    stream_lens = [blk_len, blk_len] + [p_len] * len(occ)
    buf, offs = encode_blocks_batched(
        np.concatenate([deltas, tfs.astype(np.uint32), *occ.values()]),
        np.concatenate(stream_lens),
    )
    first_blk = np.cumsum([0] + [len(b) for b in stream_lens])
    stream_at = np.append(offs, len(buf))[first_blk]
    mv = memoryview(buf)

    def stream(name: str):
        """(bytes, block offsets from its start) of one encoded stream."""
        i = names.index(name)
        lo = stream_at[i]
        return mv[lo : stream_at[i + 1]], offs[first_blk[i] : first_blk[i + 1]] - lo

    doc_buf, doc_offsets = stream("doc")
    tf_buf, tf_offsets = stream("tf")

    # per-term byte ranges in the stream buffers
    term_blk_offsets = np.concatenate(([0], np.cumsum(n_blocks_per_term)))
    doc_term_bounds = doc_offsets[term_blk_offsets[:-1]]
    doc_term_bounds = np.append(doc_term_bounds, len(doc_buf))
    tf_term_bounds = tf_offsets[term_blk_offsets[:-1]]
    tf_term_bounds = np.append(tf_term_bounds, len(tf_buf))

    def occ_stream(name: str):
        """(memoryview, per-term byte bounds, list<int64> rel offsets)."""
        buf, offs = stream(name)
        bounds = offs[pos_blk_bounds[:-1]]
        bounds = np.append(bounds, len(buf))
        rel = offs - np.repeat(bounds[:-1], pos_nblocks)
        arr = pa.ListArray.from_arrays(
            pa.array(pos_blk_bounds, type=pa.int32()),
            pa.array(rel, type=pa.int64()),
        )
        return buf, bounds, arr

    def empty_stream():
        return (
            memoryview(b""),
            np.zeros(n_terms + 1, dtype=np.int64),
            pa.ListArray.from_arrays(
                pa.array(np.zeros(n_terms + 1), type=pa.int32()),
                pa.array([], type=pa.int64()),
            ),
        )

    if with_positions:
        pos_mv, pos_term_bounds, pos_offsets_arr = occ_stream("pos")
    else:
        pos_mv, pos_term_bounds, pos_offsets_arr = empty_stream()
    if with_offsets:
        off_mv, off_term_bounds, off_offsets_arr = occ_stream("off")
        ol_mv, ol_term_bounds, ol_offsets_arr = occ_stream("offlen")
    else:
        off_mv, off_term_bounds, off_offsets_arr = empty_stream()
        ol_mv, ol_term_bounds, ol_offsets_arr = empty_stream()
    if with_payloads:
        pay_mv, pay_term_bounds, pay_offsets_arr = occ_stream("pay")
    else:
        pay_mv, pay_term_bounds, pay_offsets_arr = empty_stream()

    # ---- impacts (vectorized pareto per block) ---------------------------
    blk_of_pair = np.repeat(np.arange(n_blocks), blk_len)
    packed_impacts, impact_counts = _pareto_impacts_batched(
        blk_of_pair, tfs, norm_bytes[pair_doc].astype(np.int64), n_blocks
    )

    # ---- assemble the Arrow table (list columns from offsets, zero loops
    # except the per-term blob slicing) -----------------------------------
    singleton = term_df == 1
    doc_mv = memoryview(doc_buf)
    tf_mv = memoryview(tf_buf)
    doc_blobs, tf_blobs, pos_blobs = [], [], []
    off_blobs, ol_blobs, pay_blobs = [], [], []
    for j in range(n_terms):
        if singleton[j]:
            doc_blobs.append(b"")
            tf_blobs.append(b"")
        else:
            doc_blobs.append(bytes(doc_mv[doc_term_bounds[j] : doc_term_bounds[j + 1]]))
            tf_blobs.append(bytes(tf_mv[tf_term_bounds[j] : tf_term_bounds[j + 1]]))
        pos_blobs.append(bytes(pos_mv[pos_term_bounds[j] : pos_term_bounds[j + 1]]))
        if with_offsets:
            off_blobs.append(bytes(off_mv[off_term_bounds[j] : off_term_bounds[j + 1]]))
            ol_blobs.append(bytes(ol_mv[ol_term_bounds[j] : ol_term_bounds[j + 1]]))
        if with_payloads:
            pay_blobs.append(bytes(pay_mv[pay_term_bounds[j] : pay_term_bounds[j + 1]]))
    if not with_offsets:
        off_blobs = ol_blobs = [b""] * n_terms
    if not with_payloads:
        pay_blobs = [b""] * n_terms

    # doc/tf block offsets are term-relative
    rel_doc_offsets = doc_offsets - np.repeat(
        doc_term_bounds[:-1], n_blocks_per_term
    )
    rel_tf_offsets = tf_offsets - np.repeat(
        tf_term_bounds[:-1], n_blocks_per_term
    )
    impacts_inner = pa.ListArray.from_arrays(
        pa.array(
            np.concatenate(([0], np.cumsum(impact_counts))), type=pa.int32()
        ),
        pa.array(packed_impacts, type=pa.int64()),
    )
    list_off = pa.array(term_blk_offsets, type=pa.int32())
    table = pa.table(
        {
            "term": pa.array(uniq_terms.tolist(), type=pa.string()),
            "df": pa.array(term_df, type=pa.int64()),
            "ttf": pa.array(term_ttf, type=pa.int64()),
            "singleton_docid": pa.array(
                np.where(singleton, pair_doc[term_starts], -1), type=pa.int64()
            ),
            "singleton_tf": pa.array(
                np.where(singleton, tfs[term_starts], -1), type=pa.int64()
            ),
            "doc_blob": pa.array(doc_blobs, type=pa.large_binary()),
            "tf_blob": pa.array(tf_blobs, type=pa.large_binary()),
            "pos_blob": pa.array(pos_blobs, type=pa.large_binary()),
            "off_blob": pa.array(off_blobs, type=pa.large_binary()),
            "offlen_blob": pa.array(ol_blobs, type=pa.large_binary()),
            "pay_blob": pa.array(pay_blobs, type=pa.large_binary()),
            "block_last_docid": pa.ListArray.from_arrays(
                list_off, pa.array(block_last, type=pa.int64())
            ),
            "doc_block_offsets": pa.ListArray.from_arrays(
                list_off, pa.array(rel_doc_offsets, type=pa.int64())
            ),
            "tf_block_offsets": pa.ListArray.from_arrays(
                list_off, pa.array(rel_tf_offsets, type=pa.int64())
            ),
            "pos_block_offsets": pos_offsets_arr,
            "off_block_offsets": off_offsets_arr,
            "offlen_block_offsets": ol_offsets_arr,
            "pay_block_offsets": pay_offsets_arr,
            "impacts": pa.ListArray.from_arrays(list_off, impacts_inner),
        },
        schema=POSTINGS_SCHEMA,
    )
    return table


def _binary_col(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(data uint8, per-row offsets) of one binary/string array (a single
    column chunk) — zero-copy, read-only views over its Arrow buffers; row
    j is data[offsets[j]:offsets[j + 1]]."""
    bufs = arr.buffers()
    large = pa.types.is_large_binary(arr.type) or pa.types.is_large_string(arr.type)
    width = 8 if large else 4
    offs = np.frombuffer(
        bufs[1], dtype=np.int64 if large else np.int32, count=len(arr) + 1,
        offset=arr.offset * width,
    )
    data = np.frombuffer(bufs[2], dtype=np.uint8, count=int(offs[-1])) if bufs[2] else np.array([], dtype=np.uint8)
    offs.flags.writeable = data.flags.writeable = False  # views of the table
    return data, offs


def _list_col(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(flat values, per-row offsets) of one list array (a single column
    chunk) — zero-copy, read-only views; row j is
    values[offsets[j]:offsets[j + 1]].
    For list<list<int64>> the values are the inner list array."""
    offs = np.frombuffer(
        arr.buffers()[1], dtype=np.int32, count=len(arr) + 1, offset=arr.offset * 4
    )
    offs.flags.writeable = False  # a view of the table
    vals = arr.values
    if not pa.types.is_list(vals.type):
        vals = vals.to_numpy(zero_copy_only=False)
    return vals, offs


class BlockLists:
    """One term row's per-block lists (the ``impacts`` column) as views
    over the batch's flat values: block b is
    ``values[offsets[b]:offsets[b + 1]]``, the row's flat slice is
    ``values[offsets[0]:offsets[-1]]``. Indexes, iterates and sizes like
    the nested Python list."""

    __slots__ = ("values", "offsets")

    def __init__(self, values: np.ndarray, offsets: np.ndarray):
        self.values = values
        self.offsets = offsets

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, b: int) -> np.ndarray:
        if not 0 <= b < len(self.offsets) - 1:
            raise IndexError(b)
        return self.values[self.offsets[b] : self.offsets[b + 1]]


def column_reader(arr: pa.Array):
    """Reader of row j of one postings column chunk, zero-copy: counts are
    ints read from a numpy view, blobs are memoryview slices of the data
    buffer, list<int64> values are numpy slices and ``impacts`` rows are
    BlockLists. Building it is O(1); the views are read-only."""
    t = arr.type
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        data, offs = _binary_col(arr)
        data = memoryview(data)
        return lambda j: bytes(data[offs[j] : offs[j + 1]]).decode()
    if pa.types.is_binary(t) or pa.types.is_large_binary(t):
        data, offs = _binary_col(arr)
        data = memoryview(data)
        return lambda j: data[offs[j] : offs[j + 1]]
    if pa.types.is_list(t) and pa.types.is_list(t.value_type):
        inner, outer = _list_col(arr)
        vals, inner_offs = _list_col(inner)
        return lambda j: BlockLists(vals, inner_offs[outer[j] : outer[j + 1] + 1])
    if pa.types.is_list(t):
        vals, offs = _list_col(arr)
        return lambda j: vals[offs[j] : offs[j + 1]]
    vals = arr.to_numpy(zero_copy_only=False)
    return lambda j: int(vals[j])


class BatchReaders(dict):
    """Column name -> ``column_reader`` of one postings record batch, each
    built on first use (KeyError for a column the batch lacks)."""

    def __init__(self, batch: pa.RecordBatch):
        super().__init__()
        self.batch = batch

    def __missing__(self, name: str):
        i = self.batch.schema.get_field_index(name)
        if i < 0:
            raise KeyError(name)
        read = self[name] = column_reader(self.batch.column(i))
        return read


class TermRow(Mapping):
    """Row j of a postings record batch as a read-only mapping: each value
    is read from the batch's buffers on access (see ``column_reader``), so
    a caller pays only for the columns it reads. Equal, field by field, to
    the table's ``to_pylist()`` row; never mutate the values."""

    __slots__ = ("_readers", "_j")

    def __init__(self, readers: BatchReaders, j: int):
        self._readers = readers
        self._j = j

    def __getitem__(self, name: str):
        return self._readers[name](self._j)

    def __iter__(self):
        return iter(self._readers.batch.schema.names)

    def __len__(self) -> int:
        return self._readers.batch.num_columns


# blocks per decode_blocks_batched call in decode_segment_pairs: bounds the
# kernel's temporaries (a few (blocks, BLOCK_SIZE) int64 matrices, ~1 MB
# each) however large the segment
DECODE_CHUNK_BLOCKS = 1024


def _stream_blocks(table: pa.Table, blob_col: str, off_col: str, counts: np.ndarray):
    """(data, absolute block offsets, block lengths) of one stream column:
    row j's stream holds ``counts[j]`` values (0 = row skipped) in
    ceil(counts[j] / BLOCK_SIZE) blocks, located by the first that many
    entries of its offset list."""
    data, boffs = _binary_col(table.column(blob_col).combine_chunks())
    rel, roffs = _list_col(table.column(off_col).combine_chunks())
    n_list = np.diff(roffs)
    nb = (counts + BLOCK_SIZE - 1) // BLOCK_SIZE
    # entry i of row j's offset list is kept when i < nb[j]
    entry = np.arange(int(roffs[-1] - roffs[0])) - np.repeat(roffs[:-1] - roffs[0], n_list)
    keep = entry < np.repeat(nb, n_list)
    abs_off = (rel[roffs[0] : roffs[-1]] + np.repeat(boffs[:-1], n_list))[keep]
    lens = np.full(int(nb.sum()), BLOCK_SIZE, dtype=np.int64)
    has = nb > 0
    lens[np.cumsum(nb)[has] - 1] = counts[has] - (nb[has] - 1) * BLOCK_SIZE
    return data, abs_off, lens


def _decode_chunked(data: np.ndarray, offs: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``decode_blocks_batched`` over DECODE_CHUNK_BLOCKS blocks at a time,
    each call given only the bytes its blocks span (offsets ascend)."""
    out = np.empty(int(lens.sum()), dtype=np.uint32)
    ends = np.cumsum(lens)
    for i in range(0, len(offs), DECODE_CHUNK_BLOCKS):
        j = min(i + DECODE_CHUNK_BLOCKS, len(offs))
        lo = int(offs[i])
        hi = int(offs[j]) if j < len(offs) else len(data)
        out[ends[i] - lens[i] : ends[j - 1]] = decode_blocks_batched(
            data[lo:hi], offs[i:j] - lo, lens[i:j])
    return out


def decode_segment_pairs(
    table: pa.Table,
    with_positions: bool = True,
    with_offsets: bool = False,
    with_payloads: bool = False,
) -> tuple:
    """Decode an ENTIRE segment postings table in one vectorized pass.

    Returns (terms object-array sorted, df per term, pair_doc local,
    pair_tf, pos_delta flat stream) — the exact inputs the merge rewrite
    feeds back into ``postings_table_from_pairs``. Plans every stream's
    blocks from the stored per-block offsets and decodes them in bounded
    chunks of ``decode_blocks_batched`` calls (no per-term Python loop).
    ``with_offsets=True`` appends (off_delta, off_len) flat uint32 streams.
    """
    terms = np.asarray(table.column("term").to_pylist(), dtype=object)
    df = table.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
    ttf = table.column("ttf").to_numpy(zero_copy_only=False).astype(np.int64)
    total_pairs = int(df.sum())
    pair_doc = np.empty(total_pairs, dtype=np.int64)
    pair_tf = np.empty(total_pairs, dtype=np.int64)
    pair_bounds = np.concatenate(([0], np.cumsum(df)))

    multi = df > 1
    if multi.any():
        m_counts = np.where(multi, df, 0)
        deltas = _decode_chunked(*_stream_blocks(
            table, "doc_blob", "doc_block_offsets", m_counts)).astype(np.int64)
        tfs_m = _decode_chunked(*_stream_blocks(
            table, "tf_blob", "tf_block_offsets", m_counts)).astype(np.int64)
        # segmented cumsum (first delta absolute)
        m_df = df[multi]
        m_starts = np.concatenate(([0], np.cumsum(m_df)[:-1]))
        c = np.cumsum(deltas)
        seg_base = c[m_starts] - deltas[m_starts]
        docids_m = c - np.repeat(seg_base, m_df)
        # scatter into pair arrays
        idx = np.repeat(pair_bounds[:-1][multi], m_df) + (
            np.arange(int(m_df.sum())) - np.repeat(m_starts, m_df)
        )
        pair_doc[idx] = docids_m
        pair_tf[idx] = tfs_m

    single = ~multi
    if single.any():
        pair_doc[pair_bounds[:-1][single]] = table.column("singleton_docid").to_numpy(
            zero_copy_only=False
        )[single]
        pair_tf[pair_bounds[:-1][single]] = table.column("singleton_tf").to_numpy(
            zero_copy_only=False
        )[single]

    if not with_positions and not with_offsets and not with_payloads:
        return terms, df, pair_doc, pair_tf, np.array([], dtype=np.uint32)

    # per-occurrence streams: every term (incl. singletons) has
    # ceil(ttf/128) blocks; positions and offsets share the block structure
    def occ_decode(name: str) -> np.ndarray:
        return _decode_chunked(*_stream_blocks(table, f"{name}_blob", f"{name}_block_offsets", ttf))

    pos_delta = occ_decode("pos") if with_positions else np.array([], dtype=np.uint32)
    out = (terms, df, pair_doc, pair_tf, pos_delta)
    if with_offsets:
        out = out + (occ_decode("off"), occ_decode("offlen"))
    if with_payloads:
        out = out + (occ_decode("pay"),)
    return out


class TermPostings:
    """Decoded postings of one term in one segment (numpy views)."""

    __slots__ = (
        "docids", "tfs", "_pos_blob", "_ttf", "_flat_pos",
        "_off_blob", "_offlen_blob", "_flat_off", "_pay_blob", "_flat_pay",
    )

    def __init__(
        self,
        docids: np.ndarray,
        tfs: np.ndarray,
        pos_blob: bytes,
        ttf: int,
        off_blob: bytes = b"",
        offlen_blob: bytes = b"",
        pay_blob: bytes = b"",
    ):
        self.docids = docids
        self.tfs = tfs
        self._pos_blob = pos_blob
        self._ttf = ttf
        self._flat_pos = None
        self._off_blob = off_blob
        self._offlen_blob = offlen_blob
        self._flat_off = None
        self._pay_blob = pay_blob
        self._flat_pay = None

    @property
    def has_offsets(self) -> bool:
        return bool(self._off_blob)

    @property
    def has_payloads(self) -> bool:
        return bool(self._pay_blob)

    def flat_payloads(self) -> tuple[np.ndarray, np.ndarray]:
        """(docid-per-occurrence, payload value) aligned with
        ``flat_positions`` — the PayloadAttribute readback
        (queries/payloads/PayloadSpanCollector semantics over TermSpans).
        Empty arrays when the index carries no payloads."""
        if self._flat_pay is None:
            if not self._pay_blob:
                z = np.array([], dtype=np.int64)
                self._flat_pay = (z, z)
            else:
                vals = decode_stream(self._pay_blob, self._ttf).astype(np.int64)
                self._flat_pay = (
                    np.repeat(self.docids, self.tfs.astype(np.int64)), vals
                )
        return self._flat_pay

    def flat_offsets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(docid-per-occurrence, absolute start byte, byte length), aligned
        with ``flat_positions`` — the OffsetAttribute readback (postings
        indexed with IndexOptions ..._AND_OFFSETS). Empty arrays when the
        index carries no offsets."""
        if self._flat_off is None:
            if not self._off_blob:
                z = np.array([], dtype=np.int64)
                self._flat_off = (z, z, z)
            else:
                deltas = decode_stream(self._off_blob, self._ttf).astype(np.int64)
                lens = decode_stream(self._offlen_blob, self._ttf).astype(np.int64)
                tfs = self.tfs.astype(np.int64)
                starts = np.concatenate(([0], np.cumsum(tfs)[:-1]))
                c = np.cumsum(deltas)
                seg_base = c[starts] - deltas[starts]
                abs_start = c - np.repeat(seg_base, tfs)
                self._flat_off = (np.repeat(self.docids, tfs), abs_start, lens)
        return self._flat_off

    def doc_offsets(self, local_docid: int) -> tuple[np.ndarray, np.ndarray]:
        """(start bytes, byte lengths) of this term's occurrences in ONE doc
        (display-path lookup for the offsets highlighter)."""
        i = int(np.searchsorted(self.docids, local_docid))
        if i >= len(self.docids) or self.docids[i] != local_docid:
            z = np.array([], dtype=np.int64)
            return z, z
        _, abs_start, lens = self.flat_offsets()
        if len(abs_start) == 0:
            z = np.array([], dtype=np.int64)
            return z, z
        bounds = np.concatenate(([0], np.cumsum(self.tfs.astype(np.int64))))
        return abs_start[bounds[i] : bounds[i + 1]], lens[bounds[i] : bounds[i + 1]]

    def flat_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """(docid-per-position, absolute position) flat arrays — segmented
        cumsum over the delta stream, fully vectorized (no per-doc loop);
        memoized (hot phrase terms decode positions once per process)."""
        if self._flat_pos is not None:
            return self._flat_pos
        flat = decode_stream(self._pos_blob, self._ttf).astype(np.int64)
        tfs = self.tfs.astype(np.int64)
        starts = np.concatenate(([0], np.cumsum(tfs)[:-1]))
        c = np.cumsum(flat)
        seg_base = c[starts] - flat[starts]  # cumsum before each segment
        abs_pos = c - np.repeat(seg_base, tfs)
        d_rep = np.repeat(self.docids, tfs)
        self._flat_pos = (d_rep, abs_pos)
        return self._flat_pos

    def positions(self) -> list[np.ndarray]:
        """Per-doc absolute position arrays (convenience over flat)."""
        _, abs_pos = self.flat_positions()
        bounds = np.cumsum(self.tfs.astype(np.int64))[:-1]
        return np.split(abs_pos, bounds)


def decode_term_postings(row: dict) -> TermPostings:
    """Decode one postings-table row (as a python dict) to arrays."""
    df = int(row["df"])
    if df == 1:
        docids = np.array([row["singleton_docid"]], dtype=np.int64)
        tfs = np.array([row["singleton_tf"]], dtype=np.int64)
    else:
        deltas = decode_stream(row["doc_blob"], df).astype(np.int64)
        docids = np.cumsum(deltas)
        tfs = decode_stream(row["tf_blob"], df).astype(np.int64)
    return TermPostings(
        docids, tfs, row["pos_blob"], int(row["ttf"]),
        off_blob=row.get("off_blob") or b"",
        offlen_blob=row.get("offlen_blob") or b"",
        pay_blob=row.get("pay_blob") or b"",
    )
