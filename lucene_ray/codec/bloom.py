"""Bloom-filtered term membership — the codecs/bloom package
(`lucene/codecs/src/java/org/apache/lucene/codecs/bloom/
BloomFilteringPostingsFormat.java` + `FuzzySet.java`): a per-segment bit
set over the term dictionary that answers "definitely absent" without
touching the postings table — the reference wraps a delegate postings
format and consults the filter before TermsEnum.seekExact; here the
filter is a derived, idempotent SIDECAR (`bloom_terms.npy`) built by
``build_bloom_filters`` after commit (the maintenance-surface stance:
like livedocs generations, it rides inside the segment dir without
changing the recorded build fingerprint), and ``SegmentReader.term_row``
short-circuits on a miss when the sidecar exists.

Twin divergences (documented): the reference's FuzzySet uses MurmurHash2
with ONE probe over a right-sized bitset and per-field filters; this twin
uses the repo's stable 64-bit term hash split into a double-hashing pair
with K probes over a power-of-two bitset sized for ~1% false positives —
same contract (no false NEGATIVES ever, bounded false positives), same
read protocol. Saturated filters are skipped at build like the
reference's DEFAULT_MAX_SATURATION downgrade; an empty sidecar records the
skip so the next maintenance pass does not re-read the segment."""

from __future__ import annotations

import os

import numpy as np

from lucene_ray.index import segfiles

K_PROBES = 4
BITS_PER_TERM = 10  # ~1% fp at 4 probes
MAX_SATURATION = 0.5  # skip writing filters more than half full


def _term_hashes(terms) -> tuple[np.ndarray, np.ndarray]:
    """(h1, h2) uint64 pairs from the stable FNV-1a-style term hash used
    repo-wide (ops/text._stable_token_hash)."""
    from lucene_ray.ops.text import _stable_token_hash

    h = _stable_token_hash(terms)
    h1 = h
    # xorshift-mix for an independent-enough second lane; force odd so the
    # double-hash stride is coprime with the pow2 bitset size
    h2 = (h ^ (h >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
    h2 |= np.uint64(1)
    return h1, h2


def _bitset_size(n_terms: int) -> int:
    m = 1 << max(6, int(n_terms * BITS_PER_TERM - 1).bit_length())
    return m


def build_filter(terms) -> np.ndarray:
    """Dense bit set (uint8 array, little-endian bit order) with every
    term's K probe bits set."""
    n = len(terms)
    m = _bitset_size(max(n, 1))
    bits = np.zeros(m, dtype=bool)
    if n:
        h1, h2 = _term_hashes(terms)
        mask = np.uint64(m - 1)
        for j in range(K_PROBES):
            idx = (h1 + np.uint64(j) * h2) & mask
            bits[idx.astype(np.int64)] = True
    return np.packbits(bits, bitorder="little")


def may_contain(packed: np.ndarray, term: str) -> bool:
    """False = DEFINITELY absent; True = maybe present."""
    import pyarrow as pa

    m = len(packed) * 8
    h1, h2 = _term_hashes(pa.array([term]))
    # array arithmetic, as in build_filter: uint64 arrays wrap silently,
    # where numpy scalars warn on overflow
    probes = np.arange(K_PROBES, dtype=np.uint64)
    idx = ((h1 + probes * h2) & np.uint64(m - 1)).astype(np.int64)
    return bool(((packed[idx >> 3] >> (idx & 7)) & 1).all())


def sidecar_path(seg_dir: str) -> str:
    return segfiles.BLOOM.path(seg_dir)


def build_bloom_filters(index_dir: str) -> int:
    """Idempotently write the bloom sidecar for every live segment
    missing one (the BloomFilteringPostingsFormat wrap step as a
    post-commit maintenance pass). Returns #filters written; saturated
    filters are skipped (reference saturation downgrade) and leave an
    empty sidecar behind as their persisted skip marker."""
    import pyarrow.parquet as pq

    from lucene_ray.index.manifest import read_manifest, segment_dir

    m = read_manifest(index_dir)
    if m is None:
        raise FileNotFoundError(f"no manifest under {index_dir}")
    wrote = 0
    for e in m.live_segments:
        d = segment_dir(index_dir, e.name)
        out = sidecar_path(d)
        if os.path.exists(out):
            continue
        terms = pq.read_table(
            segfiles.POSTINGS.path(d), columns=["term"], memory_map=True,
        ).column("term").combine_chunks()
        packed = build_filter(terms)
        ones = int(np.unpackbits(packed).sum())
        if ones > MAX_SATURATION * len(packed) * 8:
            # saturated: a filter this full filters nothing. An EMPTY
            # sidecar is the persisted skip marker (load_filter -> None),
            # so later calls never re-read this segment's term column
            packed = packed[:0]
        else:
            wrote += 1
        tmp = out + ".tmp"
        with open(tmp, "wb") as f:
            np.save(f, packed, allow_pickle=False)
        os.replace(tmp, out)
    return wrote


def load_filter(seg_dir: str) -> "np.ndarray | None":
    """The segment's filter bits, or None for "no filter" (no sidecar, or
    the empty skip marker of a saturated segment)."""
    p = sidecar_path(seg_dir)
    if not os.path.exists(p):
        return None
    bits = np.load(p, allow_pickle=False)
    return bits if len(bits) else None
