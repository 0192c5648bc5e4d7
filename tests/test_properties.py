"""Property-based tests (hypothesis) — the randomized-seed layer of the
reference's test strategy (LuceneTestCase randomized infra, SURVEY.md §5.3):
codec round-trips over adversarial int distributions, SmallFloat ordering,
pareto impact dominance, tokenizer byte-kernel == RE2 on arbitrary ASCII."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from lucene_ray.codec.forutil import (
    decode_blocks_batched,
    decode_stream,
    encode_blocks_batched,
    encode_stream,
)
from lucene_ray.config import BLOCK_SIZE
from lucene_ray.util.smallfloat import byte4_to_int, int_to_byte4
from test_codec import ref_encode_stream


@st.composite
def int_streams(draw):
    n = draw(st.integers(1, 700))
    kind = draw(st.sampled_from(["small", "wide", "const-runs", "outliers"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    if kind == "small":
        return rng.integers(0, 8, size=n).astype(np.uint32)
    if kind == "wide":
        return rng.integers(0, 2**31, size=n).astype(np.uint32)
    if kind == "const-runs":
        v = np.repeat(
            rng.integers(0, 100, size=max(1, n // 50)),
            50,
        )[:n]
        return np.ascontiguousarray(v, dtype=np.uint32)
    v = rng.integers(0, 16, size=n).astype(np.uint32)
    hot = rng.integers(0, n, size=max(1, n // 64))
    v[hot] = rng.integers(2**20, 2**30, size=len(hot))
    return v


@settings(max_examples=60, deadline=None)
@given(int_streams())
def test_stream_roundtrip_property(values):
    blob, offsets = encode_stream(values)
    assert np.array_equal(decode_stream(blob, len(values)), values)
    # the encoder writes the reference writer's bytes
    assert (blob, offsets.tolist()) == ref_encode_stream(values)
    lens = np.minimum(
        len(values) - np.arange(0, len(values), BLOCK_SIZE), BLOCK_SIZE
    )
    b2, o2 = encode_blocks_batched(values, lens)
    assert b2 == blob
    assert np.array_equal(o2, offsets)
    # and the batched decoder must invert it
    buf = np.frombuffer(b2, dtype=np.uint8)
    assert np.array_equal(decode_blocks_batched(buf, o2, lens), values)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=50))
def test_smallfloat_property(vals):
    v = np.array(vals, dtype=np.int64)
    enc = int_to_byte4(v)
    dec = byte4_to_int(enc)
    assert np.all(dec <= v)  # truncating
    # order-preserving
    order = np.argsort(v, kind="stable")
    assert np.all(np.diff(enc[order].astype(np.int64)) >= 0)
    # idempotent through the decode table
    assert np.array_equal(int_to_byte4(dec), enc)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 1000), st.integers(0, 255)),
        min_size=1,
        max_size=128,
    )
)
def test_pareto_impacts_property(pairs):
    from lucene_ray.codec.postings_codec import pareto_impacts

    tfs = np.array([p[0] for p in pairs])
    norms = np.array([p[1] for p in pairs])
    packed = pareto_impacts(tfs, norms)
    front = [((p >> 8), p & 0xFF) for p in packed]
    # dominance: every input pair is covered
    for tf, nm in zip(tfs, norms):
        assert any(ptf >= tf and pnm <= nm for ptf, pnm in front)
    # minimality: no front element dominates another
    for i, (tf1, n1) in enumerate(front):
        for j, (tf2, n2) in enumerate(front):
            if i != j:
                assert not (tf2 >= tf1 and n2 <= n1)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            max_size=120,
        ),
        min_size=1,
        max_size=10,
    )
)
def test_tokenizer_kernel_matches_re2_property(texts):
    from lucene_ray.analysis import CodeAnalyzer

    an = CodeAnalyzer()
    arr = pa.array(texts, type=pa.string())
    toks = an.tokenize_array(arr)
    offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    counts = np.diff(offs)
    want_rows = np.repeat(np.arange(len(counts)), counts).tolist()
    rows, terms, _pos = an.tokenize_flat(arr)
    assert terms.to_pylist() == toks.values.to_pylist()
    assert rows.tolist() == want_rows


# ---------------------- round-3 kernels: gram expansion, window hashes


@given(
    st.lists(
        st.text(alphabet="abcdefg", min_size=1, max_size=8),
        min_size=0,
        max_size=20,
    ),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2),
)
@settings(max_examples=60, deadline=None)
def test_char_gram_expansion_matches_naive(tokens, gmin, extra):
    from lucene_ray.analysis.analyzer import _expand_char_grams

    gmax = gmin + extra
    arr = pa.array(tokens, type=pa.string())
    src, grams, within = _expand_char_grams(arr, gmin, gmax, edge=False)
    naive = []
    for i, t in enumerate(tokens):
        for g in range(gmin, gmax + 1):
            for j in range(0, len(t) - g + 1):
                naive.append((i, t[j : j + g], j))
    got = sorted(zip(src.tolist(), grams.to_pylist(), within.tolist()))
    assert got == sorted(naive)
    # edge variant = the within==0 subset
    esrc, egrams, ewithin = _expand_char_grams(arr, gmin, gmax, edge=True)
    naive_edge = sorted((i, g, w) for i, g, w in naive if w == 0)
    assert sorted(zip(esrc.tolist(), egrams.to_pylist(), ewithin.tolist())) == naive_edge


@given(
    st.lists(
        st.text(alphabet="xyz", min_size=0, max_size=30),
        min_size=1,
        max_size=8,
    ),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_window_hashes_match_naive_equality(texts, w):
    """Hash equality iff substring equality (no collisions observed on the
    tiny alphabet — the kernel's uint64 space dwarfs the sample)."""
    from lucene_ray.ops.dedup import _window_hashes

    data = np.frombuffer("".join(texts).encode(), dtype=np.uint8)
    offs = np.concatenate(([0], np.cumsum([len(t.encode()) for t in texts])))
    doc_idx, h = _window_hashes(data, offs.astype(np.int64), w)
    naive = []
    for i, t in enumerate(texts):
        b = t.encode()
        for j in range(0, len(b) - w + 1):
            naive.append((i, b[j : j + w]))
    assert len(h) == len(naive)
    assert doc_idx.tolist() == [di for di, _sub in naive]
    # group: equal substrings must hash equal; distinct must differ
    by_sub: dict = {}
    for (di, sub), hv in zip(naive, h.tolist()):
        by_sub.setdefault(sub, set()).add(hv)
    assert all(len(v) == 1 for v in by_sub.values())
    all_h = {next(iter(v)) for v in by_sub.values()}
    assert len(all_h) == len(by_sub)


@given(
    st.lists(
        st.sampled_from(["hash", "scan", "table", "fast", "key", "other"]),
        min_size=0,
        max_size=8,
    )
)
@settings(max_examples=60, deadline=None)
def test_multi_synonym_rewrite_preserves_nonmatching(tokens):
    from lucene_ray.search.query import (
        BooleanQuery,
        DisjunctionSumQuery,
        TermQuery,
        apply_multi_synonyms,
    )

    rules = {("hash", "scan"): "table"}
    bq = BooleanQuery(should=[TermQuery(t) for t in tokens])
    out = apply_multi_synonyms(bq, rules)
    # reconstruct the token stream: Disjunction clauses expand back to
    # their phrase terms; everything else is unchanged and in order
    flat = []
    for q in out.should:
        if isinstance(q, DisjunctionSumQuery):
            flat.extend(q.disjuncts[0].terms)
        else:
            flat.append(q.term)
    assert flat == tokens
    # every leftmost-greedy (hash, scan) pair got collapsed, nothing else
    n_rewrites = sum(
        isinstance(q, DisjunctionSumQuery) for q in out.should
    )
    naive = 0
    i = 0
    while i < len(tokens) - 1:
        if (tokens[i], tokens[i + 1]) in rules:
            naive += 1
            i += 2
        else:
            i += 1
    assert n_rewrites == naive


@st.composite
def _perc_case(draw):
    vocab = ["aa", "bb", "cc", "dd"]
    docs = draw(
        st.lists(
            st.lists(st.sampled_from(vocab), min_size=0, max_size=10),
            min_size=1,
            max_size=12,
        )
    )
    kind = draw(st.sampled_from(["term", "or", "mustnot", "phrase"]))
    a, b = draw(st.sampled_from(vocab)), draw(st.sampled_from(vocab))
    if kind == "term":
        q = a
    elif kind == "or":
        q = f"{a} {b}"
    elif kind == "mustnot":
        q = f"+{a} -{b}"
    else:
        q = f'"{a} {b}"'
    return docs, q, kind, a, b


@given(_perc_case())
@settings(max_examples=80, deadline=None)
def test_percolator_matches_naive(case):
    """Percolator.match_batch == a naive per-doc evaluator across the
    supported query grammar (term / OR / must+not / exact phrase)."""
    from lucene_ray.search.monitor import Percolator

    docs, q, kind, a, b = case
    batch = pa.table(
        {
            "doc_id": pa.array(range(len(docs)), type=pa.int64()),
            "text": pa.array([" ".join(d) for d in docs], type=pa.string()),
        }
    )
    got = Percolator({0: q}).match_batch(batch)
    got_ids = set(got.column("doc_id").to_pylist())
    want = set()
    for i, d in enumerate(docs):
        if kind == "term":
            ok = a in d
        elif kind == "or":
            ok = (a in d) or (b in d)
        elif kind == "mustnot":
            ok = (a in d) and (b not in d)
        else:
            ok = any(
                x == a and y == b for x, y in zip(d, d[1:])
            )
        if ok:
            want.add(i)
    assert got_ids == want, (q, docs)


def test_percolator_pure_negative_matches_nothing():
    """A registered query with no positive clause ('-slow') matches NO
    documents — mirroring IndexSearcher's empty-positive-clause guard
    (reference: pure MUST_NOT boolean queries match nothing). ADVICE r3."""
    from lucene_ray.search.monitor import Percolator

    batch = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], type=pa.int64()),
            "text": pa.array(
                ["fast code", "slow code", "other text"], type=pa.string()
            ),
        }
    )
    got = Percolator({0: "-slow", 1: "fast"}).match_batch(batch)
    pairs = set(
        zip(got.column("query_id").to_pylist(), got.column("doc_id").to_pylist())
    )
    assert pairs == {(1, 0)}


@given(
    st.lists(
        st.lists(st.integers(0, 12), min_size=1, max_size=5).map(
            lambda x: np.array(sorted(set(x)), dtype=np.int64)
        ),
        min_size=2,
        max_size=3,
    ),
    st.integers(0, 4),
)
@settings(max_examples=80, deadline=None)
def test_sloppy_phrase_window_matches_bruteforce(pos_lists, slop):
    """_phrase_in_doc (percolator phrase verification) == brute-force
    adjusted-position alignment for arbitrary position sets and slops."""
    from itertools import product

    from lucene_ray.search.monitor import _phrase_in_doc

    got = _phrase_in_doc(pos_lists, slop)
    want = False
    if slop == 0:
        base = pos_lists[0]
        for p in base:
            if all((p + j) in pl for j, pl in enumerate(pos_lists[1:], 1)):
                want = True
    else:
        for combo in product(*[pl.tolist() for pl in pos_lists]):
            adj = [p - i for i, p in enumerate(combo)]
            if max(adj) - min(adj) <= slop:
                want = True
    assert got == want, (pos_lists, slop)


@given(
    st.sets(st.text(alphabet="abc", min_size=1, max_size=4), max_size=12),
    st.text(alphabet="abc", min_size=2, max_size=7),
)
@settings(max_examples=80, deadline=None)
def test_word_breaks_match_naive(vocab, term):
    """word_breaks finds exactly the split points whose halves are both in
    the vocabulary (df ranking is pinned by the gate; here membership +
    completeness)."""
    from lucene_ray.search.suggest import word_breaks

    class FakeReader:
        def vocabulary(self):
            return np.array(sorted(vocab), dtype=object)

        def global_term_stats(self, terms):
            return {t: (1, 1) for t in terms}

    got = {(a, b) for a, b, _df in word_breaks(FakeReader(), term, k=100)}
    want = {
        (term[:i], term[i:])
        for i in range(1, len(term))
        if term[:i] in vocab and term[i:] in vocab
    }
    assert got == want


# ---------------------------------------------------------------------------
# Round-4 second-half kernels
# ---------------------------------------------------------------------------


@given(
    st.text(
        alphabet=st.sampled_from(list('ab c()"+|-~*\\123')), min_size=0,
        max_size=40,
    )
)
@settings(max_examples=300, deadline=None)
def test_simpleparser_never_throws(text):
    """SimpleQueryParser's core contract: ANY input parses (the reference's
    degrade-gracefully recovery rules, SimpleQueryParser.java:103)."""
    from lucene_ray.analysis import CodeAnalyzer
    from lucene_ray.search.query import BooleanQuery
    from lucene_ray.search.simpleparser import SimpleQueryParser

    q = SimpleQueryParser(CodeAnalyzer()).parse(text)
    assert isinstance(q, BooleanQuery)


@st.composite
def tri_and_box(draw):
    from hypothesis import assume

    f = lambda: draw(st.integers(-50, 50)) / 4.0
    tri = tuple(np.array([f()]) for _ in range(6))
    ax, ay, bx, by, cx, cy = (t[0] for t in tri)
    # real tessellations never emit degenerate (zero-area) triangles —
    # the half-plane point test is unspecified for them
    assume((bx - ax) * (cy - ay) - (by - ay) * (cx - ax) != 0)
    x0, x1 = sorted((f(), f()))
    y0, y1 = sorted((f(), f()))
    return tri, (y0, y1, x0, x1)


@given(tri_and_box())
@settings(max_examples=300, deadline=None)
def test_tri_box_relation_invariants(case):
    """within => intersects; a box containing the triangle's bbox gives
    within; a box fully outside the bbox gives neither."""
    from lucene_ray.search.spatial import tri_box_relation

    tri, (y0, y1, x0, x1) = case
    ax, ay, bx, by, cx, cy = tri
    inter, within = tri_box_relation(tri, y0, y1, x0, x1)
    assert not (within[0] and not inter[0])
    # cover box strictly around the triangle
    big = tri_box_relation(
        tri,
        float(min(ay[0], by[0], cy[0])) - 1.0,
        float(max(ay[0], by[0], cy[0])) + 1.0,
        float(min(ax[0], bx[0], cx[0])) - 1.0,
        float(max(ax[0], bx[0], cx[0])) + 1.0,
    )
    assert big[0][0] and big[1][0]
    # box strictly left of the triangle bbox
    far = tri_box_relation(
        tri,
        float(min(ay[0], by[0], cy[0])),
        float(max(ay[0], by[0], cy[0])),
        float(min(ax[0], bx[0], cx[0])) - 10.0,
        float(min(ax[0], bx[0], cx[0])) - 5.0,
    )
    assert not far[0][0] and not far[1][0]


@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 4)),
        min_size=1, max_size=4, unique_by=lambda p: p[1],
    ),
    st.integers(0, 30),
)
@settings(max_examples=200, deadline=None)
def test_gapped_phrase_matches_naive(pairs, seed):
    """_gapped_phrase_postings == brute-force alignment over a tiny
    synthetic positions table."""
    from lucene_ray.search.scorer import _POS_SPAN, _gapped_phrase_postings

    rng = np.random.default_rng(seed)
    n_docs, vocab, doc_len = 6, 7, 12
    # term -> per-doc position sets
    positions = {
        t: [
            np.sort(
                rng.choice(doc_len, size=rng.integers(0, 4), replace=False)
            ).astype(np.int64)
            for _ in range(n_docs)
        ]
        for t in range(vocab)
    }

    class _TP:
        def __init__(self, t):
            self.t = t
            self._ttf = 1
            self._pos_blob = b"x"

        def flat_positions(self):
            d, p = [], []
            for doc in range(n_docs):
                for pos in positions[self.t][doc]:
                    d.append(doc)
                    p.append(int(pos))
            return np.array(d, dtype=np.int64), np.array(p, dtype=np.int64)

    class _Reader:
        def postings(self, t):
            return _TP(t)

    # NGramPhraseQuery.kept() always keeps index 0, so the first pair's
    # offset is 0 by construction — alignments are anchored at real
    # positions, never negative
    kept = ((pairs[0][0], 0),) + tuple((t, off) for t, off in pairs[1:])
    got_d, got_f = _gapped_phrase_postings(_Reader(), kept)
    # naive: for each doc, count start positions p with term_j at p+off_j
    want = {}
    for doc in range(n_docs):
        cnt = 0
        for p in range(doc_len + 8):
            if all(
                (p + off) in positions[t][doc].tolist() for t, off in kept
            ):
                cnt += 1
        if cnt:
            want[doc] = cnt
    assert dict(zip(got_d.tolist(), got_f.tolist())) == want
