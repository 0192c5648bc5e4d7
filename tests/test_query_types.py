"""Extended query operators (SURVEY.md §2.11): synonym, dismax, constant
score, match-all, multi-term rewrites, boosts, searchAfter — each checked
against a naive Python oracle over the tokenized corpus, plus pruned duels."""

import glob

import numpy as np
import pytest
from test_automaton import ref_levenshtein

from lucene_ray.analysis import get_analyzer
from lucene_ray.index.builder import build_index
from lucene_ray.index.corpus import write_corpus
from lucene_ray.search.engine import IndexSearcher
from lucene_ray.search.query import (
    BooleanQuery,
    ConstantScoreQuery,
    DisjunctionMaxQuery,
    FuzzyQuery,
    MatchAllDocsQuery,
    PhraseQuery,
    PrefixQuery,
    SynonymQuery,
    TermInSetQuery,
    TermQuery,
    TermRangeQuery,
    WildcardQuery,
    parse_query,
)


@pytest.fixture(scope="module")
def ix(tmp_path_factory, ray_session):
    corpus = str(tmp_path_factory.mktemp("corpus"))
    write_corpus(corpus, n_docs=600, n_shards=2, seed=5, row_group_size=128)
    d = str(tmp_path_factory.mktemp("ix"))
    build_index(sorted(glob.glob(corpus + "/*.parquet")), d, target_docs=128)
    return d


@pytest.fixture(scope="module")
def docs(ix):
    import pyarrow.parquet as pq

    from lucene_ray.search.reader import IndexReader

    an = get_analyzer("code")
    out = []
    for e in IndexReader(ix).segments:
        t = pq.ParquetFile(e.input["file"]).read_row_groups(
            list(range(e.input["rg_start"], e.input["rg_end"])), columns=["content"]
        )
        out.extend(an.tokenize_text(x) for x in t.column("content").to_pylist())
    return out


def doc_set(s, q):
    return set(s.search(q, 10_000_000).docids.tolist())


class TestQueryTypes:
    def test_synonym(self, ix, docs):
        s = IndexSearcher(ix)
        q = BooleanQuery(should=[SynonymQuery(("merge", "flush"))])
        got = doc_set(s, q)
        want = {i for i, d in enumerate(docs) if "merge" in d or "flush" in d}
        assert got == want
        # blended: tf sums, df = max -> score differs from plain OR
        td_syn = s.search(q, 5)
        td_or = s.search("merge flush", 5)
        assert td_syn.docids.tolist() != [] and td_or.docids.tolist() != []

    def test_dismax(self, ix, docs):
        s = IndexSearcher(ix)
        q = BooleanQuery(
            should=[DisjunctionMaxQuery((TermQuery("merge"), TermQuery("flush")), 0.1)]
        )
        got = doc_set(s, q)
        want = {i for i, d in enumerate(docs) if "merge" in d or "flush" in d}
        assert got == want
        # max semantics: dismax score <= sum-OR score, >= best single
        td = s.search(q, 10)
        td_or = s.search("merge flush", 10_000_000)
        or_map = dict(zip(td_or.docids.tolist(), td_or.scores.tolist()))
        for d_, sc in zip(td.docids.tolist(), td.scores.tolist()):
            assert sc <= or_map[d_] + 1e-6

    def test_match_all_and_constant_score(self, ix, docs):
        s = IndexSearcher(ix)
        q = BooleanQuery(should=[MatchAllDocsQuery(boost=2.5)])
        td = s.search(q, 10_000_000)
        assert len(td.docids) == len(docs)
        assert np.all(td.scores == np.float32(2.5))
        q2 = BooleanQuery(should=[ConstantScoreQuery(TermQuery("merge"), boost=3.0)])
        td2 = s.search(q2, 10_000_000)
        want = {i for i, d in enumerate(docs) if "merge" in d}
        assert set(td2.docids.tolist()) == want
        assert np.all(td2.scores == np.float32(3.0))

    def test_term_in_set(self, ix, docs):
        s = IndexSearcher(ix)
        q = BooleanQuery(should=[TermInSetQuery(("merge", "zzz", "flush"))])
        got = doc_set(s, q)
        want = {i for i, d in enumerate(docs) if "merge" in d or "flush" in d}
        assert got == want

    def test_prefix(self, ix, docs):
        s = IndexSearcher(ix)
        got = doc_set(s, BooleanQuery(should=[PrefixQuery("mer")]))
        want = {i for i, d in enumerate(docs) if any(t.startswith("mer") for t in d)}
        assert got == want

    def test_wildcard(self, ix, docs):
        s = IndexSearcher(ix)
        got = doc_set(s, BooleanQuery(should=[WildcardQuery("m*ge")]))
        import fnmatch

        want = {
            i for i, d in enumerate(docs) if any(fnmatch.fnmatch(t, "m*ge") for t in d)
        }
        assert got == want

    def test_range(self, ix, docs):
        s = IndexSearcher(ix)
        got = doc_set(
            s, BooleanQuery(should=[TermRangeQuery("ma", "mf", True, False)])
        )
        want = {
            i for i, d in enumerate(docs) if any("ma" <= t < "mf" for t in d)
        }
        assert got == want

    def test_fuzzy(self, ix, docs):
        s = IndexSearcher(ix)
        got = doc_set(s, BooleanQuery(should=[FuzzyQuery("mergr", max_edits=1)]))

        want = {
            i for i, d in enumerate(docs)
            if any(ref_levenshtein("mergr", t, 1) is not None for t in d)
        }
        assert got == want

    def test_boost_scales_scores(self, ix):
        s = IndexSearcher(ix)
        plain = s.search(BooleanQuery(should=[TermQuery("merge")]), 5)
        boosted = s.search(BooleanQuery(should=[TermQuery("merge", boost=2.0)]), 5)
        assert plain.docids.tolist() == boosted.docids.tolist()
        np.testing.assert_allclose(
            boosted.scores, np.float32(2.0) * plain.scores, rtol=1e-6
        )

    def test_search_after_pagination(self, ix):
        s = IndexSearcher(ix)
        full = s.search("merge flush index", 30)
        page1 = s.search("merge flush index", 10)
        after = (float(page1.scores[-1]), int(page1.docids[-1]))
        page2 = s.search("merge flush index", 10, after=after)
        assert page1.docids.tolist() == full.docids[:10].tolist()
        assert page2.docids.tolist() == full.docids[10:20].tolist()

    def test_parser_extensions(self):
        an = get_analyzer("code")
        bq = parse_query('merge^2 wild*card fuzz~1 "exact phrase"^3', an)
        kinds = {type(q).__name__ for q in bq.should}
        assert kinds == {"TermQuery", "WildcardQuery", "FuzzyQuery", "PhraseQuery"}
        tq = next(q for q in bq.should if isinstance(q, TermQuery))
        assert tq.boost == 2.0
        ph = next(q for q in bq.should if isinstance(q, PhraseQuery))
        assert ph.boost == 3.0

    @pytest.mark.parametrize(
        "q",
        [
            BooleanQuery(should=[SynonymQuery(("merge", "flush"))]),
            BooleanQuery(
                should=[DisjunctionMaxQuery((TermQuery("merge"), TermQuery("get")), 0.3)]
            ),
            BooleanQuery(should=[PrefixQuery("par")]),
            BooleanQuery(should=[ConstantScoreQuery(TermQuery("index"))]),
            BooleanQuery(should=[MatchAllDocsQuery()]),
            # a term mixed with one clause of each clause-table kind, so the
            # pruned path's non-essential bounds use each kind's max_score
            BooleanQuery(should=[TermQuery("catch"), PhraseQuery(("buffer", "manager"))]),
            BooleanQuery(
                should=[TermQuery("catch"), ConstantScoreQuery(TermQuery("double"), 2.0)]
            ),
            BooleanQuery(
                should=[
                    TermQuery("catch"),
                    DisjunctionMaxQuery((TermQuery("double"), TermQuery("get")), 0.2),
                ]
            ),
            BooleanQuery(
                should=[
                    TermQuery("catch"),
                    PhraseQuery(("flush", "token")),
                    ConstantScoreQuery(TermQuery("double")),
                    DisjunctionMaxQuery((TermQuery("double"), TermQuery("get")), 0.2),
                ]
            ),
        ],
    )
    def test_duel_new_types(self, ix, q):
        ex = IndexSearcher(ix, pruned=False)
        pr = IndexSearcher(ix, pruned=True)
        a, b = ex.search(q, 10), pr.search(q, 10)
        assert a.docids.tolist() == b.docids.tolist()
        np.testing.assert_allclose(a.scores, b.scores, rtol=1e-6)


class TestRequiredMultiterm:
    """`+read* merge` must REQUIRE the prefix (DisjunctionSumQuery rewrite —
    previously demoted to SHOULD, silently wrong doc sets)."""

    def test_required_prefix_with_should(self, ix, docs):
        s = IndexSearcher(ix)
        got = doc_set(s, "+mer* flush")
        want = {i for i, d in enumerate(docs) if any(t.startswith("mer") for t in d)}
        assert got == want

    def test_two_required_prefixes(self, ix, docs):
        s = IndexSearcher(ix)
        got = doc_set(s, "+mer* +flu*")
        want = {
            i
            for i, d in enumerate(docs)
            if any(t.startswith("mer") for t in d)
            and any(t.startswith("flu") for t in d)
        }
        assert got == want

    def test_msm_counts_multiterm_as_one_clause(self, ix, docs):
        s = IndexSearcher(ix)
        q = BooleanQuery(
            should=[PrefixQuery("mer"), TermQuery("flush")], min_should_match=2
        )
        got = doc_set(s, q)
        want = {
            i
            for i, d in enumerate(docs)
            if any(t.startswith("mer") for t in d) and "flush" in d
        }
        assert got == want

    def test_composite_should_under_must_msm(self, ix, docs):
        # regression: _Clause.lookup on a _scored clause (ConstantScoreQuery
        # in SHOULD with MUST + min_should_match) used to crash
        s = IndexSearcher(ix)
        q = BooleanQuery(
            must=[TermQuery("merge")],
            should=[ConstantScoreQuery(TermQuery("flush"), boost=2.0)],
            min_should_match=1,
        )
        got = doc_set(s, q)
        want = {i for i, d in enumerate(docs) if "merge" in d and "flush" in d}
        assert got == want

    def test_required_multiterm_duel(self, ix):
        ex = IndexSearcher(ix, pruned=False)
        pr = IndexSearcher(ix, pruned=True)
        for qtext in ("+mer* flush", "+mer* +flu*", "+par* -merge"):
            a, b = ex.search(qtext, 10), pr.search(qtext, 10)
            assert a.docids.tolist() == b.docids.tolist()
            np.testing.assert_allclose(a.scores, b.scores, rtol=1e-6)


class TestFieldQueries:
    """Keyword-field (StringField) postings: 'field:value' composite terms."""

    def test_lang_filter(self, ix):
        import pyarrow.parquet as pq
        from lucene_ray.search.reader import IndexReader

        s = IndexSearcher(ix)
        # ground truth from the stored fields themselves
        want = set()
        base = 0
        for e in IndexReader(ix).segments:
            st = pq.read_table(
                __import__("os").path.join(ix, "segments", e.name, "stored.parquet")
            )
            for i, lg in enumerate(st.column("lang").to_pylist()):
                if lg == "py":
                    want.add(base + i)
            base += e.doc_count
        got = doc_set(s, "lang:py")
        assert got == want and len(want) > 0

    def test_field_and_content(self, ix, docs):
        import os
        import pyarrow.parquet as pq
        from lucene_ray.search.reader import IndexReader

        s = IndexSearcher(ix)
        langs = []
        for e in IndexReader(ix).segments:
            st = pq.read_table(os.path.join(ix, "segments", e.name, "stored.parquet"))
            langs.extend(st.column("lang").to_pylist())
        got = doc_set(s, "+merge +lang:go")
        want = {i for i, d in enumerate(docs) if "merge" in d and langs[i] == "go"}
        assert got == want

    def test_field_wildcard_and_namespace_guard(self, ix, docs):
        s = IndexSearcher(ix)
        # field wildcard expands only within the field namespace
        got = doc_set(s, "lang:j*")
        import os
        import pyarrow.parquet as pq
        from lucene_ray.search.reader import IndexReader

        langs = []
        for e in IndexReader(ix).segments:
            st = pq.read_table(os.path.join(ix, "segments", e.name, "stored.parquet"))
            langs.extend(st.column("lang").to_pylist())
        want = {i for i, lg in enumerate(langs) if lg.startswith("j")}
        assert got == want
        # content-side range must NOT sweep in 'lang:...' terms
        got2 = doc_set(s, BooleanQuery(should=[TermRangeQuery("k", "m", True, False)]))
        want2 = {i for i, d in enumerate(docs) if any("k" <= t < "m" for t in d)}
        assert got2 == want2


class TestSloppyPhrase:
    def _positions(self, toks, term):
        return [p for p, t in enumerate(toks) if t == term]

    def _matches(self, toks, terms, slop):
        """Brute-force oracle: exists one occurrence per term with
        span(max(pos_i - i), min) <= slop."""
        import itertools

        lists = [self._positions(toks, t) for t in terms]
        if any(not l for l in lists):
            return False
        for sel in itertools.product(*lists):
            adj = [p - i for i, p in enumerate(sel)]
            if max(adj) - min(adj) <= slop:
                return True
        return False

    @pytest.mark.parametrize(
        "terms,slop",
        [
            (("merge", "flush"), 1),
            (("merge", "flush"), 2),  # reversed order reachable
            (("index", "merge"), 3),
            (("merge", "flush", "index"), 4),
        ],
    )
    def test_sloppy_doc_sets(self, ix, docs, terms, slop):
        from lucene_ray.search.query import PhraseQuery

        s = IndexSearcher(ix)
        got = doc_set(s, BooleanQuery(should=[PhraseQuery(terms, slop=slop)]))
        want = {i for i, d in enumerate(docs) if self._matches(d, terms, slop)}
        assert got == want

    def test_slop_widens_and_exact_is_subset(self, ix):
        from lucene_ray.search.query import PhraseQuery

        s = IndexSearcher(ix)
        exact = doc_set(s, BooleanQuery(should=[PhraseQuery(("merge", "flush"))]))
        s1 = doc_set(s, BooleanQuery(should=[PhraseQuery(("merge", "flush"), slop=1)]))
        s3 = doc_set(s, BooleanQuery(should=[PhraseQuery(("merge", "flush"), slop=3)]))
        assert exact <= s1 <= s3

    def test_parser_slop_syntax(self):
        an = get_analyzer("code")
        bq = parse_query('"merge flush"~2', an)
        ph = bq.should[0]
        assert isinstance(ph, PhraseQuery) and ph.slop == 2 and ph.terms == ("merge", "flush")

    def test_sloppy_duel(self, ix):
        from lucene_ray.search.query import PhraseQuery

        q = BooleanQuery(should=[PhraseQuery(("merge", "flush"), slop=2)])
        ex = IndexSearcher(ix, pruned=False)
        pr = IndexSearcher(ix, pruned=True)
        a, b = ex.search(q, 10), pr.search(q, 10)
        assert a.docids.tolist() == b.docids.tolist()
        np.testing.assert_allclose(a.scores, b.scores, rtol=1e-6)


class TestPointsAndSort:
    def _doc_lens_chars(self, ix):
        import os
        import pyarrow.parquet as pq
        from lucene_ray.search.reader import IndexReader

        out = []
        for e in IndexReader(ix).segments:
            sr = IndexReader(ix).segment_reader(e.name)
            out.extend(sr.doc_values("n_chars").tolist())
        return out

    def test_point_range(self, ix, docs):
        from lucene_ray.search.query import PointRangeQuery

        lens = self._doc_lens_chars(ix)
        s = IndexSearcher(ix)
        got = doc_set(s, BooleanQuery(must=[PointRangeQuery("n_chars", 800, 1200)]))
        want = {i for i, L in enumerate(lens) if 800 <= L <= 1200}
        assert got == want and want
        # open bounds
        got2 = doc_set(s, BooleanQuery(must=[PointRangeQuery("n_chars", None, 900)]))
        assert got2 == {i for i, L in enumerate(lens) if L <= 900}
        # combined with a content term
        got3 = doc_set(
            s,
            BooleanQuery(
                must=[PointRangeQuery("n_chars", 1000, None), TermQuery("merge")]
            ),
        )
        want3 = {i for i, L in enumerate(lens) if L >= 1000 and "merge" in docs[i]}
        assert got3 == want3

    def test_regexp(self, ix, docs):
        from lucene_ray.search.query import RegexpQuery

        s = IndexSearcher(ix)
        import re as _re

        rx = _re.compile(r"mer[a-z]*[0-9]*")
        got = doc_set(s, BooleanQuery(should=[RegexpQuery(r"mer[a-z]*[0-9]*")]))
        want = {i for i, d in enumerate(docs) if any(rx.fullmatch(t) for t in d)}
        assert got == want

    def test_search_sorted(self, ix, docs):
        from lucene_ray.search.engine import search_sorted

        lens = self._doc_lens_chars(ix)
        s = IndexSearcher(ix)
        td = search_sorted(s, "merge", "n_chars", k=15, ascending=False)
        match = [i for i, d in enumerate(docs) if "merge" in d]
        want = sorted(match, key=lambda i: (-lens[i], i))[:15]
        assert td.docids.tolist() == want
        assert td.values.tolist() == [lens[i] for i in want]
        td2 = search_sorted(s, "merge", "n_chars", k=15, ascending=True)
        want2 = sorted(match, key=lambda i: (lens[i], i))[:15]
        assert td2.docids.tolist() == want2


class TestReviewRegressions:
    """Fixes from the round-2 code review."""

    def test_regexp_alternation_scans_all_branches(self, ix, docs):
        from lucene_ray.search.query import RegexpQuery

        s = IndexSearcher(ix)
        got = doc_set(s, BooleanQuery(should=[RegexpQuery("merge|flush")]))
        want = {i for i, d in enumerate(docs) if "merge" in d or "flush" in d}
        assert got == want

    def test_and_promotes_phrases(self):
        an = get_analyzer("code")
        bq = parse_query('batch AND "sort merge"', an)
        assert len(bq.must) == 2  # both term AND phrase required
        assert any(isinstance(q, PhraseQuery) for q in bq.must)
        assert not bq.should

    def test_sloppy_repeats_need_distinct_positions(self, ix, docs):
        from lucene_ray.search.query import PhraseQuery

        s = IndexSearcher(ix)
        q = BooleanQuery(should=[PhraseQuery(("merge", "merge"), slop=2)])
        got = doc_set(s, q)
        # oracle: two DISTINCT positions of 'merge' within adjusted span 2
        want = set()
        for i, d in enumerate(docs):
            pos = [p for p, t in enumerate(d) if t == "merge"]
            if any(
                abs((p2 - 1) - p1) <= 2
                for a_, p1 in enumerate(pos)
                for b_, p2 in enumerate(pos)
                if a_ != b_
            ):
                want.add(i)
        assert got == want
        # a doc with exactly ONE occurrence must not match
        singles = {i for i, d in enumerate(docs) if d.count("merge") == 1}
        assert not (got & singles)

    def test_merge_reclaim_matches_fresh_live_index(self, tmp_path, ray_session):
        """Reference merge semantics: BEFORE a merge, deletes do not affect
        scores at all; AFTER the merge reclaims them, stats (df/N/ttf) equal
        a FRESH index built from only the live docs — so post-merge scores
        must be identical to that fresh index's scores."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from lucene_ray.index.builder import build_index
        from lucene_ray.index.merge import force_merge
        from lucene_ray.index.writer import delete_docs

        def corpus(rows):
            n = len(rows)
            return pa.table(
                {
                    "repo": ["r"] * n,
                    "path": [f"p{i}" for i in range(n)],
                    "commit": ["c" * 40] * n,
                    "lang": ["py"] * n,
                    "content": rows,
                }
            )

        rows = [f"alpha beta gamma {'delta ' * (i % 5)}" for i in range(40)]
        deleted = {3, 17}
        src = str(tmp_path / "c.parquet")
        pq.write_table(corpus(rows), src, row_group_size=10)
        ix = str(tmp_path / "ix")
        build_index([src], ix, target_docs=10)

        s_nodel = IndexSearcher(ix)
        base = s_nodel.search("delta beta", 40)
        delete_docs(ix, sorted(deleted))
        # pre-merge: deletes shrink the DOC SET but not surviving scores
        s_pre = IndexSearcher(ix)
        pre = s_pre.search("delta beta", 40)
        base_map = dict(zip(base.docids.tolist(), base.scores.tolist()))
        for d, sc in zip(pre.docids.tolist(), pre.scores.tolist()):
            assert sc == base_map[d]
        assert set(pre.docids.tolist()) == set(base.docids.tolist()) - deleted

        force_merge(ix)
        s_post = IndexSearcher(ix)
        post = s_post.search("delta beta", 40)
        assert set(post.docids.tolist()) == set(pre.docids.tolist())

        # fresh index of only the live rows: same scores, order-preserving
        # docid mapping old -> rank-among-live
        live_rows = [r for i, r in enumerate(rows) if i not in deleted]
        src2 = str(tmp_path / "c2.parquet")
        pq.write_table(corpus(live_rows), src2, row_group_size=10)
        ix2 = str(tmp_path / "ix2")
        build_index([src2], ix2, target_docs=10)
        force_merge(ix2)
        fresh = IndexSearcher(ix2).search("delta beta", 40)
        live_sorted = sorted(set(range(40)) - deleted)
        remap = {old: new for new, old in enumerate(live_sorted)}
        got = sorted(zip((remap[d] for d in post.docids.tolist()), post.scores.tolist()))
        want = sorted(zip(fresh.docids.tolist(), fresh.scores.tolist()))
        assert [d for d, _ in got] == [d for d, _ in want]
        np.testing.assert_array_equal(
            np.array([s for _, s in got], dtype=np.float32),
            np.array([s for _, s in want], dtype=np.float32),
        )


class TestSuggest:
    def test_suggest_ranking(self, ix, docs):
        from lucene_ray.search.suggest import suggest_terms

        s = IndexSearcher(ix)
        got = suggest_terms(s.reader, "mrege", k=3)
        assert got, "expected suggestions for a near-miss of 'merge'"
        # naive oracle over the tokenized corpus
        import collections

        df = collections.Counter()
        for d in docs:
            for t in set(d):
                df[t] += 1

        def lev(a, b):
            prev = list(range(len(b) + 1))
            for i, ca in enumerate(a, 1):
                cur = [i]
                for j, cb in enumerate(b, 1):
                    cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb)))
                prev = cur
            return prev[-1]

        cand = [
            (lev("mrege", t), -c, t)
            for t, c in df.items()
            if lev("mrege", t) <= 2 and t != "mrege"
        ]
        cand.sort()
        want = [(t, d, -nc) for d, nc, t in cand[:3]]
        assert got == want
        # the obvious correction ranks first
        assert got[0][0] == "merge"

    def test_exact_word_excluded_by_default(self, ix):
        from lucene_ray.search.suggest import suggest_terms

        s = IndexSearcher(ix)
        got = suggest_terms(s.reader, "merge", k=5)
        assert all(t != "merge" for t, _, _ in got)
        got2 = suggest_terms(s.reader, "merge", k=5, include_exact=True)
        assert got2[0][0] == "merge" and got2[0][1] == 0


class TestSpanNear:
    """SpanNearQuery vs a brute-force positional oracle over the tokenized
    corpus (NearSpansOrdered / NearSpansUnordered doc-set semantics)."""

    def _ordered(self, toks, terms, slop):
        import itertools

        lists = [[p for p, t in enumerate(toks) if t == term] for term in terms]
        if any(not l for l in lists):
            return False
        for sel in itertools.product(*lists):
            if all(sel[i] < sel[i + 1] for i in range(len(sel) - 1)) and (
                sel[-1] - sel[0] - (len(sel) - 1)
            ) <= slop:
                return True
        return False

    def _unordered(self, toks, terms, slop):
        import itertools

        lists = [[p for p, t in enumerate(toks) if t == term] for term in terms]
        if any(not l for l in lists):
            return False
        k = len(terms)
        for sel in itertools.product(*lists):
            if max(sel) - min(sel) + 1 - k <= slop:
                return True
        return False

    @pytest.mark.parametrize(
        "terms,slop",
        [
            (("merge", "flush"), 0),
            (("merge", "flush"), 2),
            (("index", "merge"), 3),
            (("merge", "flush", "index"), 5),
        ],
    )
    def test_ordered_matches_oracle(self, ix, docs, terms, slop):
        from lucene_ray.search.query import SpanNearQuery

        s = IndexSearcher(ix)
        got = doc_set(s, BooleanQuery(should=[SpanNearQuery(terms, slop=slop, ordered=True)]))
        want = {i for i, toks in enumerate(docs) if self._ordered(toks, terms, slop)}
        assert got == want

    @pytest.mark.parametrize(
        "terms,slop",
        [
            (("merge", "flush"), 0),
            (("merge", "flush"), 1),
            (("merge", "flush", "index"), 4),
        ],
    )
    def test_unordered_matches_oracle(self, ix, docs, terms, slop):
        from lucene_ray.search.query import SpanNearQuery

        s = IndexSearcher(ix)
        got = doc_set(s, BooleanQuery(should=[SpanNearQuery(terms, slop=slop, ordered=False)]))
        want = {i for i, toks in enumerate(docs) if self._unordered(toks, terms, slop)}
        assert got == want

    def test_ordered_subset_of_unordered(self, ix):
        from lucene_ray.search.query import SpanNearQuery

        s = IndexSearcher(ix)
        for slop in (0, 2, 5):
            o = doc_set(s, BooleanQuery(should=[SpanNearQuery(("merge", "flush"), slop=slop, ordered=True)]))
            u = doc_set(s, BooleanQuery(should=[SpanNearQuery(("merge", "flush"), slop=slop, ordered=False)]))
            assert o <= u

    def test_repeated_terms_rejected(self, ix):
        from lucene_ray.search.query import SpanNearQuery

        s = IndexSearcher(ix)
        with pytest.raises(ValueError):
            s.search(BooleanQuery(should=[SpanNearQuery(("merge", "merge"), slop=2)]), 10)


class TestParserGroups:
    """Parenthesized OR-groups: +(a b) / -(a b) / (a b)^2 parse to ONE
    composite clause (QueryParser.jj Clause -> nested BooleanQuery, OR-only
    subset; DisjunctionSumQuery = MUST(BooleanQuery(SHOULD...)))."""

    def test_group_parse_shape(self):
        from lucene_ray.search.query import DisjunctionSumQuery

        an = get_analyzer("code")
        bq = parse_query("+(merge flush) index", an)
        assert len(bq.must) == 1 and isinstance(bq.must[0], DisjunctionSumQuery)
        assert {q.term for q in bq.must[0].disjuncts} == {"merge", "flush"}
        assert [q.term for q in bq.should] == ["index"]

    def test_required_group_semantics(self, ix, docs):
        s = IndexSearcher(ix)
        got = doc_set(s, s.parse("+(merge flush) index"))
        want = {i for i, d in enumerate(docs) if "merge" in d or "flush" in d}
        assert got == want

    def test_negated_group_semantics(self, ix, docs):
        s = IndexSearcher(ix)
        got = doc_set(s, s.parse("index -(merge flush)"))
        want = {
            i for i, d in enumerate(docs)
            if "index" in d and "merge" not in d and "flush" not in d
        }
        assert got == want

    def test_group_score_matches_flat_or(self, ix):
        # sum semantics: a pure SHOULD group scores like the flat OR
        s = IndexSearcher(ix)
        flat = s.search("merge flush", 20)
        grp = s.search("(merge flush)", 20)
        assert grp.docids.tolist() == flat.docids.tolist()
        np.testing.assert_allclose(grp.scores, flat.scores, rtol=1e-6)

    def test_group_boost_scales_scores(self, ix):
        s = IndexSearcher(ix)
        base = s.search("(merge flush)", 10)
        boosted = s.search("(merge flush)^2", 10)
        assert boosted.docids.tolist() == base.docids.tolist()
        np.testing.assert_allclose(boosted.scores, base.scores * 2.0, rtol=1e-5)

    def test_group_with_multiterm_disjunct(self, ix, docs):
        # wildcard inside a required group must still be REQUIRED after
        # rewrite (rewrite_query recurses into DisjunctionSumQuery)
        s = IndexSearcher(ix)
        got = doc_set(s, s.parse("+(mer* flush) index"))
        want = {
            i for i, d in enumerate(docs)
            if any(t.startswith("mer") for t in d) or "flush" in d
        }
        assert got == want

    def test_group_with_phrase_and_field(self, ix, docs):
        from lucene_ray.search.query import DisjunctionSumQuery

        an = get_analyzer("code")
        bq = parse_query('("sort merge" lang:py)', an)
        grp = bq.should[0]
        assert isinstance(grp, DisjunctionSumQuery)
        kinds = {type(q).__name__ for q in grp.disjuncts}
        assert kinds == {"PhraseQuery", "TermQuery"}

    def test_structured_group_parses_to_nested(self):
        from lucene_ray.search.query import NestedBooleanQuery

        an = get_analyzer("code")
        bq = parse_query("(merge AND flush) index", an)
        grp = bq.should[0]
        assert isinstance(grp, NestedBooleanQuery)
        assert {q.term for q in grp.must} == {"merge", "flush"}
        bq2 = parse_query("(+merge flush)", an)
        grp2 = bq2.should[0]
        assert isinstance(grp2, NestedBooleanQuery)
        assert [q.term for q in grp2.must] == ["merge"]
        assert [q.term for q in grp2.should] == ["flush"]

    def test_nested_and_group_semantics(self, ix, docs):
        # (merge AND flush) index: group matches docs with BOTH terms,
        # whole query matches group-hits OR index-hits
        s = IndexSearcher(ix)
        got = doc_set(s, s.parse("(merge AND flush) index"))
        want = {
            i for i, d in enumerate(docs)
            if ("merge" in d and "flush" in d) or "index" in d
        }
        assert got == want

    def test_nested_not_group_semantics(self, ix, docs):
        # +(merge NOT flush): docs with merge and without flush
        s = IndexSearcher(ix)
        got = doc_set(s, s.parse("+(merge NOT flush)"))
        want = {i for i, d in enumerate(docs) if "merge" in d and "flush" not in d}
        assert got == want

    def test_nested_group_score_is_inner_sum(self, ix):
        # pure conjunction group: scores = sum of both term scores, same
        # docs as the flat +a +b query
        s = IndexSearcher(ix)
        flat = s.search("+merge +flush", 20)
        grp = s.search("+(merge AND flush)", 20)
        assert grp.docids.tolist() == flat.docids.tolist()
        np.testing.assert_allclose(grp.scores, flat.scores, rtol=1e-6)

    def test_nested_group_with_wildcard_must(self, ix, docs):
        # rewrite must recurse into NestedBooleanQuery (mer* stays REQUIRED
        # inside the group)
        s = IndexSearcher(ix)
        got = doc_set(s, s.parse("(mer* AND flush) index"))
        want = {
            i for i, d in enumerate(docs)
            if (any(t.startswith("mer") for t in d) and "flush" in d)
            or "index" in d
        }
        assert got == want

    def test_nested_group_explain_consistent(self, ix):
        s = IndexSearcher(ix, pruned=False)
        q = "(merge AND flush) index"
        td = s.search(q, 5)
        for d, score in zip(td.docids.tolist(), td.scores.tolist()):
            ex = s.explain(q, d)
            assert ex.is_match and ex.value == pytest.approx(score, abs=0.0)

    def test_group_promoted_by_conjunction(self, ix, docs):
        # explicit AND promotes a SHOULD group to MUST, like bare words
        s = IndexSearcher(ix)
        got = doc_set(s, s.parse("(merge flush) AND index"))
        want = {
            i for i, d in enumerate(docs)
            if ("merge" in d or "flush" in d) and "index" in d
        }
        assert got == want


class TestParserGrammar:
    """Round-3 recursive grammar (QueryParser.jj subset): arbitrary-depth
    nesting, [a TO b] / {a TO b} range syntax, field:(...) scoped groups,
    field:"..." scoped phrases. Doc-set oracles over tokens + stored fields."""

    def _langs(self, ix):
        import os
        import pyarrow.parquet as pq
        from lucene_ray.search.reader import IndexReader

        out = []
        for e in IndexReader(ix).segments:
            st = pq.read_table(os.path.join(ix, "segments", e.name, "stored.parquet"))
            out.extend(st.column("lang").to_pylist())
        return out

    def _n_chars(self, ix):
        from lucene_ray.search.reader import IndexReader

        out = []
        r = IndexReader(ix)
        for e in r.segments:
            out.extend(r.segment_reader(e.name).doc_values("n_chars").tolist())
        return out

    def test_deep_nesting_semantics(self, ix, docs):
        s = IndexSearcher(ix)
        got = doc_set(s, s.parse("((merge AND flush) OR (sort AND batch)) AND index"))
        want = {
            i for i, d in enumerate(docs)
            if (("merge" in d and "flush" in d) or ("sort" in d and "batch" in d))
            and "index" in d
        }
        assert got == want and want

    def test_triple_depth_parse_and_search(self, ix, docs):
        s = IndexSearcher(ix)
        got = doc_set(s, s.parse("(merge AND (flush OR (sort AND batch)))"))
        want = {
            i for i, d in enumerate(docs)
            if "merge" in d and ("flush" in d or ("sort" in d and "batch" in d))
        }
        assert got == want

    def test_nested_group_boost_scales(self, ix):
        s = IndexSearcher(ix)
        base = s.search("((merge AND flush) sort)", 10)
        boosted = s.search("((merge AND flush)^2 sort)", 10)
        assert len(base.docids) > 0
        # boost applies to the inner group only; outer docs identical
        got_b = doc_set(s, s.parse("((merge AND flush)^2 sort)"))
        got = doc_set(s, s.parse("((merge AND flush) sort)"))
        assert got_b == got

    def test_numeric_range_syntax(self, ix, docs):
        lens = self._n_chars(ix)
        s = IndexSearcher(ix)
        got = doc_set(s, s.parse("n_chars:[800 TO 1200]"))
        assert got == {i for i, L in enumerate(lens) if 800 <= L <= 1200}
        # exclusive brackets shift the integer bounds by one
        gotx = doc_set(s, s.parse("n_chars:{800 TO 1200}"))
        assert gotx == {i for i, L in enumerate(lens) if 800 < L < 1200}
        # open lower bound + MUST content term
        got2 = doc_set(s, s.parse("+n_chars:[* TO 900] +merge"))
        assert got2 == {
            i for i, L in enumerate(lens) if L <= 900 and "merge" in docs[i]
        }

    def test_keyword_range_syntax(self, ix):
        langs = self._langs(ix)
        s = IndexSearcher(ix)
        got = doc_set(s, s.parse("lang:[go TO py]"))
        assert got == {i for i, lg in enumerate(langs) if "go" <= lg <= "py"}
        gotx = doc_set(s, s.parse("lang:{go TO py}"))
        assert gotx == {i for i, lg in enumerate(langs) if "go" < lg < "py"}
        # open upper bound stays INSIDE the lang namespace
        goto = doc_set(s, s.parse("lang:[js TO *]"))
        assert goto == {i for i, lg in enumerate(langs) if lg >= "js"}

    def test_default_field_range_syntax(self, ix, docs):
        s = IndexSearcher(ix)
        got = doc_set(s, s.parse("[k TO m}"))
        want = {i for i, d in enumerate(docs) if any("k" <= t < "m" for t in d)}
        assert got == want

    def test_field_scoped_group(self, ix, docs):
        langs = self._langs(ix)
        s = IndexSearcher(ix)
        got = doc_set(s, s.parse("+lang:(py go) +merge"))
        want = {
            i for i, d in enumerate(docs)
            if langs[i] in ("py", "go") and "merge" in d
        }
        assert got == want and want

    def test_field_scoped_phrase_is_exact_keyword(self, ix):
        import os
        import pyarrow.parquet as pq
        from lucene_ray.search.reader import IndexReader

        repos = []
        for e in IndexReader(ix).segments:
            st = pq.read_table(os.path.join(ix, "segments", e.name, "stored.parquet"))
            repos.extend(st.column("repo").to_pylist())
        s = IndexSearcher(ix)
        got = doc_set(s, s.parse('repo:"org1/proj1"'))
        assert got == {i for i, r in enumerate(repos) if r == "org1/proj1"}
        assert got

    def test_and_promotes_previous_clause(self, ix, docs):
        # addClause semantics: 'a AND b c' -> +a +b c (AND binds the pair,
        # the trailing bare word stays SHOULD)
        s = IndexSearcher(ix)
        got = doc_set(s, s.parse("merge AND flush sort"))
        want = {
            i for i, d in enumerate(docs)
            if ("merge" in d and "flush" in d)
        }
        assert got == want

    def test_unbalanced_parens_raise(self):
        an = get_analyzer("code")
        with pytest.raises(ValueError):
            parse_query("(merge flush", an)
        with pytest.raises(ValueError):
            parse_query("merge) flush", an)
        with pytest.raises(ValueError):
            parse_query("((merge AND flush) sort", an)

    def test_range_parse_shapes(self):
        from lucene_ray.search.query import PointRangeQuery, TermRangeQuery

        an = get_analyzer("code")
        bq = parse_query("n_chars:[100 TO 200]", an)
        q = bq.should[0]
        assert isinstance(q, PointRangeQuery) and q.lower == 100 and q.upper == 200
        bq = parse_query("n_chars:{100 TO 200}", an)
        q = bq.should[0]
        assert q.lower == 101 and q.upper == 199
        bq = parse_query("lang:[go TO py]", an)
        q = bq.should[0]
        assert isinstance(q, TermRangeQuery)
        assert q.lower == "lang:go" and q.upper == "lang:py"
        assert q.include_lower and q.include_upper
        bq = parse_query("[alpha TO beta]^2", an)
        q = bq.should[0]
        assert isinstance(q, TermRangeQuery) and q.boost == 2.0
        assert q.lower == "alpha" and q.upper == "beta"


class TestHitCounting:
    """IndexSearcher.count (TotalHitCountCollector / IndexSearcher.java:380
    shortcuts) + TotalHits relation exactness."""

    QUERIES = [
        "merge", "merge flush", "+merge -flush", '"sort merge"',
        "mer* flush", "+(merge flush) index", "merge AND index",
    ]

    def test_count_matches_doc_set(self, ix):
        s = IndexSearcher(ix)
        for q in self.QUERIES:
            assert s.count(q) == len(doc_set(s, s.parse(q))), q

    def test_count_matches_exhaustive_total(self, ix):
        ex = IndexSearcher(ix, pruned=False)
        for q in self.QUERIES:
            td = ex.search(q, 5)
            assert td.relation == "eq", q
            assert ex.count(q) == td.total_hits, q

    def test_matchall_count_shortcut(self, ix):
        from lucene_ray.search.query import MatchAllDocsQuery
        from lucene_ray.search.reader import IndexReader

        s = IndexSearcher(ix)
        q = BooleanQuery(should=[MatchAllDocsQuery()])
        assert s.count(q) == IndexReader(ix).doc_count

    def test_pruned_total_is_lower_bound(self, ix):
        ex = IndexSearcher(ix, pruned=False)
        pr = IndexSearcher(ix, pruned=True)
        for q in self.QUERIES:
            a, b = ex.search(q, 5), pr.search(q, 5)
            if b.relation == "eq":
                assert b.total_hits == a.total_hits, q
            else:
                assert b.total_hits <= a.total_hits, q

    def test_count_with_deletions_skips_shortcut(self, tmp_path, ray_session):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from lucene_ray.index.writer import delete_docs

        words = ["merge", "flush", "sort", "batch"]
        rows = [
            {"repo": "r", "path": f"p{i}", "commit": "c", "lang": "py",
             "content": " ".join(words[: 1 + i % 4])}
            for i in range(60)
        ]
        src = str(tmp_path / "c.parquet")
        pq.write_table(pa.Table.from_pylist(rows), src)
        d = str(tmp_path / "ix")
        build_index([src], d, target_docs=20)
        s0 = IndexSearcher(d)
        n0 = s0.count("merge")
        assert n0 == 60
        delete_docs(d, [0, 1, 2])
        s1 = IndexSearcher(d)
        # df-shortcut would still say 60; the slow path must say 57
        assert s1.count("merge") == 57
        assert s1.count("flush") == len(doc_set(s1, s1.parse("flush")))


class TestMultiPhrase:
    """MultiPhraseQuery (per-slot alternatives, search/MultiPhraseQuery.java)
    vs a naive Python oracle; duel pruned/exhaustive."""

    CASES = [
        (("merge", "flush"), ("index",)),
        (("sort",), ("merge", "flush")),
        (("merge", "index"), ("flush", "sort")),
    ]

    @staticmethod
    def _matches(toks, slots):
        for start in range(len(toks) - len(slots) + 1):
            if all(toks[start + i] in slots[i] for i in range(len(slots))):
                return True
        return False

    def test_doc_sets_match_oracle(self, ix, docs):
        from lucene_ray.search.query import MultiPhraseQuery

        s = IndexSearcher(ix)
        for slots in self.CASES:
            q = BooleanQuery(should=[MultiPhraseQuery(slots)])
            got = doc_set(s, q)
            want = {i for i, d in enumerate(docs) if self._matches(d, slots)}
            assert got == want, slots

    def test_single_alternatives_equal_phrase(self, ix):
        from lucene_ray.search.query import MultiPhraseQuery

        s = IndexSearcher(ix)
        mp = s.search(
            BooleanQuery(should=[MultiPhraseQuery((("sort",), ("merge",)))]), 20
        )
        ph = s.search(BooleanQuery(should=[PhraseQuery(("sort", "merge"))]), 20)
        assert mp.docids.tolist() == ph.docids.tolist()
        np.testing.assert_allclose(mp.scores, ph.scores, rtol=1e-6)

    def test_duel(self, ix):
        from lucene_ray.search.query import MultiPhraseQuery

        ex = IndexSearcher(ix, pruned=False)
        pr = IndexSearcher(ix, pruned=True)
        for slots in self.CASES:
            q = BooleanQuery(
                should=[MultiPhraseQuery(slots), TermQuery("index")]
            )
            a, b = ex.search(q, 10), pr.search(q, 10)
            assert a.docids.tolist() == b.docids.tolist(), slots
            np.testing.assert_allclose(a.scores, b.scores, rtol=1e-6)


class TestParserFuzz:
    """Random query strings must parse and search without crashing (or raise
    only the documented ValueError for unsupported nesting)."""

    def test_random_queries_dont_crash(self, ix):
        import random

        rng = random.Random(1234)
        pieces = [
            "merge", "flush", "mer*", "fuzz~1", '"sort merge"', '"a b"~2',
            "+", "-", "AND", "OR", "NOT", "(", ")", "^2", "lang:py",
            "content:merge", "~", "*", "?", '"', "zzz", "(merge flush)",
            "+(a AND b)", "a^", ":", "foo:bar:baz", "",
            "((merge AND flush) OR sort)", "lang:(py go)", "n_chars:[100 TO 200]",
            "lang:[go TO py]", "[a TO b}", "n_chars:{5 TO 9}", "[* TO *]",
            "TO", "[TO]", "n_chars:[x TO y]", "(a (b (c d)))",
        ]
        s = IndexSearcher(ix)
        for _ in range(300):
            q = " ".join(
                rng.choice(pieces) for _ in range(rng.randint(1, 6))
            )
            try:
                td = s.search(q, 5)
            except ValueError:
                continue  # documented: unsupported nesting raises
            assert td.total_hits >= 0
            assert len(td.docids) == len(td.scores)


class TestJoinQuery:
    def test_join_preserves_or_semantics(self, ix, docs):
        from lucene_ray.search.engine import join_query

        s = IndexSearcher(ix)
        # to_query 'merge flush' is an OR: join hits must include docs with
        # EITHER term (whose lang is in the from-side's lang set)
        joined = join_query(s, "index", "lang", to_query="merge flush")
        got = doc_set(s, joined)
        # synthetic corpus: few langs and a broad from-side -> every lang
        # is in the from-set, so the join reduces to the to-query's OR
        want = {i for i, d in enumerate(docs) if "merge" in d or "flush" in d}
        assert got == want


class TestBlockJoin:
    """ToParentBlockJoinQuery: child->parent mapping + score modes."""

    @pytest.fixture(scope="class")
    def bj_ix(self, tmp_path_factory, ray_session):
        import pyarrow as pa
        import pyarrow.parquet as pq

        rows = []
        kids = [
            ["merge flush", "sort", "merge"],       # block 0: 2 merge kids
            ["batch", "scan", "sort"],              # block 1: no merge
            ["merge merge merge", "flush", "scan"], # block 2: heavy merge kid
        ]
        for i, block in enumerate(kids):
            for j, text in enumerate(block):
                rows.append(
                    {"repo": "child", "path": f"c{i}{j}", "commit": "0",
                     "lang": "t", "content": text}
                )
            rows.append(
                {"repo": "parent", "path": f"p{i}", "commit": "0",
                 "lang": "t", "content": f"parentrow {i}"}
            )
        src = str(tmp_path_factory.mktemp("bj") / "c.parquet")
        pq.write_table(pa.Table.from_pylist(rows), src)
        d = str(tmp_path_factory.mktemp("bjix"))
        build_index([src], d, target_docs=100)
        return d

    def _q(self, mode):
        from lucene_ray.search.query import ToParentBlockJoinQuery

        return BooleanQuery(
            should=[
                ToParentBlockJoinQuery(
                    TermQuery("merge"), TermQuery("repo:parent"),
                    score_mode=mode,
                )
            ]
        )

    def test_parent_sets(self, bj_ix):
        s = IndexSearcher(bj_ix)
        got = doc_set(s, self._q("none"))
        assert got == {3, 11}  # parents of blocks 0 and 2 (docids 4i+3)

    def test_score_modes(self, bj_ix):
        import numpy as np

        s = IndexSearcher(bj_ix, pruned=False)
        # child scores for 'merge' (docids 0, 2 in block 0; 8 in block 2)
        child = s.search(BooleanQuery(should=[TermQuery("merge")]), 100)
        cs = dict(zip(child.docids.tolist(), child.scores.tolist()))
        mx = s.search(self._q("max"), 10)
        mmap = dict(zip(mx.docids.tolist(), mx.scores.tolist()))
        assert mmap[3] == pytest.approx(max(cs[0], cs[2]))
        assert mmap[11] == pytest.approx(cs[8])
        sm = s.search(self._q("sum"), 10)
        smap = dict(zip(sm.docids.tolist(), sm.scores.tolist()))
        assert smap[3] == pytest.approx(np.float32(cs[0]) + np.float32(cs[2]))
        nn = s.search(self._q("none"), 10)
        assert all(x == 1.0 for x in nn.scores.tolist())

    def test_combines_with_parent_side_clause(self, bj_ix):
        # block join as one clause of a larger boolean on the parent side
        from lucene_ray.search.query import ToParentBlockJoinQuery

        s = IndexSearcher(bj_ix)
        q = BooleanQuery(
            must=[
                ToParentBlockJoinQuery(
                    TermQuery("merge"), TermQuery("repo:parent"), "none"
                ),
                TermQuery("parentrow"),
            ],
        )
        assert doc_set(s, q) == {3, 11}

    def test_duel(self, bj_ix):
        ex = IndexSearcher(bj_ix, pruned=False)
        pr = IndexSearcher(bj_ix, pruned=True)
        for mode in ("max", "sum", "none"):
            a, b = ex.search(self._q(mode), 10), pr.search(self._q(mode), 10)
            assert a.docids.tolist() == b.docids.tolist()
            np.testing.assert_allclose(a.scores, b.scores, rtol=1e-6)


class TestFeatureQuery:
    """FeatureField-style static-signal scoring (FeatureField.newLogQuery /
    newSaturationQuery): formula checks + additive composition with BM25."""

    def test_log_formula(self, ix):
        import numpy as np

        from lucene_ray.search.query import FeatureQuery
        from lucene_ray.search.reader import IndexReader

        s = IndexSearcher(ix, pruned=False)
        td = s.search(
            BooleanQuery(should=[FeatureQuery("n_chars", weight=3.0)]), 10
        )
        r = IndexReader(ix)
        from lucene_ray.search.engine import fetch_doc_values

        vals = fetch_doc_values(r, td.docids, "n_chars").astype(np.float32)
        want = np.float32(3.0) * np.log1p(vals)
        np.testing.assert_allclose(td.scores, want, rtol=1e-6)

    def test_saturation_monotone_and_bounded(self, ix):
        from lucene_ray.search.query import FeatureQuery

        s = IndexSearcher(ix, pruned=False)
        td = s.search(
            BooleanQuery(
                should=[FeatureQuery("n_chars", weight=1.0,
                                     function="saturation", pivot=50.0)]
            ),
            10_000_000,
        )
        assert (td.scores < 1.0).all() and (td.scores > 0).all()
        # scores sorted desc follow value sorted desc (monotone)
        assert list(td.scores) == sorted(td.scores, reverse=True)

    def test_additive_with_bm25(self, ix):
        import numpy as np

        from lucene_ray.search.engine import fetch_doc_values
        from lucene_ray.search.query import FeatureQuery

        s = IndexSearcher(ix, pruned=False)
        base = s.search("merge", 10_000_000)
        combo = s.search(
            BooleanQuery(
                must=[TermQuery("merge")],
                should=[FeatureQuery("n_chars", weight=0.1)],
            ),
            10_000_000,
        )
        bmap = dict(zip(base.docids.tolist(), base.scores.tolist()))
        vals = fetch_doc_values(s.reader, combo.docids, "n_chars").astype(np.float32)
        for d, sc, v in zip(combo.docids.tolist(), combo.scores, vals):
            want = np.float32(bmap[d]) + np.float32(0.1) * np.log1p(np.float32(v))
            assert sc == pytest.approx(float(want), rel=1e-6)

    def test_duel(self, ix):
        from lucene_ray.search.query import FeatureQuery

        ex = IndexSearcher(ix, pruned=False)
        pr = IndexSearcher(ix, pruned=True)
        q = BooleanQuery(
            should=[TermQuery("merge"), FeatureQuery("n_chars", weight=0.05)]
        )
        a, b = ex.search(q, 10), pr.search(q, 10)
        assert a.docids.tolist() == b.docids.tolist()
        np.testing.assert_allclose(a.scores, b.scores, rtol=1e-6)


class TestBlockJoinDeletes:
    def test_deleted_child_stops_matching(self, tmp_path, ray_session):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from lucene_ray.index.writer import delete_docs
        from lucene_ray.search.query import ToParentBlockJoinQuery

        rows = []
        for i, block in enumerate([["merge", "sort"], ["batch", "merge"]]):
            for j, text in enumerate(block):
                rows.append(
                    {"repo": "child", "path": f"c{i}{j}", "commit": "0",
                     "lang": "t", "content": text}
                )
            rows.append(
                {"repo": "parent", "path": f"p{i}", "commit": "0",
                 "lang": "t", "content": f"parentrow {i}"}
            )
        src = str(tmp_path / "c.parquet")
        pq.write_table(pa.Table.from_pylist(rows), src)
        d = str(tmp_path / "ix")
        build_index([src], d, target_docs=100)

        def q():
            return BooleanQuery(
                should=[
                    ToParentBlockJoinQuery(
                        TermQuery("merge"), TermQuery("repo:parent"), "none"
                    )
                ]
            )

        s0 = IndexSearcher(d)
        assert doc_set(s0, q()) == {2, 5}
        delete_docs(d, [0])  # block 0's only 'merge' child
        s1 = IndexSearcher(d)
        assert doc_set(s1, q()) == {5}
        # deleted PARENT: boundary preserved, parent unreturnable
        delete_docs(d, [5])
        s2 = IndexSearcher(d)
        assert doc_set(s2, q()) == set()


class TestRescore:
    def test_rescore_weight_zero_is_identity(self, ix):
        from lucene_ray.search.engine import rescore

        s = IndexSearcher(ix, pruned=False)
        td = s.search(BooleanQuery(should=[TermQuery("merge")]), 20)
        rs = rescore(s, td, TermQuery("window"), weight=0.0)
        assert rs.docids.tolist() == td.docids.tolist()
        np.testing.assert_array_equal(rs.scores, td.scores)

    def test_rescore_takes_a_query_string(self, ix):
        from lucene_ray.search.engine import rescore

        s = IndexSearcher(ix, pruned=False)
        td = s.search(BooleanQuery(should=[TermQuery("merge")]), 20)
        a = rescore(s, td, "sort", weight=1.5)
        b = rescore(s, td, TermQuery("sort"), weight=1.5)
        assert a.docids.tolist() == b.docids.tolist()
        np.testing.assert_array_equal(a.scores, b.scores)
        assert not np.array_equal(a.scores, td.scores)  # the second pass counted

    def test_rescore_combines_explain_values(self, ix):
        from lucene_ray.search.engine import rescore
        from lucene_ray.search.explain import explain

        s = IndexSearcher(ix, pruned=False)
        td = s.search(BooleanQuery(should=[TermQuery("merge")]), 15)
        q2 = BooleanQuery(should=[PhraseQuery(("merge", "sort"))])
        rs = rescore(s, td, q2, weight=2.0)
        # every combined score must equal first + 2 * explain(q2) (float32)
        want = {}
        for d, sc in zip(td.docids, td.scores):
            ex = explain(s, q2, int(d))
            second = np.float32(ex.value) if ex.is_match else np.float32(0)
            want[int(d)] = np.float32(sc) + np.float32(2.0) * second
        for d, sc in zip(rs.docids, rs.scores):
            assert np.float32(sc) == want[int(d)], d
        # and the order is (score desc, docid asc)
        key = sorted(zip(rs.scores, rs.docids), key=lambda t: (-t[0], t[1]))
        assert [int(d) for _s, d in key] == rs.docids.tolist()


def test_commonterms_boundary_df_is_low_frequency():
    """CommonTermsQuery partition rule (CommonTermsQuery.java): only
    df > maxTermFrequency * docCount is HIGH-frequency — a boundary term
    (df == cutoff) stays in the required low bucket (ADVICE r3)."""
    from lucene_ray.search.query import CommonTermsQuery

    q = CommonTermsQuery(("boundary", "common", "rare"), max_term_frequency=0.4)
    # n=10 -> cutoff=4.0: df 4 == cutoff -> LOW; df 5 > cutoff -> HIGH
    bq = q.rewrite_with({"boundary": (4, 9), "common": (5, 20), "rare": (1, 1)}, 10.0)
    must = {t.term for t in bq.must}
    should = {t.term for t in bq.should}
    assert "boundary" in must and "rare" in must
    assert should == {"common"}


class TestCoveringQuery:
    TERMS = ("merge", "sort", "scan")

    def test_constant_minimum(self, ix, docs):
        """CoveringQuery(min=2): docs where >= 2 distinct clause terms
        occur (each clause is a distinct TermQuery)."""
        from lucene_ray.search.query import CoveringQuery

        s = IndexSearcher(ix)
        q = CoveringQuery(tuple(TermQuery(t) for t in self.TERMS), "2")
        got = doc_set(s, BooleanQuery(should=[q]))
        want = {
            i
            for i, d in enumerate(docs)
            if sum(t in d for t in self.TERMS) >= 2
        }
        assert got == want

    def test_dv_minimum_with_clamp(self, ix, docs):
        """Per-doc minimum from the n_chars NUMERIC doc values; values < 1
        behave as 1 (CoveringScorer.setMinMatch)."""
        from lucene_ray.search.query import CoveringQuery
        from lucene_ray.search.reader import IndexReader

        s = IndexSearcher(ix)
        q = CoveringQuery(tuple(TermQuery(t) for t in self.TERMS), "n_chars % 3")
        got = doc_set(s, BooleanQuery(should=[q]))
        nchars = np.concatenate(
            [
                IndexReader(ix).segment_reader(e.name).doc_values("n_chars")
                for e in IndexReader(ix).segments
            ]
        )
        want = {
            i
            for i, d in enumerate(docs)
            if sum(t in d for t in self.TERMS) >= max(1, int(nchars[i]) % 3)
        }
        assert got == want

    def test_min_one_equals_boolean_should(self, ix):
        """min=1 degenerates to a pure SHOULD disjunction: same doc sets
        AND bit-identical summed float32 scores (CoveringScorer.score sums
        matching clauses exactly like BooleanWeight SHOULD)."""
        from lucene_ray.search.query import CoveringQuery

        s = IndexSearcher(ix)
        qs = tuple(TermQuery(t) for t in self.TERMS)
        ta = s.search(BooleanQuery(should=[CoveringQuery(qs, "1")]), 10_000)
        tb = s.search(BooleanQuery(should=list(qs)), 10_000)
        assert ta.docids.tolist() == tb.docids.tolist()
        np.testing.assert_array_equal(ta.scores, tb.scores)


class TestSpanOps:
    """Span query family (queries/spans/): SpanOr/SpanNot/SpanFirst/
    SpanContaining/SpanWithin + SpanMultiTermWrapper composing with the
    SpanNear positions join — naive positional oracles over the tokenized
    corpus plus algebra unit tests."""

    def test_span_term_near_duel(self, ix):
        """SpanNear over SpanTermQuery leaves == the all-str fast path
        (identical doc sets AND scores)."""
        from lucene_ray.search.query import SpanNearQuery, SpanTermQuery

        s = IndexSearcher(ix)
        for ordered in (True, False):
            for slop in (0, 2):
                fast = s.search(
                    BooleanQuery(
                        should=[SpanNearQuery(("merge", "sort"), slop, ordered)]
                    ),
                    10_000,
                )
                slow = s.search(
                    BooleanQuery(
                        should=[
                            SpanNearQuery(
                                (SpanTermQuery("merge"), SpanTermQuery("sort")),
                                slop,
                                ordered,
                            )
                        ]
                    ),
                    10_000,
                )
                assert fast.docids.tolist() == slow.docids.tolist()
                np.testing.assert_array_equal(fast.scores, slow.scores)

    def test_span_or_in_near(self, ix, docs):
        """merge NEAR (sort|scan): ordered, gap <= slop — naive oracle."""
        from lucene_ray.search.query import (
            SpanNearQuery,
            SpanOrQuery,
            SpanTermQuery,
        )

        slop = 2
        s = IndexSearcher(ix)
        q = SpanNearQuery(
            (
                SpanTermQuery("merge"),
                SpanOrQuery((SpanTermQuery("sort"), SpanTermQuery("scan"))),
            ),
            slop=slop,
            ordered=True,
        )
        got = doc_set(s, BooleanQuery(should=[q]))
        want = set()
        for i, d in enumerate(docs):
            ps = [p for p, t in enumerate(d) if t == "merge"]
            qs = sorted(p for p, t in enumerate(d) if t in ("sort", "scan"))
            if any(
                any(p2 > p1 and p2 - p1 - 1 <= slop for p2 in qs) for p1 in ps
            ):
                want.add(i)
        assert got == want

    def test_span_not(self, ix, docs):
        """merge NOT near sort (pre=post=1): some merge occurrence with no
        sort within one position either side."""
        from lucene_ray.search.query import (
            SpanNotQuery,
            SpanTermQuery,
        )

        s = IndexSearcher(ix)
        q = SpanNotQuery(
            SpanTermQuery("merge"), SpanTermQuery("sort"), pre=1, post=1
        )
        got = doc_set(s, BooleanQuery(should=[q]))
        want = set()
        for i, d in enumerate(docs):
            sort_ps = {p for p, t in enumerate(d) if t == "sort"}
            for p, t in enumerate(d):
                if t == "merge" and not (
                    sort_ps & {p - 1, p, p + 1}
                ):
                    want.add(i)
                    break
        assert got == want

    def test_span_first(self, ix, docs):
        from lucene_ray.search.query import SpanFirstQuery, SpanTermQuery

        s = IndexSearcher(ix)
        end = 6
        q = SpanFirstQuery(SpanTermQuery("merge"), end=end)
        got = doc_set(s, BooleanQuery(should=[q]))
        want = {
            i
            for i, d in enumerate(docs)
            if any(t == "merge" and p + 1 <= end for p, t in enumerate(d))
        }
        assert got == want

    def test_span_position_range(self, ix, docs):
        """SpanPositionRangeQuery(merge, 2, 8): 0-based start >= 2 and
        span end (pos+1) <= 8; SpanFirst(end) == PositionRange(0, end)."""
        from lucene_ray.search.query import (
            SpanFirstQuery,
            SpanPositionRangeQuery,
            SpanTermQuery,
        )

        s = IndexSearcher(ix)
        start, end = 2, 8
        q = SpanPositionRangeQuery(SpanTermQuery("merge"), start=start, end=end)
        got = doc_set(s, BooleanQuery(should=[q]))
        want = {
            i
            for i, d in enumerate(docs)
            if any(
                t == "merge" and p >= start and p + 1 <= end
                for p, t in enumerate(d)
            )
        }
        assert got == want
        # start=0 degenerates to SpanFirst
        qa = SpanPositionRangeQuery(SpanTermQuery("merge"), start=0, end=6)
        qb = SpanFirstQuery(SpanTermQuery("merge"), end=6)
        assert doc_set(s, BooleanQuery(should=[qa])) == doc_set(
            s, BooleanQuery(should=[qb])
        )

    def test_span_multiterm_wrapper(self, ix):
        """SpanNear(merge, so*) == SpanNear(merge, SpanOr(expanded terms))."""
        from lucene_ray.search.query import (
            SpanMultiTermWrapper,
            SpanNearQuery,
            SpanOrQuery,
            SpanTermQuery,
        )
        from lucene_ray.search.reader import IndexReader

        s = IndexSearcher(ix)
        vocab = IndexReader(ix).vocabulary()
        expanded = [t for t in vocab.tolist() if t.startswith("so")]
        assert expanded, "fixture vocabulary has no so* terms"
        qa = SpanNearQuery(
            (SpanTermQuery("merge"), SpanMultiTermWrapper(PrefixQuery("so"))),
            slop=3,
            ordered=True,
        )
        qb = SpanNearQuery(
            (
                SpanTermQuery("merge"),
                SpanOrQuery(tuple(SpanTermQuery(t) for t in expanded)),
            ),
            slop=3,
            ordered=True,
        )
        ta = s.search(BooleanQuery(should=[qa]), 10_000)
        tb = s.search(BooleanQuery(should=[qb]), 10_000)
        assert ta.docids.tolist() == tb.docids.tolist()
        np.testing.assert_array_equal(ta.scores, tb.scores)

    def test_span_wrapper_below_constant_score(self, ix):
        """A wrapper the query-level rewrite does not reach (under
        ConstantScoreQuery) expands against each segment's vocabulary:
        the same doc set as the top-level SpanOrQuery."""
        from lucene_ray.search.query import SpanMultiTermWrapper, SpanOrQuery

        s = IndexSearcher(ix)
        inner = SpanOrQuery((SpanMultiTermWrapper(PrefixQuery("mer")),))
        want = doc_set(s, BooleanQuery(should=[inner]))
        assert want
        got = doc_set(s, BooleanQuery(should=[ConstantScoreQuery(inner)]))
        assert got == want

    def test_containing_within_algebra(self):
        """Hand-built spans: containing keeps big spans holding a little
        span; within keeps little spans inside a big span."""
        from lucene_ray.search.spans import containing_spans

        big = (
            np.array([1, 1, 2], dtype=np.int64),
            np.array([0, 10, 4], dtype=np.int64),
            np.array([5, 12, 9], dtype=np.int64),
        )
        little = (
            np.array([1, 2], dtype=np.int64),
            np.array([2, 0], dtype=np.int64),
            np.array([3, 1], dtype=np.int64),
        )
        d, st, en = containing_spans(big, little)
        assert list(zip(d, st, en)) == [(1, 0, 5)]
        d, st, en = containing_spans(big, little, invert=True)
        assert list(zip(d, st, en)) == [(1, 2, 3)]

    def test_span_containing_end_to_end(self, ix, docs):
        """big = ordered near(merge, sort, slop 4) spans that CONTAIN a
        'the' position; within = 'the' positions inside such a span.
        The naive oracle mirrors the greedy non-overlapping chain."""
        from lucene_ray.search.query import (
            SpanContainingQuery,
            SpanNearQuery,
            SpanTermQuery,
            SpanWithinQuery,
        )

        slop = 4
        s = IndexSearcher(ix)
        near = SpanNearQuery(
            (SpanTermQuery("merge"), SpanTermQuery("sort")), slop=slop, ordered=True
        )
        got_c = doc_set(s, BooleanQuery(should=[SpanContainingQuery(near, SpanTermQuery("the"))]))
        got_w = doc_set(s, BooleanQuery(should=[SpanWithinQuery(near, SpanTermQuery("the"))]))
        want_c, want_w = set(), set()
        for i, d in enumerate(docs):
            merges = [p for p, t in enumerate(d) if t == "merge"]
            sorts = np.array([p for p, t in enumerate(d) if t == "sort"])
            thes = [p for p, t in enumerate(d) if t == "the"]
            spans = []
            min_start = -1
            for p1 in merges:
                if p1 <= min_start or len(sorts) == 0:
                    continue
                nxt = sorts[sorts >= p1 + 1]
                if len(nxt) and (nxt[0] + 1 - p1 - 2) <= slop:
                    spans.append((p1, int(nxt[0]) + 1))
                    min_start = p1
            for st, en in spans:
                if any(st <= p and p + 1 <= en for p in thes):
                    want_c.add(i)
                    want_w.add(i)
        assert got_c == want_c
        assert got_w == want_w


class TestPhraseWildcard:
    """PhraseWildcardQuery (sandbox/search/PhraseWildcardQuery.java):
    pattern slots expand against the vocabulary, rewriting to
    MultiPhraseQuery; empty slots poison required clauses."""

    def test_rewrites_to_multiphrase(self, ix):
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.query import (
            BooleanQuery,
            MultiPhraseQuery,
            PhraseWildcardQuery,
        )

        s = IndexSearcher(ix)
        bq = s.prepare(
            BooleanQuery(must=[PhraseWildcardQuery(("sort", "mer*"))])
        )
        assert len(bq.must) == 1 and isinstance(bq.must[0], MultiPhraseQuery)
        assert bq.must[0].slots[0] == ("sort",)
        assert all(t.startswith("mer") for t in bq.must[0].slots[1])

    def test_matches_equal_explicit_multiphrase(self, ix, docs):
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.query import (
            BooleanQuery,
            MultiPhraseQuery,
            PhraseWildcardQuery,
        )

        s = IndexSearcher(ix)
        vocab = s.reader.vocabulary()
        expansions = tuple(t for t in vocab.tolist() if t.startswith("s"))
        a = s.search(
            BooleanQuery(must=[PhraseWildcardQuery(("s*", "merge"))]), 1 << 62
        )
        b = s.search(
            BooleanQuery(
                must=[MultiPhraseQuery((expansions, ("merge",)))]
            ),
            1 << 62,
        )
        assert a.docids.tolist() == b.docids.tolist()
        np.testing.assert_array_equal(a.scores, b.scores)
        assert len(a.docids) > 0

    def test_empty_slot_poisons_must(self, ix):
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.query import BooleanQuery, PhraseWildcardQuery

        s = IndexSearcher(ix)
        td = s.search(
            BooleanQuery(
                must=[PhraseWildcardQuery(("zzznope*", "merge"))],
                should=[],
            ),
            10,
        )
        assert len(td.docids) == 0
        # and as SHOULD beside another clause it contributes nothing but
        # does not block the sibling
        td2 = s.search(
            BooleanQuery(
                must=[],
                should=[
                    PhraseWildcardQuery(("zzznope*", "merge")),
                ],
            ),
            10,
        )
        assert len(td2.docids) == 0

    def test_max_expansions_cap(self, ix):
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.query import BooleanQuery, PhraseWildcardQuery

        s = IndexSearcher(ix)
        bq = s.prepare(
            BooleanQuery(must=[PhraseWildcardQuery(("*", "merge"), max_expansions=3)])
        )
        assert len(bq.must[0].slots[0]) == 3
