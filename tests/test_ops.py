"""Cross-check every oracle-checked op against its DuckDB SQL at sf0.001 —
the same comparison the driver runs at sf0.01 (order-insensitive rows)."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
TABLES = [
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return c


def to_pdf(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        res = res.to_pandas()
    elif isinstance(res, pa.Table):
        res = res.to_pandas()
    return res


def assert_same(ray_res, con, sql, float_cols=()):
    got = to_pdf(ray_res)
    want = con.execute(sql).fetchdf()
    assert sorted(got.columns) == sorted(want.columns), (got.columns, want.columns)
    cols = sorted(got.columns)
    got = got[cols].sort_values(cols).reset_index(drop=True)
    want = want[cols].sort_values(cols).reset_index(drop=True)
    assert len(got) == len(want), f"rows: {len(got)} vs {len(want)}"
    for c in cols:
        if c in float_cols:
            np.testing.assert_allclose(got[c].to_numpy(float), want[c].to_numpy(float), rtol=1e-12)
        else:
            a, b = got[c].to_numpy(), want[c].to_numpy()
            assert (a == b).all(), f"col {c} differs: {a[a != b][:5]} vs {b[a != b][:5]}"


@pytest.mark.usefixtures("ray_session")
class TestTextOps:
    def test_term_stats(self, con):
        from lucene_ray.ops import text

        assert_same(text.term_stats(SF), con, text.term_stats_sql())

    def test_whitespace_stats(self, con):
        from lucene_ray.ops import text

        assert_same(text.whitespace_stats(SF), con, text.whitespace_stats_sql())

    def test_doc_token_stats(self, con):
        from lucene_ray.ops import text

        assert_same(text.doc_token_stats(SF), con, text.doc_token_stats_sql())

    def test_repetition_stats(self, con):
        from lucene_ray.ops import text

        assert_same(text.repetition_stats(SF), con, text.repetition_stats_sql())

    def test_text_quality(self, con):
        from lucene_ray.ops import text

        assert_same(text.text_quality(SF), con, text.text_quality_sql())

    def test_lang_id(self, con):
        from lucene_ray.ops import text

        assert_same(text.lang_id(SF), con, text.lang_id_sql())

    def test_sample_hash(self, con):
        from lucene_ray.ops import text

        assert_same(text.sample_hash(SF), con, text.sample_hash_sql())

    def test_stratified_sample(self, con):
        from lucene_ray.ops import text

        assert_same(text.stratified_sample(SF), con, text.stratified_sample_sql())

    def test_pii_scrub(self, con):
        from lucene_ray.ops import text

        assert_same(text.pii_scrub(SF), con, text.pii_scrub_sql())

    def test_ngram_stats(self, con):
        from lucene_ray.ops import text

        assert_same(text.ngram_stats(SF), con, text.ngram_stats_sql())

    def test_edgengram_stats(self, con):
        from lucene_ray.ops import text

        assert_same(text.edgengram_stats(SF), con, text.edgengram_stats_sql())

    def test_shingle_stats(self, con):
        from lucene_ray.ops import text

        assert_same(text.shingle_stats(SF), con, text.shingle_stats_sql())

    def test_freetext_suggest(self, con):
        from lucene_ray.ops import text

        assert_same(
            text.freetext_suggest(SF), con, text.freetext_suggest_sql(),
            float_cols=("score",),
        )

    def test_freetext_bigram_beats_backoff(self):
        # a context that occurs with a following token must rank some
        # bigram candidate at rank 0 above any 0.4-damped unigram with a
        # plausibly similar frequency (stupid-backoff ordering sanity)
        from lucene_ray.ops import text

        df = text.freetext_suggest(SF).to_pandas()
        assert set(df.qid) == {q for q, _ in text.FREETEXT_CONTEXTS}
        for qid in df.qid.unique():
            g = df[df.qid == qid].sort_values("rank")
            assert (g.score.to_numpy()[:-1] >= g.score.to_numpy()[1:] - 1e-15).all()

    def test_lm_logprob(self, con):
        from lucene_ray.ops import text

        assert_same(
            text.lm_logprob(SF), con, text.lm_logprob_sql(),
            float_cols=("lnp",),
        )

    def test_lm_logprob_is_a_usable_perplexity_signal(self):
        """Mean -lnp per doc is finite, and a doc made of corpus-frequent
        bigrams scores better (lower) than held-out gibberish would — the
        bigram branch must actually fire."""
        import pandas as pd

        from lucene_ray.ops import text

        df = text.lm_logprob(SF).to_pandas()
        assert (df.doc_id < text.LM_EVAL_SPLIT).all()
        assert np.isfinite(df.lnp).all() and (df.lnp < 0).all()
        mean_nll = df.groupby("doc_id").lnp.mean().mul(-1)
        assert len(mean_nll) > 1 and mean_nll.std() > 0  # discriminative
        # position 0 rows exist for every doc (first-token unigram branch)
        assert set(df[df.pos == 0].doc_id) == set(df.doc_id)

    def test_gopher_quality(self, con):
        from lucene_ray.ops import text

        assert_same(text.gopher_quality(SF), con, text.gopher_quality_sql())

    def test_phonetic_doclen(self, con):
        """Distinct-position counts through both multi-code phonetic
        chains == the plain tokenizer count (every injected code is a
        posInc-0 overlap)."""
        from lucene_ray.ops import text

        assert_same(text.phonetic_doclen(SF), con, text.phonetic_doclen_sql())

    def test_gopher_rules_fire(self, tmp_path):
        """Planted corpus: one clean doc passes, a too-short doc and a
        symbol-heavy doc fail the integer rules."""
        import duckdb
        import pyarrow.parquet as pq
        from lucene_ray.ops import text

        good = ("the quick data " + "pipeline streams batches " * 20
                + "to be of and that have with the end")
        short = "the of and"
        symbols = "the be to of and that have with " + "#### " * 60 + "word " * 60
        t = __import__("pyarrow").table(
            {"doc_id": [0, 1, 2], "text": [good, short, symbols]}
        )
        sf = tmp_path / "sf"
        sf.mkdir()
        pq.write_table(t, str(sf / "documents.parquet"))
        got = (
            text.gopher_quality(str(sf)).to_pandas().sort_values("doc_id")
        )
        assert got.keep.tolist() == [1, 0, 0]
        c = duckdb.connect()
        c.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
        )
        want = c.execute(text.gopher_quality_sql()).fetchdf()
        cols = sorted(got.columns)
        assert (
            got[cols].sort_values("doc_id").reset_index(drop=True).astype("int64")
            .equals(want[cols].sort_values("doc_id").reset_index(drop=True).astype("int64"))
        )

    def test_freetext_pruned_read_matches_full_model(self):
        """The persisted-sidecar lookup (pruned bigram filter + top-M
        unigram prefix) must equal brute force over the whole model —
        proving the top-(k + #bigrams) backoff bound is exact."""
        from lucene_ray.ops import text

        model = text._ngram_model(SF).to_pandas()
        uni = model[model.w2 == ""]
        tot = int(uni.c.sum())
        uni_cnt = dict(zip(uni.w1, uni.c))
        want_rows = []
        for qid, ctx in text.FREETEXT_CONTEXTS:
            big = model[(model.w1 == ctx) & (model.w2 != "")]
            ctx_cnt = uni_cnt.get(ctx, 0)
            cands = {}
            if ctx_cnt:
                for w, c in zip(big.w2, big.c):
                    cands[w] = float(c) / float(ctx_cnt)
            for w, c in uni_cnt.items():
                if w not in cands:
                    cands[w] = text.FREETEXT_ALPHA * (float(c) / float(tot))
            ranked = sorted(cands.items(), key=lambda kv: (-kv[1], kv[0]))
            want_rows.extend(
                (qid, r, w, s)
                for r, (w, s) in enumerate(ranked[: text.FREETEXT_K])
            )
        got = text.freetext_suggest(SF).to_pandas()
        got_rows = list(
            zip(got.qid.tolist(), got["rank"].tolist(), got.token.tolist(), got.score.tolist())
        )
        assert got_rows == want_rows

    def test_suggest_models_persisted_once(self, tmp_path):
        """Second call reuses the persisted model dirs (build markers)."""
        import os

        from lucene_ray.ops import bm25docs, text

        d1 = text._freetext_model_dir(SF)
        assert os.path.exists(os.path.join(d1, "_FREETEXT_DONE"))
        m1 = os.path.getmtime(os.path.join(d1, "_FREETEXT_DONE"))
        assert text._freetext_model_dir(SF) == d1
        assert os.path.getmtime(os.path.join(d1, "_FREETEXT_DONE")) == m1
        d2 = bm25docs._suggest_model_dir(SF)
        assert os.path.exists(os.path.join(d2, "_SUGGEST_DONE"))

    def test_analyzing_pruned_read_matches_full(self):
        """Prefix-pruned dictionary reads feed the suggester the complete
        match superset: lookups equal a full-dictionary build."""
        from lucene_ray.ops import bm25docs
        from lucene_ray.search.suggest import AnalyzingSuggester

        full_s, full_w = bm25docs._suggest_entries(SF)
        for _qid, txt in bm25docs.ANALYZING_INPUTS:
            sug_full = AnalyzingSuggester().build(full_s, full_w)
            want = sug_full.lookup(txt, n=bm25docs.SUGGEST_K)
            sug = AnalyzingSuggester()
            ps, pw = bm25docs._suggest_entries(
                SF, key_prefix=sug._analyze(txt)
            )
            assert len(ps) <= len(full_s)
            got = sug.build(ps, pw).lookup(txt, n=bm25docs.SUGGEST_K)
            assert got == want

    def test_fingerprint_deterministic(self):
        from lucene_ray.ops import text

        a = text.fingerprint(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
        b = text.fingerprint(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)
        assert a.fingerprint.nunique() > len(a) * 0.9  # discriminative


@pytest.mark.usefixtures("ray_session")
class TestDedupOps:
    def test_dedup_exact(self, con):
        from lucene_ray.ops import dedup

        assert_same(dedup.dedup_exact(SF), con, dedup.dedup_exact_sql())

    def test_content_sha(self, con):
        from lucene_ray.ops import dedup

        assert_same(dedup.content_sha(SF), con, dedup.content_sha_sql())

    def test_ngram_jaccard(self, con):
        from lucene_ray.ops import dedup

        assert_same(dedup.ngram_jaccard_pairs(SF), con, dedup.ngram_jaccard_sql())

    def test_contamination_check(self, con):
        from lucene_ray.ops import dedup

        assert_same(
            dedup.contamination_check(SF), con, dedup.contamination_check_sql()
        )

    def test_dedup_hotkeys(self, con):
        from lucene_ray.ops import dedup

        assert_same(dedup.dedup_hotkeys(SF), con, dedup.dedup_hotkeys_sql())

    def test_bucket_width_invariance(self):
        """The coarse bucket only PARTITIONS the shuffle — the exact-Jaccard
        pair set must be identical for any n_buckets (VERDICT r4 #1: bucket
        width is a free, data-proportional parameter)."""
        from lucene_ray.ops import dedup

        def pairs_at(nb):
            sh = dedup._docs(SF).map_batches(
                dedup._shingle_rows, batch_format="pyarrow", batch_size=4096
            )
            t = dedup._materialize(
                dedup._exact_jaccard_pairs(sh, n_buckets=nb), dedup.PAIR_SCHEMA
            )
            return set(
                zip(t.column("doc_a").to_pylist(), t.column("doc_b").to_pylist())
            )

        base = pairs_at(64)
        assert base, "fixture corpus must contain near-dup pairs"
        assert pairs_at(4096) == base
        assert pairs_at(1) == base

    def test_n_shuffle_buckets_data_proportional(self, monkeypatch):
        """2^k bucket count derived from the Parquet footer byte size and a
        per-bucket budget: forcing a tiny budget must widen the fan-out, and
        the floor keeps small inputs parallel."""
        from lucene_ray.ops import dedup

        wide = dedup._n_shuffle_buckets(SF, 4.0, min_buckets=1)
        monkeypatch.setattr(dedup, "PER_BUCKET_SHUFFLE_BUDGET", 1024)
        forced = dedup._n_shuffle_buckets(SF, 4.0, min_buckets=1)
        assert forced > wide and forced & (forced - 1) == 0  # power of two
        assert dedup._n_shuffle_buckets(SF, 4.0) >= 64  # default floor
        # width is honored end-to-end: every bucket id stays in range
        b = dedup._coarse_bucket(
            np.arange(10_000, dtype=np.int64) * 2654435761, forced
        )
        assert b.min() >= 0 and b.max() < forced and len(np.unique(b)) > forced // 4

    def test_hotkey_drop_is_loud(self, caplog):
        """Groups above the cap are dropped LOUDLY (logged with sizes) and
        pairs from other keys survive (VERDICT r4 #3/#5)."""
        import logging

        from lucene_ray.ops import dedup

        keys = np.array([7] * 10 + [9, 9], dtype=np.int64)
        docs = np.arange(12, dtype=np.int64)
        with caplog.at_level(logging.WARNING, logger="lucene_ray.dedup"):
            out = dedup._pairs_in_key_groups(keys, docs, cap=5)
        assert len(out) == 1 and out.doc_a.iloc[0] == 10 and out.doc_b.iloc[0] == 11
        assert any("dropped 1 key group" in r.message for r in caplog.records)
        assert any("max 10" in r.message for r in caplog.records)

    def test_hotkeys_dropped_column_fires(self, tmp_path, monkeypatch):
        """On a corpus with a >cap shingle cluster the audit's dropped flag
        fires, in both the engine and the SQL oracle."""
        import duckdb
        import pyarrow.parquet as pq
        from lucene_ray.ops import dedup

        boiler = "the quick brown fox jumps over the lazy dog"
        t = __import__("pyarrow").table(
            {
                "doc_id": list(range(5)),
                "text": [f"{boiler} tail{i} mark{i} end{i} pad{i}" for i in range(4)]
                + ["completely unrelated text with no shared shingles at all ok"],
            }
        )
        sf = tmp_path / "sf"
        sf.mkdir()
        pq.write_table(t, str(sf / "documents.parquet"))
        monkeypatch.setattr(dedup, "PAIR_GROUP_CAP", 3)
        got = dedup.dedup_hotkeys(str(sf)).to_pandas()
        assert (got[got.n_docs > 3].dropped == 1).all()
        assert (got[got.n_docs <= 3].dropped == 0).all()
        assert got.dropped.sum() >= 1  # the 4-doc boilerplate cluster
        c = duckdb.connect()
        c.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
        )
        want = c.execute(dedup.dedup_hotkeys_sql()).fetchdf()
        cols = sorted(got.columns)
        got_s = got[cols].sort_values(cols).reset_index(drop=True)
        want_s = want[cols].sort_values(cols).reset_index(drop=True)
        assert got_s.astype("int64").equals(want_s.astype("int64"))

    def test_minhash_recall_vs_exact(self):
        from lucene_ray.ops import dedup

        exact = to_pdf(dedup.ngram_jaccard_pairs(SF))
        mh = to_pdf(dedup.minhash_lsh_pairs(SF))
        exact_set = set(zip(exact.doc_a, exact.doc_b))
        mh_set = set(zip(mh.doc_a, mh.doc_b))
        # LSH must find most true pairs and verification kills false ones
        assert mh_set <= exact_set
        if exact_set:
            assert len(mh_set) / len(exact_set) >= 0.8

    def test_simhash_near_dups_close(self):
        from lucene_ray.ops import dedup

        sh = to_pdf(dedup.simhash64(SF))
        assert sh.doc_id.is_unique
        assert (sh.simhash >= 0).all()

    def test_embedding_dups(self, con):
        from lucene_ray.ops import dedup

        assert_same(dedup.embedding_dup_pairs(SF), con, dedup.embedding_dup_sql())


    def test_dedup_apply(self, con):
        from lucene_ray.ops import dedup

        assert_same(dedup.dedup_apply(SF), con, dedup.dedup_apply_sql())

    def test_substring_dup(self, con):
        from lucene_ray.ops import dedup

        assert_same(dedup.substring_dup_stats(SF), con, dedup.substring_dup_sql())

    def test_substring_dup_planted(self, con, tmp_path):
        """Planted duplicated spans: two docs sharing one exact w-char span,
        a third unrelated -> window-exact dup counts."""
        import duckdb
        import pyarrow.parquet as pq
        from lucene_ray.ops import dedup

        w = 10
        shared = "abcdefghijKLMNOPQRST"  # 20 chars -> 11 dup windows
        t = __import__("pyarrow").table(
            {
                "doc_id": [0, 1, 2],
                "text": [
                    "xx" + shared + "yy",
                    "qqq" + shared + "zz",
                    "totally different content here....",
                ],
            }
        )
        sf = tmp_path / "sf"
        sf.mkdir()
        pq.write_table(t, str(sf / "documents.parquet"))
        got = dedup.substring_dup_stats(str(sf), w=w).to_pandas()
        c = duckdb.connect()
        c.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
        )
        want = c.execute(dedup.substring_dup_sql(w=w)).fetchdf()
        cols = sorted(got.columns)
        got = got[cols].sort_values(cols).reset_index(drop=True)
        want = want[cols].sort_values(cols).reset_index(drop=True)
        assert got.astype("int64").equals(want.astype("int64"))
        # the shared 20-char span yields exactly 11 duplicated windows each
        assert got[got.doc_id == 0].dup_grams.iloc[0] == 11
        assert got[got.doc_id == 2].dup_grams.iloc[0] == 0


@pytest.mark.usefixtures("ray_session")
class TestKnn:
    def test_bruteforce(self, con):
        from lucene_ray.ops import knn

        assert_same(knn.knn_bruteforce(SF), con, knn.knn_bruteforce_sql())

    def test_lsh_recall(self):
        from lucene_ray.ops import knn

        bf = to_pdf(knn.knn_bruteforce(SF))
        ap = to_pdf(knn.knn_lsh(SF))
        recalls = []
        for qid in bf.query_id.unique():
            truth = set(bf[bf.query_id == qid].vec_id)
            got = set(ap[ap.query_id == qid].vec_id)
            recalls.append(len(truth & got) / len(truth))
        assert np.mean(recalls) >= 0.5, recalls  # approximate, but not junk

    def test_knn_filtered(self, con):
        from lucene_ray.ops import knn

        assert_same(knn.knn_filtered(SF), con, knn.knn_filtered_sql())

    def test_ivf_exact_matches_bruteforce(self, con):
        from lucene_ray.ops import knn

        # nprobe = nlist probes every list -> exact (the driver-gate mode)
        assert_same(knn.knn_ivf_exact(SF), con, knn.knn_bruteforce_sql())

    def test_hnsw_gate_matches_bruteforce(self, con):
        from lucene_ray.ops import hnsw, knn

        # gate ef (128) is rank-identical to brute force on this corpus;
        # graph/recall internals live in tests/test_hnsw.py
        assert_same(hnsw.knn_hnsw(SF), con, knn.knn_bruteforce_sql())

    def test_knn_classify(self, con):
        from lucene_ray.ops import knn

        assert_same(knn.knn_classify(SF), con, knn.knn_classify_sql())

    def test_quantized_gate_matches_bruteforce(self, con):
        from lucene_ray.ops import knn, quant

        # int7 scan + exact re-rank: rank-identical at the gate oversample;
        # quantizer math/recall internals live in tests/test_quant.py
        assert_same(quant.knn_quantized(SF), con, knn.knn_bruteforce_sql())

    def test_driver_reduce_is_output_scale(self, con):
        """The round-4 scale contract (VERDICT r3 #1): the driver never
        materializes per-block candidates — only the Q*k (or Q*R for the
        quantized path) rows that survive the distributed groupby(query_id)
        reduce, REGARDLESS of block count. Force many blocks with a tiny
        batch_size and assert the reduce's driver-held row bound."""
        import ray.data

        from lucene_ray.ops import knn

        q_ids, q_mat = knn._load_queries(SF)
        n_q, k = len(q_ids), 7
        # synthetic candidate stream: 40 blocks x n_q x k local candidates
        # (>> Q*k total) — the reduce must hand the driver <= Q*k rows
        rng = np.random.default_rng(7)
        tables = []
        for b in range(40):
            qcol = np.repeat(q_ids, k)
            vcol = rng.integers(0, 10_000, size=n_q * k)
            scol = rng.random(n_q * k)
            tables.append(
                pd.DataFrame({"query_id": qcol, "vec_id": vcol, "sim": scol})
            )
        cands = ray.data.from_pandas(tables)
        out = knn._distributed_rank_merge(cands, k).to_pandas()
        assert knn._LAST_DRIVER_REDUCE_ROWS <= n_q * k
        assert len(out) <= n_q * k
        # and the reduce is exact: same result as the driver-side merge
        want = knn._rank_merge(pd.concat(tables, ignore_index=True), k).to_pandas()
        assert out.reset_index(drop=True).equals(want.reset_index(drop=True))
        # end-to-end: many tiny blocks through the real operator still ==
        # oracle and still leaves only Q*k rows on the driver
        got = knn.knn_bruteforce(SF)
        assert knn._LAST_DRIVER_REDUCE_ROWS <= n_q * knn.TOP_K
        assert_same(got, con, knn.knn_bruteforce_sql())

    def test_diversified_gate_and_property(self, con):
        """Diversified parent-block kNN (DiversifyingChildrenFloatKnn
        VectorQuery.java): SQL-exact, at most one child per parent in
        every result list, and the result equals brute-force kNN applied
        AFTER collapsing each parent to its best child."""
        from lucene_ray.ops import knn

        got = knn.knn_diversified(SF)
        assert knn._LAST_DRIVER_REDUCE_ROWS <= knn.N_QUERIES * knn.TOP_K
        assert_same(got, con, knn.knn_diversified_sql())
        pdf = to_pdf(got)
        pdf["parent"] = pdf.vec_id // knn.PARENT_BLOCK
        dup = pdf.groupby(["query_id", "parent"]).size()
        assert (dup == 1).all()
        # diversified != plain top-k on this corpus (parents actually
        # collapse something)
        bf = to_pdf(knn.knn_bruteforce(SF))
        assert not pdf.vec_id.equals(bf.vec_id)

    def test_diversified_pruning_safe_with_tiny_blocks(self, con):
        """Parent blocks spanning batch boundaries must not change results:
        batch_size=13 guarantees most 8-child parent blocks are split
        across batches, so the cross-batch best-child-per-parent reduce is
        genuinely exercised — still oracle-exact, driver still O(Q*k)."""
        from lucene_ray.ops import knn

        got = knn.knn_diversified(SF, k=5, batch_size=13)
        assert knn._LAST_DRIVER_REDUCE_ROWS <= knn.N_QUERIES * 5
        assert_same(got, con, knn.knn_diversified_sql(k=5))

    def test_ivf_recall_grows_with_nprobe(self):
        from lucene_ray.ops import knn

        bf = to_pdf(knn.knn_bruteforce(SF))
        truth = {
            qid: set(bf[bf.query_id == qid].vec_id) for qid in bf.query_id.unique()
        }

        def recall(nprobe):
            ap = to_pdf(knn.knn_ivf(SF, nprobe=nprobe))
            rs = [
                len(truth[q] & set(ap[ap.query_id == q].vec_id)) / len(truth[q])
                for q in truth
            ]
            return float(np.mean(rs))

        r4, r8, r16 = recall(4), recall(8), recall(16)
        # near-uniform synthetic vectors are IVF's worst case; still the
        # curve must rise with probed lists and reach 1.0 at full probe
        assert r4 >= 0.3, r4
        assert r8 >= r4 - 1e-9 and r16 >= r8 - 1e-9, (r4, r8, r16)
        assert r16 == 1.0, r16


@pytest.mark.usefixtures("ray_session")
class TestRelational:
    def test_q1(self, con):
        from lucene_ray.ops import relational

        assert_same(relational.q1_pricing(SF), con, relational.q1_pricing_sql())

    def test_top_orders(self, con):
        from lucene_ray.ops import relational

        assert_same(relational.top_orders(SF), con, relational.top_orders_sql())

    def test_nation_orders(self, con):
        from lucene_ray.ops import relational

        assert_same(
            relational.nation_order_stats(SF), con, relational.nation_order_stats_sql()
        )

    def test_events_tumbling(self, con):
        from lucene_ray.ops import relational

        assert_same(relational.events_tumbling(SF), con, relational.events_tumbling_sql())

    def test_events_hopping(self, con):
        from lucene_ray.ops import relational

        assert_same(relational.events_hopping(SF), con, relational.events_hopping_sql())

    def test_sessionize(self, con):
        from lucene_ray.ops import relational

        assert_same(relational.sessionize(SF), con, relational.sessionize_sql())


@pytest.mark.usefixtures("ray_session")
class TestBM25Docs:
    def test_bm25_topk(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(bm25docs.bm25_topk(SF), con, bm25docs.bm25_topk_sql())

    def test_boolean_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(bm25docs.boolean_engine(SF), con, bm25docs.boolean_engine_sql())

    def test_phrase_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(bm25docs.phrase_engine(SF), con, bm25docs.phrase_engine_sql())

    def test_multiterm_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(bm25docs.multiterm_engine(SF), con, bm25docs.multiterm_engine_sql())

    def test_media_features_summary(self, con):
        from lucene_ray.ops import multimodal

        assert_same(
            multimodal.media_features_summary(SF),
            con,
            multimodal.media_features_summary_sql(),
        )

    def test_parser_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(bm25docs.parser_engine(SF), con, bm25docs.parser_engine_sql())

    def test_synonym_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(bm25docs.synonym_engine(SF), con, bm25docs.synonym_engine_sql())

    def test_folding_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(bm25docs.folding_engine(SF), con, bm25docs.folding_engine_sql())

    def test_htmlstrip_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.htmlstrip_engine(SF), con, bm25docs.htmlstrip_engine_sql()
        )

    def test_commonterms_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.commonterms_engine(SF), con, bm25docs.commonterms_engine_sql()
        )

    def test_addindexes_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.addindexes_engine(SF), con, bm25docs.addindexes_engine_sql()
        )

    def test_termvector_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.termvector_engine(SF), con, bm25docs.termvector_engine_sql()
        )

    def test_mlt_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(bm25docs.mlt_engine(SF), con, bm25docs.mlt_engine_sql())

    def test_span_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(bm25docs.span_engine(SF), con, bm25docs.span_engine_sql())

    def test_group_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(bm25docs.group_engine(SF), con, bm25docs.group_engine_sql())

    def test_update_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(bm25docs.update_engine(SF), con, bm25docs.update_engine_sql())

    def test_dvupdate_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(bm25docs.dvupdate_engine(SF), con, bm25docs.dvupdate_engine_sql())

    def test_field_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(bm25docs.field_engine(SF), con, bm25docs.field_engine_sql())

    def test_points_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(bm25docs.points_engine(SF), con, bm25docs.points_engine_sql())

    def test_spatial_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(bm25docs.spatial_engine(SF), con, bm25docs.spatial_engine_sql())

    def test_facet_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(bm25docs.facet_engine(SF), con, bm25docs.facet_engine_sql())

    def test_assocfacet_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.assocfacet_engine(SF), con, bm25docs.assocfacet_engine_sql()
        )

    def test_taxfacet_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(bm25docs.taxfacet_engine(SF), con, bm25docs.taxfacet_engine_sql())

    def test_percolate_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.percolate_engine(SF), con, bm25docs.percolate_engine_sql()
        )

    def test_percolator_vs_index_search(self, con):
        # reverse search and forward search agree: percolating the corpus
        # against query q yields exactly the doc set an IndexSearcher
        # returns for q (Monitor.java match == IndexSearcher.search duality)
        from lucene_ray.ops import bm25docs
        from lucene_ray.search.engine import IndexSearcher

        perc = bm25docs.percolate_engine(SF).to_pandas()
        ix = bm25docs._engine_index(SF)
        s = IndexSearcher(ix)
        for qid, q in bm25docs.PERCOLATE_QUERIES.items():
            got = set(perc[perc.query_id == qid].doc_id)
            want = set(int(d) for d in s.search(q, 1 << 62).docids)
            assert got == want, (qid, q)

    def test_wordbreak_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.wordbreak_engine(SF), con, bm25docs.wordbreak_engine_sql()
        )

    def test_multisyn_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.multisyn_engine(SF), con, bm25docs.multisyn_engine_sql()
        )

    def test_disttax_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.disttax_engine(SF), con, bm25docs.taxfacet_engine_sql()
        )

    def test_distrange_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.distrange_engine(SF), con, bm25docs.rangefacet_engine_sql()
        )

    def test_distsort_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.distsort_engine(SF), con, bm25docs.distsort_engine_sql()
        )

    def test_distfacet_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.distfacet_engine(SF), con, bm25docs.facet_engine_sql()
        )

    def test_infix_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(bm25docs.infix_engine(SF), con, bm25docs.infix_engine_sql())

    def test_drillsideways_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.drillsideways_engine(SF),
            con,
            bm25docs.drillsideways_engine_sql(),
        )

    def test_drillsideways_hits_vs_sideways_invariant(self):
        # the fully-drilled hit count equals the drilled value's count in
        # EVERY sideways dimension (DrillSideways near-miss semantics)
        from lucene_ray.ops import bm25docs

        df = bm25docs.drillsideways_engine(SF).to_pandas()
        for qid, _q, downs in bm25docs.DRILLSIDEWAYS_CASES:
            g = df[df.qid == qid]
            hits = int(g[g.dim == "hits"]["count"].iloc[0])
            for dim, val in downs.items():
                row = g[(g.dim == dim) & (g.value == val)]
                got = int(row["count"].iloc[0]) if len(row) else 0
                assert got == hits, (qid, dim, val, got, hits)

    def test_taxfacet_rollup_invariant(self, con):
        # parent count == sum of its children (TaxonomyReader ordinal tree)
        from lucene_ray.ops import bm25docs

        df = bm25docs.taxfacet_engine(SF).to_pandas()
        for qid in df["qid"].unique():
            g = df[df["qid"] == qid]
            parents = g[~g["path"].str.contains("/")]
            children = g[g["path"].str.contains("/")]
            for _, row in parents.iterrows():
                kid_sum = children[
                    children["path"].str.startswith(row["path"] + "/")
                ]["count"].sum()
                assert kid_sum == row["count"]

    def test_exprscore_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(bm25docs.exprscore_engine(SF), con, bm25docs.exprscore_engine_sql())

    def test_suggest_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(bm25docs.suggest_engine(SF), con, bm25docs.suggest_engine_sql())

    def test_join_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(bm25docs.join_engine(SF), con, bm25docs.join_engine_sql())

    def test_feature_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(bm25docs.feature_engine(SF), con, bm25docs.feature_engine_sql())

    def test_blockjoin_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(bm25docs.blockjoin_engine(SF), con, bm25docs.blockjoin_engine_sql())

    def test_rangefacet_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.rangefacet_engine(SF), con, bm25docs.rangefacet_engine_sql()
        )

    def test_multiphrase_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.multiphrase_engine(SF), con, bm25docs.multiphrase_engine_sql()
        )

    def test_sort_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(bm25docs.sort_engine(SF), con, bm25docs.sort_engine_sql())

    def test_tfidf_topk(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(bm25docs.tfidf_topk(SF), con, bm25docs.tfidf_topk_sql())

    def test_count_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(bm25docs.count_engine(SF), con, bm25docs.count_engine_sql())

    def test_complete_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(bm25docs.complete_engine(SF), con, bm25docs.complete_engine_sql())

    def test_bm25_engine_runs(self):
        from lucene_ray.ops import bm25docs

        out = to_pdf(bm25docs.bm25_topk_engine(SF))
        assert set(out.columns) == {"qid", "rank", "docid", "score"}
        assert len(out) > 0
        # qid 6 (absent term) produces no rows
        assert 6 not in set(out.qid)


@pytest.mark.usefixtures("ray_session")
class TestMultimodal:
    def test_feature_plumbing(self):
        from lucene_ray.ops import multimodal

        out = multimodal.extract_features(SF).to_pandas()
        assert len(out) == 500
        assert all(len(f) == 16 for f in out.features)
        sums = np.array([np.sum(f) for f in out.features])
        np.testing.assert_allclose(sums[out.n_bytes > 0], 1.0, rtol=1e-5)


@pytest.mark.usefixtures("ray_session")
class TestEmbeddingLsh:
    def test_dup_lsh_matches_exact_on_planted_dups(self, tmp_path):
        """Bucketed LSH join finds the planted high-cosine pairs the exact
        O(N^2) join finds (the >=0.9 regime it is designed for)."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from lucene_ray.ops import dedup

        rng = np.random.default_rng(31337)
        dim, n_base, n_planted = 16, 200, 10
        base = rng.standard_normal((n_base, dim))
        rows = [base]
        for i in range(n_planted):  # near-dup of vector i: tiny perturbation
            rows.append(base[i][None, :] + 0.03 * rng.standard_normal((1, dim)))
        mat = np.concatenate(rows)
        d = str(tmp_path / "emb")
        import os

        os.makedirs(d)
        pq.write_table(
            pa.table(
                {
                    "vec_id": pa.array(np.arange(len(mat)), type=pa.int64()),
                    "embedding": pa.array([list(map(float, r)) for r in mat]),
                }
            ),
            f"{d}/embeddings.parquet",
        )
        # exact truth by direct numpy
        nm = mat / np.linalg.norm(mat, axis=1)[:, None]
        sims = nm @ nm.T
        ai, bj = np.nonzero(np.triu(sims >= 0.9, k=1))
        truth = set(zip(ai.tolist(), bj.tolist()))
        assert len(truth) >= n_planted  # the planted pairs are there

        got = to_pdf(dedup.embedding_dup_lsh(d, threshold=0.9))
        got_pairs = set(zip(got.vec_a.tolist(), got.vec_b.tolist()))
        assert got_pairs <= truth  # verify step is exact -> no false pairs
        recall = len(got_pairs & truth) / len(truth)
        assert recall >= 0.95, (recall, truth - got_pairs)

    def test_block_pair_join_matches_oracle(self, con):
        from lucene_ray.ops import dedup

        assert_same(dedup.embedding_dup_pairs(SF), con, dedup.embedding_dup_sql())


@pytest.mark.usefixtures("ray_session")
class TestClustersAndBpe:
    def test_dedup_clusters(self, con):
        from lucene_ray.ops import dedup

        assert_same(dedup.dedup_clusters(SF), con, dedup.dedup_clusters_sql())
        # clusters are consistent with the pair graph: paired docs share ids
        pairs = to_pdf(dedup.ngram_jaccard_pairs(SF))
        cl = to_pdf(dedup.dedup_clusters(SF)).set_index("doc_id").cluster_id
        for a, b in zip(pairs.doc_a, pairs.doc_b):
            assert cl[a] == cl[b]

    def test_connected_components_planted_path(self):
        # 10^5-edge single path component (worst-case diameter for label
        # propagation) plus disjoint planted components — must converge in
        # O(log n) pointer-jump rounds, i.e. seconds, not the hours a
        # per-edge loop would take
        import time

        import numpy as np

        from lucene_ray.ops.dedup import connected_components

        rng = np.random.default_rng(7)
        n = 100_001
        perm = rng.permutation(np.arange(10, 10 + n, dtype=np.int64))
        a, b = perm[:-1], perm[1:]  # path: all one component
        # plant three small disjoint components above the path's id range
        extra_a = np.array([10 ** 7 + 1, 10 ** 7 + 2, 10 ** 7 + 5], dtype=np.int64)
        extra_b = np.array([10 ** 7 + 2, 10 ** 7 + 3, 10 ** 7 + 6], dtype=np.int64)
        t0 = time.monotonic()
        nodes, labels = connected_components(
            np.concatenate([a, extra_a]), np.concatenate([b, extra_b])
        )
        elapsed = time.monotonic() - t0
        assert elapsed < 30, f"label propagation took {elapsed:.1f}s"
        lab = dict(zip(nodes.tolist(), labels.tolist()))
        assert all(lab[int(x)] == 10 for x in perm)
        assert lab[10 ** 7 + 1] == lab[10 ** 7 + 2] == lab[10 ** 7 + 3] == 10 ** 7 + 1
        assert lab[10 ** 7 + 5] == lab[10 ** 7 + 6] == 10 ** 7 + 5

    def test_bpe_token_count(self, con):
        from lucene_ray.ops import text

        assert_same(text.bpe_token_count(SF), con, text.bpe_token_count_sql())


@pytest.mark.usefixtures("ray_session")
class TestMultimodalStages:
    def test_frame_sampler(self):
        from lucene_ray.ops import multimodal

        df = to_pdf(multimodal.sample_frames(SF))
        assert set(df.columns) == {"media_id", "frame_idx", "frame"}
        assert len(df) > 0
        # sampled frame indices follow the stride
        assert (df.frame_idx % 4 == 0).all()
        # frames are non-empty and bounded by frame_bytes
        assert df.frame.map(len).between(1, 4096).all()

    def test_resizer(self):
        from lucene_ray.ops import multimodal

        df = to_pdf(multimodal.resize_thumbs(SF))
        assert len(df) > 0
        assert df.thumb.map(len).eq(64).all()  # 8x8 uint8
        # deterministic: same input -> same thumbs
        df2 = to_pdf(multimodal.resize_thumbs(SF))
        assert (df.sort_values("media_id").thumb.values
                == df2.sort_values("media_id").thumb.values).all()


@pytest.mark.usefixtures("ray_session")
class TestContaminationEdges:
    def test_zero_contamination_is_schema_stable(self, tmp_path):
        # disjoint eval/train shingles: the audit must report 0 matches,
        # not crash on an all-empty map_groups result (review regression)
        import pyarrow as pa
        import pyarrow.parquet as pq

        from lucene_ray.ops import dedup

        rows = []
        for i in range(dedup.EVAL_SPLIT + 20):
            side = "alpha beta gamma delta epsilon zeta" if i < dedup.EVAL_SPLIT \
                else "one two three four five six seven"
            rows.append({"doc_id": i, "text": side + f" tail{i}"})
        pq.write_table(pa.Table.from_pylist(rows), str(tmp_path / "documents.parquet"))
        out = dedup.contamination_check(str(tmp_path)).to_pandas()
        assert len(out) == dedup.EVAL_SPLIT
        assert (out.n_matched == 0).all()
        assert (out.n_shingles > 0).all()


@pytest.mark.usefixtures("ray_session")
class TestAnnBuildAtomicity:
    def test_stale_partial_build_is_discarded(self, tmp_path):
        # a crashed build leaves garbage in <ix>.build; the rerun must not
        # mix it in (atomic tmp-dir + rename — review regression)
        import os

        import pyarrow as pa
        import pyarrow.parquet as pq

        from lucene_ray.ops import knn

        ix = str(tmp_path / "ivf")
        stale = ix + ".build"
        os.makedirs(os.path.join(stale, "ivf_list=0"), exist_ok=True)
        pq.write_table(
            pa.table({"vec_id": pa.array([999999], type=pa.int64()),
                      "embedding": pa.array([[0.0] * 8],
                                            type=pa.list_(pa.float32()))}),
            os.path.join(stale, "ivf_list=0", "garbage.parquet"),
        )
        out = knn.build_ivf_index(SF, index_dir=ix)
        assert out == ix
        assert not os.path.exists(stale)
        import glob as _g

        ids = set()
        for f in _g.glob(os.path.join(ix, "ivf_list=*", "*.parquet")):
            ids.update(pq.read_table(f, columns=["vec_id"]).column("vec_id").to_pylist())
        assert 999999 not in ids
        assert os.path.exists(os.path.join(ix, "_IVF_DONE"))
        # idempotent reuse: second call returns without rebuilding
        import time

        m0 = os.path.getmtime(os.path.join(ix, "_IVF_DONE"))
        assert knn.build_ivf_index(SF, index_dir=ix) == ix
        assert os.path.getmtime(os.path.join(ix, "_IVF_DONE")) == m0


@pytest.mark.usefixtures("ray_session")
class TestSpanOpsGate:
    def test_spanops_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.spanops_engine(SF), con, bm25docs.spanops_engine_sql()
        )


class TestAnalyzingSuggester:
    """AnalyzingSuggester / FuzzySuggester (suggest/.../analyzing/):
    analyze-then-match contract, exactFirst, weight ranking, fuzzy edits."""

    def _build(self):
        from lucene_ray.search.suggest import AnalyzingSuggester

        return AnalyzingSuggester().build(
            ["Sort-Merge join", "sorted output", "Window functions",
             "sort merge join", "windowed aggregates"],
            [5, 9, 7, 3, 2],
        )

    def test_prefix_and_ranking(self):
        sug = self._build()
        # analyzed key space: 'sort' prefixes both "sort merge join" keys
        # and "sorted output"; weight desc
        assert sug.lookup("sort") == [
            ("sorted output", 9), ("Sort-Merge join", 5), ("sort merge join", 3)
        ]
        # input analysis: case + punctuation normalize away
        assert sug.lookup("SORT-merge") == [
            ("Sort-Merge join", 5), ("sort merge join", 3)
        ]

    def test_exact_first(self):
        sug = self._build()
        # both surfaces share the exact analyzed key 'sort merge join';
        # exact entries outrank any mere prefix match regardless of weight
        got = sug.lookup("sort merge join")
        assert got == [("Sort-Merge join", 5), ("sort merge join", 3)]

    def test_surface_dedup_keeps_max_weight(self):
        from lucene_ray.search.suggest import AnalyzingSuggester

        sug = AnalyzingSuggester().build(["abc", "abc"], [1, 8])
        assert sug.lookup("abc") == [("abc", 8)]

    def test_no_match(self):
        assert self._build().lookup("zzz") == []

    def test_fuzzy_one_edit(self):
        from lucene_ray.search.suggest import FuzzySuggester

        sug = FuzzySuggester(max_edits=1).build(
            ["Sort-Merge join", "sorted output", "Window functions"], [5, 9, 7]
        )
        # 'sirt' is 1 edit from prefix 'sort'
        assert sug.lookup("sirt") == [("sorted output", 9), ("Sort-Merge join", 5)]
        # exact input still matches at distance 0, ranked before distance 1
        got = sug.lookup("wind")
        assert got[0] == ("Window functions", 7)
        assert sug.lookup("xxxx") == []


class TestMediaCodecs:
    """Real pure-Python PNG/WAV codecs (ops/media_codec.py) — roundtrips
    across shapes/filters, spec-level error paths, and the decode stage."""

    def test_png_roundtrip_all_filters(self):
        import numpy as np

        from lucene_ray.ops.media_codec import decode_png, encode_png

        rng = np.random.default_rng(5)
        # >= 5 rows exercises every filter type (encoder cycles 0..4)
        for shape in [(7, 5), (8, 6, 3), (9, 4, 4), (1, 1), (5, 1, 3), (16, 16)]:
            px = rng.integers(0, 256, size=shape, dtype=np.uint8)
            out = decode_png(encode_png(px))
            assert out.shape == px.shape and np.array_equal(out, px), shape

    def test_png_rejects_corruption(self):
        import numpy as np
        import pytest as _pytest

        from lucene_ray.ops.media_codec import decode_png, encode_png

        good = bytearray(encode_png(np.zeros((4, 4), dtype=np.uint8)))
        with _pytest.raises(ValueError, match="signature"):
            decode_png(b"JUNK" + bytes(good[4:]))
        bad = bytearray(good)
        bad[20] ^= 0xFF  # flip a byte inside IHDR -> CRC mismatch
        with _pytest.raises(ValueError, match="CRC"):
            decode_png(bytes(bad))

    def test_wav_roundtrip_and_errors(self):
        import numpy as np
        import pytest as _pytest

        from lucene_ray.ops.media_codec import decode_wav, encode_wav_pcm16

        s = np.array([0, 100, -100, 32767, -32768], dtype=np.int16)
        got, rate = decode_wav(encode_wav_pcm16(s, 44100))
        assert rate == 44100 and np.array_equal(got, s)
        with _pytest.raises(ValueError, match="RIFF"):
            decode_wav(b"nope" * 4)

    def test_media_decoder_stage(self, ray_session, sf_dir):
        import numpy as np

        from lucene_ray.ops.multimodal import (
            _synth_png,
            _synth_wav,
            media_decode,
        )
        from lucene_ray.ops.media_codec import decode_png, decode_wav

        t = media_decode(sf_dir)
        rows = t.to_pydict()
        by_id = {
            m: (k, a, b, c)
            for m, k, a, b, c in zip(
                rows["media_id"], rows["kind"], rows["a"], rows["b"], rows["c"]
            )
        }
        # spot-check a PNG and a WAV against direct decode
        for d in (0, 2, 8):
            px = decode_png(_synth_png(d))
            assert by_id[d] == (
                "image/png", px.shape[1], px.shape[0], int(px.sum())
            )
        for d in (1, 3, 9):
            samples, rate = decode_wav(_synth_wav(d))
            assert by_id[d] == (
                "audio/wav", len(samples), rate,
                int(np.abs(samples.astype(np.int64)).max()),
            )


@pytest.mark.usefixtures("ray_session")
class TestDocValuesStatsGate:
    """misc/search/DocValuesStats.java collectors: SQL parity + the
    exact-moment invariants (count*sumsq - sum^2 >= 0, mean in [min,max])."""

    def test_dvstats_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.dvstats_engine(SF), con, bm25docs.dvstats_engine_sql(),
            float_cols=("mean",),
        )

    def test_moment_invariants(self):
        from lucene_ray.ops import bm25docs

        t = bm25docs.dvstats_engine(SF).to_pydict()
        assert len(t["qid"]) > 0
        for i in range(len(t["qid"])):
            assert t["varnum"][i] >= 0
            assert t["vmin"][i] <= t["mean"][i] <= t["vmax"][i]
            assert t["tmin"][i] <= t["tmax"][i]

    def test_zero_match_returns_none(self):
        from lucene_ray.ops.bm25docs import _DV_INDEX, _engine_index
        from lucene_ray.search.dvstats import numeric_dv_stats, sorted_dv_stats
        from lucene_ray.search.engine import IndexSearcher

        s = IndexSearcher(_engine_index(SF, **_DV_INDEX))
        assert numeric_dv_stats(s, "zzzmissing", "src_id") is None
        assert sorted_dv_stats(s, "zzzmissing", "lang") is None


@pytest.mark.usefixtures("ray_session")
class TestDiversifiedGate:
    """misc/search/DiversifiedTopDocsCollector.java: SQL parity + the
    per-key cap invariant."""

    def test_diversified_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.diversified_engine(SF), con,
            bm25docs.diversified_engine_sql(),
        )

    def test_per_key_cap(self):
        from collections import Counter

        from lucene_ray.ops.bm25docs import _DV_INDEX, _engine_index
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.grouping import diversified_topk

        s = IndexSearcher(_engine_index(SF, **_DV_INDEX))
        docs, vals, keys = diversified_topk(
            s, "merge", "src_id", "lang", k=50, max_hits_per_key=1
        )
        assert len(docs) > 0
        assert Counter(keys.tolist()).most_common(1)[0][1] == 1
        # global order: values non-increasing, docid tiebreak ascending
        for i in range(1, len(docs)):
            assert vals[i] < vals[i - 1] or (
                vals[i] == vals[i - 1] and docs[i] > docs[i - 1]
            )

    def test_empty_query(self):
        from lucene_ray.ops.bm25docs import _DV_INDEX, _engine_index
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.grouping import diversified_topk

        s = IndexSearcher(_engine_index(SF, **_DV_INDEX))
        docs, vals, keys = diversified_topk(
            s, "zzzmissing", "src_id", "lang", k=5
        )
        assert len(docs) == 0 and len(keys) == 0


@pytest.mark.usefixtures("ray_session")
class TestChildJoinGate:
    """join/ToChildBlockJoinQuery.java + ParentChildrenBlockJoinQuery.java:
    SQL parity (the gate corpus spans 2 segments, so the global->local
    parent docid resolution is on the tested path) + contract errors."""

    def test_childjoin_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.childjoin_engine(SF), con, bm25docs.childjoin_engine_sql()
        )

    def test_parent_query_must_match_parents_only(self, tmp_path):
        import pyarrow.parquet as pq
        import pyarrow as pa

        from lucene_ray.index.builder import build_index
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.query import (
            BooleanQuery, TermQuery, ToChildBlockJoinQuery,
        )

        rows = []
        for i in range(4):
            for j in range(2):
                rows.append({"repo": "child", "path": f"c/{i}/{j}",
                             "commit": "0", "lang": "txt",
                             "content": f"kid alpha"})
            rows.append({"repo": "parent", "path": f"p/{i}", "commit": "0",
                         "lang": "txt", "content": "parentdoc"})
        src = str(tmp_path / "c.parquet")
        pq.write_table(pa.Table.from_pylist(rows), src)
        ix = str(tmp_path / "ix")
        build_index([src], ix, target_docs=64)
        s = IndexSearcher(ix)
        # 'alpha' matches child docs -> the reference throws IllegalState
        q = ToChildBlockJoinQuery(TermQuery("alpha"), TermQuery("repo:parent"))
        with pytest.raises(ValueError, match="non-parent"):
            s.search(BooleanQuery(should=[q]), 100)

    def test_parent_children_requires_parent_docid(self):
        from lucene_ray.search.query import (
            ParentChildrenBlockJoinQuery, TermQuery,
        )

        # gate corpus: docid 5 is a child (blocks of 4, parent = 4i+3)
        from lucene_ray.ops.bm25docs import childjoin_engine  # noqa: F401
        import pyarrow.parquet as pq
        import pyarrow as pa
        import tempfile, shutil, os

        from lucene_ray.index.builder import build_index
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.query import BooleanQuery

        tmp = tempfile.mkdtemp(prefix="pcbj_", dir="/tmp/lucene_ray_cache")
        try:
            rows = []
            for i in range(3):
                for j in range(2):
                    rows.append({"repo": "child", "path": f"c/{i}/{j}",
                                 "commit": "0", "lang": "txt",
                                 "content": "kid"})
                rows.append({"repo": "parent", "path": f"p/{i}",
                             "commit": "0", "lang": "txt",
                             "content": "parentdoc"})
            src = os.path.join(tmp, "c.parquet")
            pq.write_table(pa.Table.from_pylist(rows), src)
            ix = os.path.join(tmp, "ix")
            build_index([src], ix, target_docs=64)
            s = IndexSearcher(ix)
            q = ParentChildrenBlockJoinQuery(
                TermQuery("repo:parent"), TermQuery("kid"), 1
            )
            with pytest.raises(ValueError, match="not a parent"):
                s.search(BooleanQuery(should=[q]), 100)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


@pytest.mark.usefixtures("ray_session")
class TestLongValueFacetGate:
    """facet/LongValueFacetCounts.java: SQL parity + ordering contract
    (count desc, value asc — getTopChildren:426)."""

    def test_longvaluefacet_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.longvaluefacet_engine(SF), con,
            bm25docs.longvaluefacet_engine_sql(),
        )

    def test_ordering_contract(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.engine import (
            IndexSearcher, long_value_facet_counts,
        )

        s = IndexSearcher(_engine_index(SF))
        res = long_value_facet_counts(s, "merge", "n_chars", top_n=50)
        assert len(res) > 1
        for (v0, c0), (v1, c1) in zip(res, res[1:]):
            assert c0 > c1 or (c0 == c1 and v0 < v1)
        assert long_value_facet_counts(s, "zzzmissing", "n_chars") == []


@pytest.mark.usefixtures("ray_session")
class TestTermAutomatonGate:
    """sandbox/search/TermAutomatonQuery.java: SQL parity + builder
    contract (no leading/trailing ANY) + phrase equivalence."""

    def test_termautomaton_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.termautomaton_engine(SF), con,
            bm25docs.termautomaton_engine_sql(),
        )

    def test_builder_rejects_leading_trailing_any(self):
        from lucene_ray.search.termautomaton import TermAutomatonBuilder

        b = TermAutomatonBuilder()
        s0, s1, s2 = b.create_state(), b.create_state(), b.create_state()
        b.add_transition(s0, s1, None)
        b.add_transition(s1, s2, "x")
        b.set_accept(s2)
        with pytest.raises(ValueError, match="lead with an ANY"):
            b.finish()
        b2 = TermAutomatonBuilder()
        t0, t1, t2 = b2.create_state(), b2.create_state(), b2.create_state()
        b2.add_transition(t0, t1, "x")
        b2.add_transition(t1, t2, None)
        b2.set_accept(t2)
        with pytest.raises(ValueError, match="end with an ANY"):
            b2.finish()

    def test_linear_automaton_equals_phrase(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.query import BooleanQuery, PhraseQuery
        from lucene_ray.search.termautomaton import TermAutomatonBuilder

        s = IndexSearcher(_engine_index(SF))
        b = TermAutomatonBuilder()
        st = [b.create_state() for _ in range(3)]
        b.add_transition(st[0], st[1], "sort")
        b.add_transition(st[1], st[2], "merge")
        b.set_accept(st[2])
        auto = s.search(BooleanQuery(should=[b.finish()]), 1_000_000)
        phrase = s.search(
            BooleanQuery(should=[PhraseQuery(("sort", "merge"))]), 1_000_000
        )
        assert sorted(auto.docids.tolist()) == sorted(phrase.docids.tolist())


@pytest.mark.usefixtures("ray_session")
class TestRound4SmallGates:
    """HighFreqTerms (misc/HighFreqTerms.java), MultiRangeQuery
    (sandbox/search/MultiRangeQuery.java), FunctionRangeQuery
    (queries/function/FunctionRangeQuery.java), ComplexPhraseQueryParser
    (queryparser/complexPhrase/): SQL parity + unit contracts."""

    def test_highfreq_terms(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(bm25docs.highfreq_terms(SF), con, bm25docs.highfreq_terms_sql())

    def test_highfreq_excludes_keyword_terms(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.engine import high_freq_terms
        from lucene_ray.search.reader import IndexReader

        r = IndexReader(_engine_index(SF))
        top = high_freq_terms(r, 500, by="df")
        assert top and all(":" not in t for t, _d, _t2 in top)
        with pytest.raises(ValueError):
            high_freq_terms(r, 5, by="freq")

    def test_multirange_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.multirange_engine(SF), con, bm25docs.multirange_engine_sql()
        )

    def test_multirange_equals_union_of_ranges(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.query import (
            BooleanQuery, MultiRangeQuery, PointRangeQuery,
        )

        s = IndexSearcher(_engine_index(SF))
        multi = s.search(BooleanQuery(
            should=[MultiRangeQuery("n_chars", ((100, 200), (400, None)))]
        ), 1_000_000)
        a = s.search(BooleanQuery(
            should=[PointRangeQuery("n_chars", 100, 200)]), 1_000_000)
        b = s.search(BooleanQuery(
            should=[PointRangeQuery("n_chars", 400, None)]), 1_000_000)
        assert set(multi.docids.tolist()) == (
            set(a.docids.tolist()) | set(b.docids.tolist())
        )

    def test_funcrange_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.funcrange_engine(SF), con, bm25docs.funcrange_engine_sql()
        )

    def test_funcrange_rejects_score_var(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.query import BooleanQuery, FunctionRangeQuery

        s = IndexSearcher(_engine_index(SF))
        with pytest.raises(ValueError, match="_score"):
            s.search(BooleanQuery(
                should=[FunctionRangeQuery("_score * 2", 0, 1)]), 10)

    def test_complexphrase_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.complexphrase_engine(SF), con,
            bm25docs.complexphrase_engine_sql(),
        )

    def test_complexphrase_parser_shapes(self):
        from lucene_ray.analysis import CodeAnalyzer
        from lucene_ray.search.query import (
            PhraseWildcardQuery, WildcardQuery, parse_query,
        )

        an = CodeAnalyzer()
        bq = parse_query('"mer* window"', an)
        (q,) = bq.should
        assert q == PhraseWildcardQuery(("mer*", "window"))
        # single wildcard word in quotes degrades to a plain wildcard
        (w,) = parse_query('"mer*"', an).should
        assert isinstance(w, WildcardQuery)
        with pytest.raises(ValueError, match="slop"):
            parse_query('"mer* window"~2', an)


@pytest.mark.usefixtures("ray_session")
class TestBlendedTermQuery:
    """search/BlendedTermQuery.java: float64 oracle parity for the blended
    ranking, doc-set parity through the engine, and the single-term
    degenerate case (blend of one term == that TermQuery exactly)."""

    def test_blended_topk(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(bm25docs.blended_topk(SF), con, bm25docs.blended_topk_sql())

    def test_blended_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.blended_engine(SF), con, bm25docs.blended_engine_sql()
        )

    def test_single_term_blend_equals_term_query(self):
        import numpy as np

        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.query import (
            BlendedTermQuery, BooleanQuery, TermQuery,
        )

        s = IndexSearcher(_engine_index(SF))
        a = s.search(BooleanQuery(should=[TermQuery("merge")]), 50)
        b = s.search(
            BooleanQuery(should=[BlendedTermQuery(("merge",), tie_breaker=0.0)]),
            50,
        )
        assert a.docids.tolist() == b.docids.tolist()
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_dismax_le_boolean(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.query import BlendedTermQuery, BooleanQuery

        s = IndexSearcher(_engine_index(SF))
        dm = s.search(BooleanQuery(should=[
            BlendedTermQuery(("sort", "merge"), rewrite="dismax", tie_breaker=0.5)
        ]), 1_000_000)
        bl = s.search(BooleanQuery(should=[
            BlendedTermQuery(("sort", "merge"), rewrite="boolean")
        ]), 1_000_000)
        assert set(dm.docids.tolist()) == set(bl.docids.tolist())
        # dismax with tie<1 never exceeds the boolean sum
        ds = dict(zip(dm.docids.tolist(), dm.scores.tolist()))
        bs = dict(zip(bl.docids.tolist(), bl.scores.tolist()))
        assert all(ds[d] <= bs[d] + 1e-5 for d in ds)


@pytest.mark.usefixtures("ray_session")
class TestIndexSortRangeGate:
    """search/IndexSortSortedNumericDocValuesRangeQuery.java: SQL parity,
    binary-search path actually taken on the sorted index, and equality
    with the fallback scan."""

    def test_indexsortrange_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.indexsortrange_engine(SF), con,
            bm25docs.indexsortrange_engine_sql(),
        )

    def test_sorted_path_taken_and_equals_fallback(self, monkeypatch):
        import numpy as np

        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.engine import IndexSearcher, index_sorted_range
        from lucene_ray.search.reader import SegmentReader

        s = IndexSearcher(_engine_index(SF, index_sort=("n_chars", "desc")))
        assert all(
            getattr(e, "sorted_runs", None) for e in s.reader.segments
        ), "sorted index must record runs"
        want = np.sort(np.concatenate([
            s.reader.segment_reader(e.name).point_range("n_chars", 120, 280)
            + e.docid_base
            for e in s.reader.segments
        ]))
        # poison the fallback: the sorted path must never call point_range
        def _boom(self, *a, **k):
            raise AssertionError("fallback scan used on the sorted path")

        monkeypatch.setattr(SegmentReader, "point_range", _boom)
        got = index_sorted_range(s, "n_chars", 120, 280)
        assert np.array_equal(np.sort(got), want)

    def test_fallback_on_other_field(self):
        import numpy as np

        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.engine import IndexSearcher, index_sorted_range

        # unsorted index -> pure fallback, still correct
        s = IndexSearcher(_engine_index(SF))
        got = index_sorted_range(s, "n_chars", 100, 200)
        want = np.sort(np.concatenate([
            s.reader.segment_reader(e.name).point_range("n_chars", 100, 200)
            + e.docid_base
            for e in s.reader.segments
        ]))
        assert np.array_equal(np.sort(got), want)


@pytest.mark.usefixtures("ray_session")
class TestNGramPhraseGate:
    """search/NGramPhraseQuery.java: the gate's SQL oracle runs the FULL
    gram phrase while the engine runs the i%n==0+last rewrite — parity IS
    the equivalence proof. Plus the rewrite-rule contract."""

    def test_ngramphrase_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.ngramphrase_engine(SF), con,
            bm25docs.ngramphrase_engine_sql(),
        )

    def test_kept_rule_matches_reference(self):
        from lucene_ray.search.query import NGramPhraseQuery

        # 'window' -> win,ind,ndo,dow: keeps i=0, i=3 (0%3==0, last)
        q = NGramPhraseQuery(3, ("win", "ind", "ndo", "dow"))
        assert q.kept() == (("win", 0), ("dow", 3))
        # 7 grams, n=2: keeps 0,2,4,6 (last == 6 already kept)
        q2 = NGramPhraseQuery(2, tuple(f"g{i}" for i in range(7)))
        assert [off for _t, off in q2.kept()] == [0, 2, 4, 6]
        # not optimizable: < 3 grams, or n < 2 -> all kept
        q3 = NGramPhraseQuery(3, ("sor", "ort"))
        assert q3.kept() == (("sor", 0), ("ort", 1))
        q4 = NGramPhraseQuery(1, ("a", "b", "c"))
        assert len(q4.kept()) == 3

    def test_optimized_equals_full_phrase(self):
        from lucene_ray.ops.bm25docs import _engine_index, _grams3
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.query import (
            BooleanQuery, NGramPhraseQuery, PhraseQuery,
        )

        s = IndexSearcher(_engine_index(SF, merge=False, analyzer_name="gram3"))
        for word in ("merge", "window", "stream", "batches"):
            grams = _grams3(word)
            opt = s.search(
                BooleanQuery(should=[NGramPhraseQuery(3, grams)]), 1_000_000
            )
            full = s.search(
                BooleanQuery(should=[PhraseQuery(grams)]), 1_000_000
            )
            assert sorted(opt.docids.tolist()) == sorted(full.docids.tolist())


@pytest.mark.usefixtures("ray_session")
class TestTokenStreamToAutomaton:
    """sandbox/search/TokenStreamToTermAutomatonQuery.java: a synonym
    token GRAPH (posInc==0 alternatives) converts to a TermAutomatonQuery
    whose doc set equals the MultiPhrase per-slot-alternatives query."""

    def test_graph_equals_multiphrase(self):
        import pyarrow as pa

        from lucene_ray.analysis import get_analyzer
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.query import BooleanQuery, MultiPhraseQuery
        from lucene_ray.search.termautomaton import token_stream_to_automaton

        an = get_analyzer("synonym")
        # 'table scan' analyzed with synonym injection: scan|sweep at pos 1
        row_idx, terms, positions = an.tokenize_flat(
            pa.array(["table scan"], type=pa.string())
        )
        toks = terms.to_pylist()
        assert "sweep" in toks  # graph token present
        q = token_stream_to_automaton(toks, positions.tolist())
        s = IndexSearcher(_engine_index(SF))
        auto = s.search(BooleanQuery(should=[q]), 1_000_000)
        mp = s.search(
            BooleanQuery(
                should=[MultiPhraseQuery((("table",), ("scan", "sweep")))]
            ),
            1_000_000,
        )
        assert sorted(auto.docids.tolist()) == sorted(mp.docids.tolist())
        assert len(auto.docids) > 0 or s.count("scan") == 0

    def test_rejects_empty(self):
        from lucene_ray.search.termautomaton import token_stream_to_automaton

        with pytest.raises(ValueError):
            token_stream_to_automaton([], [])


@pytest.mark.usefixtures("ray_session")
class TestJoinGroupSampleGates:
    """JoinUtil ScoreMode.Total (join/TermsWithScoreCollector),
    AllGroupsCollector, RandomSamplingFacetsCollector role: SQL parity +
    semantic invariants."""

    def test_scoredjoin_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.scoredjoin_engine(SF), con, bm25docs.scoredjoin_engine_sql()
        )

    def test_scoredjoin_total_vs_max(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.engine import IndexSearcher, join_query_scored

        s = IndexSearcher(_engine_index(SF))
        tot = join_query_scored(s, "merge", "lang", score_mode="total")
        mx = join_query_scored(s, "merge", "lang", score_mode="max")
        # same doc sets; max scores constant 1, total >= 1
        assert set(tot.docids.tolist()) == set(mx.docids.tolist())
        assert (mx.values == 1).all() and (tot.values >= 1).all()
        with pytest.raises(ValueError):
            join_query_scored(s, "merge", "lang", score_mode="sum")

    def test_allgroups_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.allgroups_engine(SF), con, bm25docs.allgroups_engine_sql()
        )

    def test_sampledfacet_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.sampledfacet_engine(SF), con,
            bm25docs.sampledfacet_engine_sql(),
        )

    def test_sampled_counts_bounded_by_full(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.ops.text import SAMPLE_DEN, SAMPLE_NUM
        from lucene_ray.search.engine import (
            IndexSearcher, facet_counts, sampled_facet_counts,
        )

        s = IndexSearcher(_engine_index(SF))
        full = dict(facet_counts(s, "merge", "lang"))
        sampled = dict(
            sampled_facet_counts(s, "merge", "lang", SAMPLE_NUM, SAMPLE_DEN)
        )
        assert sampled and all(sampled[v] <= full[v] for v in sampled)


@pytest.mark.usefixtures("ray_session")
class TestDoubleRangeGate:
    """facet/range/DoubleRangeFacetCounts.java: SQL parity (bit-exact libm
    ln both sides) + overlapping ranges count independently."""

    def test_doublerange_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.doublerange_engine(SF), con, bm25docs.doublerange_engine_sql()
        )

    def test_overlap_and_disjoint_cover(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.engine import (
            IndexSearcher, double_range_facet_counts,
        )

        s = IndexSearcher(_engine_index(SF))
        res = dict(double_range_facet_counts(
            s, "merge", "n_chars",
            [(0.0, 5.5), (5.5, 100.0), (0.0, 100.0)],
        ))
        # disjoint halves sum to the cover
        assert res[0] + res[1] == res[2] > 0
        assert double_range_facet_counts(
            s, "zzzmissing", "n_chars", [(0.0, 1.0)]
        ) == [(0, 0)]


@pytest.mark.usefixtures("ray_session")
class TestNaiveBayesGate:
    """classification/SimpleNaiveBayesClassifier.java: bit-exact SQL
    parity (float64 ln chains) + classifier sanity."""

    def test_nbclassify_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.nbclassify_engine(SF), con, bm25docs.nbclassify_engine_sql()
        )

    def test_assign_class_returns_known_class(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.classification import SimpleNaiveBayesClassifier
        from lucene_ray.search.engine import IndexSearcher

        s = IndexSearcher(_engine_index(SF))
        clf = SimpleNaiveBayesClassifier(s, "lang")
        assert len(clf.classes) > 1
        cls = clf.assign_class("merge sort window")
        assert cls in clf.classes
        # scores strictly ordered desc with class-asc tiebreak
        res = clf.assign_classes("batch stream")
        for (c0, s0), (c1, s1) in zip(res, res[1:]):
            assert s0 > s1 or (s0 == s1 and c0 < c1)


@pytest.mark.usefixtures("ray_session")
class TestFieldExistsAndThreshold:
    """search/FieldExistsQuery.java + FloatVectorSimilarityQuery.java:
    SQL parity + semantic invariants."""

    def test_fieldexists_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.fieldexists_engine(SF), con,
            bm25docs.fieldexists_engine_sql(),
        )

    def test_fieldexists_semantics(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.query import BooleanQuery, FieldExistsQuery

        s = IndexSearcher(_engine_index(SF))
        n = s.reader.manifest.doc_count
        for field in ("n_chars", "lang"):  # dense DV / keyword
            td = s.search(BooleanQuery(should=[FieldExistsQuery(field)]), 1 << 20)
            assert len(td.docids) == n
        td = s.search(BooleanQuery(should=[FieldExistsQuery("ghost")]), 1 << 20)
        assert len(td.docids) == 0

    def test_knn_threshold(self, con):
        from lucene_ray.ops import knn

        assert_same(knn.knn_threshold(SF), con, knn.knn_threshold_sql())

    def test_threshold_superset_of_topk_hits(self):
        from lucene_ray.ops import knn

        thr = knn.knn_threshold(SF, threshold=0.0).to_pandas()
        # threshold 0 admits at least every doc a query ranks (cosine of
        # the query with ITSELF is 1 >= 0, so every query has hits)
        assert thr.groupby("query_id").size().min() >= 1
        hi = knn.knn_threshold(SF, threshold=0.999).to_pandas()
        # ~only self-matches survive a 0.999 threshold
        assert len(hi) < len(thr)
        for q in hi.query_id.unique():
            assert q in set(hi[hi.query_id == q].vec_id)


@pytest.mark.usefixtures("ray_session")
class TestBlendedInfix:
    def test_unit_blending(self):
        from lucene_ray.search.suggest import blended_infix_lookup

        e = [("aa bb cc", 10, "aa bb cc"), ("xx bbq", 20, "xx bbq"),
             ("bb solo", 5, "bb solo")]
        lin = blended_infix_lookup(e, "bb")
        # 'xx bbq' pos=1 -> 0.9*20=18 beats pos-0 'bb solo' (5) and
        # pos-1 'aa bb cc' (9)
        assert lin[0] == ("xx bbq", 18.0) and lin[1] == ("aa bb cc", 9.0)
        rec = blended_infix_lookup(e, "bb", blender="reciprocal")
        assert rec[0] == ("xx bbq", 10.0)
        # score tie at 5.0: surface-asc break
        assert [s for s, _ in rec[1:]] == ["aa bb cc", "bb solo"]
        with pytest.raises(ValueError):
            blended_infix_lookup(e, "bb", blender="geometric")

    def test_gate_parity(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.blended_infix_suggest(SF),
            con,
            bm25docs.blended_infix_suggest_sql(),
            float_cols=(),  # scores must be BIT-exact, not just close
        )


class TestPackSequences:
    """GPT-style sequence packing (ops/text.py pack_sequences)."""

    def test_prefix_sums_and_boundaries(self, ray_session):
        import duckdb

        from lucene_ray.ops import text

        sf = "/root/testdata/sf0.001"
        a = (
            text.pack_sequences(sf)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        # offsets are a prefix sum of token counts in doc_id order
        assert (a.start_tok.values[1:] ==
                (a.start_tok + a.n_tokens).values[:-1]).all()
        assert (a.start_seq == a.start_tok // text.PACK_SEQ_LEN).all()
        # sequence ids are monotone and dense enough to pack
        assert a.end_seq.is_monotonic_increasing
        con = duckdb.connect()
        con.execute(
            "CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{sf}/documents.parquet')"
        )
        b = (
            con.execute(text.pack_sequences_sql())
            .df()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert (a.values == b.values).all()


@pytest.mark.usefixtures("ray_session")
class TestGroupingCompletion:
    """grouping-package completion (round 5): AllGroupHeadsCollector,
    DistinctValuesCollector, TermGroupFacetCollector,
    LongRangeGroupSelector, BlockGroupingCollector + GroupingSearch."""

    def test_groupheads_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.groupheads_engine(SF), con,
            bm25docs.groupheads_engine_sql(),
        )

    def test_distinctvalues_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.distinctvalues_engine(SF), con,
            bm25docs.distinctvalues_engine_sql(),
        )

    def test_groupfacet_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.groupfacet_engine(SF), con,
            bm25docs.groupfacet_engine_sql(),
        )

    def test_rangegroup_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.rangegroup_engine(SF), con,
            bm25docs.rangegroup_engine_sql(),
        )

    def test_blockgroup_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.blockgroup_engine(SF), con,
            bm25docs.blockgroup_engine_sql(),
        )

    def test_heads_are_one_per_group_and_match_group_topk(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.engine import IndexSearcher, fetch_stored
        from lucene_ray.search.grouping import all_group_heads, group_topk

        s = IndexSearcher(_engine_index(SF))
        heads = all_group_heads(s, "merge", "lang", "n_chars")
        stored = fetch_stored(s.reader, heads)
        langs = stored.column("lang").to_pylist()
        assert len(set(langs)) == len(heads)  # exactly one head per group
        # a group selected by group_topk has its rank-0 doc == the head
        for g in group_topk(s, "merge", "lang", "n_chars", 3, 1):
            assert int(g.docids[0]) in set(int(h) for h in heads)
        # missing term -> empty
        assert len(all_group_heads(s, "zzzmissing", "lang", "n_chars")) == 0

    def test_long_range_bucket_boundaries(self):
        import numpy as np

        from lucene_ray.search.grouping import (
            LONG_MAX,
            LONG_MIN,
            long_range_bucket,
        )

        v = np.array([149, 150, 249, 250, 449, 450, 10_000, -5])
        lo, hi = long_range_bucket(v, 150, 100, 450)
        assert lo.tolist() == [
            LONG_MIN, 150, 150, 250, 350, 450, 450, LONG_MIN
        ]
        assert hi.tolist() == [
            150, 250, 250, 350, 450, LONG_MAX, LONG_MAX, 150
        ]

    def test_grouping_search_facade(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.engine import IndexSearcher, all_groups
        from lucene_ray.search.grouping import GroupingSearch, group_topk

        s = IndexSearcher(_engine_index(SF))
        gs = (
            GroupingSearch("lang")
            .set_sort_within_group("n_chars")
            .set_group_docs_limit(2)
            .set_all_groups()
            .set_all_group_heads()
        )
        res = gs.search(s, "merge", group_limit=3)
        direct = group_topk(s, "merge", "lang", "n_chars", 3, 2)
        assert [g.group_value for g in res] == [g.group_value for g in direct]
        assert [g.docids.tolist() for g in res] == [
            g.docids.tolist() for g in direct
        ]
        assert gs.get_all_matching_groups() == all_groups(s, "merge", "lang")
        assert len(gs.get_all_group_heads()) == len(
            gs.get_all_matching_groups()
        )

    def test_facade_side_outputs_require_optin(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.grouping import GroupingSearch

        s = IndexSearcher(_engine_index(SF))
        gs = GroupingSearch("lang")
        gs.search(s, "merge")
        with pytest.raises(RuntimeError):
            gs.get_all_matching_groups()
        with pytest.raises(RuntimeError):
            gs.get_all_group_heads()


@pytest.mark.usefixtures("ray_session")
class TestSandboxDocumentCompletion:
    """sandbox/document completion: HalfFloatPoint field,
    FloatPointNearestNeighbor, DoublePointMultiRangeBuilder."""

    def test_hfpoint_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.hfpoint_engine(SF), con, bm25docs.hfpoint_engine_sql()
        )

    def test_fpnearest_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.fpnearest_engine(SF), con,
            bm25docs.fpnearest_engine_sql(),
        )

    def test_fpmultirange_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.fpmultirange_engine(SF), con,
            bm25docs.fpmultirange_engine_sql(),
        )

    def test_point_nearest_matches_brute_force(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.floatpoint import (
            point_nearest,
            sortable_long_to_double,
        )
        from lucene_ray.search.reader import IndexReader

        rd = IndexReader(_engine_index(SF, dv_fields=("dscore", "fscore")))
        # brute force: gather every (decoded value, global docid)
        vals, docs = [], []
        for e in rd.segments:
            sr = rd.segment_reader(e.name)
            v, d = sr._points_table()["dscore"]
            vals.append(sortable_long_to_double(v))
            docs.append(d + sr.docid_base)
        vals = np.concatenate(vals)
        docs = np.concatenate(docs)
        for origin in (-18.7, 0.0, 4.25, 1e9, -1e9):
            dist = np.abs(vals - origin)
            order = np.lexsort((docs, dist))[:9]
            want = list(zip(docs[order].tolist(), dist[order].tolist()))
            got = point_nearest(rd, "dscore", origin, 9)
            assert got == [(int(d), float(x)) for d, x in want], origin

    def test_point_nearest_skips_deleted(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from lucene_ray.index.builder import build_index
        from lucene_ray.index.writer import delete_by_term
        from lucene_ray.search.floatpoint import point_nearest
        from lucene_ray.search.reader import IndexReader

        rows = [
            {"repo": "r", "path": f"p/{i}", "commit": "0", "lang": "txt",
             # content length i+1 -> dscore = (i+1-500)*0.1 strictly
             # increasing with docid
             "content": "x" * (i + 1)}
            for i in range(40)
        ]
        src = str(tmp_path / "c.parquet")
        ix = str(tmp_path / "ix")
        pq.write_table(pa.Table.from_pylist(rows), src)
        build_index([src], ix, dv_fields=("dscore",))
        origin = (20 - 500) * 0.1  # doc 19's exact value
        before = point_nearest(IndexReader(ix), "dscore", origin, 1)
        assert before[0][0] == 19 and before[0][1] == 0.0
        delete_by_term(ix, "path:p/19")
        after = point_nearest(IndexReader(ix), "dscore", origin, 3)
        assert 19 not in [d for d, _ in after]
        assert len(after) == 3

    def test_half_set_and_multirange_do_not_duplicate(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search import floatpoint as fp
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.query import BooleanQuery

        s = IndexSearcher(_engine_index(SF, dv_fields=("dscore", "fscore")))
        # overlapping ranges must yield each doc once
        q = fp.double_multi_range_query(
            "dscore", [(-50.0, 5.0), (0.0, 50.0)]
        )
        td = s.search(BooleanQuery(must=[q]), 1 << 20)
        assert len(td.docids) == len(set(td.docids.tolist()))
        single = fp.double_range_query("dscore", -50.0, 50.0)
        td2 = s.search(BooleanQuery(must=[single]), 1 << 20)
        assert sorted(td.docids.tolist()) == sorted(td2.docids.tolist())


@pytest.mark.usefixtures("ray_session")
class TestClassificationUtils:
    """classification/utils completion: DatasetSplitter closed form ==
    the reference's sequential loop; ConfusionMatrixGenerator;
    CachingNaiveBayes parity."""

    def test_datasetsplit_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.datasetsplit_engine(SF), con,
            bm25docs.datasetsplit_engine_sql(),
        )

    def test_nbconfusion_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.nbconfusion_engine(SF), con,
            bm25docs.nbconfusion_engine_sql(),
        )

    def test_closed_form_equals_reference_loop(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.classification import dataset_split
        from lucene_ray.search.engine import IndexSearcher, fetch_stored

        s = IndexSearcher(_engine_index(SF))
        for tr, cr in ((0.2, 0.1), (0.35, 0.0), (0.0, 0.5), (1.0, 0.0)):
            docids, splits = dataset_split(s, "lang", tr, cr)
            # the reference loop (DatasetSplitter.java:137-165): global b,
            # per-class tc/cvc, sequential
            stored = fetch_stored(s.reader, docids)
            cls = stored.column("lang").to_pylist()
            first = {}
            for d, c in zip(docids.tolist(), cls):
                first.setdefault(c, d)
            order = sorted(
                range(len(docids)),
                key=lambda i: (first[cls[i]], docids[i]),
            )
            n = {c: cls.count(c) for c in set(cls)}
            tc, cvc, b = {}, {}, 0
            want = {}
            for i in order:
                c = cls[i]
                if b % 2 == 0 and tc.get(c, 0) < n[c] * tr:
                    want[int(docids[i])] = "test"
                    tc[c] = tc.get(c, 0) + 1
                elif cvc.get(c, 0) < n[c] * cr:
                    want[int(docids[i])] = "cv"
                    cvc[c] = cvc.get(c, 0) + 1
                else:
                    want[int(docids[i])] = "train"
                b += 1
            got = dict(zip(docids.tolist(), splits.tolist()))
            assert got == want, (tr, cr)

    def test_caching_nb_matches_simple_nb(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.classification import (
            CachingNaiveBayesClassifier,
            SimpleNaiveBayesClassifier,
        )
        from lucene_ray.search.engine import IndexSearcher

        s = IndexSearcher(_engine_index(SF))
        a = SimpleNaiveBayesClassifier(s, "lang")
        b = CachingNaiveBayesClassifier(s, "lang")
        for text in ("merge sort window", "stream batch join merge"):
            assert a.assign_classes(text) == b.assign_classes(text)
        # second call hits the cache, identical again
        assert a.assign_classes("merge sort window") == b.assign_classes(
            "merge sort window"
        )
        assert len(b._cache) > 0


@pytest.mark.usefixtures("ray_session")
class TestMonitorCompletion:
    """monitor-package completion: QueryDecomposer semantics,
    decomposed-percolation parity, HighlightsMatch hits + byte offsets."""

    def test_decomposed_percolate_gate(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.decomposed_percolate(SF), con,
            bm25docs.decomposed_percolate_sql(),
        )

    def test_monitor_highlights_gate(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.monitor_highlights(SF), con,
            bm25docs.monitor_highlights_sql(),
        )

    def test_decompose_semantics(self):
        from lucene_ray.analysis import get_analyzer
        from lucene_ray.search.monitor import decompose_query
        from lucene_ray.search.query import (
            BooleanQuery,
            TermQuery,
            parse_query,
        )

        an = get_analyzer("code")
        # pure disjunction splits
        assert len(decompose_query(parse_query("merge window", an))) == 2
        # two MUST clauses: atomic
        assert len(decompose_query(parse_query("+merge +window", an))) == 1
        # msm > 1: atomic
        bq = BooleanQuery(
            should=[TermQuery("a"), TermQuery("b")], min_should_match=2
        )
        assert decompose_query(bq) == [bq]
        # single MUST with no SHOULD decomposes in place
        inner = BooleanQuery(should=[TermQuery("a"), TermQuery("b")])
        outer = BooleanQuery(must=[inner])
        assert len(decompose_query(outer)) == 2
        # MUST alongside SHOULD: atomic
        mixed = BooleanQuery(must=[TermQuery("a")], should=[TermQuery("b")])
        assert decompose_query(mixed) == [mixed]
        # exclusions re-attach to every part
        parts = decompose_query(parse_query("batch -slow merge", an))
        assert len(parts) == 2
        for p in parts:
            assert [q.term for q in p.must_not] == ["slow"]

    def test_decomposed_matches_plain_percolation(self):
        import pyarrow.parquet as pq

        from lucene_ray.ops.bm25docs import DECOMPOSE_QUERIES
        from lucene_ray.search.monitor import (
            DecomposingPercolator,
            Percolator,
        )

        batch = pq.read_table(
            f"{SF}/documents.parquet", columns=["doc_id", "text"]
        )
        plain = Percolator(DECOMPOSE_QUERIES).match_batch(batch)
        dec = DecomposingPercolator(DECOMPOSE_QUERIES).match_batch(batch)
        a = set(zip(plain.column("doc_id").to_pylist(),
                    plain.column("query_id").to_pylist()))
        b = set(zip(dec.column("doc_id").to_pylist(),
                    dec.column("query_id").to_pylist()))
        assert a == b  # decomposition never changes match semantics

    def test_highlight_offsets_slice_text(self):
        import pyarrow.parquet as pq

        from lucene_ray.ops.bm25docs import HIGHLIGHT_MONITOR_QUERIES
        from lucene_ray.search.monitor import (
            Percolator,
            highlights_match_batch,
        )

        batch = pq.read_table(
            f"{SF}/documents.parquet", columns=["doc_id", "text"]
        )
        texts = {
            int(d): t for d, t in zip(
                batch.column("doc_id").to_pylist(),
                batch.column("text").to_pylist(),
            )
        }
        t = highlights_match_batch(
            Percolator(HIGHLIGHT_MONITOR_QUERIES), batch
        )
        assert t.num_rows > 0
        n_checked = 0
        for qid, did, so, eo in zip(
            t.column("query_id").to_pylist(),
            t.column("doc_id").to_pylist(),
            t.column("start_off").to_pylist(),
            t.column("end_off").to_pylist(),
        ):
            if qid != 0:
                continue  # single-term query: the slice IS the term
            frag = texts[did].encode()[so:eo].decode().lower()
            assert frag == "merge", (did, so, eo, frag)
            n_checked += 1
        assert n_checked > 0


@pytest.mark.usefixtures("ray_session")
class TestSearchQuality:
    """benchmark/quality: QualityStats math + the judged-metrics gate."""

    def test_searchquality_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.searchquality_engine(SF), con,
            bm25docs.searchquality_engine_sql(),
        )

    def test_searchquality_short_rankings(self, con, monkeypatch):
        """A query ranking fewer than 1, 5 or 10 docs: the engine's
        precision@n is 0.0 past the ranked list (QualityStats.p_at starts
        at 0.0), and so is the oracle's, not NULL. An absent term ranks
        nothing; K=3 ranks 3 docs."""
        from lucene_ray.ops import bm25docs

        monkeypatch.setattr(bm25docs, "QUALITY_QUERIES", [
            (0, "zzzabsent", "merge", 12),
            (1, "dup", "sort", 3),
            (2, "merge", "sort", 12),
        ])
        got = bm25docs.searchquality_engine(SF).to_pandas()
        p = got[got.metric.str.startswith("p_at_")]
        assert (p[p.qid == 0].value == 0.0).all()
        assert (p[(p.qid == 1) & (p.metric == "p_at_10")].value == 0.0).all()
        assert_same(
            bm25docs.searchquality_engine(SF), con,
            bm25docs.searchquality_engine_sql(),
        )

    def test_qualitystats_reference_math(self):
        from lucene_ray.search.quality import QualityStats

        st = QualityStats(3.0)
        # ranks:   1     2      3     4      5
        # rel:     no    yes    no    yes    no
        for n, rel in ((1, False), (2, True), (3, False), (4, True), (5, False)):
            st.add_result(n, rel)
        assert st.get_precision_at(1) == 0.0
        assert st.get_precision_at(2) == 0.5
        assert st.get_precision_at(5) == 2 / 5
        assert st.get_recall() == 2 / 3
        assert st.get_avp() == (1 / 2 + 2 / 4) / 3
        assert st.get_mrr() == 1 / 2
        # MRR quirk: first relevant past rank 5 scores 0
        st2 = QualityStats(1.0)
        for n in range(1, 7):
            st2.add_result(n, n == 6)
        assert st2.get_mrr() == 0.0
        # maxGoodPoints == 0: avp 0, recall = running p
        st3 = QualityStats(0.0)
        st3.add_result(1, False)
        assert st3.get_avp() == 0.0 and st3.get_recall() == 0.0
        # out-of-order ranks refused
        with pytest.raises(ValueError):
            st3.add_result(5, True)


@pytest.mark.usefixtures("ray_session")
class TestMiscCoreSurfaces:
    """DocToDoubleVectorUtils, TimeLimitingCollector,
    SearcherLifetimeManager, IndexDiskUsageAnalyzer."""

    def test_doc2vec_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.doc2vec_engine(SF), con, bm25docs.doc2vec_engine_sql(),
            float_cols=("freq",),
        )

    def test_dense_vector_scatters_sparse(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.classification import (
            doc_to_dense_vector,
            doc_to_sparse_vector,
        )
        from lucene_ray.search.reader import IndexReader

        rd = IndexReader(_engine_index(SF, term_vectors=True))
        sparse = doc_to_sparse_vector(rd, 3)
        vocab = sorted({t for t, _ in sparse} | {"zzz_absent_term"})
        dense = doc_to_dense_vector(rd, 3, vocab)
        assert dense[vocab.index("zzz_absent_term")] == 0.0
        for t, f in sparse:
            assert dense[vocab.index(t)] == f
        assert dense.sum() == sum(f for _t, f in sparse)

    def test_time_limited_search(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.engine import (
            IndexSearcher,
            TimeExceededException,
            search_time_limited,
        )

        s = IndexSearcher(_engine_index(SF))
        full = s.search("merge window", k=10)
        # generous budget: identical hits, exact count
        ok = search_time_limited(s, "merge window", k=10, budget_s=60.0)
        assert ok.docids.tolist() == full.docids.tolist()
        assert ok.total_hits == full.total_hits
        # fake clock that exceeds immediately: greedy collects one
        # segment, non-greedy raises with an empty partial
        ticks = iter([0.0] + [100.0] * 50)
        with pytest.raises(TimeExceededException) as ei:
            search_time_limited(
                s, "merge window", k=10, budget_s=1.0,
                clock=lambda: next(ticks),
            )
        assert ei.value.segments_done == 0
        assert len(ei.value.partial.docids) == 0
        # greedy on a MULTI-segment index: finishes the first
        # segment, then raises with a non-empty partial
        import pyarrow as pa
        import pyarrow.parquet as pq

        from lucene_ray.index.builder import build_index

        rows = [
            {"repo": "r", "path": f"p/{i}", "commit": "0", "lang": "txt",
             "content": f"alpha beta doc number {i}"}
            for i in range(64)
        ]
        import tempfile

        with tempfile.TemporaryDirectory() as td:
            src = f"{td}/c.parquet"
            ix2 = f"{td}/ix"
            pq.write_table(
                pa.Table.from_pylist(rows), src, row_group_size=16
            )
            build_index([src], ix2, target_docs=16)  # >= 4 segments
            s2 = IndexSearcher(ix2)
            assert len(s2.reader.segments) >= 2
            ticks2 = iter([0.0] + [100.0] * 50)
            with pytest.raises(TimeExceededException) as e2:
                search_time_limited(
                    s2, "alpha", k=10, budget_s=1.0, greedy=True,
                    clock=lambda: next(ticks2),
                )
            assert e2.value.segments_done == 1
            assert e2.value.partial.relation == "gte"
            assert 0 < len(e2.value.partial.docids)
            # partial hits are a subset of the full ranking's doc set
            assert set(e2.value.partial.docids.tolist()) <= set(
                s2.search("alpha", k=1 << 20).docids.tolist()
            )

    def test_searcher_lifetime_manager(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from lucene_ray.index.builder import build_index
        from lucene_ray.index.writer import delete_by_term
        from lucene_ray.search.engine import (
            IndexSearcher,
            SearcherLifetimeManager,
        )

        rows = [
            {"repo": "r", "path": f"p/{i}", "commit": "0", "lang": "txt",
             "content": f"alpha doc {i}"}
            for i in range(8)
        ]
        src = str(tmp_path / "c.parquet")
        ix = str(tmp_path / "ix")
        pq.write_table(pa.Table.from_pylist(rows), src)
        build_index([src], ix)
        mgr = SearcherLifetimeManager()
        s1 = IndexSearcher(ix)
        tok1 = mgr.record(s1, now=100.0)
        n1 = len(s1.search("alpha", k=100).docids)
        delete_by_term(ix, "path:p/3")
        s2 = IndexSearcher(ix)
        tok2 = mgr.record(s2, now=200.0)
        assert tok2 != tok1
        # the recorded old view still sees the pre-delete snapshot
        old = mgr.acquire(tok1)
        assert len(old.search("alpha", k=100).docids) == n1
        assert len(mgr.acquire(tok2).search("alpha", k=100).docids) == n1 - 1
        # prune by age drops the old view, keeps the newest
        assert mgr.prune(max_age_s=50.0, now=300.0) == 1
        assert mgr.acquire(tok1) is None
        assert mgr.acquire(tok2) is not None

    def test_index_disk_usage(self):
        import os

        from lucene_ray.index.diskusage import analyze_index_disk_usage
        from lucene_ray.ops.bm25docs import _engine_index

        ix = _engine_index(SF)
        t = analyze_index_disk_usage(ix)
        got = sum(t.column("bytes").to_pylist())
        want = 0
        for root, _dirs, files in os.walk(ix):
            want += sum(os.path.getsize(os.path.join(root, f)) for f in files)
        assert got == want  # every byte attributed exactly once
        comps = set(t.column("component").to_pylist())
        assert {"postings", "norms", "stored_fields", "metadata"} <= comps
        assert "other" not in comps  # every file classified


@pytest.mark.usefixtures("ray_session")
class TestKNearestFuzzy:
    """classification/KNearestFuzzyClassifier + NearestFuzzyQuery float64
    twin."""

    def test_knnfuzzy_gate(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.knnfuzzy_classify(SF), con,
            bm25docs.knnfuzzy_classify_sql(), float_cols=("score",),
        )

    def test_exact_term_dominates_and_k_bound(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.classification import KNearestFuzzyClassifier
        from lucene_ray.search.engine import IndexSearcher

        s = IndexSearcher(_engine_index(SF))
        clf = KNearestFuzzyClassifier(s, k=7, max_num_terms=20)
        sel = clf.selected_terms("mergge")
        assert sel, "misspelling must select fuzzy variants"
        assert "merge" in [v for v, _ in sel]
        docs, scores = clf.knn_topk("mergge")
        assert 0 < len(docs) <= 7
        for i in range(1, len(docs)):
            assert scores[i] < scores[i - 1] or (
                scores[i] == scores[i - 1] and docs[i] > docs[i - 1]
            )
        res = clf.assign_classes("mergge")
        assert res and abs(sum(counts for _c, counts in [])) == 0
        # vote scores are in (0, 1] and sum over classes <= 1 + eps when
        # sumdoc == k (count*avg/k partitions the normalized boosts)
        assert all(0.0 < v <= 1.0 + 1e-9 for _c, v in res)

    def test_no_variants_empty(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.classification import KNearestFuzzyClassifier
        from lucene_ray.search.engine import IndexSearcher

        s = IndexSearcher(_engine_index(SF))
        clf = KNearestFuzzyClassifier(s)
        assert clf.selected_terms("qqqqqqzzzz") == []
        assert clf.assign_class("qqqqqqzzzz") is None


@pytest.mark.usefixtures("ray_session")
class TestDocumentClassifier:
    """classification/document SimpleNaiveBayesDocumentClassifier."""

    def test_nbdocclassify_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.nbdocclassify_engine(SF), con,
            bm25docs.nbdocclassify_engine_sql(), float_cols=("score",),
        )

    def test_normalization_is_monotone_softmax(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.classification import (
            SimpleNaiveBayesDocumentClassifier,
        )
        from lucene_ray.search.engine import IndexSearcher

        s = IndexSearcher(_engine_index(SF))
        clf = SimpleNaiveBayesDocumentClassifier(s, ("content^2.0",))
        doc = {"content": ["merge sort", "window"]}
        raw = clf.assign_classes(doc, normalize=False)
        norm = clf.assign_classes(doc, normalize=True)
        assert [c for c, _ in raw] == [c for c, _ in norm]  # order kept
        assert abs(sum(v for _c, v in norm) - 1.0) < 1e-12
        assert all(0.0 < v <= 1.0 for _c, v in norm)

    def test_boost_scales_likelihood_only(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.classification import (
            SimpleNaiveBayesDocumentClassifier,
        )
        from lucene_ray.search.engine import IndexSearcher

        s = IndexSearcher(_engine_index(SF))
        doc = {"content": ["merge sort"]}
        r1 = dict(
            SimpleNaiveBayesDocumentClassifier(s, ("content",))
            .assign_classes(doc, normalize=False)
        )
        r2 = dict(
            SimpleNaiveBayesDocumentClassifier(s, ("content^3.0",))
            .assign_classes(doc, normalize=False)
        )
        import math

        # score = prior + ll*boost  =>  (r2 - prior) == 3 * (r1 - prior)
        clf = SimpleNaiveBayesDocumentClassifier(s, ("content",))
        nb = clf._nb
        for c in r1:
            from lucene_ray.search.query import TermQuery

            dfc = nb._count([TermQuery(f"lang:{c}")])
            prior = math.log(dfc) - math.log(nb.docs_with_class)
            assert abs((r2[c] - prior) - 3.0 * (r1[c] - prior)) < 1e-9

    def test_empty_value_rejected_and_bad_field(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.classification import (
            SimpleNaiveBayesDocumentClassifier,
        )
        from lucene_ray.search.engine import IndexSearcher

        s = IndexSearcher(_engine_index(SF))
        clf = SimpleNaiveBayesDocumentClassifier(s, ("content",))
        with pytest.raises(ValueError):
            clf.assign_classes({"content": ["..."]})  # tokenizes to nothing
        with pytest.raises(ValueError):
            SimpleNaiveBayesDocumentClassifier(s, ("title^2",))


@pytest.mark.usefixtures("ray_session")
class TestDsir:
    """DSIR importance weights (Xie et al. 2023): gate parity + the
    selection property the method exists for."""

    def test_dsir_gate(self, con):
        from lucene_ray.ops import text as text_ops

        assert_same(
            text_ops.dsir_weights(SF), con, text_ops.dsir_weights_sql(),
            float_cols=("weight",),
        )

    def test_top_weights_enrich_target_lang(self):
        import duckdb

        from lucene_ray.ops.text import DSIR_TARGET_LANG, dsir_weights

        df = to_pdf(dsir_weights(SF)).sort_values(
            "weight", ascending=False
        )
        langs = duckdb.sql(
            f"SELECT doc_id, lang FROM '{SF}/documents.parquet'"
        ).fetchdf().set_index("doc_id")["lang"]
        top = [langs[d] for d in df.head(50)["doc_id"]]
        bottom = [langs[d] for d in df.tail(50)["doc_id"]]
        top_rate = top.count(DSIR_TARGET_LANG) / len(top)
        bot_rate = bottom.count(DSIR_TARGET_LANG) / len(bottom)
        assert top_rate > bot_rate, (top_rate, bot_rate)

    def test_bucket_hash_bounds_and_determinism(self):
        from lucene_ray.ops.text import DSIR_BUCKETS, _dsir_bucket

        for s in ("merge", "merge sort", "", "a" * 300):
            b = _dsir_bucket(s)
            assert 0 <= b < DSIR_BUCKETS
            assert b == _dsir_bucket(s)


@pytest.mark.usefixtures("ray_session")
class TestKnnTextClassifier:
    """classification/KNearestNeighborClassifier (MLT-based text kNN)."""

    def test_knntext_gate(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.knntext_classify(SF), con,
            bm25docs.knntext_classify_sql(), float_cols=("score",),
        )

    def test_mlt_defaults_filter_rare_terms(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.classification import (
            KNearestNeighborClassifier,
        )
        from lucene_ray.search.engine import IndexSearcher

        s = IndexSearcher(_engine_index(SF))
        # defaults: min_term_freq=2 — single-occurrence terms select
        # nothing (the MoreLikeThis default contract)
        strict = KNearestNeighborClassifier(s)
        assert strict.selected_terms("merge sort window") == []
        loose = KNearestNeighborClassifier(s, min_term_freq=1, min_doc_freq=1)
        sel = loose.selected_terms("merge merge sort")
        assert sel and sel[0][1] == 1.0  # best term's boost exactly 1
        assert all(0.0 < b <= 1.0 for _t, b in sel)
        # repeated term ranks first (tf doubles its score)
        assert sel[0][0] == "merge"

    def test_fuzzy_and_text_share_vote_math(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.classification import (
            build_list_from_topdocs,
        )
        from lucene_ray.search.engine import IndexSearcher
        import numpy as np

        s = IndexSearcher(_engine_index(SF))
        docs = np.array([0, 1, 2], dtype=np.int64)
        scores = np.array([4.0, 2.0, 1.0])
        res = build_list_from_topdocs(s.reader, docs, scores, 10, "lang")
        # sumdoc (3) < k (10): the correction rescales by k/sumdoc
        total = sum(v for _c, v in res)
        # sum over classes of count*avg/k*k/sumdoc = sum(score_i/max)/sumdoc
        want = (4.0 / 4.0 + 2.0 / 4.0 + 1.0 / 4.0) / 3
        assert abs(total - want) < 1e-12


@pytest.mark.usefixtures("ray_session")
class TestMultiReader:
    """core/index/MultiReader composite view."""

    def test_multireader_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.multireader_engine(SF), con,
            bm25docs.multireader_engine_sql(),
        )

    def test_identical_to_add_indexes(self, tmp_path):
        from lucene_ray.index.writer import add_indexes
        from lucene_ray.ops.bm25docs import _engine_index_halves
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.reader import MultiReader

        ix_a, ix_b = _engine_index_halves(SF)
        multi = IndexSearcher(MultiReader([ix_a, ix_b]))
        dest = str(tmp_path / "merged")
        import shutil

        shutil.copytree(ix_a, dest)
        add_indexes(dest, [ix_b])
        copied = IndexSearcher(dest)
        for q in ("merge", "window table", '"hash scan"'):
            a = multi.search(q, k=50)
            b = copied.search(q, k=50)
            assert a.docids.tolist() == b.docids.tolist()
            assert a.scores.tolist() == b.scores.tolist()
            assert a.total_hits == b.total_hits

    def test_self_composition_refused(self):
        from lucene_ray.ops.bm25docs import _engine_index_halves
        from lucene_ray.search.reader import MultiReader

        ix_a, _ = _engine_index_halves(SF)
        with pytest.raises(ValueError):
            MultiReader([ix_a, ix_a])

    def test_snapshot_semantics_and_counts(self):
        from lucene_ray.ops.bm25docs import _engine_index_halves
        from lucene_ray.search.reader import IndexReader, MultiReader

        ix_a, ix_b = _engine_index_halves(SF)
        multi = MultiReader([ix_a, ix_b])
        a, b = IndexReader(ix_a), IndexReader(ix_b)
        assert multi.doc_count == a.doc_count + b.doc_count
        assert multi.sum_ttf == a.sum_ttf + b.sum_ttf
        assert multi.manifest.generation == -1  # not committable


@pytest.mark.usefixtures("ray_session")
class TestQ3Shipping:
    """TPC-H Q3-shape reduce-side fact-fact join (no broadcast side)."""

    def test_q3_gate(self, con):
        from lucene_ray.ops import relational

        assert_same(
            relational.q3_shipping(SF), con, relational.q3_shipping_sql()
        )

    def test_k_param_and_order(self, con):
        from lucene_ray.ops import relational

        t = to_pdf(relational.q3_shipping(SF, k=5))
        assert len(t) == 5
        r = t["revenue_cents"].to_numpy()
        assert all(
            r[i] > r[i + 1]
            or (r[i] == r[i + 1]
                and t["o_orderkey"].iloc[i] < t["o_orderkey"].iloc[i + 1])
            for i in range(len(r) - 1)
        )


@pytest.mark.usefixtures("ray_session")
class TestBooleanPerceptron:
    """classification/BooleanPerceptronClassifier: exact training math
    pinned against an independent straight-line reimplementation."""

    def _tiny(self, tmp_path, batch_size):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from lucene_ray.index.builder import build_index
        from lucene_ray.search.engine import IndexSearcher

        rows = [
            ("true", "merge merge sort"),
            ("false", "stream batch"),
            ("true", "merge window sort"),
            ("false", "stream stream join"),
            ("true", "merge sort sort window"),
            ("false", "batch join scan"),
        ]
        src = str(tmp_path / f"c{batch_size}.parquet")
        ix = str(tmp_path / f"ix{batch_size}")
        pq.write_table(
            pa.Table.from_pylist(
                [
                    {"repo": c, "path": f"p/{i}", "commit": "0",
                     "lang": "txt", "content": t}
                    for i, (c, t) in enumerate(rows)
                ]
            ),
            src,
        )
        build_index([src], ix, term_vectors=True)
        return IndexSearcher(ix), rows

    def _reference_train(self, rows, bias, batch_size):
        """Straight-line reimplementation of the reference loop."""
        from collections import Counter

        ttf = Counter()
        for _c, t in rows:
            ttf.update(t.split())
        weights = dict(ttf)
        fst = dict(weights)
        bc = 0
        for cls, text in rows:
            toks = text.split()
            out = sum(fst.get(w, 0) for w in toks)
            assigned = out >= bias
            correct = cls == "true"
            mod = (correct > assigned) - (correct < assigned)
            if mod != 0:
                for term, tf in Counter(toks).items():
                    prev = fst.get(term)
                    weights[term] = (
                        0 if prev is None else max(0, prev + mod * tf)
                    )
                if bc % batch_size == 0:
                    fst = dict(weights)
            bc += 1
        return weights

    @pytest.mark.parametrize("batch_size", [1, 2, 4])
    def test_matches_reference_loop(self, tmp_path, batch_size):
        from lucene_ray.search.classification import (
            BooleanPerceptronClassifier,
        )

        s, rows = self._tiny(tmp_path, batch_size)
        clf = BooleanPerceptronClassifier(s, "repo", batch_size=batch_size)
        total = sum(len(t.split()) for _c, t in rows)
        assert clf.bias == total / len(rows)
        want = self._reference_train(rows, clf.bias, batch_size)
        for term, w in want.items():
            assert clf._fst[term] == w, (batch_size, term, clf._fst[term], w)
        # weights never negative
        assert all(w >= 0 for w in clf._fst.values())

    def test_assign_shape_and_score(self, tmp_path):
        import math

        from lucene_ray.search.classification import (
            BooleanPerceptronClassifier,
        )

        s, _rows = self._tiny(tmp_path, 1)
        clf = BooleanPerceptronClassifier(s, "repo", batch_size=1)
        assigned, output, score = clf.assign_class("merge sort")
        assert isinstance(assigned, bool) and isinstance(output, int)
        assert score == 1.0 - math.exp(-abs(clf.bias - output) / clf.bias)
        # unseen-vocab text: output 0 -> assigned False
        a2, o2, _ = clf.assign_class("zzzz qqqq")
        assert o2 == 0 and a2 is False

    def test_gate_runs(self):
        from lucene_ray.ops import bm25docs

        t = bm25docs.perceptron_classify(SF)
        assert t.num_rows == 4
        assert t.column("output").to_pylist()[3] == 0  # unseen vocab


@pytest.mark.usefixtures("ray_session")
class TestBloomAndSearcherManager:
    """codecs/bloom FuzzySet analog + core SearcherManager lifecycle."""

    def test_bloom_never_false_negative(self, tmp_path):
        import pyarrow.parquet as pq

        from lucene_ray.codec.bloom import build_bloom_filters, load_filter, may_contain
        from lucene_ray.index.manifest import read_manifest, segment_dir
        from lucene_ray.ops.bm25docs import _engine_index
        import shutil

        ix = str(tmp_path / "ix")
        shutil.copytree(_engine_index(SF), ix)
        wrote = build_bloom_filters(ix)
        assert wrote >= 1
        assert build_bloom_filters(ix) == 0  # idempotent
        m = read_manifest(ix)
        import os

        for e in m.live_segments:
            d = segment_dir(ix, e.name)
            bits = load_filter(d)
            if bits is None:
                continue
            terms = pq.read_table(
                os.path.join(d, "postings.parquet"), columns=["term"]
            ).column("term").to_pylist()
            # NO false negatives, ever
            assert all(may_contain(bits, t) for t in terms)
            # false-positive rate on definitely-absent probes is small
            absent = [f"zzq{i}xw" for i in range(2000)]
            fp = sum(may_contain(bits, t) for t in absent) / len(absent)
            assert fp < 0.05, fp

    def test_bloom_backed_search_identical(self, tmp_path):
        import shutil

        from lucene_ray.codec.bloom import build_bloom_filters
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.engine import IndexSearcher

        base = _engine_index(SF)
        ix = str(tmp_path / "ixb")
        shutil.copytree(base, ix)
        build_bloom_filters(ix)
        plain, bloomed = IndexSearcher(base), IndexSearcher(ix)
        for q in ("merge", "zzzmissing", "window table", "mer*", '"hash scan"'):
            a, b = plain.search(q, k=30), bloomed.search(q, k=30)
            assert a.docids.tolist() == b.docids.tolist(), q
            assert a.scores.tolist() == b.scores.tolist(), q
        # absent-term lookup short-circuits to the same answer
        sr = bloomed.reader.segment_reader(bloomed.reader.segments[0].name)
        assert sr.term_row("qqqqneverthere") is None

    def test_bloom_saturated_segment_skip_marker(self, tmp_path, monkeypatch):
        """A saturated segment's skip is persisted: the next pass opens no
        postings.parquet, and lookups fall through to the term dictionary."""
        import os
        import shutil

        import pyarrow.parquet as pq

        from lucene_ray.codec import bloom
        from lucene_ray.index.manifest import read_manifest, segment_dir
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.reader import SegmentReader

        ix = str(tmp_path / "ix")
        shutil.copytree(_engine_index(SF), ix)
        monkeypatch.setattr(bloom, "MAX_SATURATION", 0.0)  # all saturated
        assert bloom.build_bloom_filters(ix) == 0
        read_table, opened = pq.read_table, []

        def spy(source, *args, **kwargs):
            opened.append(str(source))
            return read_table(source, *args, **kwargs)

        monkeypatch.setattr(pq, "read_table", spy)
        assert bloom.build_bloom_filters(ix) == 0
        assert not [p for p in opened if p.endswith("postings.parquet")]
        monkeypatch.undo()
        for e in read_manifest(ix).live_segments:
            d = segment_dir(ix, e.name)
            assert os.path.exists(bloom.sidecar_path(d))
            assert bloom.load_filter(d) is None
            sr = SegmentReader(d, e.docid_base, e.doc_count)
            terms = pq.read_table(
                os.path.join(d, "postings.parquet"), columns=["term"]
            ).column("term").to_pylist()
            assert [sr.term_index(t) for t in terms] == list(range(len(terms)))

    def test_searcher_manager(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from lucene_ray.index.builder import build_index
        from lucene_ray.index.writer import delete_by_term
        from lucene_ray.search.engine import SearcherManager

        rows = [
            {"repo": "r", "path": f"p/{i}", "commit": "0", "lang": "txt",
             "content": f"alpha doc {i}"}
            for i in range(6)
        ]
        src = str(tmp_path / "c.parquet")
        ix = str(tmp_path / "ix")
        pq.write_table(pa.Table.from_pylist(rows), src)
        build_index([src], ix)
        mgr = SearcherManager(ix)
        seen = []
        mgr.add_listener(lambda s: seen.append(s))
        s1 = mgr.acquire()
        n = len(s1.search("alpha", k=100).docids)
        assert mgr.maybe_refresh() is False  # nothing changed
        delete_by_term(ix, "path:p/2")
        assert mgr.maybe_refresh() is True
        assert len(seen) == 1
        s2 = mgr.acquire()
        assert len(s2.search("alpha", k=100).docids) == n - 1
        # the released old snapshot still answers consistently
        mgr.release(s1)
        assert len(s1.search("alpha", k=100).docids) == n


@pytest.mark.usefixtures("ray_session")
class TestFSTCompletion:
    """suggest/fst/FSTCompletionLookup bucketed completion."""

    def test_gate(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.fstcompletion_suggest(SF), con,
            bm25docs.fstcompletion_suggest_sql(),
        )

    def test_bucket_discretization_rules(self):
        from lucene_ray.search.suggest import FSTCompletionLookup

        lk = FSTCompletionLookup(buckets=4).build(
            ["aa", "ab", "b", "ba"], [1, 5, 5, 9]
        )
        # sorted by weight: aa(1)->line0 b0; ab(5)->line1 b1; b(5) ties
        # with ab -> SAME bucket; ba(9)->line3 b3
        assert lk._bucket == {"aa": 0, "ab": 1, "b": 1, "ba": 3}
        # exact-match promotion: 'b' outranks higher-bucket 'ba'
        assert lk.lookup("b") == [("b", 1), ("ba", 3)]
        # without promotion, bucket desc wins
        lk2 = FSTCompletionLookup(buckets=4, exact_match_first=False).build(
            ["aa", "ab", "b", "ba"], [1, 5, 5, 9]
        )
        assert lk2.lookup("b") == [("ba", 3), ("b", 1)]
        with pytest.raises(ValueError):
            FSTCompletionLookup(buckets=0)

    def test_completion_above_bmp(self):
        """A completion continuing with a codepoint above U+FFFF is inside
        the prefix window (the SQL oracle's LIKE 'p%' includes it)."""
        from lucene_ray.search.suggest import FSTCompletionLookup

        clef = "ab\U0001D11E"  # U+1D11E MUSICAL SYMBOL G CLEF
        lk = FSTCompletionLookup(buckets=4).build(
            ["ab", clef, "abz", "ac"], [1, 9, 3, 4]
        )
        assert [s for s, _b in lk.lookup("ab")] == ["ab", clef, "abz"]
        top = "a\U0010FFFF"  # the prefix's last codepoint has no successor
        lk = FSTCompletionLookup(buckets=2).build([top, top + "x", "b"], [1, 2, 3])
        assert [s for s, _b in lk.lookup(top)] == [top, top + "x"]


class TestPrefixBoundsAboveBmp:
    """Prefix windows end at the prefix's successor, not at a U+FFFF
    sentinel: terms continuing with a codepoint above U+FFFF are inside."""

    def test_expand_prefix_above_bmp(self):
        from lucene_ray.search.query import PrefixQuery
        from lucene_ray.search.rewrite import expand_prefix

        clef = "ab\U0001D11E"  # U+1D11E MUSICAL SYMBOL G CLEF
        top = "a\U0010FFFF"
        vocab = np.array(
            sorted(["ab", clef, "abz", "ac", top, top + "x", "b"]), dtype=object
        )
        assert expand_prefix(vocab, PrefixQuery("ab")) == ["ab", "abz", clef]
        assert expand_prefix(vocab, PrefixQuery(top)) == [top, top + "x"]

    def test_analyzing_suggester_past_top_codepoint(self):
        """A key continuing past U+10FFFF stays inside the input's window
        (a U+10FFFF sentinel would end the window before it)."""
        from lucene_ray.analysis import get_analyzer
        from lucene_ray.search.suggest import AnalyzingSuggester

        far = "a\U0010FFFFb"
        sug = AnalyzingSuggester(get_analyzer("whitespace")).build(
            ["a", far, "b"], [1, 2, 3]
        )
        assert sug.lookup("a") == [("a", 1), (far, 2)]

    def test_fuzzylikethis_prefix_past_top_codepoint(self):
        """FuzzyLikeThis's prefix slice keeps a variant whose suffix starts
        with U+10FFFF."""
        from lucene_ray.search.fuzzylikethis import FuzzyLikeThisQuery

        far = "a\U0010FFFFb"
        vocab = np.array(sorted(["ab", far, "b"]), dtype=object)
        got = FuzzyLikeThisQuery(10)._variants(vocab, "ab", 1, 1)
        assert got == [("ab", 0), (far, 1)]

    def test_suggest_akey_range_above_bmp(self, tmp_path, monkeypatch):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from lucene_ray.ops import bm25docs

        clef = "ab\U0001D11E"
        akeys = sorted(["ab", "ab x", clef, "abz", "ac", "b"])
        pq.write_table(
            pa.table({
                "surface": [k.upper() for k in akeys],
                "weight": list(range(len(akeys))),
                "akey": akeys,
            }),
            str(tmp_path / "part-0.parquet"),
        )
        monkeypatch.setattr(bm25docs, "_suggest_model_dir", lambda _sf: str(tmp_path))
        _s, _w, keys = bm25docs._suggest_entries(
            "unused", key_prefix="ab", with_keys=True
        )
        assert sorted(keys) == ["ab", "ab x", "abz", clef]


@pytest.mark.usefixtures("ray_session")
class TestParallelReader:
    """core/index/ParallelCompositeReader field composition."""

    def test_parallel_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.parallel_engine(SF), con, bm25docs.parallel_engine_sql()
        )

    def test_primary_behavior_unchanged(self):
        from lucene_ray.ops.bm25docs import (
            _engine_index,
            _engine_index_parallel,
        )
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.reader import ParallelCompositeReader

        plain = IndexSearcher(_engine_index(SF))
        par = IndexSearcher(
            ParallelCompositeReader(
                [_engine_index(SF), _engine_index_parallel(SF)]
            )
        )
        for q in ("merge", "window table", '"hash scan"'):
            a, b = plain.search(q, 30), par.search(q, 30)
            assert a.docids.tolist() == b.docids.tolist()
            assert a.scores.tolist() == b.scores.tolist()

    def test_mismatched_doc_sets_refused(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from lucene_ray.index.builder import build_index
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.reader import ParallelCompositeReader

        rows = [
            {"repo": "r", "path": f"p/{i}", "commit": "0", "lang": "txt",
             "content": ""}
            for i in range(7)  # wrong doc count
        ]
        src = str(tmp_path / "c.parquet")
        ix = str(tmp_path / "ix")
        pq.write_table(pa.Table.from_pylist(rows), src)
        build_index([src], ix)
        with pytest.raises(ValueError):
            ParallelCompositeReader([_engine_index(SF), ix])

    def test_nonempty_parallel_content_refused(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.reader import ParallelCompositeReader

        with pytest.raises(ValueError):
            # the primary itself as a "parallel" part carries content
            ParallelCompositeReader([_engine_index(SF), _engine_index(SF)])


class TestScandinavian:
    """miscellaneous/Scandinavian{Normalization,Folding}Filter — the
    reference test vectors verbatim (case-preserving scalar scans)."""

    def test_normalization_vectors(self):
        from lucene_ray.analysis.scandinavian import scandinavian_normalize

        vectors = [
            ("aeäaeeea", "æææeea"), ("aeäaeeeae", "æææeeæ"),
            ("aeaeeeae", "ææeeæ"), ("bøen", "bøen"), ("bOEen", "bØen"),
            ("åene", "åene"), ("blåbærsyltetøj", "blåbærsyltetøj"),
            ("blaabaersyltetöj", "blåbærsyltetøj"),
            ("räksmörgås", "ræksmørgås"), ("raeksmörgaos", "ræksmørgås"),
            ("raeksmörgaas", "ræksmørgås"), ("raeksmoergås", "ræksmørgås"),
            ("ab", "ab"), ("ob", "ob"), ("Ab", "Ab"), ("Ob", "Ob"),
            ("å", "å"), ("aa", "å"), ("aA", "å"), ("ao", "å"), ("aO", "å"),
            ("AA", "Å"), ("Aa", "Å"), ("Ao", "Å"), ("AO", "Å"),
            ("æ", "æ"), ("ä", "æ"), ("Æ", "Æ"), ("Ä", "Æ"), ("ae", "æ"),
        ]
        for src, want in vectors:
            assert scandinavian_normalize(src) == want, src

    def test_folding_vectors(self):
        from lucene_ray.analysis.scandinavian import scandinavian_fold

        vectors = [
            ("aeäaeeea", "aaaeea"), ("aeäaeeeae", "aaaeea"),
            ("aeaeeeae", "aaeea"), ("bøen", "boen"), ("åene", "aene"),
            ("blåbærsyltetøj", "blabarsyltetoj"),
            ("blaabaarsyltetoej", "blabarsyltetoj"),
            ("blåbärsyltetöj", "blabarsyltetoj"),
            ("raksmorgas", "raksmorgas"), ("räksmörgås", "raksmorgas"),
            ("ræksmørgås", "raksmorgas"), ("raeksmoergaas", "raksmorgas"),
            ("ræksmörgaos", "raksmorgas"),
            ("ab", "ab"), ("ob", "ob"), ("Ab", "Ab"), ("Ob", "Ob"),
            ("å", "a"), ("aa", "a"), ("aA", "a"), ("ao", "a"), ("aO", "a"),
            ("AA", "A"), ("Aa", "A"), ("Ao", "A"), ("AO", "A"),
            ("æ", "a"), ("ä", "a"), ("Æ", "A"), ("Ä", "A"),
            ("ae", "a"), ("aE", "a"), ("Ae", "A"), ("AE", "A"),
            ("ö", "o"), ("ø", "o"), ("Ö", "O"), ("Ø", "O"),
            ("oo", "o"), ("oe", "o"),
        ]
        for src, want in vectors:
            assert scandinavian_fold(src) == want, src

    def test_chains_registered(self):
        import pyarrow as pa

        from lucene_ray.analysis import get_analyzer

        n = get_analyzer("scandinavian_normalization")
        f = get_analyzer("scandinavian_folding")
        # chains lowercase first (UnicodeAnalyzer base), then scan
        assert n.tokenize_array(pa.array(["raeksmörgaas"])).to_pylist() == [
            ["ræksmørgås"]
        ]
        assert f.tokenize_array(pa.array(["blåbærsyltetøj RÄKSMÖRGÅS"])).to_pylist() == [
            ["blabarsyltetoj", "raksmorgas"]
        ]


@pytest.mark.usefixtures("ray_session")
class TestExprSortAndSpanPayload:
    """expression sort field + SpanPayloadCheckQuery."""

    def test_exprsort_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.exprsort_engine(SF), con, bm25docs.exprsort_engine_sql()
        )

    def test_exprsort_keys_match_expression(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.engine import (
            IndexSearcher,
            fetch_doc_values,
            search_sorted_expression,
        )

        s = IndexSearcher(_engine_index(SF))
        td = search_sorted_expression(
            s, "merge", "abs(n_chars - 300)", k=8, ascending=True
        )
        vals = fetch_doc_values(s.reader, td.docids, "n_chars")
        assert [abs(int(v) - 300) for v in vals] == [
            int(x) for x in td.values
        ]
        assert list(td.values) == sorted(td.values)
        with pytest.raises(ValueError):
            search_sorted_expression(s, "merge", "_score * 2", k=3)

    def test_spanpayload_engine(self, con):
        from lucene_ray.ops import bm25docs

        assert_same(
            bm25docs.spanpayload_engine(SF), con,
            bm25docs.spanpayload_engine_sql(),
        )

    def test_spanpayload_rejects_and_requires_payloads(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.engine import IndexSearcher, span_payload_check

        s = IndexSearcher(_engine_index(SF, payload_fn="pos_mod16"))
        # the union over all 16 residues == plain term doc set
        import numpy as np

        all_docs = np.concatenate(
            [span_payload_check(s, ("merge",), (e,)) for e in range(16)]
        )
        plain = s.search("merge", k=1 << 20).docids
        assert set(all_docs.tolist()) == set(plain.tolist())
        with pytest.raises(ValueError):
            span_payload_check(s, ("merge",), (1, 2))
        # payload-less index refuses loudly
        s2 = IndexSearcher(_engine_index(SF))
        with pytest.raises(ValueError):
            span_payload_check(s2, ("merge",), (3,))


class TestLiveFieldValues:
    """core/search/LiveFieldValues two-generation refresh protocol."""

    def test_lifecycle(self):
        from lucene_ray.search.engine import LiveFieldValues

        committed = {"a": 1}
        lv = LiveFieldValues(missing_value=None)
        look = lambda k: committed.get(k)
        assert lv.get("a", look) == 1          # falls through
        lv.add("a", 2)
        lv.add("b", 7)
        lv.delete("c")
        assert lv.get("a", look) == 2          # pending wins
        assert lv.get("b", look) == 7
        assert lv.get("c", look) is None       # recorded delete
        assert lv.size() == 3
        lv.before_refresh()                    # map swap; writes race on
        lv.add("d", 9)
        assert lv.get("a", look) == 2          # old map still answers
        assert lv.get("d", look) == 9
        # searcher reopens with a/b/c applied:
        committed.update({"a": 2, "b": 7})
        lv.after_refresh()
        assert lv.size() == 1                  # only the racing write left
        assert lv.get("a", look) == 2          # now from the searcher
        assert lv.get("d", look) == 9          # still pending


@pytest.mark.usefixtures("ray_session")
class TestLineDedup:
    """CCNet-style boilerplate unit removal (Wenzek et al. 2020)."""

    def test_gate(self, con):
        from lucene_ray.ops import text as text_ops

        assert_same(
            text_ops.line_dedup(SF), con, text_ops.line_dedup_sql()
        )

    def test_boilerplate_removed_content_kept(self):
        from lucene_ray.ops.text import line_dedup

        df = to_pdf(line_dedup(SF))
        # every doc_id%6==0 doc carries BOTH injected units -> removed==2
        both = df[df.doc_id % 6 == 0]
        assert (both["removed"] == 2).all()
        # docs with neither injection lose nothing (natural sentences
        # are unique in the synthetic corpus)
        neither = df[(df.doc_id % 2 == 1) & (df.doc_id % 3 != 0)]
        assert (neither["removed"] == 0).all()
        assert (df["kept"] > 0).all()

    def test_threshold_is_a_free_parameter(self):
        from lucene_ray.ops.text import line_dedup

        # an impossible threshold removes nothing
        df = to_pdf(line_dedup(SF, min_docs=10_000))
        assert (df["removed"] == 0).all()


@pytest.mark.usefixtures("ray_session")
class TestCleanCorpus:
    """End-to-end cleaning pipeline composition gate."""

    def test_gate(self, con):
        from lucene_ray.ops import text as text_ops

        assert_same(
            text_ops.clean_corpus(SF), con, text_ops.clean_corpus_sql()
        )

    def test_stage_semantics(self):
        from collections import Counter

        from lucene_ray.ops.text import clean_corpus

        df = to_pdf(clean_corpus(SF))
        assert len(df) == 500
        stages = Counter(df["stage"])
        # 20 injected duplicates (doc_id % 25 == 7): 1 survives dedup,
        # 19 are cut there (the duplicate text passes lang + quality)
        dup_rows = df[df.doc_id % 25 == 7]
        assert Counter(dup_rows["stage"])["dedup"] == len(dup_rows) - 1
        # every stage value is from the pipeline's vocabulary and docs
        # actually get kept
        assert set(stages) <= {"lang", "quality", "dedup", "dsir", "kept"}
        assert stages["kept"] > 0 and stages["lang"] > 0
        # stage order: a doc failing lang is never marked dedup/dsir —
        # implied by the single stage column; spot the quality band
        q = df[df["stage"] == "quality"]
        assert len(q) > 0


@pytest.mark.usefixtures("ray_session")
class TestDsirResample:
    """DSIR Gumbel-top-k resampling with content-keyed deterministic
    noise."""

    def test_gate(self, con):
        from lucene_ray.ops import text as text_ops

        assert_same(
            text_ops.dsir_resample(SF), con, text_ops.dsir_resample_sql()
        )

    def test_deterministic_and_k_bound(self):
        from lucene_ray.ops.text import dsir_resample

        a = to_pdf(dsir_resample(SF, k=15))
        b = to_pdf(dsir_resample(SF, k=15))
        assert a.equals(b)  # content-keyed noise: identical across runs
        assert len(a) == 15
        # resample differs from plain weight top-k (the noise matters)
        from lucene_ray.ops.text import dsir_weights

        w = to_pdf(dsir_weights(SF)).sort_values(
            ["weight", "doc_id"], ascending=[False, True]
        ).head(15)
        assert set(a["doc_id"]) != set(w["doc_id"])

    def test_driver_never_reads_text(self, monkeypatch):
        """The content-keyed noise is computed inside the Ray Data pass:
        the driver only ever sees per-batch candidates, never a batch of
        document text."""
        import pyarrow as pa
        import ray.data

        from lucene_ray.ops.text import dsir_resample

        iter_batches = ray.data.Dataset.iter_batches

        def guarded(self, *args, **kwargs):
            for b in iter_batches(self, *args, **kwargs):
                names = b.column_names if isinstance(b, pa.Table) else list(b.keys())
                assert "text" not in names, "document text iterated on the driver"
                yield b

        monkeypatch.setattr(ray.data.Dataset, "iter_batches", guarded)
        assert len(dsir_resample(SF, k=5)) == 5
