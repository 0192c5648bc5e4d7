"""Driver contract for the graft builder (Ray Data target).

entry(): flagship inverted-index pipeline (synthetic source-code corpus ->
segment build -> TieredMergePolicy merge -> BM25 top-k via the scorer actor
pool) on a deterministic 1000-doc corpus.

queries()/oracle_sql(): both read ONE ordered gate table, _gates(): one
``(name, engine_fn, oracle_fn | None)`` row per implemented operator family
from SURVEY.md §2 (+ the training-data ops). A gate is one row: the engine
function takes an sf dir, the oracle function returns DuckDB SQL that must
reproduce the engine's output exactly (shared RE2 tokenization and float64
pipelines). Rows-only gates (no SQL form: a heuristic permutation, a
sequential training loop, quantized float32 ranking) have ``None`` in the
oracle slot, a one-line reason, and sit at the END of the table; their
duel/golden tests live in the test suite instead.

Row order is the driver-window order: the driver's CORRECTNESS file
records only the FIRST 50 queries() entries, so new and never-recorded
gates come first and rows-only gates last; the rest is re-run by
tools/check_correctness.py.

Ray is initialised by the driver BEFORE this module is imported: nothing
below calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    from lucene_ray.pipelines.flagship import run_flagship

    return run_flagship(n_docs=1000)


def _gates() -> tuple[tuple[str, Callable[[str], Any], Callable[[], str] | None], ...]:
    from lucene_ray.ops import (
        bm25docs, bp, dedup, hnsw, knn, multimodal, quant, relational, text,
    )

    return (
        # --- new in round 5
        ("clean_corpus", text.clean_corpus, text.clean_corpus_sql),
        ("dsir_resample", text.dsir_resample, text.dsir_resample_sql),
        ("line_dedup", text.line_dedup, text.line_dedup_sql),
        ("dsir_weights", text.dsir_weights, text.dsir_weights_sql),
        ("multireader_engine", bm25docs.multireader_engine,
         bm25docs.multireader_engine_sql),
        ("q3_shipping", relational.q3_shipping, relational.q3_shipping_sql),
        ("fstcompletion_suggest", bm25docs.fstcompletion_suggest,
         bm25docs.fstcompletion_suggest_sql),
        ("parallel_engine", bm25docs.parallel_engine, bm25docs.parallel_engine_sql),
        ("funcmatch_engine", bm25docs.funcmatch_engine, bm25docs.funcmatch_engine_sql),
        ("exprsort_engine", bm25docs.exprsort_engine, bm25docs.exprsort_engine_sql),
        ("spanpayload_engine", bm25docs.spanpayload_engine,
         bm25docs.spanpayload_engine_sql),
        ("knntext_classify", bm25docs.knntext_classify, bm25docs.knntext_classify_sql),
        ("knnfuzzy_classify", bm25docs.knnfuzzy_classify,
         bm25docs.knnfuzzy_classify_sql),
        ("nbdocclassify_engine", bm25docs.nbdocclassify_engine,
         bm25docs.nbdocclassify_engine_sql),
        ("searchquality_engine", bm25docs.searchquality_engine,
         bm25docs.searchquality_engine_sql),
        ("doc2vec_engine", bm25docs.doc2vec_engine, bm25docs.doc2vec_engine_sql),
        ("decomposed_percolate", bm25docs.decomposed_percolate,
         bm25docs.decomposed_percolate_sql),
        ("monitor_highlights", bm25docs.monitor_highlights,
         bm25docs.monitor_highlights_sql),
        ("datasetsplit_engine", bm25docs.datasetsplit_engine,
         bm25docs.datasetsplit_engine_sql),
        ("nbconfusion_engine", bm25docs.nbconfusion_engine,
         bm25docs.nbconfusion_engine_sql),
        ("hfpoint_engine", bm25docs.hfpoint_engine, bm25docs.hfpoint_engine_sql),
        ("fpnearest_engine", bm25docs.fpnearest_engine, bm25docs.fpnearest_engine_sql),
        ("fpmultirange_engine", bm25docs.fpmultirange_engine,
         bm25docs.fpmultirange_engine_sql),
        ("groupheads_engine", bm25docs.groupheads_engine,
         bm25docs.groupheads_engine_sql),
        ("distinctvalues_engine", bm25docs.distinctvalues_engine,
         bm25docs.distinctvalues_engine_sql),
        ("groupfacet_engine", bm25docs.groupfacet_engine,
         bm25docs.groupfacet_engine_sql),
        ("rangegroup_engine", bm25docs.rangegroup_engine,
         bm25docs.rangegroup_engine_sql),
        ("blockgroup_engine", bm25docs.blockgroup_engine,
         bm25docs.blockgroup_engine_sql),
        ("phonetic_doclen", text.phonetic_doclen, text.phonetic_doclen_sql),
        ("geo3d_engine", bm25docs.geo3d_engine, bm25docs.geo3d_engine_sql),
        ("bigpoint_engine", bm25docs.bigpoint_engine, bm25docs.bigpoint_engine_sql),
        ("distfeature_topk", bm25docs.distfeature_topk, bm25docs.distfeature_topk_sql),
        ("fuzzylikethis_terms", bm25docs.fuzzylikethis_terms,
         bm25docs.fuzzylikethis_terms_sql),
        ("facetset_counts", bm25docs.facetset_counts, bm25docs.facetset_counts_sql),
        ("multilongfacet_engine", bm25docs.multilongfacet_engine,
         bm25docs.multilongfacet_engine_sql),
        ("ssdvsort_engine", bm25docs.ssdvsort_engine, bm25docs.ssdvsort_engine_sql),
        ("dblpoint_engine", bm25docs.dblpoint_engine, bm25docs.dblpoint_engine_sql),
        ("cjk_stats", text.cjk_stats, text.cjk_stats_sql),
        ("fingerprint_stats", text.fingerprint_stats, text.fingerprint_stats_sql),
        ("tokenfilters_stats", text.tokenfilters_stats, text.tokenfilters_stats_sql),
        ("compound_stats", text.compound_stats, text.compound_stats_sql),
        ("pattern_stats", text.pattern_stats, text.pattern_stats_sql),
        ("srfold_stats", text.srfold_stats, text.srfold_stats_sql),
        ("urlemail_stats", text.urlemail_stats, text.urlemail_stats_sql),
        ("flexparser_engine", bm25docs.flexparser_engine,
         bm25docs.flexparser_engine_sql),
        ("extparser_engine", bm25docs.extparser_engine, bm25docs.extparser_engine_sql),
        ("lightstem_doclen", text.lightstem_doclen, text.lightstem_doclen_sql),
        ("sweetspot_topk", bm25docs.sweetspot_topk, bm25docs.sweetspot_topk_sql),
        ("commongrams_stats", text.commongrams_stats, text.commongrams_stats_sql),
        ("emoji_stats", text.emoji_stats, text.emoji_stats_sql),
        ("splitter_engine", bm25docs.splitter_engine, bm25docs.splitter_engine_sql),
        ("geo_nearest", bm25docs.geo_nearest, bm25docs.geo_nearest_sql),
        ("pack_sequences", text.pack_sequences, text.pack_sequences_sql),
        ("bboxfield_engine", bm25docs.bboxfield_engine, bm25docs.bboxfield_engine_sql),
        ("dedup_hotkeys", dedup.dedup_hotkeys, dedup.dedup_hotkeys_sql),
        ("parser_escape_engine", bm25docs.parser_escape_engine,
         bm25docs.parser_escape_engine_sql),
        ("shape_polygon_engine", bm25docs.shape_polygon_engine,
         bm25docs.shape_polygon_engine_sql),
        ("numjoin_engine", bm25docs.numjoin_engine, bm25docs.numjoin_engine_sql),
        ("numjoin_scored_engine", bm25docs.numjoin_scored_engine,
         bm25docs.numjoin_scored_engine_sql),
        ("snowball_doclen", text.snowball_doclen, text.snowball_doclen_sql),
        ("parser_regexp_engine", bm25docs.parser_regexp_engine,
         bm25docs.parser_regexp_engine_sql),
        ("gopher_quality", text.gopher_quality, text.gopher_quality_sql),
        ("globalordjoin_engine", bm25docs.globalordjoin_engine,
         bm25docs.globalordjoin_engine_sql),
        ("shape_line_engine", bm25docs.shape_line_engine,
         bm25docs.shape_line_engine_sql),
        ("shape_point_engine", bm25docs.shape_point_engine,
         bm25docs.shape_point_engine_sql),
        ("lm_logprob", text.lm_logprob, text.lm_logprob_sql),
        ("xmlparser_engine", bm25docs.xmlparser_engine, bm25docs.xmlparser_engine_sql),
        ("blended_infix_suggest", bm25docs.blended_infix_suggest,
         bm25docs.blended_infix_suggest_sql),
        # --- new in round 4
        ("dvstats_engine", bm25docs.dvstats_engine, bm25docs.dvstats_engine_sql),
        ("diversified_engine", bm25docs.diversified_engine,
         bm25docs.diversified_engine_sql),
        ("childjoin_engine", bm25docs.childjoin_engine, bm25docs.childjoin_engine_sql),
        ("longvaluefacet_engine", bm25docs.longvaluefacet_engine,
         bm25docs.longvaluefacet_engine_sql),
        ("simpleparser_engine", bm25docs.simpleparser_engine,
         bm25docs.simpleparser_engine_sql),
        ("termautomaton_engine", bm25docs.termautomaton_engine,
         bm25docs.termautomaton_engine_sql),
        ("memoryindex_engine", bm25docs.memoryindex_engine,
         bm25docs.memoryindex_engine_sql),
        ("highfreq_terms", bm25docs.highfreq_terms, bm25docs.highfreq_terms_sql),
        ("multirange_engine", bm25docs.multirange_engine,
         bm25docs.multirange_engine_sql),
        ("funcrange_engine", bm25docs.funcrange_engine, bm25docs.funcrange_engine_sql),
        ("complexphrase_engine", bm25docs.complexphrase_engine,
         bm25docs.complexphrase_engine_sql),
        ("blended_topk", bm25docs.blended_topk, bm25docs.blended_topk_sql),
        ("blended_engine", bm25docs.blended_engine, bm25docs.blended_engine_sql),
        ("indexsortrange_engine", bm25docs.indexsortrange_engine,
         bm25docs.indexsortrange_engine_sql),
        ("sortednumeric_engine", bm25docs.sortednumeric_engine,
         bm25docs.sortednumeric_engine_sql),
        ("binarydv_engine", bm25docs.binarydv_engine, bm25docs.binarydv_engine_sql),
        ("surround_engine", bm25docs.surround_engine, bm25docs.surround_engine_sql),
        ("ngramphrase_engine", bm25docs.ngramphrase_engine,
         bm25docs.ngramphrase_engine_sql),
        ("scoredjoin_engine", bm25docs.scoredjoin_engine,
         bm25docs.scoredjoin_engine_sql),
        ("allgroups_engine", bm25docs.allgroups_engine, bm25docs.allgroups_engine_sql),
        ("sampledfacet_engine", bm25docs.sampledfacet_engine,
         bm25docs.sampledfacet_engine_sql),
        ("doublerange_engine", bm25docs.doublerange_engine,
         bm25docs.doublerange_engine_sql),
        ("nbclassify_engine", bm25docs.nbclassify_engine,
         bm25docs.nbclassify_engine_sql),
        ("shape_engine", bm25docs.shape_engine, bm25docs.shape_engine_sql),
        ("fieldexists_engine", bm25docs.fieldexists_engine,
         bm25docs.fieldexists_engine_sql),
        ("knn_threshold", knn.knn_threshold, knn.knn_threshold_sql),
        ("combinedfield_topk", bm25docs.combinedfield_topk,
         bm25docs.combinedfield_topk_sql),
        ("combinedfield_engine", bm25docs.combinedfield_engine,
         bm25docs.combinedfield_engine_sql),
        ("dvquery_engine", bm25docs.dvquery_engine, bm25docs.dvquery_engine_sql),
        ("knn_diversified", knn.knn_diversified, knn.knn_diversified_sql),
        ("polygon_engine", bm25docs.polygon_engine, bm25docs.polygon_engine_sql),
        ("phrasewildcard_engine", bm25docs.phrasewildcard_engine,
         bm25docs.phrasewildcard_engine_sql),
        ("covering_engine", bm25docs.covering_engine, bm25docs.covering_engine_sql),
        ("fieldmask_engine", bm25docs.fieldmask_engine, bm25docs.fieldmask_engine_sql),
        ("multifield_engine", bm25docs.multifield_engine,
         bm25docs.multifield_engine_sql),
        ("spanops_engine", bm25docs.spanops_engine, bm25docs.spanops_engine_sql),
        ("lmdirichlet_topk", bm25docs.lmdirichlet_topk, bm25docs.lmdirichlet_topk_sql),
        ("dfr_topk", bm25docs.dfr_topk, bm25docs.dfr_topk_sql),
        ("dfi_topk", bm25docs.dfi_topk, bm25docs.dfi_topk_sql),
        ("ib_topk", bm25docs.ib_topk, bm25docs.ib_topk_sql),
        ("lmjm_topk", bm25docs.lmjm_topk, bm25docs.lmjm_topk_sql),
        ("axiomatic_topk", bm25docs.axiomatic_topk, bm25docs.axiomatic_topk_sql),
        ("dvsort_engine", bm25docs.dvsort_engine, bm25docs.dvsort_engine_sql),
        ("dvfacet_engine", bm25docs.dvfacet_engine, bm25docs.dvfacet_engine_sql),
        ("dvrange_engine", bm25docs.dvrange_engine, bm25docs.dvrange_engine_sql),
        ("payload_engine", bm25docs.payload_engine, bm25docs.payload_engine_sql),
        ("unicode_stats", text.unicode_stats, text.unicode_stats_sql),
        ("analyzing_suggest", bm25docs.analyzing_suggest,
         bm25docs.analyzing_suggest_sql),
        ("fuzzy_suggest", bm25docs.fuzzy_suggest, bm25docs.fuzzy_suggest_sql),
        ("softdelete_engine", bm25docs.softdelete_engine,
         bm25docs.softdelete_engine_sql),
        ("rangefield_engine", bm25docs.rangefield_engine,
         bm25docs.rangefield_engine_sql),
        ("replica_engine", bm25docs.replica_engine, bm25docs.replica_engine_sql),
        ("media_decode", multimodal.media_decode, multimodal.media_decode_sql),
        # --- never recorded by the driver through r3 (VERDICT r3 item 2):
        # these 9 sat past position 50 every round; front-load them so
        # CORRECTNESS_r04 finally witnesses them.
        ("repetition_stats", text.repetition_stats, text.repetition_stats_sql),
        ("freetext_suggest", text.freetext_suggest, text.freetext_suggest_sql),
        ("pii_scrub", text.pii_scrub, text.pii_scrub_sql),
        ("dedup_apply", dedup.dedup_apply, dedup.dedup_apply_sql),
        ("substring_dup", dedup.substring_dup_stats, dedup.substring_dup_sql),
        # HNSW at the gate ef (128) is rank-identical to brute force on the
        # gate corpora (verified at sf0.001/0.01/0.1); low-ef approximate
        # recall is pinned in tests/test_hnsw.py
        ("knn_hnsw", hnsw.knn_hnsw, knn.knn_bruteforce_sql),
        # int7 scalar-quantized scan + exact re-rank of the oversampled
        # candidates: rank-identical to brute force whenever the candidate
        # set covers the true top-k (verified at gate oversample on all gate
        # corpora; quantized-only recall pinned in tests/test_quant.py)
        ("knn_quantized", quant.knn_quantized, knn.knn_bruteforce_sql),
        ("knn_classify", knn.knn_classify, knn.knn_classify_sql),
        ("media_features", multimodal.media_features_summary,
         multimodal.media_features_summary_sql),
        # --- inverted index + search (engine; SURVEY.md §2.1/2.4/2.6/2.11)
        ("bm25_topk", bm25docs.bm25_topk, bm25docs.bm25_topk_sql),
        ("tfidf_topk", bm25docs.tfidf_topk, bm25docs.tfidf_topk_sql),
        ("boolean_engine", bm25docs.boolean_engine, bm25docs.boolean_engine_sql),
        ("phrase_engine", bm25docs.phrase_engine, bm25docs.phrase_engine_sql),
        ("multiphrase_engine", bm25docs.multiphrase_engine,
         bm25docs.multiphrase_engine_sql),
        ("multiterm_engine", bm25docs.multiterm_engine, bm25docs.multiterm_engine_sql),
        ("parser_engine", bm25docs.parser_engine, bm25docs.parser_engine_sql),
        ("update_engine", bm25docs.update_engine, bm25docs.update_engine_sql),
        ("dvupdate_engine", bm25docs.dvupdate_engine, bm25docs.dvupdate_engine_sql),
        ("field_engine", bm25docs.field_engine, bm25docs.field_engine_sql),
        ("points_engine", bm25docs.points_engine, bm25docs.points_engine_sql),
        ("spatial_engine", bm25docs.spatial_engine, bm25docs.spatial_engine_sql),
        ("sort_engine", bm25docs.sort_engine, bm25docs.sort_engine_sql),
        ("facet_engine", bm25docs.facet_engine, bm25docs.facet_engine_sql),
        ("taxfacet_engine", bm25docs.taxfacet_engine, bm25docs.taxfacet_engine_sql),
        ("drillsideways_engine", bm25docs.drillsideways_engine,
         bm25docs.drillsideways_engine_sql),
        # the distributed facet/range/taxonomy paths are result-identical
        # to the local ones
        ("distfacet_engine", bm25docs.distfacet_engine, bm25docs.facet_engine_sql),
        ("distsort_engine", bm25docs.distsort_engine, bm25docs.distsort_engine_sql),
        ("distrange_engine", bm25docs.distrange_engine, bm25docs.rangefacet_engine_sql),
        ("disttax_engine", bm25docs.disttax_engine, bm25docs.taxfacet_engine_sql),
        ("rangefacet_engine", bm25docs.rangefacet_engine,
         bm25docs.rangefacet_engine_sql),
        ("assocfacet_engine", bm25docs.assocfacet_engine,
         bm25docs.assocfacet_engine_sql),
        ("join_engine", bm25docs.join_engine, bm25docs.join_engine_sql),
        ("blockjoin_engine", bm25docs.blockjoin_engine, bm25docs.blockjoin_engine_sql),
        ("feature_engine", bm25docs.feature_engine, bm25docs.feature_engine_sql),
        ("exprscore_engine", bm25docs.exprscore_engine, bm25docs.exprscore_engine_sql),
        ("suggest_engine", bm25docs.suggest_engine, bm25docs.suggest_engine_sql),
        ("wordbreak_engine", bm25docs.wordbreak_engine, bm25docs.wordbreak_engine_sql),
        ("percolate_engine", bm25docs.percolate_engine, bm25docs.percolate_engine_sql),
        ("mlt_engine", bm25docs.mlt_engine, bm25docs.mlt_engine_sql),
        ("group_engine", bm25docs.group_engine, bm25docs.group_engine_sql),
        ("span_engine", bm25docs.span_engine, bm25docs.span_engine_sql),
        ("intervals_engine", bm25docs.intervals_engine, bm25docs.intervals_engine_sql),
        ("indexsort_engine", bm25docs.indexsort_engine, bm25docs.indexsort_engine_sql),
        ("count_engine", bm25docs.count_engine, bm25docs.count_engine_sql),
        ("complete_engine", bm25docs.complete_engine, bm25docs.complete_engine_sql),
        ("infix_engine", bm25docs.infix_engine, bm25docs.infix_engine_sql),
        ("synonym_engine", bm25docs.synonym_engine, bm25docs.synonym_engine_sql),
        ("multisyn_engine", bm25docs.multisyn_engine, bm25docs.multisyn_engine_sql),
        ("folding_engine", bm25docs.folding_engine, bm25docs.folding_engine_sql),
        ("termvector_engine", bm25docs.termvector_engine,
         bm25docs.termvector_engine_sql),
        ("htmlstrip_engine", bm25docs.htmlstrip_engine, bm25docs.htmlstrip_engine_sql),
        ("addindexes_engine", bm25docs.addindexes_engine,
         bm25docs.addindexes_engine_sql),
        ("commonterms_engine", bm25docs.commonterms_engine,
         bm25docs.commonterms_engine_sql),
        # --- analysis chain + aggregations (§2.2/2.5)
        ("term_stats", text.term_stats, text.term_stats_sql),
        ("whitespace_stats", text.whitespace_stats, text.whitespace_stats_sql),
        ("ngram_stats", text.ngram_stats, text.ngram_stats_sql),
        ("edgengram_stats", text.edgengram_stats, text.edgengram_stats_sql),
        ("shingle_stats", text.shingle_stats, text.shingle_stats_sql),
        ("doc_token_stats", text.doc_token_stats, text.doc_token_stats_sql),
        ("text_quality", text.text_quality, text.text_quality_sql),
        ("lang_id", text.lang_id, text.lang_id_sql),
        # fingerprint kernel gated through its shift identity (raw values
        # stay available as lucene_ray.ops.text.fingerprint; DuckDB cannot
        # reproduce the engine-defined hash family, the identity it CAN)
        ("fingerprint_shift", text.fingerprint_shift, text.fingerprint_shift_sql),
        ("bpe_token_count", text.bpe_token_count, text.bpe_token_count_sql),
        ("sample_hash", text.sample_hash, text.sample_hash_sql),
        ("stratified_sample", text.stratified_sample, text.stratified_sample_sql),
        # --- dedup family (training-data ops)
        ("dedup_exact", dedup.dedup_exact, dedup.dedup_exact_sql),
        ("content_sha", dedup.content_sha, dedup.content_sha_sql),
        ("ngram_jaccard_pairs", dedup.ngram_jaccard_pairs, dedup.ngram_jaccard_sql),
        ("dedup_clusters", dedup.dedup_clusters, dedup.dedup_clusters_sql),
        ("contamination_check", dedup.contamination_check,
         dedup.contamination_check_sql),
        # LSH candidates verified by exact Jaccard == the exact pair set
        # (full recall at the gate's fixed corpus + seeds; see docstring)
        ("minhash_lsh_pairs", dedup.minhash_lsh_pairs, dedup.ngram_jaccard_sql),
        # simhash kernel gated through Hamming-vs-Jaccard consistency (raw
        # values: lucene_ray.ops.dedup.simhash64)
        ("simhash_hamming", dedup.simhash_hamming, dedup.simhash_hamming_sql),
        ("embedding_dup_pairs", dedup.embedding_dup_pairs, dedup.embedding_dup_sql),
        # --- similarity search
        ("knn_bruteforce", knn.knn_bruteforce, knn.knn_bruteforce_sql),
        # multi-probe LSH is rank-identical to brute force on the gate data
        # (recall 1.0, deterministic planes/corpus — verified, stable); the
        # approximate-general-case recall bound lives in pytest
        ("knn_lsh", knn.knn_lsh, knn.knn_bruteforce_sql),
        # IVF gate probes every list (exact mode — drives quantizer/build/
        # partition-pruned read; see knn_ivf_exact docstring); approximate
        # recall-vs-nprobe is pinned in pytest
        ("knn_ivf", knn.knn_ivf_exact, knn.knn_bruteforce_sql),
        ("knn_filtered", knn.knn_filtered, knn.knn_filtered_sql),
        # --- relational / windowed demos (engine breadth)
        ("q1_pricing", relational.q1_pricing, relational.q1_pricing_sql),
        ("top_orders", relational.top_orders, relational.top_orders_sql),
        ("nation_order_stats", relational.nation_order_stats,
         relational.nation_order_stats_sql),
        ("events_tumbling", relational.events_tumbling, relational.events_tumbling_sql),
        ("events_hopping", relational.events_hopping, relational.events_hopping_sql),
        ("sessionize", relational.sessionize, relational.sessionize_sql),
        # --- rows-only: no SQL oracle, so they go last
        # a training loop with batch-stale weight snapshots has no SQL form;
        # update math pinned in tests/test_ops.py::TestBooleanPerceptron
        ("perceptron_classify", bm25docs.perceptron_classify, None),
        # a bisection heuristic's permutation has no SQL oracle;
        # validity/quality/determinism pinned by tests/test_bp.py
        ("bp_reorder", bp.bp_reorder, None),
        # quantized-norm float32 ranking; duel/golden tests
        ("bm25_topk_engine", bm25docs.bm25_topk_engine, None),
    )


def queries() -> dict[str, Callable[[str], Any]]:
    return {name: engine for name, engine, _oracle in _gates()}


def oracle_sql() -> dict[str, str]:
    return {
        name: oracle() for name, _engine, oracle in _gates() if oracle is not None
    }
