"""Index-backed Naive Bayes text classification
(classification/SimpleNaiveBayesClassifier.java): classify an unseen text
against the classes of a keyword field using only index statistics —
log P(c|d) ∝ logPrior(c) + Σ_w log P(w|c) with add-one smoothing:

  prior      = ln(df_c) - ln(docsWithClass)           (:279-281)
  P(w|c)     = (hits(w, c) + 1) / (avgUniqueTermsPerDoc * df_c
                                   + docsWithClass)   (:209-231, :241-252)
  avgUnique  = sumDocFreq(content) / docCount(content)

Float protocol: every ln is scalar math.log and the per-token log sum is
LEFT-ASSOCIATIVE in the text's token order — the SQL oracle mirrors the
exact chain, so scores are bit-identical (repo float-oracle rules).
Complements the kNN classifier (ops/knn.py knn_classify).
"""

from __future__ import annotations

import math

from lucene_ray.search.query import BooleanQuery, TermQuery

__all__ = ["SimpleNaiveBayesClassifier"]


class SimpleNaiveBayesClassifier:
    def __init__(self, searcher, class_field: str = "lang"):
        self.searcher = searcher
        self.class_field = class_field
        reader = searcher.reader
        # content collection stats, column-pruned (term, df) reads
        import pyarrow.parquet as pq

        from lucene_ray.index import segfiles

        sum_doc_freq = 0
        for entry in reader.segments:
            sr = reader.segment_reader(entry.name)
            t = pq.read_table(
                segfiles.POSTINGS.path(sr.seg_dir),
                columns=["term", "df"],
                memory_map=True,
            )
            import pyarrow.compute as pc

            mask = pc.invert(pc.match_substring(t.column("term"), ":"))
            sum_doc_freq += int(
                pc.sum(t.filter(mask).column("df")).as_py() or 0
            )
            # docCount(content): docs with at least one content token
        doc_count_content = 0
        for entry in reader.segments:
            sr = reader.segment_reader(entry.name)
            doc_count_content += int((sr.doc_len > 0).sum())
        self.sum_doc_freq = sum_doc_freq
        self.doc_count_content = doc_count_content
        # classes from the keyword term dictionary ('field:value' side)
        prefix = f"{class_field}:"
        vocab = reader.vocabulary(include_fields=True)
        self.classes = sorted(
            str(t)[len(prefix):] for t in vocab.tolist() if str(t).startswith(prefix)
        )
        # docsWithClass (countDocsWithClass:167): docs holding ANY class value
        self.docs_with_class = sum(
            self._count([TermQuery(f"{prefix}{c}")]) for c in self.classes
        )

    def _count(self, must: list) -> int:
        return self.searcher.count(BooleanQuery(must=must))

    def assign_classes(self, text: str) -> list[tuple[str, float]]:
        """All classes scored, (score desc, class asc) — the reference's
        assignClasses ranking (normalization omitted: it is monotonic)."""
        tokens = self.searcher.analyzer.tokenize_text(text)
        avg_unique = self.sum_doc_freq / self.doc_count_content
        out = []
        for c in self.classes:
            cls_term = TermQuery(f"{self.class_field}:{c}")
            df_c = self._count([cls_term])
            if df_c == 0:
                continue
            prior = math.log(df_c) - math.log(self.docs_with_class)
            den = avg_unique * df_c + self.docs_with_class
            loglik = 0.0
            for w in tokens:
                hits = self._count([TermQuery(w), cls_term])
                loglik += math.log((hits + 1) / den)
            out.append((c, prior + loglik))
        out.sort(key=lambda kv: (-kv[1], kv[0]))
        return out

    def assign_class(self, text: str) -> str | None:
        res = self.assign_classes(text)
        return res[0][0] if res else None


class CachingNaiveBayesClassifier(SimpleNaiveBayesClassifier):
    """CachingNaiveBayesClassifier (classification/
    CachingNaiveBayesClassifier.java): identical results to SimpleNaiveBayes
    with the per-(word, class) hit counts memoized across calls (the
    reference's reInitCache word->class map). Scores are bit-identical to
    the parent — only the count lookups are cached."""

    def __init__(self, searcher, class_field: str = "lang"):
        self._cache: dict[tuple, int] = {}  # before super(): __init__ counts
        super().__init__(searcher, class_field)

    def _count(self, must: list) -> int:
        key = tuple(sorted(q.term for q in must))
        if key not in self._cache:
            self._cache[key] = super()._count(must)
        return self._cache[key]


def dataset_split(
    searcher,
    class_field: str = "lang",
    test_ratio: float = 0.2,
    cv_ratio: float = 0.1,
) -> tuple:
    """DatasetSplitter.split (classification/utils/DatasetSplitter.java:80-165)
    as a closed form: the reference walks classes grouped by
    Sort.INDEXORDER (groups ordered by first docid, docs within a group in
    docid order) with a GLOBAL doc counter b, assigning doc -> test when
    (b even AND tc < n_class*test_ratio), else -> cv when
    (cvc < n_class*cv_ratio), else train. Because b increments on EVERY
    doc regardless of assignment, the loop is equivalent to two rank
    predicates: an even-b doc is test iff its 0-based rank among the
    class's even-b docs < n*test_ratio, and a non-test doc is cv iff its
    0-based rank among the class's non-test docs < n*cv_ratio (induction:
    every earlier candidate under the cap was admitted). The closed form
    is pure window arithmetic — it distributes as map_batches over
    (class, docid) ranks at scale, unlike the sequential loop.

    Returns (docids, splits) — int64 global docids ascending and a
    parallel object array of 'train' | 'test' | 'cv'."""
    import numpy as np

    from lucene_ray.search.engine import fetch_stored
    from lucene_ray.search.query import BooleanQuery, MatchAllDocsQuery

    docids = searcher.matching_docs(BooleanQuery(must=[MatchAllDocsQuery()]))
    if len(docids) == 0:
        return docids, np.array([], dtype=object)
    stored = fetch_stored(searcher.reader, docids)
    cls = np.asarray(stored.column(class_field).to_pylist(), dtype=object)
    splits = np.empty(len(docids), dtype=object)
    # group order = first docid per class; docids is ascending, so the
    # class of each first occurrence orders the groups (reference
    # GroupingSearch groupSort=INDEXORDER) — and b is the global rank in
    # (group, docid) order
    _, first_idx = np.unique(cls, return_index=True)
    group_order = {cls[i]: i for i in np.sort(first_idx)}
    order = np.lexsort((docids, np.array([group_order[c] for c in cls])))
    b = np.empty(len(docids), dtype=np.int64)
    b[order] = np.arange(len(docids))
    for c in group_order:
        sel = np.nonzero(cls == c)[0]  # docid-asc within the class
        n = len(sel)
        even = b[sel] % 2 == 0
        tc_before = np.cumsum(even) - even  # 0-based even rank
        is_test = even & (tc_before < n * test_ratio)
        non_test = ~is_test
        cvc_before = np.cumsum(non_test) - non_test
        is_cv = non_test & (cvc_before < n * cv_ratio)
        s = np.where(is_test, "test", np.where(is_cv, "cv", "train"))
        splits[sel] = s
    return docids, splits


def confusion_matrix(
    train_searcher,
    test_items,
    class_field: str = "lang",
) -> list[tuple[str, str, int]]:
    """ConfusionMatrixGenerator.getConfusionMatrix (classification/utils/
    ConfusionMatrixGenerator.java): classify each (actual, text) test item
    with SimpleNaiveBayes trained on ``train_searcher`` and count
    (actual, predicted) pairs. Returns sorted (actual, predicted, n).

    Scoring is the SimpleNaiveBayesClassifier chain verbatim (prior +
    left-assoc per-token ln sums, math.log floats — bit-identical to the
    SQL oracle); the per-token class hit counts come from ONE term match
    set per distinct token (matched docs' stored class gather), cached across
    test items — the CachingNaiveBayes strategy, same counts as the
    per-class conjunction counts."""
    from collections import Counter

    from lucene_ray.search.engine import fetch_stored

    clf = SimpleNaiveBayesClassifier(train_searcher, class_field)
    avg_unique = clf.sum_doc_freq / clf.doc_count_content
    dwc = clf.docs_with_class
    params = []
    for c in clf.classes:
        df_c = clf._count([TermQuery(f"{class_field}:{c}")])
        if df_c == 0:
            continue
        params.append(
            (c, math.log(df_c) - math.log(dwc), avg_unique * df_c + dwc)
        )
    cache: dict[str, Counter] = {}

    def class_hits(w: str) -> Counter:
        if w not in cache:
            docids = train_searcher.matching_docs(BooleanQuery(must=[TermQuery(w)]))
            if len(docids) == 0:
                cache[w] = Counter()
            else:
                stored = fetch_stored(train_searcher.reader, docids)
                cache[w] = Counter(stored.column(class_field).to_pylist())
        return cache[w]

    matrix: Counter = Counter()
    for actual, text in test_items:
        tokens = train_searcher.analyzer.tokenize_text(text)
        best = None
        for c, prior, den in params:
            loglik = 0.0
            for w in tokens:
                loglik += math.log((class_hits(w)[c] + 1) / den)
            score = prior + loglik
            if best is None or score > best[0] or (
                score == best[0] and c < best[1]
            ):
                best = (score, c)
        if best is not None:
            matrix[(actual, best[1])] += 1
    return sorted((a, p, n) for (a, p), n in matrix.items())


def doc_to_sparse_vector(reader, docid: int) -> list[tuple[str, float]]:
    """DocToDoubleVectorUtils.toSparseLocalizedDoubleVector
    (classification/utils/DocToDoubleVectorUtils.java): the doc's term
    vector as (term, freq) doubles in term order — requires
    build_index(term_vectors=True)."""
    import numpy as np

    tv = reader.term_vectors(np.array([docid], dtype=np.int64))
    rows = sorted(
        zip(tv.column("term").to_pylist(), tv.column("freq").to_pylist())
    )
    return [(t, float(f)) for t, f in rows]


def doc_to_dense_vector(reader, docid: int, vocabulary) -> "np.ndarray":
    """DocToDoubleVectorUtils.toDenseVector: freqs over a shared
    ``vocabulary`` (the reference walks the field's full terms enum; any
    sorted vocabulary slice works the same way), absent terms 0.0."""
    import numpy as np

    out = np.zeros(len(vocabulary), dtype=np.float64)
    idx = {t: i for i, t in enumerate(vocabulary)}
    for t, f in doc_to_sparse_vector(reader, docid):
        i = idx.get(t)
        if i is not None:
            out[i] = f
    return out


def boosted_term_topk(reader, sel, k, n_docs, avgdl, k1=1.2, b=0.75):
    """Top-k docs of a boosted term disjunction under the float64
    exact-twin BM25 (shared by KNearestFuzzyClassifier and the MLT-based
    KNearestNeighborClassifier): per (term, boost) in ``sel`` ORDER,
    contrib = (boost * idf) * tfn with idf = ln(1 + (N - df + 0.5) /
    (df + 0.5)) and tfn = tf*(k1+1)/(tf + k1*(1-b + b*dl/avgdl)) over
    exact integer doc lengths. Returns (global docids, float64 scores),
    (score desc, docid asc)."""
    import numpy as np

    dfs = reader.global_term_stats([v for v, _ in sel])
    docs_all, scores_all = [], []
    for e in reader.segments:
        sr = reader.segment_reader(e.name)
        dl = sr.doc_len.astype(np.float64)
        scores = np.zeros(len(dl), dtype=np.float64)
        matched = np.zeros(len(dl), dtype=bool)
        for v, boost in sel:
            tp = sr.postings(v)
            if tp is None or len(tp.docids) == 0:
                continue
            df = dfs[v][0]
            idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
            tf = tp.tfs.astype(np.float64)
            d = tp.docids
            tfn = (tf * (k1 + 1.0)) / (
                tf + k1 * (1.0 - b + b * dl[d] / avgdl)
            )
            scores[d] += (boost * idf) * tfn
            matched[d] = True
        if sr.live_mask is not None:
            matched &= sr.live_mask
        hit = np.nonzero(matched)[0]
        if len(hit):
            docs_all.append(hit.astype(np.int64) + e.docid_base)
            scores_all.append(scores[hit])
    if not docs_all:
        import numpy as np

        return np.array([], dtype=np.int64), np.array([], dtype=np.float64)
    docs = np.concatenate(docs_all)
    scores = np.concatenate(scores_all)
    order = np.lexsort((docs, -scores))[:k]
    return docs[order], scores[order]


def build_list_from_topdocs(
    reader, docids, scores, k, class_field: str
) -> list[tuple[str, float]]:
    """buildListFromTopDocs (KNearestNeighborClassifier.java:186-230 ==
    KNearestFuzzyClassifier.java:157-200): per class among the top docs,
    count and boost = sum(score/maxScore) in rank order; result =
    (count * (boost/count)) / k, scaled by k/sumdoc when fewer than k
    docs matched. Returns (score desc, class asc)."""
    from lucene_ray.search.engine import fetch_stored

    if len(docids) == 0:
        return []
    stored = fetch_stored(reader, docids)
    classes = stored.column(class_field).to_pylist()
    max_score = float(scores[0])
    counts: dict[str, int] = {}
    boosts: dict[str, float] = {}
    for c, s in zip(classes, scores.tolist()):
        counts[c] = counts.get(c, 0) + 1
        boosts[c] = boosts.get(c, 0.0) + s / max_score
    sumdoc = sum(counts.values())
    out = []
    for c, cnt in counts.items():
        norm_boost = boosts[c] / cnt
        score = (cnt * norm_boost) / k
        if sumdoc < k:
            score = score * k / sumdoc
        out.append((c, score))
    out.sort(key=lambda kv: (-kv[1], kv[0]))
    return out



class KNearestFuzzyClassifier:
    """KNearestFuzzyClassifier over NearestFuzzyQuery (classification/
    KNearestFuzzyClassifier.java + classification/utils/
    NearestFuzzyQuery.java — the reference notes it is adapted from
    FuzzyLikeThisQuery, and the repo's fuzzy staging mirrors that:
    search/fuzzylikethis.py). Reference constants: maxEdits=1,
    prefixLength=2, MAX_VARIANTS_PER_TERM=50, MAX_NUM_TERMS=300
    (NearestFuzzyQuery.java:53-55,117).

    Float64 exact-twin protocol (the similarity-family stance): variant
    selection restages the FuzzyLikeThis pipeline in pure float64
    (boost = 1 - ed/min(|v|,|t|); score = boost^2 * (ln((N+1)/(df+1))+1),
    scalar math.log; zero-df source falls back to the integer-mean
    variant df), and doc scores are per-ScoreTerm boosted EXACT BM25 over
    index postings with exact integer doc lengths — never the quantized
    norm bytes — contrib = (st_score * idf) * tfn, idf =
    ln(1 + (N - df + 0.5)/(df + 0.5)), tfn = tf*(k1+1) / (tf + k1*(1-b +
    b*dl/avgdl)), k1=1.2 b=0.75, accumulated per doc in selection order.
    Votes follow buildListFromTopDocs (KNearestFuzzyClassifier.java:
    157-200): per class among the top k docs, count and boost =
    sum(score/maxScore) in rank order; result = (count * (boost/count))/k,
    scaled by k/sumdoc when fewer than k docs matched. Every float op is
    mirrored one-for-one by the SQL oracle, so scores are bit-identical."""

    K1 = 1.2
    B = 0.75

    def __init__(
        self,
        searcher,
        k: int = 10,
        class_field: str = "lang",
        max_edits: int = 1,
        prefix_length: int = 2,
        max_num_terms: int = 300,
    ):
        self.searcher = searcher
        self.reader = searcher.reader
        self.k = k
        self.class_field = class_field
        self.max_edits = max_edits
        self.prefix_length = prefix_length
        self.max_num_terms = max_num_terms
        r = self.reader
        self.n_docs = r.doc_count
        self.dl_sum = sum(
            int(r.segment_reader(e.name).doc_len.sum()) for e in r.segments
        )
        self.avgdl = self.dl_sum / self.n_docs

    def selected_terms(self, text: str) -> list[tuple[str, float]]:
        """(variant, float64 score) ScoreTerms, (score desc, variant asc),
        top max_num_terms — duplicates kept (two source terms may select
        the same variant; the reference queue holds both entries)."""
        from lucene_ray.search.fuzzylikethis import (
            MAX_VARIANTS_PER_TERM,
            FuzzyLikeThisQuery,
        )

        flt = FuzzyLikeThisQuery(self.max_num_terms)
        vocab = self.reader.vocabulary()
        n = self.n_docs
        out: list[tuple[float, str]] = []
        seen: set[str] = set()
        for term in self.searcher.analyzer.tokenize_text(text):
            if term in seen:
                continue
            seen.add(term)
            variants = flt._variants(
                vocab, term, self.max_edits, self.prefix_length
            )
            if not variants:
                continue
            terms = [v for v, _ed in variants]
            stats = self.reader.global_term_stats(
                list(dict.fromkeys(terms + [term]))
            )
            scored = []
            for v, ed in variants:
                boost = 1.0 if ed == 0 else 1.0 - ed / min(len(v), len(term))
                scored.append((boost, v))
            scored.sort(key=lambda bv: (-bv[0], bv[1]))
            top = scored[:MAX_VARIANTS_PER_TERM]
            df = stats[term][0]
            if df == 0:
                df = sum(stats[v][0] for v in terms) // len(terms)
            idf = math.log((n + 1) / (df + 1)) + 1.0
            for boost, v in top:
                out.append(((boost * boost) * idf, v))
        out.sort(key=lambda sv: (-sv[0], sv[1]))
        return [(v, s) for s, v in out[: self.max_num_terms]]

    def knn_topk(self, text: str):
        """Top-k (global docids, float64 scores), (score desc, docid
        asc) — the knnSearch TopDocs (boosted_term_topk twin)."""
        sel = self.selected_terms(text)
        return boosted_term_topk(
            self.reader, sel, self.k, self.n_docs, self.avgdl,
            k1=self.K1, b=self.B,
        )

    def assign_classes(self, text: str) -> list[tuple[str, float]]:
        """All classes among the top-k, (score desc, class asc) —
        buildListFromTopDocs verbatim."""
        docs, scores = self.knn_topk(text)
        return build_list_from_topdocs(
            self.reader, docs, scores, self.k, self.class_field
        )

    def assign_class(self, text: str) -> str | None:
        res = self.assign_classes(text)
        return res[0][0] if res else None


def norm_classification_results(
    results: list[tuple[str, float]],
) -> list[tuple[str, float]]:
    """normClassificationResults (SimpleNaiveBayesClassifier.java:293-319):
    log-sum-exp softmax of the class log-scores into a 0-1 range —
    strictly order-preserving, so rankings are unchanged. Input must be
    sorted (score desc, class asc); the same order is returned."""
    if not results:
        return []
    smax = results[0][1]
    sum_log = 0.0
    for _c, s in results:
        sum_log += math.exp(s - smax)
    loga = smax + math.log(sum_log)
    return [(c, math.exp(s - loga)) for c, s in results]


class SimpleNaiveBayesDocumentClassifier:
    """Document-input Naive Bayes (classification/document/
    SimpleNaiveBayesDocumentClassifier.java:107-225): field names may
    carry boosts ('content^2.0', :156-171); each field VALUE contributes
    prior + (loglik / #tokens) * boost — the per-value prior accumulation
    and the token-count normalization are the semantic differences from
    the string classifier; classScore sums fields in spec order, values
    in input order (left-assoc float chains, mirrored by the oracle).
    The public getClasses() normalizes through log-sum-exp
    (norm_classification_results) — monotonic, pinned by tests; the gate
    compares the raw log scores.

    Field support: 'content' (the shared analyzed field). Empty values
    are rejected loudly (the reference divides by a zero token count —
    NaN; refusing is this repo's documented stance on silent NaNs)."""

    def __init__(self, searcher, field_specs=("content",), class_field="lang"):
        self.searcher = searcher
        self._nb = SimpleNaiveBayesClassifier(searcher, class_field)
        self.fields: list[tuple[str, float]] = []
        for spec in field_specs:
            if "^" in spec:
                name, b = spec.split("^", 1)
                self.fields.append((name, float(b)))
            else:
                self.fields.append((spec, 1.0))
        for name, _b in self.fields:
            if name != "content":
                raise ValueError(
                    "only the shared 'content' analyzed field is classifiable"
                )

    def assign_classes(
        self, doc: dict[str, list[str]], normalize: bool = True
    ) -> list[tuple[str, float]]:
        nb = self._nb
        avg_unique = nb.sum_doc_freq / nb.doc_count_content
        dwc = nb.docs_with_class
        out = []
        for c in nb.classes:
            cls_term = TermQuery(f"{nb.class_field}:{c}")
            df_c = nb._count([cls_term])
            if df_c == 0:
                continue
            prior = math.log(df_c) - math.log(dwc)
            den = avg_unique * df_c + dwc
            class_score = 0.0
            for field, boost in self.fields:
                field_score = 0.0
                for value in doc.get(field, []):
                    tokens = self.searcher.analyzer.tokenize_text(value)
                    if not tokens:
                        raise ValueError(
                            "empty field value: the reference divides the "
                            "log-likelihood by a zero token count (NaN)"
                        )
                    ll = 0.0
                    for w in tokens:
                        hits = nb._count([TermQuery(w), cls_term])
                        ll += math.log((hits + 1) / den)
                    field_score += prior + (ll / len(tokens)) * boost
                class_score += field_score
            out.append((c, class_score))
        out.sort(key=lambda kv: (-kv[1], kv[0]))
        return norm_classification_results(out) if normalize else out

    def assign_class(self, doc: dict[str, list[str]]) -> str | None:
        res = self.assign_classes(doc, normalize=False)
        return res[0][0] if res else None


class KNearestNeighborClassifier:
    """KNearestNeighborClassifier (classification/
    KNearestNeighborClassifier.java): MLT-based text kNN — MoreLikeThis
    selects the text's most interesting terms with setBoost(true), so
    each term query is boosted by score/bestScore (MoreLikeThis.java:
    595-605); the top-k matching docs vote through buildListFromTopDocs.
    Float64 exact-twin protocol: term selection reuses the MLT tf*idf
    staging (idf = 1 + ln(N/(df+1)), search/mlt.py — oracle-proven by
    mlt_engine) in float64, doc scores run boosted_term_topk's exact
    BM25."""

    K1 = 1.2
    B = 0.75

    def __init__(
        self,
        searcher,
        k: int = 10,
        class_field: str = "lang",
        max_query_terms: int = 25,
        min_term_freq: int = 2,
        min_doc_freq: int = 5,
    ):
        self.searcher = searcher
        self.reader = searcher.reader
        self.k = k
        self.class_field = class_field
        self.max_query_terms = max_query_terms
        self.min_term_freq = min_term_freq
        self.min_doc_freq = min_doc_freq
        r = self.reader
        self.n_docs = r.doc_count
        self.dl_sum = sum(
            int(r.segment_reader(e.name).doc_len.sum()) for e in r.segments
        )
        self.avgdl = self.dl_sum / self.n_docs

    def selected_terms(self, text: str) -> list[tuple[str, float]]:
        """(term, boost): MLT top terms with score/bestScore boosts,
        (tf*idf desc, term asc) order — the first term's boost is exactly
        1.0."""
        from collections import Counter

        tfs = Counter(self.searcher.analyzer.tokenize_text(text))
        cand = sorted(
            t for t, c in tfs.items() if c >= self.min_term_freq
        )
        if not cand:
            return []
        stats = self.reader.global_term_stats(cand)
        n = float(self.n_docs)
        scored = []
        for t in cand:
            df = stats.get(t, (0, 0))[0]
            if df < self.min_doc_freq:
                continue
            idf = 1.0 + math.log(n / (df + 1.0))
            scored.append((tfs[t] * idf, t))
        scored.sort(key=lambda sv: (-sv[0], sv[1]))
        top = scored[: self.max_query_terms]
        if not top:
            return []
        best = top[0][0]
        return [(t, s / best) for s, t in top]

    def knn_topk(self, text: str):
        sel = self.selected_terms(text)
        return boosted_term_topk(
            self.reader, sel, self.k, self.n_docs, self.avgdl,
            k1=self.K1, b=self.B,
        )

    def assign_classes(self, text: str) -> list[tuple[str, float]]:
        docs, scores = self.knn_topk(text)
        return build_list_from_topdocs(
            self.reader, docs, scores, self.k, self.class_field
        )

    def assign_class(self, text: str) -> str | None:
        res = self.assign_classes(text)
        return res[0][0] if res else None


class BooleanPerceptronClassifier:
    """BooleanPerceptronClassifier (classification/
    BooleanPerceptronClassifier.java): binary classifier whose per-term
    weights start at each term's totalTermFreq and are perceptron-updated
    over the training docs in docid order — assign with the CURRENT
    weight snapshot (the reference's FST, rebuilt only on batch
    boundaries, so within a batch updates read STALE values — faithfully
    kept), then for a misclassified doc add signum(correct - assigned) *
    tf to each of its term-vector terms, floored at 0 (:188-206). The
    class field holds 'true'/'false' strings (Boolean.valueOf). bias
    defaults to sumTotalTermFreq/docCount (:99-107). assign score =
    1 - exp(-|bias - output|/bias); output is an exact integer weight
    sum. Requires build_index(term_vectors=True)."""

    def __init__(
        self,
        searcher,
        class_field: str = "repo",
        batch_size: int = 1,
        bias: float | None = None,
    ):
        import numpy as np

        self.searcher = searcher
        reader = searcher.reader
        self.reader = reader
        if bias is None or bias == 0.0:
            self.bias = reader.sum_ttf / reader.doc_count
        else:
            self.bias = float(bias)
        # init: every content term's weight = its totalTermFreq
        vocab = reader.vocabulary()
        stats = reader.global_term_stats(vocab.tolist())
        weights = {t: int(stats[t][1]) for t in vocab.tolist()}
        fst = dict(weights)  # the compiled snapshot assigns read from
        from lucene_ray.search.engine import fetch_stored

        docids = np.arange(reader.doc_count, dtype=np.int64)
        stored = fetch_stored(reader, docids)
        classes = stored.column(class_field).to_pylist()
        # ONE term-vectors read in doc order: the training-time output of
        # a doc equals sum(weight[term] * tf) over its term vector — the
        # same value as tokenizing its stored text (the reference sums
        # per occurrence), without needing the raw text back
        tv_all = reader.term_vectors(docids)
        tv_doc = tv_all.column("doc").to_numpy(zero_copy_only=False)
        tv_term = tv_all.column("term").to_pylist()
        tv_freq = tv_all.column("freq").to_numpy(zero_copy_only=False)
        starts = np.searchsorted(tv_doc, docids, side="left")
        ends = np.searchsorted(tv_doc, docids, side="right")
        batch_count = 0
        for d in docids:
            cls = classes[int(d)]
            if cls is None:
                continue
            lo, hi = int(starts[int(d)]), int(ends[int(d)])
            output = 0
            for i in range(lo, hi):
                w = fst.get(tv_term[i])
                if w is not None:
                    output += w * int(tv_freq[i])
            assigned = output >= self.bias
            correct = cls == "true"
            modifier = (correct > assigned) - (correct < assigned)
            if modifier != 0:
                for i in range(lo, hi):
                    term, tf = tv_term[i], int(tv_freq[i])
                    prev = fst.get(term)
                    weights[term] = (
                        0 if prev is None else max(0, prev + modifier * tf)
                    )
                if batch_count % batch_size == 0:
                    fst = dict(weights)
            batch_count += 1
        self._fst = dict(weights)

    def _output(self, fst: dict, text: str) -> int:
        out = 0
        for tok in self.searcher.analyzer.tokenize_text(text):
            w = fst.get(tok)
            if w is not None:
                out += w
        return out

    def assign_class(self, text: str) -> tuple[bool, int, float]:
        """(assigned, output, score) — assigned = output >= bias; score =
        1 - exp(-|bias - output|/bias) (the reference's
        ClassificationResult pair plus the exact integer output)."""
        out = self._output(self._fst, text)
        score = 1.0 - math.exp(-abs(self.bias - out) / self.bias)
        return out >= self.bias, out, score
