"""FuzzyLikeThisQuery — sandbox/queries/FuzzyLikeThisQuery.java: fuzzify
every term of the user's text and keep the best n differentiating
variants (FuzzyQuery x MoreLikeThis).

Per analyzed source term: enumerate index-vocabulary variants within
``max_edits`` of the term's post-prefix suffix (prefix_length chars must
match exactly — the FuzzyTermsEnum automaton contract), score each by
edit similarity boost = 1 - ed / min(|variant|, |source|)
(FuzzyTermsEnum.java:248-255, code points, exact match = 1.0), keep the
top MAX_VARIANTS_PER_TERM (score desc, term asc — the ScoreTermQueue
tie), rescale to score = f32(boost^2) * f32(idf(df, numDocs)) with the
SOURCE term's Classic idf = ln((numDocs+1)/(df+1)) + 1 (all variants
share it so misspellings are not favoured; a zero-df source falls back
to the UNCAPPED variants' integer-mean df — FuzzyLikeThisQuery.java:237),
and keep the global top ``max_num_terms``. The rewrite groups selected
variants per source term into SHOULD clauses of boosted queries
(ignore_tf=True -> ConstantScore variants, the reference's ignoreTF
switch; default mirrors the artificial df=1 TermQuery with a plain
boosted TermQuery, a documented divergence).

Divergence, documented: edit distance is plain Levenshtein (the repo-wide
FuzzyQuery semantics) — the reference enumerator passes
transpositions=true. Variants are enumerated by FuzzyQuery's own
expansion (rewrite.expand_fuzzy_with_distance) over the suffixes of the
prefix-sliced vocabulary, which also yields each variant's distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_VARIANTS_PER_TERM = 50
MAX_SUPPORTED_DISTANCE = 2


@dataclass(frozen=True)
class _FieldVals:
    field: str
    max_edits: int
    prefix_length: int
    query_string: str


def _classic_idf(df: int, doc_count: int) -> np.float32:
    # TFIDFSimilarity.idf as ClassicSimilarity implements it (float result)
    return np.float32(math.log((doc_count + 1) / (df + 1)) + 1.0)


class FuzzyLikeThisQuery:
    def __init__(self, max_num_terms: int, analyzer: str = "code",
                 ignore_tf: bool = True):
        self.max_num_terms = max_num_terms
        self.analyzer = analyzer
        self.ignore_tf = ignore_tf
        self.field_vals: list[_FieldVals] = []

    def add_terms(self, query_string: str, field_name: str,
                  min_similarity: float, prefix_length: int) -> None:
        max_edits = int(min_similarity)
        if max_edits != min_similarity or not 0 <= max_edits <= MAX_SUPPORTED_DISTANCE:
            raise ValueError(
                "minSimilarity must integer value between 0 and "
                f"{MAX_SUPPORTED_DISTANCE}, inclusive; got {min_similarity}"
            )
        if field_name != "content":
            raise ValueError(
                "only the analyzed content field is fuzzifiable here"
            )
        self.field_vals.append(
            _FieldVals(field_name, max_edits, prefix_length, query_string)
        )

    # ------------------------------------------------------------- selection

    def _variants(self, vocab: np.ndarray, term: str, max_edits: int,
                  prefix_length: int) -> list[tuple[str, int]]:
        """(variant, suffix distance) for every vocabulary term whose first
        prefix_length chars equal the source's and whose remaining suffix
        is within max_edits, in vocabulary order."""
        from lucene_ray.search.query import FuzzyQuery, PrefixQuery
        from lucene_ray.search.rewrite import (
            expand_fuzzy_with_distance,
            expand_prefix,
        )

        # FuzzyTermsEnum clamps the prefix to the term length
        prefix_length = min(prefix_length, len(term))
        pre, suf = term[:prefix_length], term[prefix_length:]
        if prefix_length:
            # the suffixes of a prefix slice are sorted too
            vocab = np.asarray(
                [c[prefix_length:] for c in expand_prefix(vocab, PrefixQuery(pre))],
                dtype=object,
            )
        pairs = expand_fuzzy_with_distance(vocab, FuzzyQuery(suf, max_edits))
        return [(pre + s, d) for s, d in pairs]

    def selected_terms(self, reader) -> list[tuple[str, str, float]]:
        """The global top max_num_terms as (source_term, variant, score),
        ordered (score desc, variant asc) — the rewrite()'s term set and
        the gate's observable."""
        from lucene_ray.analysis import get_analyzer

        an = get_analyzer(self.analyzer)
        vocab = reader.vocabulary()
        doc_count = reader.doc_count
        global_q: list[tuple[np.float32, str, str]] = []
        for fv in self.field_vals:
            if not fv.query_string:
                continue
            seen: set[str] = set()
            for term in an.tokenize_text(fv.query_string):
                if term in seen:
                    continue
                seen.add(term)
                variants = self._variants(
                    vocab, term, fv.max_edits, fv.prefix_length
                )
                if not variants:
                    continue
                terms = [v for v, _ed in variants]
                stats = reader.global_term_stats(
                    list(dict.fromkeys(terms + [term]))
                )
                # edit-similarity boost, float32 (FuzzyTermsEnum)
                scored = []
                for v, ed in variants:
                    if ed == 0:
                        boost = np.float32(1.0)
                    else:
                        boost = np.float32(1.0) - np.float32(ed) / np.float32(
                            min(len(v), len(term))
                        )
                    scored.append((boost, v))
                # per-term queue: top MAX_VARIANTS by (score desc, term asc)
                scored.sort(key=lambda bv: (-float(bv[0]), bv[1]))
                top = scored[:MAX_VARIANTS_PER_TERM]
                df = stats[term][0]
                if df == 0:
                    # integer-mean df of ALL enumerated variants
                    df = sum(stats[v][0] for v in terms) // len(terms)
                idf = _classic_idf(df, doc_count)
                for boost, v in top:
                    score = np.float32(boost * boost) * idf
                    global_q.append((score, v, term))
        global_q.sort(key=lambda svt: (-float(svt[0]), svt[1]))
        return [
            (src, v, float(score))
            for score, v, src in global_q[: self.max_num_terms]
        ]

    # --------------------------------------------------------------- rewrite

    def rewrite(self, reader):
        """BooleanQuery of per-source-term SHOULD groups, each variant a
        boosted (constant-score when ignore_tf) TermQuery
        (FuzzyLikeThisQuery.rewrite Step 1-2)."""
        from lucene_ray.search.query import (
            BooleanQuery,
            ConstantScoreQuery,
            NestedBooleanQuery,
            TermQuery,
        )

        groups: dict[str, list[tuple[str, float]]] = {}
        for src, v, score in self.selected_terms(reader):
            groups.setdefault(src, []).append((v, score))
        bq = BooleanQuery()
        for variants in groups.values():
            clauses = []
            for v, score in variants:
                tq = TermQuery(v)
                if self.ignore_tf:
                    clauses.append(ConstantScoreQuery(tq, boost=score))
                else:
                    clauses.append(TermQuery(v, boost=score))
            if len(clauses) == 1:
                bq.should.append(clauses[0])
            else:
                bq.should.append(NestedBooleanQuery(should=tuple(clauses)))
        return bq
