"""BM25 similarity — float32-exact port of the reference formula, plus a
float64 "exact length" variant used for DuckDB-oracle cross-checks.

Reference: lucene/core/.../search/similarities/BM25Similarity.java
  - idf  = (float) ln(1 + (N - df + 0.5) / (df + 0.5))     [:103-106, double
    math cast to float]
  - avgdl = (float) (sumTotalTermFreq / (double) docCount)  [:108-111]
  - norm cache: cache[b] = 1f / (k1 * ((1-b) + b * LENGTH_TABLE[b] / avgdl))
    — 256 float32 entries, LENGTH_TABLE = byte4ToInt decode  [:196-209]
  - score(freq, norm) = weight - weight / (1 + freq * cache[norm]) with
    weight = boost * idf, all float32 ops                    [:246-258]

numpy float32 arithmetic is IEEE-754 binary32 with round-to-nearest and no
FMA in these kernels, matching Java float semantics — the basis of the
"scores within 1e-6" CheckHits gate (test-framework/.../CheckHits.java:222-246).
"""

from __future__ import annotations

import math

import numpy as np

from lucene_ray.config import BM25_B, BM25_K1
from lucene_ray.util.smallfloat import LENGTH_TABLE_F32


class BM25Similarity:
    """Lucene-parity BM25 over byte-encoded norms (the default similarity,
    search/IndexSearcher.java:128)."""

    def __init__(self, k1: float = BM25_K1, b: float = BM25_B):
        if not np.isfinite(k1) or k1 < 0:
            raise ValueError(f"illegal k1 value: {k1}")
        if not (0 <= b <= 1):
            raise ValueError(f"illegal b value: {b}")
        self.k1 = np.float32(k1)
        self.b = np.float32(b)
        self._norm_memo = (None, None)

    def _norm_inverse(self, avgdl: np.float32) -> np.ndarray:
        """The 256-entry norm-inverse cache, float32 throughout. The table
        for the last avgdl is kept (read-only): a query's terms share it."""
        if self._norm_memo[0] != avgdl:
            cache = np.float32(1.0) / (
                self.k1 * ((np.float32(1.0) - self.b) + self.b * LENGTH_TABLE_F32 / avgdl)
            )
            cache = cache.astype(np.float32)
            cache.flags.writeable = False
            self._norm_memo = (avgdl, cache)
        return self._norm_memo[1]

    def idf(self, doc_freq: int, doc_count: int) -> np.float32:
        return np.float32(
            np.log(1 + (doc_count - doc_freq + 0.5) / (doc_freq + 0.5))
        )

    def avgdl(self, sum_total_term_freq: int, doc_count: int) -> np.float32:
        if sum_total_term_freq == 0:
            # token-free index: any value works (no term can match); avoid
            # inf/nan in the norm cache
            return np.float32(1.0)
        return np.float32(sum_total_term_freq / float(doc_count))

    def scorer(
        self,
        doc_freq: int,
        doc_count: int,
        sum_total_term_freq: int,
        boost: float = 1.0,
        total_term_freq: int = 0,
    ) -> "BM25Scorer":
        avgdl = self.avgdl(sum_total_term_freq, doc_count)
        weight = np.float32(boost) * self.idf(doc_freq, doc_count)
        return BM25Scorer(weight, self._norm_inverse(avgdl))

    def phrase_scorer(
        self,
        doc_freqs: list[int],
        doc_count: int,
        sum_total_term_freq: int,
        boost: float = 1.0,
        total_term_freqs: list[int] | None = None,
    ) -> "BM25Scorer":
        """Phrase weight: idf = (float) Σ double(per-term float idf)
        (BM25Similarity.idfExplain(termStats[]), :189-199 'sum into a double
        before casting into a float')."""
        idf_sum = 0.0
        for df in doc_freqs:
            idf_sum += float(self.idf(df, doc_count))
        avgdl = self.avgdl(sum_total_term_freq, doc_count)
        weight = np.float32(boost) * np.float32(idf_sum)
        return BM25Scorer(weight, self._norm_inverse(avgdl))


class BM25Scorer:
    """Per-(query-term) scorer: score(freq, norm_byte) vectorized float32."""

    __slots__ = ("weight", "cache")

    def __init__(self, weight: np.float32, cache: np.ndarray):
        self.weight = weight
        self.cache = cache

    def score(self, freq: np.ndarray, norm_bytes: np.ndarray) -> np.ndarray:
        # no overflow possible for real tfs: freq*inv <= ~1e6 * 1/(k1*(1-b));
        # the Float.MAX_VALUE path goes through global_max_score instead
        f = np.asarray(freq, dtype=np.float32)
        inv = self.cache[np.asarray(norm_bytes, dtype=np.int64) & 0xFF]
        return self.weight - self.weight / (np.float32(1.0) + f * inv)

    def max_score(self, impacts_packed) -> np.float32:
        """Upper bound from packed (tf << 8 | norm) competitive pairs — the
        MaxScoreCache analog (search/MaxScoreCache.java:34-79)."""
        arr = np.asarray(impacts_packed, dtype=np.int64)
        if arr.size == 0:
            return np.float32(0.0)
        return self.score((arr >> 8).astype(np.float32), arr & 0xFF).max()

    def max_score_blocks(
        self, tfs: np.ndarray, norms: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        """Per-block max scores over flattened impact pairs in ONE pass:
        score is strictly increasing in x = freq * cache[norm] (float32), so
        argmax_x == argmax_score and one reduceat + one formula suffices."""
        x = tfs.astype(np.float32) * self.cache[norms]
        m = np.maximum.reduceat(x, offsets)
        return (self.weight - self.weight / (np.float32(1.0) + m)).astype(np.float64)

    def global_max_score(self) -> np.float32:
        """score(Float.MAX_VALUE, norm=1) — MaxScoreCache.java:40."""
        with np.errstate(over="ignore"):  # overflow to inf -> weight bound
            return self.score(
                np.array([np.finfo(np.float32).max], dtype=np.float32),
                np.array([1]),
            )[0]


class ConstantScorer:
    """Constant-score clause scorer (ConstantScoreQuery / MatchAllDocsQuery
    / TermInSetQuery FILTER semantics): every match scores ``boost``."""

    __slots__ = ("weight",)

    def __init__(self, boost: float = 1.0):
        self.weight = np.float32(boost)

    def score(self, freq, norm_bytes) -> np.ndarray:
        return np.full(np.shape(freq), self.weight, dtype=np.float32)

    def max_score(self, impacts_packed) -> np.float32:
        return self.weight

    def max_score_blocks(self, tfs, norms, offsets) -> np.ndarray:
        return np.full(len(offsets), self.weight, dtype=np.float64)

    def global_max_score(self) -> np.float32:
        return self.weight


class BM25ExactSimilarity:
    """BM25 with *exact* (unquantized) document lengths and float64 math.

    Not a Lucene mode — exists so oracle-checked pipelines can be reproduced
    bit-for-bit by DuckDB SQL (both sides: IEEE double, same ln). The
    Lucene-parity float32/byte-norm path is validated by golden + duel tests
    instead (scores differ from doubles only through norm quantization).
    """

    def __init__(self, k1: float = BM25_K1, b: float = BM25_B):
        self.k1 = float(k1)
        self.b = float(b)

    def idf(self, doc_freq: int, doc_count: int) -> float:
        # math.log (libm) not np.log: numpy's SIMD log can differ from libm by
        # 1 ulp, breaking bit-parity with the DuckDB oracle's ln().
        return math.log(1 + (doc_count - doc_freq + 0.5) / (doc_freq + 0.5))

    def score(
        self,
        freq: np.ndarray,
        doc_len: np.ndarray,
        doc_freq: int,
        doc_count: int,
        avgdl: float,
        ttf: int = 0,
        sum_len: int = 0,
    ) -> np.ndarray:
        f = np.asarray(freq, dtype=np.float64)
        dl = np.asarray(doc_len, dtype=np.float64)
        idf = self.idf(doc_freq, doc_count)
        denom = f + self.k1 * (1 - self.b + self.b * dl / avgdl)
        return idf * f / denom

    @staticmethod
    def sql(tf: str, dl: str, df: str, n: str, avgdl: str, k1: float = BM25_K1, b: float = BM25_B, ttf: str = "0", sum_len: str = "0") -> str:
        """DuckDB expression computing exactly ``score`` (float64), same
        operation order as the numpy path (Lucene's tf-saturation form,
        without the constant (k1+1) factor — BM25Similarity.java:219-222
        note: 'k1+1 is constant, ignorable for ranking')."""
        idf = f"ln(1 + ({n} - {df} + 0.5) / ({df} + 0.5))"
        return (
            f"({idf}) * {tf} / "
            f"({tf} + {k1} * (1 - {b} + {b} * {dl} / {avgdl}))"
        )


class ClassicScorer:
    """Per-term TF-IDF scorer (ClassicSimilarity.java / TFIDFSimilarity):
    score = weight * sqrt(freq) * (1 / sqrt(dl)), dl decoded from the norm
    byte. Same interface as BM25Scorer so the block-max machinery and the
    pruned path work unchanged (score is increasing in freq and decreasing
    in dl, so per-pair evaluation gives true upper bounds)."""

    __slots__ = ("weight", "cache")

    def __init__(self, weight: np.float32, cache: np.ndarray):
        self.weight = weight
        self.cache = cache  # cache[b] = 1/sqrt(decoded_len(b)), float32

    def score(self, freq: np.ndarray, norm_bytes: np.ndarray) -> np.ndarray:
        f = np.asarray(freq, dtype=np.float32)
        inv = self.cache[np.asarray(norm_bytes, dtype=np.int64) & 0xFF]
        return self.weight * np.sqrt(f) * inv

    def max_score(self, impacts_packed) -> np.float32:
        arr = np.asarray(impacts_packed, dtype=np.int64)
        if arr.size == 0:
            return np.float32(0.0)
        return self.score((arr >> 8).astype(np.float32), arr & 0xFF).max()

    def max_score_blocks(
        self, tfs: np.ndarray, norms: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        x = np.sqrt(tfs.astype(np.float32)) * self.cache[norms]
        m = np.maximum.reduceat(x, offsets)
        return (self.weight * m).astype(np.float64)

    def global_max_score(self) -> np.float32:
        return self.score(
            np.array([np.finfo(np.float32).max], dtype=np.float32), np.array([1])
        )[0]


class ClassicSimilarity:
    """The pre-BM25 default TF-IDF similarity
    (search/similarities/ClassicSimilarity.java): idf = 1 + ln((N+1)/(df+1)),
    tf = sqrt(freq), lengthNorm = 1/sqrt(dl). Plugs into IndexSearcher via
    the same scorer protocol as BM25Similarity (the §2.10 similarity
    extension point)."""

    def idf(self, doc_freq: int, doc_count: int) -> np.float32:
        return np.float32(1.0 + np.log((doc_count + 1) / (doc_freq + 1)))

    def scorer(
        self,
        doc_freq: int,
        doc_count: int,
        sum_total_term_freq: int,
        boost: float = 1.0,
        total_term_freq: int = 0,
    ) -> ClassicScorer:
        cache = (
            np.float32(1.0) / np.sqrt(np.maximum(LENGTH_TABLE_F32, np.float32(1.0)))
        ).astype(np.float32)
        weight = np.float32(boost) * self.idf(doc_freq, doc_count)
        return ClassicScorer(weight, cache)

    def phrase_scorer(
        self, doc_freqs: list[int], doc_count: int,
        sum_total_term_freq: int, boost: float = 1.0,
        total_term_freqs: list[int] | None = None,
    ) -> ClassicScorer:
        idf_sum = 0.0
        for df in doc_freqs:
            idf_sum += float(self.idf(df, doc_count))
        cache = (
            np.float32(1.0) / np.sqrt(np.maximum(LENGTH_TABLE_F32, np.float32(1.0)))
        ).astype(np.float32)
        return ClassicScorer(np.float32(boost) * np.float32(idf_sum), cache)


class ClassicExactSimilarity:
    """Float64 exact-length TF-IDF twin of ClassicSimilarity for DuckDB
    oracle parity (math.log + IEEE sqrt on both sides; same role as
    BM25ExactSimilarity)."""

    def idf(self, doc_freq: int, doc_count: int) -> float:
        return 1.0 + math.log((doc_count + 1) / (doc_freq + 1))

    def score(
        self,
        freq: np.ndarray,
        doc_len: np.ndarray,
        doc_freq: int,
        doc_count: int,
        avgdl: float,
        ttf: int = 0,
        sum_len: int = 0,
    ) -> np.ndarray:
        f = np.asarray(freq, dtype=np.float64)
        dl = np.asarray(doc_len, dtype=np.float64)
        idf = self.idf(doc_freq, doc_count)
        return idf * np.sqrt(f) / np.sqrt(np.maximum(dl, 1.0))

    @staticmethod
    def sql(tf: str, dl: str, df: str, n: str, avgdl: str, ttf: str = "0", sum_len: str = "0") -> str:
        idf = f"(1 + ln(({n} + 1) / ({df} + 1)))"
        return f"{idf} * sqrt({tf}) / sqrt(greatest({dl}, 1.0))"


class SweetSpotScorer:
    """ClassicScorer variant with the plateau length norm and baseline tf
    baked into the caches (misc/SweetSpotSimilarity.java). The norm cache
    is non-monotonic in dl (flat inside [min,max]) — safe for block-max
    pruning because impacts are enumerated per (tf, norm-byte) pair, not
    bounded by endpoints."""

    __slots__ = ("weight", "cache", "tf_base", "tf_min")

    def __init__(self, weight, cache, tf_base, tf_min):
        self.weight = weight
        self.cache = cache
        self.tf_base = np.float32(tf_base)
        self.tf_min = np.float32(tf_min)

    def _tf(self, f: np.ndarray) -> np.ndarray:
        # baselineTf (SweetSpotSimilarity.java:baselineTf): 0 -> 0,
        # f <= min -> base, else sqrt(f + base^2 - min)
        out = np.sqrt(
            np.maximum(f + self.tf_base * self.tf_base - self.tf_min, 0.0)
        ).astype(np.float32)
        out = np.where(f <= self.tf_min, self.tf_base, out)
        return np.where(f == 0.0, np.float32(0.0), out)

    def score(self, freq: np.ndarray, norm_bytes: np.ndarray) -> np.ndarray:
        f = np.asarray(freq, dtype=np.float32)
        inv = self.cache[np.asarray(norm_bytes, dtype=np.int64) & 0xFF]
        return self.weight * self._tf(f) * inv

    def max_score(self, impacts_packed) -> np.float32:
        arr = np.asarray(impacts_packed, dtype=np.int64)
        if arr.size == 0:
            return np.float32(0.0)
        return self.score((arr >> 8).astype(np.float32), arr & 0xFF).max()

    def max_score_blocks(
        self, tfs: np.ndarray, norms: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        # reduce over FULLY-evaluated scores so the bound shares score()'s
        # float32 association exactly (a (w*tf)*norm vs w*(tf*norm) split
        # can under-bound by one ulp)
        x = self.score(tfs.astype(np.float32), norms)
        m = np.maximum.reduceat(x, offsets)
        return m.astype(np.float64)

    def global_max_score(self) -> np.float32:
        return self.weight * self._tf(
            np.array([np.finfo(np.float32).max], dtype=np.float32)
        )[0] * self.cache.max()


class SweetSpotSimilarity(ClassicSimilarity):
    """misc/SweetSpotSimilarity.java: ClassicSimilarity with a PLATEAU
    length norm — 1/sqrt(steepness*(|dl-min|+|dl-max|-(max-min))+1), flat
    1.0 for dl inside [min,max] — and the baselineTf flattening (freq <=
    tf_min scores tf_base; hyperbolicTf is provided as a function for
    completeness, tested against the spec)."""

    def __init__(
        self, ln_min: int = 1, ln_max: int = 1, steepness: float = 0.5,
        tf_base: float = 0.0, tf_min: float = 0.0,
    ):
        self.ln_min = int(ln_min)
        self.ln_max = int(ln_max)
        self.steepness = float(steepness)
        self.tf_base = float(tf_base)
        self.tf_min = float(tf_min)

    def _norm_cache(self) -> np.ndarray:
        dl = np.maximum(LENGTH_TABLE_F32, np.float32(1.0)).astype(np.float64)
        ln = 1.0 / np.sqrt(
            self.steepness
            * (np.abs(dl - self.ln_min) + np.abs(dl - self.ln_max)
               - (self.ln_max - self.ln_min))
            + 1.0
        )
        return ln.astype(np.float32)

    def scorer(
        self, doc_freq: int, doc_count: int, sum_total_term_freq: int,
        boost: float = 1.0, total_term_freq: int = 0,
    ) -> SweetSpotScorer:
        weight = np.float32(boost) * self.idf(doc_freq, doc_count)
        return SweetSpotScorer(
            weight, self._norm_cache(), self.tf_base, self.tf_min
        )

    def phrase_scorer(
        self, doc_freqs: list[int], doc_count: int,
        sum_total_term_freq: int, boost: float = 1.0,
        total_term_freqs: list[int] | None = None,
    ) -> SweetSpotScorer:
        idf_sum = 0.0
        for df in doc_freqs:
            idf_sum += float(self.idf(df, doc_count))
        return SweetSpotScorer(
            np.float32(boost) * np.float32(idf_sum), self._norm_cache(),
            self.tf_base, self.tf_min,
        )

    def hyperbolic_tf(self, freq: float, h_min: float = 0.0,
                      h_max: float = 2.0, base: float = 1.3,
                      xoffset: float = 10.0) -> float:
        """hyperbolicTf (SweetSpotSimilarity.java:hyperbolicTf) — the
        alternative tf curve: min + (max-min)/2 * (tanh-like + 1)."""
        if freq == 0.0:
            return 0.0
        x = freq - xoffset
        # Java Math.pow saturates to Infinity and the inf/inf division
        # yields NaN, which the reference maps to max; python math.pow
        # raises instead, so pre-empt the overflow with the same result
        if abs(x) * math.log(base) > 350.0:
            return h_max
        num = math.pow(base, x) - math.pow(base, -x)
        den = math.pow(base, x) + math.pow(base, -x)
        r = h_min + (h_max - h_min) / 2.0 * (num / den + 1.0)
        return h_max if math.isnan(r) else r


class SweetSpotExactSimilarity:
    """Float64 exact-length twin of SweetSpotSimilarity (the gate config:
    plateau [40, 120] steepness 0.5, baselineTf base 1.5 / min 5 — values
    chosen to put real corpus docs on both plateau and slopes)."""

    ln_min, ln_max, steepness = 40, 120, 0.5
    tf_base, tf_min = 1.5, 5.0

    def idf(self, doc_freq: int, doc_count: int) -> float:
        return 1.0 + math.log((doc_count + 1) / (doc_freq + 1))

    def score(
        self, freq, doc_len, doc_freq, doc_count, avgdl,
        ttf: int = 0, sum_len: int = 0,
    ) -> np.ndarray:
        f = np.asarray(freq, dtype=np.float64)
        dl = np.maximum(np.asarray(doc_len, dtype=np.float64), 1.0)
        tf = np.where(
            f <= self.tf_min,
            self.tf_base,
            np.sqrt(np.maximum(f + self.tf_base * self.tf_base - self.tf_min, 0.0)),
        )
        ln = 1.0 / np.sqrt(
            self.steepness
            * (np.abs(dl - self.ln_min) + np.abs(dl - self.ln_max)
               - (self.ln_max - self.ln_min))
            + 1.0
        )
        return self.idf(doc_freq, doc_count) * tf * ln

    @staticmethod
    def sql(tf: str, dl: str, df: str, n: str, avgdl: str,
            ttf: str = "0", sum_len: str = "0") -> str:
        idf = f"(1 + ln(({n} + 1) / ({df} + 1)))"
        tfe = (
            f"(CASE WHEN {tf} <= 5.0 THEN 1.5 "
            f"ELSE sqrt({tf} + 1.5*1.5 - 5.0) END)"
        )
        dle = f"greatest({dl}, 1.0)"
        ln = (
            f"(1.0 / sqrt(0.5 * (abs({dle} - 40) + abs({dle} - 120) - 80) "
            f"+ 1.0))"
        )
        return f"{idf} * {tfe} * {ln}"


# --------------------------------------------------------------------------
# Language-model and DFR similarity families (search/similarities/ package).
# Same scorer protocol as BM25Similarity, so WAND/block-max pruning and the
# sharded searcher work unchanged; each family also ships a float64
# exact-length twin whose arithmetic DuckDB reproduces bit-for-bit (the
# oracle-gate pattern established by BM25ExactSimilarity).
# --------------------------------------------------------------------------


LM_MU_DEFAULT = 2000.0


class LMDirichletScorer:
    """Per-term Dirichlet-smoothed LM scorer over byte-encoded norms:
    score = weight * max(0, log1p(freq / (mu*p)) + log(mu / (dl + mu))).

    Monotone increasing in freq and decreasing in dl, so per-impact-pair
    evaluation yields true block upper bounds (same argument as BM25's
    MaxScoreCache)."""

    __slots__ = ("weight", "mu_p", "c2")

    def __init__(self, weight: np.float32, mu_p: np.float32, c2: np.ndarray):
        self.weight = weight
        self.mu_p = mu_p  # mu * collectionProbability, float32
        self.c2 = c2      # c2[b] = log(mu / (decoded_len(b) + mu)), float32

    def score(self, freq: np.ndarray, norm_bytes: np.ndarray) -> np.ndarray:
        f = np.asarray(freq, dtype=np.float32)
        c2 = self.c2[np.asarray(norm_bytes, dtype=np.int64) & 0xFF]
        s = self.weight * (np.log1p(f / self.mu_p) + c2)
        return np.maximum(s, np.float32(0.0))

    def max_score(self, impacts_packed) -> np.float32:
        arr = np.asarray(impacts_packed, dtype=np.int64)
        if arr.size == 0:
            return np.float32(0.0)
        return self.score((arr >> 8).astype(np.float32), arr & 0xFF).max()

    def max_score_blocks(
        self, tfs: np.ndarray, norms: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        x = np.log1p(tfs.astype(np.float32) / self.mu_p) + self.c2[norms]
        m = np.maximum.reduceat(x, offsets)
        return np.maximum(self.weight * m, np.float32(0.0)).astype(np.float64)

    def global_max_score(self) -> np.float32:
        # norm byte 0 decodes to dl = 0 -> log(mu/(0+mu)) = 0, the c2 maximum
        with np.errstate(over="ignore"):
            return self.score(
                np.array([np.finfo(np.float32).max], dtype=np.float32),
                np.array([0]),
            )[0]


class LMDirichletSimilarity:
    """Dirichlet-smoothed query-likelihood LM
    (search/similarities/LMDirichletSimilarity.java:36, mu default 2000;
    collection model LMSimilarity.DefaultCollectionModel:
    p(t|C) = (totalTermFreq + 1) / (sumTotalTermFreq + 1)).

    Engine (float32, quantized-norm) re-expression; the oracle-checked
    float64 twin is LMDirichletExactSimilarity. Phrase/synonym composite
    clauses use df = max, ttf = sum over the member terms (a documented
    re-expression choice — the reference's SimilarityBase aggregates
    per-term stats internally rather than defining phrase semantics)."""

    def __init__(self, mu: float = LM_MU_DEFAULT):
        if not np.isfinite(mu) or mu <= 0:
            raise ValueError(f"illegal mu value: {mu}")
        self.mu = float(mu)

    def _make(self, total_term_freq: int, sum_total_term_freq: int, boost: float):
        p = (total_term_freq + 1.0) / (sum_total_term_freq + 1.0)
        c2 = np.log(
            np.float32(self.mu) / (LENGTH_TABLE_F32 + np.float32(self.mu))
        ).astype(np.float32)
        return LMDirichletScorer(
            np.float32(boost), np.float32(self.mu * p), c2
        )

    def scorer(
        self,
        doc_freq: int,
        doc_count: int,
        sum_total_term_freq: int,
        boost: float = 1.0,
        total_term_freq: int = 0,
    ) -> LMDirichletScorer:
        # a term with df > 0 always has ttf >= df; ttf == 0 only for absent
        # terms, where the +1 smoothing keeps p finite
        return self._make(total_term_freq, sum_total_term_freq, boost)

    def phrase_scorer(
        self,
        doc_freqs: list[int],
        doc_count: int,
        sum_total_term_freq: int,
        boost: float = 1.0,
        total_term_freqs: list[int] | None = None,
    ) -> LMDirichletScorer:
        ttf = sum(total_term_freqs or [0])
        return self._make(ttf, sum_total_term_freq, boost)


class LMDirichletExactSimilarity:
    """Float64 exact-length Dirichlet LM twin for DuckDB oracle parity.

    Per-row logs go through libm (math.log) via a unique-value LUT — numpy's
    SIMD log can differ from DuckDB's ln() by 1 ulp (the repo-wide float
    oracle protocol)."""

    def __init__(self, mu: float = LM_MU_DEFAULT):
        self.mu = float(mu)

    def score(
        self,
        freq: np.ndarray,
        doc_len: np.ndarray,
        doc_freq: int,
        doc_count: int,
        avgdl: float,
        ttf: int = 0,
        sum_len: int = 0,
    ) -> np.ndarray:
        f = np.asarray(freq, dtype=np.float64)
        dl = np.asarray(doc_len, dtype=np.float64)
        p = (ttf + 1.0) / (sum_len + 1.0)
        s = _ulog(1.0 + f / (self.mu * p)) + _ulog(self.mu / (dl + self.mu))
        return np.maximum(s, 0.0)

    def sql(
        self, tf: str, dl: str, df: str, n: str, avgdl: str,
        ttf: str = "0", sum_len: str = "0",
    ) -> str:
        mu = repr(self.mu)
        p = f"(({ttf} + 1.0) / ({sum_len} + 1.0))"
        return (
            f"greatest(ln(1 + {tf} / ({mu} * {p}))"
            f" + ln({mu} / ({dl} + {mu})), 0.0)"
        )


DFR_C_DEFAULT = 1.0


class DFRSimilarity:
    """Divergence-from-randomness, instantiation I(n)L2
    (search/similarities/DFRSimilarity.java + BasicModelIn.java /
    AfterEffectL.java / NormalizationH2.java):

      tfn   = freq * log2(1 + c * avgdl / dl)          (H2, c = 1)
      In    = log2((N + 1) / (df + 0.5))               (basic model I(n))
      score = boost * In * tfn / (tfn + 1)             (after-effect L)

    tfn/(tfn+1) = 1 - 1/(1+tfn) with tfn = freq * cache[norm], so the scorer
    IS BM25Scorer's saturation form with weight = boost*In and
    cache[b] = log2(1 + c*avgdl/dl_b) — the block-max machinery is reused
    verbatim."""

    def __init__(self, c: float = DFR_C_DEFAULT):
        if not np.isfinite(c) or c <= 0:
            raise ValueError(f"illegal c value: {c}")
        self.c = float(c)

    def _cache(self, sum_total_term_freq: int, doc_count: int) -> np.ndarray:
        avgdl = (
            np.float32(sum_total_term_freq / float(doc_count))
            if sum_total_term_freq
            else np.float32(1.0)
        )
        dl = np.maximum(LENGTH_TABLE_F32, np.float32(1.0))
        return np.log2(
            np.float32(1.0) + np.float32(self.c) * avgdl / dl
        ).astype(np.float32)

    def _in(self, doc_freq: int, doc_count: int) -> np.float32:
        return np.float32(np.log2((doc_count + 1.0) / (doc_freq + 0.5)))

    def scorer(
        self,
        doc_freq: int,
        doc_count: int,
        sum_total_term_freq: int,
        boost: float = 1.0,
        total_term_freq: int = 0,
    ) -> BM25Scorer:
        weight = np.float32(boost) * self._in(doc_freq, doc_count)
        return BM25Scorer(weight, self._cache(sum_total_term_freq, doc_count))

    def phrase_scorer(
        self,
        doc_freqs: list[int],
        doc_count: int,
        sum_total_term_freq: int,
        boost: float = 1.0,
        total_term_freqs: list[int] | None = None,
    ) -> BM25Scorer:
        in_sum = 0.0
        for df in doc_freqs:
            in_sum += float(self._in(df, doc_count))
        return BM25Scorer(
            np.float32(boost) * np.float32(in_sum),
            self._cache(sum_total_term_freq, doc_count),
        )


class DFRExactSimilarity:
    """Float64 exact-length I(n)L2 twin for DuckDB oracle parity. log2 is
    written as ln(x)/ln(2) on BOTH sides so the libm ln is the only
    transcendental (DuckDB's log2() could round differently)."""

    def __init__(self, c: float = DFR_C_DEFAULT):
        self.c = float(c)

    def score(
        self,
        freq: np.ndarray,
        doc_len: np.ndarray,
        doc_freq: int,
        doc_count: int,
        avgdl: float,
        ttf: int = 0,
        sum_len: int = 0,
    ) -> np.ndarray:
        f = np.asarray(freq, dtype=np.float64)
        dl = np.maximum(np.asarray(doc_len, dtype=np.float64), 1.0)
        ln2 = math.log(2.0)
        tfn = f * (_ulog(1.0 + self.c * avgdl / dl) / ln2)
        in_w = math.log((doc_count + 1.0) / (doc_freq + 0.5)) / ln2
        return in_w * (tfn / (tfn + 1.0))

    def sql(
        self, tf: str, dl: str, df: str, n: str, avgdl: str,
        ttf: str = "0", sum_len: str = "0",
    ) -> str:
        c = repr(self.c)
        tfn = f"({tf} * (ln(1 + {c} * {avgdl} / greatest({dl}, 1.0)) / ln(2.0)))"
        in_w = f"(ln(({n} + 1.0) / ({df} + 0.5)) / ln(2.0))"
        return f"{in_w} * ({tfn} / ({tfn} + 1.0))"


class BooleanSimilarity:
    """Query-boost-only similarity
    (search/similarities/BooleanSimilarity.java:33): every match scores the
    boost, norms/tf ignored. Proof that the plug accepts a degenerate
    frequency-independent member."""

    def scorer(
        self,
        doc_freq: int,
        doc_count: int,
        sum_total_term_freq: int,
        boost: float = 1.0,
        total_term_freq: int = 0,
    ) -> ConstantScorer:
        return ConstantScorer(boost)

    def phrase_scorer(
        self,
        doc_freqs: list[int],
        doc_count: int,
        sum_total_term_freq: int,
        boost: float = 1.0,
        total_term_freqs: list[int] | None = None,
    ) -> ConstantScorer:
        return ConstantScorer(boost)


def _ulog(x: np.ndarray) -> np.ndarray:
    """libm (math.log) natural log applied via a unique-value LUT: bit-equal
    to DuckDB's ln() per the repo float-oracle protocol, vectorized enough
    for the matched-row sets the exact twins score (tf/doc_len take few
    distinct values)."""
    u, inv = np.unique(np.asarray(x, dtype=np.float64), return_inverse=True)
    lut = np.array([math.log(v) for v in u.tolist()], dtype=np.float64)
    return lut[inv]


class DFIScorer:
    """Divergence-from-independence per-term scorer
    (search/similarities/DFISimilarity.java + IndependenceStandardized.java):
    expected = (ttf + 1) * dl / (sumTotalTermFreq + 1); freq <= expected
    scores 0; else score = weight * log2(1 + (freq - expected)/sqrt(expected)).
    Monotone increasing in freq, decreasing in dl -> per-impact-pair
    evaluation gives true block bounds."""

    __slots__ = ("weight", "k", "dl_table")

    def __init__(self, weight: np.float32, k: np.float32):
        self.weight = weight
        self.k = k  # (ttf + 1) / (sum_ttf + 1), float32
        self.dl_table = LENGTH_TABLE_F32

    def _measure(self, f: np.ndarray, dl: np.ndarray) -> np.ndarray:
        e = self.k * dl
        with np.errstate(invalid="ignore", divide="ignore"):
            m = (f - e) / np.sqrt(e)
        return np.where((f > e) & (e > 0), m, np.float32(0.0))

    def score(self, freq: np.ndarray, norm_bytes: np.ndarray) -> np.ndarray:
        f = np.asarray(freq, dtype=np.float32)
        dl = self.dl_table[np.asarray(norm_bytes, dtype=np.int64) & 0xFF]
        m = self._measure(f, dl)
        return np.maximum(
            self.weight * np.log2(np.float32(1.0) + m), np.float32(0.0)
        )

    def max_score(self, impacts_packed) -> np.float32:
        arr = np.asarray(impacts_packed, dtype=np.int64)
        if arr.size == 0:
            return np.float32(0.0)
        return self.score((arr >> 8).astype(np.float32), arr & 0xFF).max()

    def max_score_blocks(
        self, tfs: np.ndarray, norms: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        m = self._measure(tfs.astype(np.float32), self.dl_table[norms])
        mx = np.maximum.reduceat(m, offsets)
        return np.maximum(
            self.weight * np.log2(np.float32(1.0) + mx), np.float32(0.0)
        ).astype(np.float64)

    def global_max_score(self) -> np.float32:
        with np.errstate(over="ignore"):
            # dl = 1 (smallest nonzero expected) with huge freq
            e = self.k * np.float32(1.0)
            m = (np.finfo(np.float32).max - e) / np.sqrt(np.maximum(e, 1e-30))
            return np.float32(max(0.0, self.weight * np.log2(1.0 + float(m))))


class DFISimilarity:
    """DFI with the standardized independence measure
    (DFISimilarity.java:40; IndependenceStandardized). Needs per-term ttf
    (threaded through the scorer protocol since round 4)."""

    def scorer(
        self,
        doc_freq: int,
        doc_count: int,
        sum_total_term_freq: int,
        boost: float = 1.0,
        total_term_freq: int = 0,
    ) -> DFIScorer:
        k = np.float32((total_term_freq + 1.0) / (sum_total_term_freq + 1.0))
        return DFIScorer(np.float32(boost), k)

    def phrase_scorer(
        self,
        doc_freqs: list[int],
        doc_count: int,
        sum_total_term_freq: int,
        boost: float = 1.0,
        total_term_freqs: list[int] | None = None,
    ) -> DFIScorer:
        ttf = sum(total_term_freqs or [0])
        k = np.float32((ttf + 1.0) / (sum_total_term_freq + 1.0))
        return DFIScorer(np.float32(boost), k)


class DFIExactSimilarity:
    """Float64 exact-length DFI twin (standardized measure) for DuckDB
    oracle parity: sqrt is correctly-rounded IEEE on both sides; the final
    log2 is written ln/ln(2) with libm ln via the unique-value LUT."""

    def score(
        self,
        freq: np.ndarray,
        doc_len: np.ndarray,
        doc_freq: int,
        doc_count: int,
        avgdl: float,
        ttf: int = 0,
        sum_len: int = 0,
    ) -> np.ndarray:
        f = np.asarray(freq, dtype=np.float64)
        dl = np.asarray(doc_len, dtype=np.float64)
        e = (ttf + 1.0) / (sum_len + 1.0) * dl
        m = np.where(f > e, (f - e) / np.sqrt(e), 0.0)
        out = np.zeros(len(f), dtype=np.float64)
        pos = m > 0
        if pos.any():
            out[pos] = _ulog(1.0 + m[pos]) / math.log(2.0)
        return out

    def sql(
        self, tf: str, dl: str, df: str, n: str, avgdl: str,
        ttf: str = "0", sum_len: str = "0",
    ) -> str:
        e = f"(({ttf} + 1.0) / ({sum_len} + 1.0) * {dl})"
        m = f"(({tf} - {e}) / sqrt({e}))"
        return (
            f"CASE WHEN {tf} > {e} THEN ln(1 + {m}) / ln(2.0) ELSE 0.0 END"
        )


class IBScorer:
    """Information-based per-term scorer (search/similarities/IBSimilarity
    .java + DistributionLL.java / LambdaDF.java / NormalizationH2.java):
    tfn = freq * cache[norm] (H2), lambda = (df + 1)/(N + 1),
    score = weight * log(1 + tfn / lambda) — DistributionLL's
    -log(lambda/(lambda+tfn)) rearranged. Increasing in tfn, so block
    bounds reduce over tfn alone."""

    __slots__ = ("weight", "lam", "cache")

    def __init__(self, weight: np.float32, lam: np.float32, cache: np.ndarray):
        self.weight = weight
        self.lam = lam
        self.cache = cache

    def score(self, freq: np.ndarray, norm_bytes: np.ndarray) -> np.ndarray:
        f = np.asarray(freq, dtype=np.float32)
        tfn = f * self.cache[np.asarray(norm_bytes, dtype=np.int64) & 0xFF]
        return self.weight * np.log1p(tfn / self.lam)

    def max_score(self, impacts_packed) -> np.float32:
        arr = np.asarray(impacts_packed, dtype=np.int64)
        if arr.size == 0:
            return np.float32(0.0)
        return self.score((arr >> 8).astype(np.float32), arr & 0xFF).max()

    def max_score_blocks(
        self, tfs: np.ndarray, norms: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        x = tfs.astype(np.float32) * self.cache[norms]
        m = np.maximum.reduceat(x, offsets)
        return (self.weight * np.log1p(m / self.lam)).astype(np.float64)

    def global_max_score(self) -> np.float32:
        with np.errstate(over="ignore"):
            return self.score(
                np.array([np.finfo(np.float32).max], dtype=np.float32),
                np.array([1]),
            )[0]


class IBSimilarity:
    """IB(LL, lambda_DF, H2) with c = 1 (the reference's composable
    IBSimilarity instantiated like its test defaults)."""

    def __init__(self, c: float = 1.0):
        if not np.isfinite(c) or c <= 0:
            raise ValueError(f"illegal c value: {c}")
        self.c = float(c)

    def _cache(self, sum_total_term_freq: int, doc_count: int) -> np.ndarray:
        avgdl = (
            np.float32(sum_total_term_freq / float(doc_count))
            if sum_total_term_freq
            else np.float32(1.0)
        )
        dl = np.maximum(LENGTH_TABLE_F32, np.float32(1.0))
        return np.log2(
            np.float32(1.0) + np.float32(self.c) * avgdl / dl
        ).astype(np.float32)

    def scorer(
        self,
        doc_freq: int,
        doc_count: int,
        sum_total_term_freq: int,
        boost: float = 1.0,
        total_term_freq: int = 0,
    ) -> IBScorer:
        lam = np.float32((doc_freq + 1.0) / (doc_count + 1.0))
        return IBScorer(
            np.float32(boost), lam, self._cache(sum_total_term_freq, doc_count)
        )

    def phrase_scorer(
        self,
        doc_freqs: list[int],
        doc_count: int,
        sum_total_term_freq: int,
        boost: float = 1.0,
        total_term_freqs: list[int] | None = None,
    ) -> IBScorer:
        df = max(doc_freqs, default=0)
        lam = np.float32((df + 1.0) / (doc_count + 1.0))
        return IBScorer(
            np.float32(boost), lam, self._cache(sum_total_term_freq, doc_count)
        )


class IBExactSimilarity:
    """Float64 exact-length IB(LL, DF, H2) twin for DuckDB oracle parity —
    the two logs (H2's log2 and LL's ln) go through libm via the
    unique-value LUT; log2 written ln/ln(2) on both sides."""

    def __init__(self, c: float = 1.0):
        self.c = float(c)

    def score(
        self,
        freq: np.ndarray,
        doc_len: np.ndarray,
        doc_freq: int,
        doc_count: int,
        avgdl: float,
        ttf: int = 0,
        sum_len: int = 0,
    ) -> np.ndarray:
        f = np.asarray(freq, dtype=np.float64)
        dl = np.maximum(np.asarray(doc_len, dtype=np.float64), 1.0)
        ln2 = math.log(2.0)
        tfn = f * (_ulog(1.0 + self.c * avgdl / dl) / ln2)
        lam = (doc_freq + 1.0) / (doc_count + 1.0)
        return _ulog(1.0 + tfn / lam)

    def sql(
        self, tf: str, dl: str, df: str, n: str, avgdl: str,
        ttf: str = "0", sum_len: str = "0",
    ) -> str:
        c = repr(self.c)
        tfn = f"({tf} * (ln(1 + {c} * {avgdl} / greatest({dl}, 1.0)) / ln(2.0)))"
        lam = f"(({df} + 1.0) / ({n} + 1.0))"
        return f"ln(1 + {tfn} / {lam})"


LM_LAMBDA_DEFAULT = 0.1


class LMJelinekMercerScorer:
    """Jelinek-Mercer-smoothed LM per-term scorer over byte-encoded norms:
    score = weight * log(1 + freq * cache[norm]) with
    cache[b] = (1 - lambda) / (max(dl_b, 1) * lambda * p(t|C)).
    Monotone increasing in freq and decreasing in dl, so per-impact-pair
    evaluation yields true block upper bounds."""

    __slots__ = ("weight", "cache")

    def __init__(self, weight: np.float32, cache: np.ndarray):
        self.weight = weight
        self.cache = cache

    def score(self, freq: np.ndarray, norm_bytes: np.ndarray) -> np.ndarray:
        f = np.asarray(freq, dtype=np.float32)
        c = self.cache[np.asarray(norm_bytes, dtype=np.int64) & 0xFF]
        return self.weight * np.log1p(f * c)

    def max_score(self, impacts_packed) -> np.float32:
        arr = np.asarray(impacts_packed, dtype=np.int64)
        if arr.size == 0:
            return np.float32(0.0)
        return self.score((arr >> 8).astype(np.float32), arr & 0xFF).max()

    def max_score_blocks(
        self, tfs: np.ndarray, norms: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        x = tfs.astype(np.float32) * self.cache[norms]
        m = np.maximum.reduceat(x, offsets)
        return (self.weight * np.log1p(m)).astype(np.float64)

    def global_max_score(self) -> np.float32:
        with np.errstate(over="ignore"):
            return self.score(
                np.array([np.finfo(np.float32).max], dtype=np.float32),
                np.array([1]),
            )[0]


class LMJelinekMercerSimilarity:
    """Jelinek-Mercer-smoothed query-likelihood LM
    (search/similarities/LMJelinekMercerSimilarity.java:38:
    score = boost * log(1 + ((1-lambda) * freq / docLen) /
    (lambda * p(t|C))); collection model
    p(t|C) = (totalTermFreq + 1) / (sumTotalTermFreq + 1), lambda in (0,1);
    the reference suggests ~0.1 for short queries). Engine float32
    quantized-norm member; oracle twin is LMJelinekMercerExactSimilarity."""

    def __init__(self, lam: float = LM_LAMBDA_DEFAULT):
        if not np.isfinite(lam) or not (0 < lam < 1):
            raise ValueError(f"lambda must be in the range (0..1): {lam}")
        self.lam = float(lam)

    def _make(self, total_term_freq: int, sum_total_term_freq: int, boost: float):
        p = (total_term_freq + 1.0) / (sum_total_term_freq + 1.0)
        dl = np.maximum(LENGTH_TABLE_F32, np.float32(1.0))
        cache = (
            np.float32(1.0 - self.lam) / (dl * np.float32(self.lam * p))
        ).astype(np.float32)
        return LMJelinekMercerScorer(np.float32(boost), cache)

    def scorer(
        self,
        doc_freq: int,
        doc_count: int,
        sum_total_term_freq: int,
        boost: float = 1.0,
        total_term_freq: int = 0,
    ) -> LMJelinekMercerScorer:
        return self._make(total_term_freq, sum_total_term_freq, boost)

    def phrase_scorer(
        self,
        doc_freqs: list[int],
        doc_count: int,
        sum_total_term_freq: int,
        boost: float = 1.0,
        total_term_freqs: list[int] | None = None,
    ) -> LMJelinekMercerScorer:
        ttf = sum(total_term_freqs or [0])
        return self._make(ttf, sum_total_term_freq, boost)


class LMJelinekMercerExactSimilarity:
    """Float64 exact-length Jelinek-Mercer LM twin for DuckDB oracle
    parity (per-row ln via the libm unique-value LUT)."""

    def __init__(self, lam: float = LM_LAMBDA_DEFAULT):
        self.lam = float(lam)

    def score(
        self,
        freq: np.ndarray,
        doc_len: np.ndarray,
        doc_freq: int,
        doc_count: int,
        avgdl: float,
        ttf: int = 0,
        sum_len: int = 0,
    ) -> np.ndarray:
        f = np.asarray(freq, dtype=np.float64)
        dl = np.maximum(np.asarray(doc_len, dtype=np.float64), 1.0)
        p = (ttf + 1.0) / (sum_len + 1.0)
        return _ulog(1.0 + ((1.0 - self.lam) * f / dl) / (self.lam * p))

    def sql(
        self, tf: str, dl: str, df: str, n: str, avgdl: str,
        ttf: str = "0", sum_len: str = "0",
    ) -> str:
        lam = repr(self.lam)
        p = f"(({ttf} + 1.0) / ({sum_len} + 1.0))"
        return (
            f"ln(1 + ((1.0 - {lam}) * {tf} / greatest({dl}, 1.0))"
            f" / ({lam} * {p}))"
        )


AX_K_DEFAULT = 0.35
AX_S_DEFAULT = 0.5


class AxiomaticF2EXP:
    """Axiomatic F2EXP similarity (search/similarities/AxiomaticF2EXP.java:
    score = boost * ((N+1)/df)^k * freq / (freq + s + s*docLen/avgdl);
    the Axiomatic framework's tf()=1, ln()=1, tfln()=saturation, idf()=
    inverted power-law components multiplied, gamma()=0; defaults
    k = 0.35, s = 0.5). freq/(freq + C(dl)) == the BM25 saturation form
    w - w/(1 + freq/C), so the scorer IS BM25Scorer with
    weight = boost * idf and cache[b] = 1 / (s + s*dl_b/avgdl) — the
    block-max machinery is reused verbatim."""

    def __init__(self, k: float = AX_K_DEFAULT, s: float = AX_S_DEFAULT):
        if not np.isfinite(k) or k <= 0:
            raise ValueError(f"illegal k value: {k}")
        if not np.isfinite(s) or s <= 0:
            raise ValueError(f"illegal s value: {s}")
        self.k = float(k)
        self.s = float(s)

    def _cache(self, sum_total_term_freq: int, doc_count: int) -> np.ndarray:
        avgdl = (
            np.float32(sum_total_term_freq / float(doc_count))
            if sum_total_term_freq
            else np.float32(1.0)
        )
        c = np.float32(self.s) + np.float32(self.s) * LENGTH_TABLE_F32 / avgdl
        return (np.float32(1.0) / c).astype(np.float32)

    def _idf(self, doc_freq: int, doc_count: int) -> np.float32:
        return np.float32(
            math.pow((doc_count + 1.0) / max(doc_freq, 1), self.k)
        )

    def scorer(
        self,
        doc_freq: int,
        doc_count: int,
        sum_total_term_freq: int,
        boost: float = 1.0,
        total_term_freq: int = 0,
    ) -> BM25Scorer:
        weight = np.float32(boost) * self._idf(doc_freq, doc_count)
        return BM25Scorer(weight, self._cache(sum_total_term_freq, doc_count))

    def phrase_scorer(
        self,
        doc_freqs: list[int],
        doc_count: int,
        sum_total_term_freq: int,
        boost: float = 1.0,
        total_term_freqs: list[int] | None = None,
    ) -> BM25Scorer:
        idf_sum = 0.0
        for df in doc_freqs:
            idf_sum += float(self._idf(df, doc_count))
        return BM25Scorer(
            np.float32(boost) * np.float32(idf_sum),
            self._cache(sum_total_term_freq, doc_count),
        )


class AxiomaticF2EXPExactSimilarity:
    """Float64 exact-length F2EXP twin for DuckDB oracle parity. The only
    transcendental is the per-term scalar pow((N+1)/df, k) — DuckDB's
    pow() bit-matches libm pow (verified empirically over the (N+1)/df
    domain); the per-row part is pure rational arithmetic."""

    def __init__(self, k: float = AX_K_DEFAULT, s: float = AX_S_DEFAULT):
        self.k = float(k)
        self.s = float(s)

    def score(
        self,
        freq: np.ndarray,
        doc_len: np.ndarray,
        doc_freq: int,
        doc_count: int,
        avgdl: float,
        ttf: int = 0,
        sum_len: int = 0,
    ) -> np.ndarray:
        f = np.asarray(freq, dtype=np.float64)
        dl = np.asarray(doc_len, dtype=np.float64)
        idf = math.pow((doc_count + 1.0) / doc_freq, self.k)
        return idf * (f / (f + self.s + self.s * dl / avgdl))

    def sql(
        self, tf: str, dl: str, df: str, n: str, avgdl: str,
        ttf: str = "0", sum_len: str = "0",
    ) -> str:
        k, s = repr(self.k), repr(self.s)
        idf = f"pow(({n} + 1.0) / {df}, {k})"
        return f"{idf} * ({tf} / ({tf} + {s} + {s} * {dl} / {avgdl}))"
