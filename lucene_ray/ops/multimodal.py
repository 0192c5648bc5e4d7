"""Multimodal column plumbing: opaque binary payloads + typed metadata
through actor-pool decode/feature stages.

Two decode paths share the same Ray-side plumbing. FeatureExtractor,
FrameSampler and Resizer treat payloads as raw bytes (byte histograms,
fixed-size chunks, a row-major uint8 matrix): no image/audio/video library
is a dependency. MediaDecoder (below) decodes real PNG and WAV containers
with the pure-Python codecs in ops/media_codec.py. The plumbing:
  - binary column + metadata schema (media_id, media_type, payload, n_bytes)
  - actor-pool stage (callable class: "codec" loaded once per actor in
    __init__, batches in __call__) with small batch_size because payload
    rows are wide (ray_guide: memory-aware batch sizing for binary blobs)
  - fixed-width feature vectors out (list<float> column), ready for the
    knn/dedup pipelines downstream
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data


def media_table(sf_dir: str) -> "ray.data.Dataset":
    """Treat document text bytes as opaque media payloads (schema demo)."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def to_media(batch: pa.Table) -> pa.Table:
        payloads = [t.encode() for t in batch.column("text").to_pylist()]
        return pa.table(
            {
                "media_id": batch.column("doc_id"),
                "media_type": pa.array(["application/octet-stream"] * batch.num_rows),
                "payload": pa.array(payloads, type=pa.large_binary()),
                "n_bytes": pa.array([len(p) for p in payloads], type=pa.int64()),
            }
        )

    return ds.map_batches(to_media, batch_format="pyarrow", batch_size=1024)


class FeatureExtractor:
    """Actor-pool stage: byte-histogram 'features' from binary payloads.
    A real image/audio decoder would load once per actor in __init__."""

    def __init__(self, n_bins: int = 16):
        self.n_bins = n_bins
        # "model load" happens once per actor: precompute the bin lookup
        self.bin_of_byte = (np.arange(256) * n_bins // 256).astype(np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = []
        for payload in batch.column("payload").to_pylist():
            arr = np.frombuffer(payload, dtype=np.uint8)
            hist = np.bincount(self.bin_of_byte[arr], minlength=self.n_bins).astype(
                np.float32
            )
            total = hist.sum()
            feats.append((hist / total if total else hist).tolist())
        return pa.table(
            {
                "media_id": batch.column("media_id"),
                "n_bytes": batch.column("n_bytes"),
                "features": pa.array(feats, type=pa.list_(pa.float32())),
            }
        )


def extract_features(sf_dir: str, concurrency: int = 2) -> "ray.data.Dataset":
    """media -> features via the actor pool (small batches: wide rows)."""
    return media_table(sf_dir).map_batches(
        FeatureExtractor,
        fn_constructor_kwargs=dict(n_bins=16),
        batch_format="pyarrow",
        batch_size=256,
        concurrency=concurrency,
        num_cpus=1,
    )


class FeatureSummarizer:
    """Actor-pool stage: integer byte-histogram summary (driver-gate twin of
    FeatureExtractor — same bins, pre-normalization counts, so every output
    column is exactly SQL-expressible: bin16 of a byte is its high nibble,
    which DuckDB reads straight out of hex(encode(text))). Vectorized: one
    bincount over the batch's concatenated payload bytes."""

    def __init__(self, n_bins: int = 16):
        assert 256 % n_bins == 0
        self.n_bins = n_bins
        self.bin_of_byte = (np.arange(256) * n_bins // 256).astype(np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch.column("payload").combine_chunks()
        n = len(col)
        offs = np.frombuffer(col.buffers()[1], dtype=np.int64, count=n + 1)
        data = np.frombuffer(col.buffers()[2], dtype=np.uint8, count=int(offs[-1]))
        lens = np.diff(offs)
        row_of_byte = np.repeat(np.arange(n, dtype=np.int64), lens)
        hist = np.bincount(
            row_of_byte * self.n_bins + self.bin_of_byte[data],
            minlength=n * self.n_bins,
        ).reshape(n, self.n_bins)
        return pa.table(
            {
                "media_id": batch.column("media_id"),
                "n_bytes": batch.column("n_bytes"),
                "top_bin": pa.array(hist.argmax(axis=1), type=pa.int64()),
                "top_count": pa.array(hist.max(axis=1), type=pa.int64()),
            }
        )


def media_features_summary(sf_dir: str, concurrency: int = 2) -> pa.Table:
    """(media_id, n_bytes, top_bin, top_count): deterministic all-integer
    feature summary for the driver gate — top_bin is the modal high nibble
    (ties -> lowest bin, np.argmax first-wins), exactly mirrored in SQL by
    ranking hex-digit counts of hex(encode(text))."""
    ds = media_table(sf_dir).map_batches(
        FeatureSummarizer,
        fn_constructor_kwargs=dict(n_bins=16),
        batch_format="pyarrow",
        batch_size=256,
        concurrency=concurrency,
        num_cpus=1,
    )
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def media_features_summary_sql() -> str:
    return """
WITH hx AS (
  SELECT doc_id, hex(encode(text)) AS h FROM documents
), pos AS (
  SELECT doc_id, h, unnest(range(1, length(h) // 2 + 1)) AS i FROM hx
), nib AS (
  SELECT doc_id,
         strpos('0123456789ABCDEF', substring(h, 2 * i - 1, 1)) - 1 AS bin
  FROM pos
), cnt AS (
  SELECT doc_id, bin, count(*)::BIGINT AS c FROM nib GROUP BY doc_id, bin
), ranked AS (
  SELECT doc_id, bin, c,
         row_number() OVER (PARTITION BY doc_id ORDER BY c DESC, bin ASC) AS rn
  FROM cnt
)
SELECT r.doc_id AS media_id,
       octet_length(encode(d.text))::BIGINT AS n_bytes,
       r.bin::BIGINT AS top_bin,
       r.c AS top_count
FROM ranked r JOIN documents d ON d.doc_id = r.doc_id
WHERE r.rn = 1
"""


class FrameSampler:
    """Actor-pool stage: sample every ``stride``-th fixed-size 'frame' from
    a binary payload — the video frame-sampling plumbing (rows EXPAND:
    one media row -> several frame rows, so output batches are wider than
    input; batch_size stays small). A real implementation replaces the
    chunk split with a container demuxer loaded once in __init__."""

    def __init__(self, frame_bytes: int = 4096, stride: int = 4):
        self.frame_bytes = frame_bytes
        self.stride = stride

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, idxs, frames = [], [], []
        for mid, payload in zip(
            batch.column("media_id").to_pylist(), batch.column("payload").to_pylist()
        ):
            n_frames = max(1, (len(payload) + self.frame_bytes - 1) // self.frame_bytes)
            for fi in range(0, n_frames, self.stride):
                ids.append(mid)
                idxs.append(fi)
                frames.append(payload[fi * self.frame_bytes : (fi + 1) * self.frame_bytes])
        return pa.table(
            {
                "media_id": pa.array(ids, type=pa.int64()),
                "frame_idx": pa.array(idxs, type=pa.int32()),
                "frame": pa.array(frames, type=pa.large_binary()),
            }
        )


class Resizer:
    """Actor-pool stage: area-average 'image' downsampling. The payload is
    interpreted as a row-major uint8 matrix (h inferred from n_bytes and a
    declared width); output is a fixed (out_h x out_w) byte matrix. The
    RESIZE KERNEL is real vectorized numpy — only the image DECODE is a
    stand-in (a real deployment loads its decoder in __init__)."""

    def __init__(self, width: int = 64, out_h: int = 8, out_w: int = 8):
        self.width = width
        self.out_h = out_h
        self.out_w = out_w

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        for payload in batch.column("payload").to_pylist():
            w = self.width
            # ceil division: a trailing partial row participates (zero-padded)
            h = max(1, -(-len(payload) // w))
            buf = np.frombuffer(payload, dtype=np.uint8)
            if len(buf) < h * w:
                buf = np.concatenate([buf, np.zeros(h * w - len(buf), dtype=np.uint8)])
            img = buf.reshape(h, w)
            # area-average pooling to (out_h, out_w): integer bucket edges
            ys = np.linspace(0, h, self.out_h + 1).astype(np.int64)
            xs = np.linspace(0, w, self.out_w + 1).astype(np.int64)
            small = np.empty((self.out_h, self.out_w), dtype=np.uint8)
            csum = img.astype(np.int64).cumsum(0).cumsum(1)
            padded = np.zeros((h + 1, w + 1), dtype=np.int64)
            padded[1:, 1:] = csum
            for i in range(self.out_h):
                for j in range(self.out_w):
                    y0, y1 = ys[i], max(ys[i + 1], ys[i] + 1)
                    x0, x1 = xs[j], max(xs[j + 1], xs[j] + 1)
                    y1, x1 = min(y1, h), min(x1, w)
                    area = max(1, (y1 - y0) * (x1 - x0))
                    tot = (
                        padded[y1, x1] - padded[y0, x1] - padded[y1, x0] + padded[y0, x0]
                    )
                    small[i, j] = tot // area
            out.append(small.tobytes())
        return pa.table(
            {
                "media_id": batch.column("media_id"),
                "thumb": pa.array(out, type=pa.large_binary()),
            }
        )


def sample_frames(sf_dir: str, concurrency: int = 2) -> "ray.data.Dataset":
    """media -> sampled frame rows via the actor pool."""
    return media_table(sf_dir).map_batches(
        FrameSampler,
        batch_format="pyarrow",
        batch_size=128,
        concurrency=concurrency,
        num_cpus=1,
    )


def resize_thumbs(sf_dir: str, concurrency: int = 2) -> "ray.data.Dataset":
    """media -> fixed-size thumbnails via the actor pool."""
    return media_table(sf_dir).map_batches(
        Resizer,
        batch_format="pyarrow",
        batch_size=128,
        concurrency=concurrency,
        num_cpus=1,
    )


# -------------------------------------------------------- REAL codec pipeline
# Round 4: the decode kernel is no longer a stub for PNG and WAV — real
# container bytes are synthesized deterministically per doc_id, then decoded
# by the pure-Python/stdlib codecs in ops/media_codec.py (zlib inflate +
# full PNG unfilter; RIFF PCM parse). The gate features are pure functions
# of doc_id, so DuckDB verifies the encode->decode path end-to-end: a
# decoder bug changes pixel sums / peaks and the hash breaks.


def _synth_png(doc_id: int) -> bytes:
    from lucene_ray.ops.media_codec import encode_png

    w = 4 + doc_id % 5
    h = 6 + doc_id % 4  # >= 6 rows -> every PNG filter type exercised
    x = np.arange(w, dtype=np.int64)
    y = np.arange(h, dtype=np.int64)[:, None]
    px = ((doc_id * 7 + x * 13 + y * 31) % 256).astype(np.uint8)
    return encode_png(px)


def _synth_wav(doc_id: int) -> bytes:
    from lucene_ray.ops.media_codec import encode_wav_pcm16

    n = 256 + doc_id % 128
    p = 2 + doc_id % 7
    a = 1000 + (doc_id % 100) * 10
    i = np.arange(n, dtype=np.int64)
    samples = np.where((i // p) % 2 == 0, a, -a).astype(np.int16)
    return encode_wav_pcm16(samples, sample_rate=8000)


def synth_media_table(sf_dir: str) -> "ray.data.Dataset":
    """One REAL media payload per document row: even doc_ids get a PNG
    (deterministic gradient), odd ones a WAV (square wave) — both pure
    functions of doc_id (the synth-geo stance, SQL-mirrorable)."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def to_media(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        payloads, kinds = [], []
        for d in ids:
            if d % 2 == 0:
                payloads.append(_synth_png(d))
                kinds.append("image/png")
            else:
                payloads.append(_synth_wav(d))
                kinds.append("audio/wav")
        return pa.table(
            {
                "media_id": batch.column("doc_id"),
                "media_type": pa.array(kinds, type=pa.string()),
                "payload": pa.array(payloads, type=pa.large_binary()),
                "n_bytes": pa.array(
                    [len(p) for p in payloads], type=pa.int64()
                ),
            }
        )

    return ds.map_batches(to_media, batch_format="pyarrow", batch_size=512)


class MediaDecoder:
    """Actor-pool stage with a REAL decode kernel: PNG -> pixel matrix,
    WAV -> sample array (ops/media_codec.py). Emits one unified integer
    feature row per item:
      PNG: a = width, b = height, c = pixel sum
      WAV: a = n_samples, b = sample_rate, c = peak amplitude
    Integer features -> exactly SQL-hashable."""

    def __init__(self):
        # codec dispatch table built once per actor
        from lucene_ray.ops.media_codec import decode_png, decode_wav

        self._png = decode_png
        self._wav = decode_wav

    def __call__(self, batch: pa.Table) -> pa.Table:
        a, b, c = [], [], []
        for kind, payload in zip(
            batch.column("media_type").to_pylist(),
            batch.column("payload").to_pylist(),
        ):
            if kind == "image/png":
                px = self._png(payload)
                a.append(px.shape[1])
                b.append(px.shape[0])
                c.append(int(px.sum(dtype=np.int64)))
            elif kind == "audio/wav":
                samples, rate = self._wav(payload)
                a.append(len(samples))
                b.append(rate)
                c.append(int(np.abs(samples.astype(np.int64)).max()))
            else:
                raise NotImplementedError(f"no decoder for {kind}")
        return pa.table(
            {
                "media_id": batch.column("media_id"),
                "kind": batch.column("media_type"),
                "a": pa.array(a, type=pa.int64()),
                "b": pa.array(b, type=pa.int64()),
                "c": pa.array(c, type=pa.int64()),
            }
        )


def media_decode(sf_dir: str, concurrency: int = 2) -> pa.Table:
    """(media_id, kind, a, b, c): REAL decode features over synthesized
    real container bytes (see MediaDecoder). The oracle recomputes every
    feature as a pure function of doc_id — including the PNG pixel SUM,
    which only a correct inflate+unfilter can reproduce."""
    ds = synth_media_table(sf_dir).map_batches(
        MediaDecoder,
        batch_format="pyarrow",
        batch_size=256,
        concurrency=concurrency,
        num_cpus=1,
    )
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def media_decode_sql() -> str:
    return """
WITH png AS (
  -- fixed-bound series + a per-row cut (DuckDB's generate_series takes no
  -- lateral column parameters); max w = 8, max h = 9
  SELECT d.doc_id,
         SUM((d.doc_id * 7 + x.x * 13 + y.y * 31) % 256)::BIGINT AS psum
  FROM documents d, generate_series(0, 8) AS x(x), generate_series(0, 9) AS y(y)
  WHERE d.doc_id % 2 = 0
    AND x.x < 4 + d.doc_id % 5
    AND y.y < 6 + d.doc_id % 4
  GROUP BY d.doc_id
)
SELECT p.doc_id AS media_id, 'image/png' AS kind,
       (4 + p.doc_id % 5)::BIGINT AS a,
       (6 + p.doc_id % 4)::BIGINT AS b,
       p.psum AS c
FROM png p
UNION ALL
SELECT doc_id AS media_id, 'audio/wav' AS kind,
       (256 + doc_id % 128)::BIGINT AS a,
       8000::BIGINT AS b,
       (1000 + (doc_id % 100) * 10)::BIGINT AS c
FROM documents WHERE doc_id % 2 = 1
"""
