"""Multimodal (image/audio/video) columns as opaque binary + typed metadata.

The reference handles page images only transiently (PIL Images inside the
OCR loop, ``pdf_processor.py:492-505``, ``ocr_engine.py:176-177``); at
100 TB the media must instead live as first-class ``binary`` columns with
typed metadata, and every decode/resize/feature step is a plain task map
(``map_batches`` of a module function over small batches; payloads are
MBs/row).  The stages keep no per-worker state, so any worker takes any
batch and no pool holds a CPU the read task needs.

This container ships no image/audio codecs, so the *codec* is a
deterministic fake — a versioned header + raw little-endian samples that
round-trips exactly — while the Ray-side plumbing (schema, batch
function signature, batch sizing, output layout) is real and tested.  A
real deployment swaps ``_decode_payload`` for PIL/libav; ``decode_real``
marks that seam explicitly.

Media table schema:
  media_id: string, media_type: string in {image, audio, video},
  payload: binary, width/height/channels/sample_rate/n_frames: int32

Payload wire format (fake codec v1):
  b"MMK1" | type:uint8 (0=image,1=audio,2=video) | 4x uint32 LE dims
  | uint8 samples (image/video pixels row-major, audio PCM midpoints)
"""

from __future__ import annotations

import struct

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

_MAGIC = b"MMK1"
_TYPES = {"image": 0, "audio": 1, "video": 2}
_TYPE_NAMES = {v: k for k, v in _TYPES.items()}


# ---------------------------------------------------------------------------
# fake codec (deterministic, exact round-trip)
# ---------------------------------------------------------------------------
def encode_image(arr: np.ndarray) -> bytes:
    """(h, w, c) uint8 -> payload bytes."""
    h, w, c = arr.shape
    return _MAGIC + struct.pack("<BIIII", 0, h, w, c, 0) + arr.tobytes()


def encode_audio(pcm: np.ndarray, sample_rate: int) -> bytes:
    """(n,) uint8 PCM -> payload bytes."""
    return _MAGIC + struct.pack("<BIIII", 1, len(pcm), sample_rate, 0, 0) + pcm.tobytes()


def encode_video(frames: np.ndarray) -> bytes:
    """(f, h, w) uint8 grayscale frames -> payload bytes."""
    f, h, w = frames.shape
    return _MAGIC + struct.pack("<BIIII", 2, f, h, w, 0) + frames.tobytes()


def _decode_payload(payload: bytes) -> tuple[str, np.ndarray, dict]:
    """payload -> (media_type, ndarray, meta).  The fake-codec seam."""
    if payload[:4] != _MAGIC:
        raise ValueError("bad multimodal payload magic")
    t, a, b, c, _ = struct.unpack("<BIIII", payload[4:21])
    raw = np.frombuffer(payload[21:], dtype=np.uint8)
    kind = _TYPE_NAMES[t]
    if kind == "image":
        return kind, raw.reshape(a, b, c), {"height": a, "width": b, "channels": c}
    if kind == "audio":
        return kind, raw[:a], {"n_samples": a, "sample_rate": b}
    return kind, raw.reshape(a, b, c), {"n_frames": a, "height": b, "width": c}


def decode_real(payload: bytes):  # pragma: no cover - deployment seam
    """Real-codec slot (PIL / soundfile / libav).  Not available here."""
    raise NotImplementedError(
        "real image/audio codecs are not installed in this environment; "
        "swap _decode_payload for this in deployment"
    )


def synth_media_table(n: int = 64, seed: int = 7) -> pa.Table:
    """Deterministic media table (cycling image/audio/video payloads)."""
    rng = np.random.default_rng(seed)
    ids, types, payloads = [], [], []
    meta = {k: [] for k in ("width", "height", "channels", "sample_rate", "n_frames")}
    for i in range(n):
        kind = ("image", "audio", "video")[i % 3]
        ids.append(f"m{i:05d}")
        types.append(kind)
        if kind == "image":
            h, w = int(rng.integers(8, 64)), int(rng.integers(8, 64))
            payloads.append(encode_image(rng.integers(0, 256, (h, w, 3), dtype=np.uint8)))
            vals = (w, h, 3, 0, 0)
        elif kind == "audio":
            ns, sr = int(rng.integers(100, 4000)), 16000
            payloads.append(encode_audio(rng.integers(0, 256, ns, dtype=np.uint8), sr))
            vals = (0, 0, 0, sr, 0)
        else:
            f, h, w = int(rng.integers(2, 12)), 16, 16
            payloads.append(encode_video(rng.integers(0, 256, (f, h, w), dtype=np.uint8)))
            vals = (w, h, 0, 0, f)
        for k, v in zip(meta, vals):
            meta[k].append(v)
    return pa.table(
        {
            "media_id": pa.array(ids),
            "media_type": pa.array(types),
            "payload": pa.array(payloads, type=pa.binary()),
            **{k: pa.array(v, type=pa.int32()) for k, v in meta.items()},
        }
    )


def media_from_text_batch(batch: pa.Table) -> pa.Table:
    """Derive a media table deterministically from (doc_id, text) rows.

    Ties the multimodal suite to the driver's documents table without
    external data: the text's utf-8 bytes become the pixel/PCM samples
    (tiled to size), media_type cycles by row hash.  Purely a synthetic
    payload source; the downstream stages are the real thing.
    """
    ids, types, payloads = [], [], []
    for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
        raw = np.frombuffer(text.encode()[:4096].ljust(16, b"\0"), dtype=np.uint8)
        kind = ("image", "audio", "video")[int(doc_id) % 3]
        ids.append(str(doc_id))
        types.append(kind)
        if kind == "image":
            payloads.append(
                encode_image(np.resize(raw, (16, 16, 3)).astype(np.uint8))
            )
        elif kind == "audio":
            payloads.append(encode_audio(np.resize(raw, 2048).astype(np.uint8), 16000))
        else:
            payloads.append(
                encode_video(np.resize(raw, (8, 16, 16)).astype(np.uint8))
            )
    return pa.table(
        {
            "media_id": pa.array(ids),
            "media_type": pa.array(types),
            "payload": pa.array(payloads, type=pa.binary()),
        }
    )


# ---------------------------------------------------------------------------
# batch stages: plain task functions (decoding keeps no per-worker state)
# ---------------------------------------------------------------------------
N_BINS = 16


def _rows(batch: pa.Table, *cols: str):
    return zip(*(batch[c].to_pylist() for c in cols))


def _features(kind: str, arr: np.ndarray, frame_stride: int = 2) -> np.ndarray:
    if kind == "image":
        luma = arr.mean(axis=2).ravel()
        hist, _ = np.histogram(luma, bins=N_BINS, range=(0, 256))
        return hist / max(1, luma.size)
    if kind == "audio":
        chunks = np.array_split(arr.astype(np.float64), N_BINS)
        return np.array([c.mean() / 255.0 if c.size else 0.0 for c in chunks])
    sampled = arr[::frame_stride]
    means = sampled.reshape(sampled.shape[0], -1).mean(axis=1) / 255.0
    out = np.zeros(N_BINS)
    out[: min(N_BINS, len(means))] = means[:N_BINS]
    return out


def featurize_batch(batch: pa.Table, frame_stride: int = 2) -> pa.Table:
    """payload -> fixed-width feature vector.

    Image: 16-bin luma histogram (normalized).  Audio: 16 frame-energy
    windows.  Video: per-frame mean luma of ``frame_stride``-sampled
    frames, padded/truncated to 16.  All deterministic.
    """
    feats = []
    for kind, payload in _rows(batch, "media_type", "payload"):
        k, arr, _ = _decode_payload(payload)
        assert k == kind
        feats.append(_features(kind, arr, frame_stride))
    return pa.table(
        {
            "media_id": batch["media_id"],
            "media_type": batch["media_type"],
            "features": pa.array(
                [f.tolist() for f in feats], type=pa.list_(pa.float64())
            ),
        }
    )


# M2/M3 OCR image preprocessing: grayscale -> denoise -> contrast enhance
# -> deskew, mirroring the reference chain (``ocr_engine.py:75-161``: cv2
# grayscale, fastNlMeansDenoising, CLAHE, minAreaRect deskew) with numpy
# kernels (no cv2 dependency):
#   * grayscale: ITU-R 601 luma;
#   * denoise: 3x3 box blur (the NlMeans slot);
#   * contrast: 2-98 percentile stretch (the CLAHE slot);
#   * deskew: ``_estimate_skew_deg`` is the cv2 seam -- here it returns
#     0.0 (payloads are synthetic, there is no line structure to
#     estimate), and rotation applies only for non-zero angles, so the
#     plumbing is exercised while the heavy kernel stays a marked seam.
def _grayscale(arr: np.ndarray) -> np.ndarray:
    if arr.shape[-1] == 1:  # already single-channel (e.g. our own output)
        return arr[..., 0].astype(np.float64)
    luma = arr[..., 0] * 0.299 + arr[..., 1] * 0.587 + arr[..., 2] * 0.114
    return luma.astype(np.float64)


def _box_blur(g: np.ndarray) -> np.ndarray:
    p = np.pad(g, 1, mode="edge")
    out = sum(
        p[di : di + g.shape[0], dj : dj + g.shape[1]]
        for di in range(3)
        for dj in range(3)
    )
    return out / 9.0


def _stretch(g: np.ndarray) -> np.ndarray:
    lo, hi = np.percentile(g, (2.0, 98.0))
    if hi <= lo:
        return g
    return np.clip((g - lo) * (255.0 / (hi - lo)), 0, 255)


def _estimate_skew_deg(g: np.ndarray) -> float:  # cv2 seam
    """minAreaRect-style skew estimation slot; 0.0 for the fake codec."""
    return 0.0


def _rotate(g: np.ndarray, deg: float) -> np.ndarray:
    if abs(deg) < 0.05:
        return g
    # nearest-neighbour rotation about the center (the cv2
    # warpAffine slot); bounds clamp keeps the canvas size
    rad = np.deg2rad(deg)
    h, w = g.shape
    yy, xx = np.mgrid[0:h, 0:w]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    sy = ((yy - cy) * np.cos(rad) - (xx - cx) * np.sin(rad) + cy).round()
    sx = ((yy - cy) * np.sin(rad) + (xx - cx) * np.cos(rad) + cx).round()
    sy = np.clip(sy, 0, h - 1).astype(np.int64)
    sx = np.clip(sx, 0, w - 1).astype(np.int64)
    return g[sy, sx]


def preprocess_one(
    arr: np.ndarray, denoise: bool = True, contrast: bool = True, deskew: bool = True
) -> np.ndarray:
    g = _grayscale(arr)
    if denoise:
        g = _box_blur(g)
    if contrast:
        g = _stretch(g)
    if deskew:
        g = _rotate(g, _estimate_skew_deg(g))
    return np.rint(g).astype(np.uint8)[..., None]  # (h, w, 1)


def preprocess_batch(batch: pa.Table, **knobs) -> pa.Table:
    """``preprocess_one`` over image payloads, re-encoded as single-channel
    images; non-image rows pass through untouched."""
    out_payloads, out_ch = [], []
    for kind, payload in _rows(batch, "media_type", "payload"):
        if kind != "image":
            out_payloads.append(payload)
            out_ch.append(0)
            continue
        _, arr, _ = _decode_payload(payload)
        pre = preprocess_one(arr, **knobs)
        out_payloads.append(encode_image(np.ascontiguousarray(pre)))
        out_ch.append(1)
    cols = {name: batch[name] for name in batch.column_names}
    cols["payload"] = pa.array(out_payloads, type=pa.binary())
    if "channels" in batch.column_names:
        cols["channels"] = pa.array(out_ch, type=pa.int32())
    return pa.table(cols)


def _resize(arr: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    h, w, _ = arr.shape
    ri = (np.arange(out_h) * h // out_h).astype(np.int64)
    ci = (np.arange(out_w) * w // out_w).astype(np.int64)
    return arr[np.ix_(ri, ci)]


def resize_batch(batch: pa.Table, out_h: int = 32, out_w: int = 32) -> pa.Table:
    """Nearest-neighbour resize of image payloads to (out_h, out_w).

    Re-encodes with the fake codec so downstream stages keep the same
    payload contract; non-image rows pass through untouched.
    """
    out_payloads, out_wd, out_ht = [], [], []
    for kind, payload in _rows(batch, "media_type", "payload"):
        if kind != "image":
            out_payloads.append(payload)
            out_wd.append(0)
            out_ht.append(0)
            continue
        _, arr, _ = _decode_payload(payload)
        small = _resize(arr, out_h, out_w)
        out_payloads.append(encode_image(np.ascontiguousarray(small)))
        out_ht.append(out_h)
        out_wd.append(out_w)
    cols = {name: batch[name] for name in batch.column_names}
    cols["payload"] = pa.array(out_payloads, type=pa.binary())
    cols["width"] = pa.array(out_wd, type=pa.int32())
    cols["height"] = pa.array(out_ht, type=pa.int32())
    return pa.table(cols)


# Average-hash (aHash) perceptual fingerprint over image payloads -- the
# image-dedup kernel (identical/near-identical pictures re-encoded with
# different bytes hash together, which exact byte-hash dedup misses).
#
# Candidate keying is the Manku-Jain-Sarma permute-and-split scheme (WWW
# 2007 §3): the 64-bit hash splits into 6 BLOCKS (11/11/11/11/10/10 bits)
# and each of the C(6,3)=20 block TRIPLES becomes a 33-bit table key --
# any pair within hamming 3 leaves >= 3 blocks untouched, so it shares
# >= 1 key (exact recall), while key collisions thin as ~n/2^33.  The
# naive 4 x 16-bit banding has the same recall bound but its buckets
# saturate once n approaches 2^16 per band (measured: 1.28M images ->
# ~20 rows/bucket -> ~50M candidate comparisons); the triple keys stay
# sparse at 100 TB image counts.  The 4 x 16-bit bands still ride along
# each row -- they are the verification payload (xor+popcount hamming).
#
# All-integer on purpose: luma = (299r + 587g + 114b) // 1000, 8x8 grid
# by the ``_resize`` subsample indices, mean = sum // 64, strict ``>``
# threshold -- every step replays bit-for-bit in SQL.
GRID = 8
N_BANDS = 4
# (shift, width-mask) per block, LSB upward: 4 x 11 bits + 2 x 10
BLOCKS = [(0, 0x7FF), (11, 0x7FF), (22, 0x7FF), (33, 0x7FF), (44, 0x3FF), (54, 0x3FF)]
TRIPLES = [
    (i, j, k) for i in range(6) for j in range(i + 1, 6) for k in range(j + 1, 6)
]


def hash_one(arr: np.ndarray) -> int:
    a = arr.astype(np.int64)
    h, w = a.shape[0], a.shape[1]
    ri = np.arange(GRID) * h // GRID
    ci = np.arange(GRID) * w // GRID
    small = a[np.ix_(ri, ci)]
    if small.shape[2] == 1:  # preprocessed grayscale payloads
        luma = small[..., 0]
    else:
        luma = (299 * small[..., 0] + 587 * small[..., 1] + 114 * small[..., 2]) // 1000
    mean = int(luma.sum()) // (GRID * GRID)
    h64 = 0
    for bit in luma.ravel() > mean:  # cell 0 = most significant bit
        h64 = (h64 << 1) | int(bit)
    return h64


def ahash_batch(batch: pa.Table) -> pa.Table:
    """Image payloads -> one row per block triple: (media_id, band_id,
    band_key, b0..b3); non-image rows emit nothing."""
    out_id, out_band, out_key = [], [], []
    out_b = [[] for _ in range(N_BANDS)]
    for mid, kind, payload in _rows(batch, "media_id", "media_type", "payload"):
        if kind != "image":
            continue
        _, arr, _ = _decode_payload(payload)
        h64 = hash_one(arr)
        bands = [(h64 >> (16 * b)) & 0xFFFF for b in range(N_BANDS)]
        blks = [(h64 >> sh) & msk for sh, msk in BLOCKS]
        for tid, (i, j, k) in enumerate(TRIPLES):
            out_id.append(mid)
            out_band.append(tid)
            out_key.append(blks[i] | (blks[j] << 11) | (blks[k] << 22))
            for b in range(N_BANDS):
                out_b[b].append(bands[b])
    return pa.table(
        {
            "media_id": pa.array(out_id, type=pa.string()),
            "band_id": pa.array(out_band, type=pa.int32()),
            "band_key": pa.array(out_key, type=pa.int64()),
            **{f"b{j}": pa.array(out_b[j], type=pa.int64()) for j in range(N_BANDS)},
        }
    )


def sample_frames_batch(batch: pa.Table, stride: int = 2) -> pa.Table:
    """Explode video payloads into per-frame image rows (every k-th frame)."""
    ids, frame_idx, payloads = [], [], []
    for mid, kind, payload in _rows(batch, "media_id", "media_type", "payload"):
        if kind != "video":
            continue
        _, frames, _ = _decode_payload(payload)
        for fi in range(0, frames.shape[0], stride):
            ids.append(mid)
            frame_idx.append(fi)
            rgb = frames[fi][:, :, None].repeat(3, axis=2)
            payloads.append(encode_image(np.ascontiguousarray(rgb)))
    return pa.table(
        {
            "media_id": pa.array(ids, type=pa.string()),
            "frame_idx": pa.array(frame_idx, type=pa.int32()),
            "media_type": pa.array(["image"] * len(ids)),
            "payload": pa.array(payloads, type=pa.binary()),
        }
    )


def featurize_media(media: ray.data.Dataset, batch_size: int = 32) -> ray.data.Dataset:
    """media table -> (media_id, media_type, features list<double>).

    Small batch_size on purpose: payload bytes dominate row width, so a
    batch is sized by bytes, not rows (at scale set batch_size so
    batch_bytes x worker count fits the worker heap).
    """
    return media.map_batches(
        featurize_batch, batch_format="pyarrow", batch_size=batch_size
    )


def preprocess_media(
    media: ray.data.Dataset, batch_size: int = 32, **knobs
) -> ray.data.Dataset:
    """Optional M2/M3 step before ``featurize_media`` / OCR: grayscale,
    denoise, contrast, deskew over image payloads (byte-sized batches)."""
    return media.map_batches(
        preprocess_batch, fn_kwargs=knobs, batch_format="pyarrow", batch_size=batch_size
    )


def sample_video_frames(
    media: ray.data.Dataset, stride: int = 2, batch_size: int = 16
) -> ray.data.Dataset:
    return media.map_batches(
        sample_frames_batch,
        fn_kwargs={"stride": stride},
        batch_format="pyarrow",
        batch_size=batch_size,
    )
