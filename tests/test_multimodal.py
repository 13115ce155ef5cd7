"""Multimodal binary-column stages: codec round-trip, task-map plumbing,
determinism, frame sampling and resize output layout."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from pdf_ocr_comparison_tool_ray.stages.multimodal import (
    N_BINS,
    _decode_payload,
    encode_audio,
    encode_image,
    encode_video,
    featurize_media,
    resize_batch,
    sample_video_frames,
    synth_media_table,
)


def test_fake_codec_round_trip():
    img = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
    kind, arr, meta = _decode_payload(encode_image(img))
    assert kind == "image" and np.array_equal(arr, img)
    assert meta == {"height": 2, "width": 3, "channels": 3}

    pcm = np.arange(100, dtype=np.uint8)
    kind, arr, meta = _decode_payload(encode_audio(pcm, 16000))
    assert kind == "audio" and np.array_equal(arr, pcm)
    assert meta["sample_rate"] == 16000

    vid = np.arange(4 * 2 * 2, dtype=np.uint8).reshape(4, 2, 2)
    kind, arr, meta = _decode_payload(encode_video(vid))
    assert kind == "video" and np.array_equal(arr, vid) and meta["n_frames"] == 4


def test_synth_media_schema_and_determinism():
    t1, t2 = synth_media_table(30, seed=9), synth_media_table(30, seed=9)
    assert t1.equals(t2)
    assert t1.schema.field("payload").type == pa.binary()
    assert set(t1["media_type"].to_pylist()) == {"image", "audio", "video"}


def test_featurize_task_map(ray_session):
    media = ray.data.from_arrow(synth_media_table(48, seed=3))
    out = featurize_media(media, batch_size=8).to_pandas()
    assert len(out) == 48
    assert all(len(f) == N_BINS for f in out["features"])
    # image histograms are normalized to <=1; deterministic across runs
    out2 = featurize_media(
        ray.data.from_arrow(synth_media_table(48, seed=3)), batch_size=8
    ).to_pandas()
    a = out.sort_values("media_id").reset_index(drop=True)
    b = out2.sort_values("media_id").reset_index(drop=True)
    assert all(np.allclose(x, y) for x, y in zip(a["features"], b["features"]))


def test_resize_only_touches_images():
    t = synth_media_table(12, seed=5)
    out = resize_batch(t, out_h=8, out_w=8)
    for kind, payload, w, h in zip(
        out["media_type"].to_pylist(),
        out["payload"].to_pylist(),
        out["width"].to_pylist(),
        out["height"].to_pylist(),
    ):
        if kind == "image":
            k, arr, _ = _decode_payload(payload)
            assert arr.shape == (8, 8, 3) and (w, h) == (8, 8)
        else:
            assert (w, h) == (0, 0)  # untouched passthrough


def test_frame_sampler_explodes_video(ray_session):
    media = ray.data.from_arrow(synth_media_table(30, seed=11))
    frames = sample_video_frames(media, stride=2).to_pandas()
    # only video rows contribute; every emitted row is a decodable image
    n_expected = 0
    t = synth_media_table(30, seed=11)
    for kind, payload in zip(t["media_type"].to_pylist(), t["payload"].to_pylist()):
        if kind == "video":
            _, arr, _ = _decode_payload(payload)
            n_expected += len(range(0, arr.shape[0], 2))
    assert len(frames) == n_expected
    k, arr, _ = _decode_payload(frames["payload"].iloc[0])
    assert k == "image" and arr.ndim == 3
    assert (frames["frame_idx"] % 2 == 0).all()


def test_frame_sample_then_featurize_chain(ray_session):
    """Video frame-sample explode feeds the featurizer directly (both
    task-map stages share the payload contract)."""
    from pdf_ocr_comparison_tool_ray.stages.multimodal import (
        featurize_media,
        sample_video_frames,
    )

    media = ray.data.from_arrow(synth_media_table(24, seed=2))
    frames = sample_video_frames(media, stride=3)
    feats = featurize_media(frames, batch_size=8).to_pandas()
    assert len(feats) > 0
    assert (feats["media_type"] == "image").all()
    assert all(len(f) == N_BINS for f in feats["features"])


def test_image_preprocessor_kernels():
    """M2 kernels: grayscale output is single-channel, denoise smooths,
    contrast stretch hits the full range, rotation is exercised."""
    import numpy as np

    from pdf_ocr_comparison_tool_ray.stages.multimodal import (
        _box_blur,
        _grayscale,
        _rotate,
        preprocess_one,
    )

    rng = np.random.default_rng(3)
    arr = rng.integers(60, 180, (24, 24, 3), dtype=np.uint8)  # mid-range
    out = preprocess_one(arr)
    assert out.shape == (24, 24, 1) and out.dtype == np.uint8
    # percentile stretch expands a mid-range image toward [0, 255]
    assert out.min() <= 10 and out.max() >= 245
    # denoise reduces local variance vs plain grayscale
    g = _grayscale(arr)
    blurred = _box_blur(g)
    assert np.diff(blurred, axis=0).std() < np.diff(g, axis=0).std()
    # rotation kernel: 90-degree turn of an asymmetric pattern moves mass
    ramp = np.tile(np.arange(16, dtype=np.float64), (16, 1))
    rot = _rotate(ramp, 90.0)
    assert not np.allclose(rot, ramp)
    assert np.allclose(_rotate(ramp, 0.0), ramp)


@pytest.mark.usefixtures("ray_session")
def test_preprocess_media_stage():
    import numpy as np
    import ray.data

    from pdf_ocr_comparison_tool_ray.stages.multimodal import (
        _decode_payload,
        featurize_media,
        preprocess_media,
        synth_media_table,
    )

    media = ray.data.from_arrow(synth_media_table(n=24))
    out = preprocess_media(media, batch_size=8)
    rows = out.take_all()
    assert len(rows) == 24
    for r in rows:
        if r["media_type"] == "image":
            kind, arr, meta = _decode_payload(r["payload"])
            assert kind == "image" and meta["channels"] == 1
            assert r["channels"] == 1
        else:  # non-image rows pass through untouched
            assert r["channels"] == 0 or r["media_type"] != "image"
    # composes with the featurizer (schema contract held)
    feats = featurize_media(out, batch_size=8).take_all()
    assert len(feats) == 24 and all(len(f["features"]) == 16 for f in feats)


def test_image_preprocessor_idempotent_on_single_channel():
    """The preprocessor's own (h,w,1) output must be a legal input —
    composing the stage twice (or feeding 1-channel payloads) works."""
    import numpy as np

    from pdf_ocr_comparison_tool_ray.stages.multimodal import preprocess_one

    rng = np.random.default_rng(5)
    arr = rng.integers(0, 256, (12, 12, 3), dtype=np.uint8)
    once = preprocess_one(arr)
    twice = preprocess_one(once)
    assert twice.shape == (12, 12, 1) and twice.dtype == np.uint8


def test_resize_kernel_properties():
    """Property: for any (h, w) -> (oh, ow), the nearest-neighbor
    subsample picks source pixel (r*h//oh, c*w//ow) — checked against
    an independent double-loop gather over random shapes."""
    import numpy as np
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from pdf_ocr_comparison_tool_ray.stages.multimodal import _resize

    @settings(max_examples=40, deadline=None)
    @given(
        h=st.integers(1, 40),
        w=st.integers(1, 40),
        oh=st.integers(1, 16),
        ow=st.integers(1, 16),
        seed=st.integers(0, 2**31 - 1),
    )
    def check(h, w, oh, ow, seed):
        rng = np.random.default_rng(seed)
        arr = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        out = _resize(arr, oh, ow)
        assert out.shape == (oh, ow, 3)
        for r in range(oh):
            for c in range(ow):
                assert (out[r, c] == arr[r * h // oh, c * w // ow]).all()

    check()
