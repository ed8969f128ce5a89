"""Scene generator consistency, the Sobel oracle, and file round-trips."""

import numpy as np
import pytest

from mtformer.errors import DataError, FormatError
from mtformer.synthetic import (ALBEDO, CLASS_NAMES, NUM_CLASSES, TaskBundle,
                                generate_dataset, generate_sample,
                                read_dataset, read_manifest, scene_light,
                                sobel_edges, write_dataset)

SIZE = 32


def _sobel_oracle(g):
    # brute-force reference: explicit loops, clamped (replicate) indexing
    kx = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]])
    ky = kx.T
    h, w = g.shape
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            gx = gy = 0.0
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    v = g[min(max(i + di, 0), h - 1), min(max(j + dj, 0), w - 1)]
                    gx += kx[di + 1, dj + 1] * v
                    gy += ky[di + 1, dj + 1] * v
            out[i, j] = np.hypot(gx, gy)
    peak = out.max()
    return out / peak if peak > 0 else out


# ----------------------------------------------------------------- sobel

def test_sobel_constant_image_is_zero():
    assert np.array_equal(sobel_edges(np.full((5, 7), 0.3)), np.zeros((5, 7)))


def test_sobel_vertical_step_response():
    img = np.zeros((6, 8))
    img[:, 4:] = 1.0
    e = sobel_edges(img)
    # with replicate padding the raw response is 4 on both columns adjacent
    # to the step at every row, 0 elsewhere; normalization maps 4 -> 1
    want = np.zeros((6, 8))
    want[:, 3:5] = 1.0
    np.testing.assert_allclose(e, want, atol=1e-12)


def test_sobel_transpose_symmetry():
    rng = np.random.default_rng(9)
    img = rng.uniform(0, 1, (7, 11))
    np.testing.assert_allclose(sobel_edges(img.T), sobel_edges(img).T, atol=1e-12)


def test_sobel_matches_bruteforce_on_random_image():
    rng = np.random.default_rng(10)
    img = rng.uniform(0, 1, (9, 9))
    np.testing.assert_allclose(sobel_edges(img), _sobel_oracle(img), atol=1e-12)


def test_sobel_rejects_tiny_maps():
    from mtformer.errors import DimensionError
    with pytest.raises(DimensionError):
        sobel_edges(np.zeros((2, 5)))


# ------------------------------------------------------------- generation

def test_same_seed_is_bitwise_identical():
    a = generate_sample(123, SIZE)
    b = generate_sample(123, SIZE)
    for f in TaskBundle.FIELDS:
        x, y = getattr(a, f), getattr(b, f)
        assert x.dtype == y.dtype and np.array_equal(x, y)
    c = generate_sample(124, SIZE)
    assert not np.array_equal(a.rgb, c.rgb)


def test_target_ranges_and_dtypes():
    s = generate_sample(7, SIZE)
    assert s.rgb.dtype == np.float32 and s.S.dtype == np.uint16
    assert s.rgb.min() >= 0 and s.rgb.max() <= 1
    assert s.D.min() >= 0 and s.D.max() <= 1
    assert s.K.min() >= 0 and s.K.max() <= 1
    assert s.E.min() >= 0 and s.E.max() <= 1
    assert s.R.min() >= 0
    assert s.S.min() >= 0 and s.S.max() < NUM_CLASSES
    np.testing.assert_allclose((s.N.astype(np.float64) ** 2).sum(-1), 1.0, atol=1e-6)
    # background is the far plane with a straight-up normal
    bg = s.S == 0
    assert bg.any()
    assert np.all(s.D[bg] == 1.0)
    assert np.abs(s.N[bg] - np.array([0.0, 0.0, 1.0])).max() <= 1e-7


def test_shading_consistent_with_stored_normals_and_light():
    for seed in (1, 42, 999):
        s = generate_sample(seed, SIZE)
        light = scene_light(seed)
        redo = np.maximum(s.N.astype(np.float64) @ light, 0.0)
        assert np.abs(redo - s.R).max() <= 1e-6


def test_edges_match_independent_oracle():
    s = generate_sample(55, 16)
    gray = (0.299 * s.rgb[..., 0] + 0.587 * s.rgb[..., 1]
            + 0.114 * s.rgb[..., 2]).astype(np.float64)
    assert np.abs(_sobel_oracle(gray) - s.E).max() <= 1e-6


def test_keypoints_peak_near_corners():
    s = generate_sample(3, 64)
    assert s.K.max() > 0.5
    assert (s.K > 0.5).sum() < 0.05 * s.K.size  # heat is localized


def test_depth_and_labels_agree():
    s = generate_sample(21, SIZE)
    fg = s.S > 0
    assert fg.any()
    assert np.all(s.D[fg] < 1.0)


def test_label_histogram_covers_every_class():
    seen = set()
    for seed in range(1000):
        seen.update(np.unique(generate_sample(seed, 12).S).tolist())
        if len(seen) == NUM_CLASSES:
            break
    assert seen == set(range(NUM_CLASSES))


def test_loss_target_shapes():
    s = generate_sample(5, SIZE)
    assert s.target("S").shape == (SIZE, SIZE) and s.target("S").dtype == np.int64
    assert s.target("D").shape == (SIZE, SIZE, 1)
    assert s.target("N").shape == (SIZE, SIZE, 3)
    assert s.target("K").shape == (SIZE, SIZE, 1)
    with pytest.raises(DataError):
        s.target("Q")


def test_generation_rejects_tiny_size():
    with pytest.raises(DataError):
        generate_sample(0, 2)


def test_dataset_generation_is_deterministic():
    first = generate_dataset(6, 24, base_seed=50)
    again = generate_dataset(6, 24, base_seed=50)
    assert len(first) == len(again) == 6
    for a, b in zip(first, again):
        for f in TaskBundle.FIELDS:
            assert np.array_equal(getattr(a, f), getattr(b, f))


def test_class_palette_is_well_formed():
    assert ALBEDO.shape == (NUM_CLASSES, 3)
    assert len(CLASS_NAMES) == NUM_CLASSES
    assert (ALBEDO >= 0).all() and (ALBEDO <= 1).all()


# ------------------------------------------------------------------ files

def test_roundtrip_is_exact(tmp_path):
    samples = generate_dataset(3, 16, base_seed=9)
    path = tmp_path / "tiny.mtds"
    write_dataset(samples, path, seeds=[9, 10, 11])
    back = read_dataset(path)
    assert len(back) == 3
    for a, b in zip(samples, back):
        for f in TaskBundle.FIELDS:
            x, y = getattr(a, f), getattr(b, f)
            assert x.dtype == y.dtype and np.array_equal(x, y)
    assert read_manifest(path) == [9, 10, 11]


def test_file_header_layout(tmp_path):
    path = tmp_path / "one.mtds"
    write_dataset(generate_dataset(1, 16, base_seed=4), path)
    blob = path.read_bytes()
    assert blob[:4] == b"MTDS"
    assert int.from_bytes(blob[4:8], "little") == 1
    assert int.from_bytes(blob[8:12], "little") == 1
    assert int.from_bytes(blob[12:16], "little") == 16
    assert int.from_bytes(blob[16:20], "little") == 16


def test_format_errors_identify_offset(tmp_path):
    path = tmp_path / "bad.mtds"
    write_dataset(generate_dataset(2, 16, base_seed=1), path)
    blob = bytearray(path.read_bytes())

    flipped = tmp_path / "flipped.mtds"
    flipped.write_bytes(b"XTDS" + bytes(blob[4:]))
    with pytest.raises(FormatError, match="offset 0"):
        read_dataset(flipped)

    versioned = tmp_path / "versioned.mtds"
    versioned.write_bytes(bytes(blob[:4]) + (9).to_bytes(4, "little") + bytes(blob[8:]))
    with pytest.raises(FormatError, match="offset 4"):
        read_dataset(versioned)

    cut = tmp_path / "cut.mtds"
    cut.write_bytes(bytes(blob[:len(blob) - 100]))
    with pytest.raises(FormatError, match="offset"):
        read_dataset(cut)

    padded = tmp_path / "padded.mtds"
    padded.write_bytes(bytes(blob) + b"\x00" * 7)
    with pytest.raises(FormatError):
        read_dataset(padded)

    stub = tmp_path / "stub.mtds"
    stub.write_bytes(b"MTDS\x01")
    with pytest.raises(FormatError, match="offset 0"):
        read_dataset(stub)


def test_write_rejects_bad_inputs(tmp_path):
    with pytest.raises(DataError):
        write_dataset([], tmp_path / "x.mtds")
    mixed = [generate_sample(0, 16), generate_sample(1, 24)]
    with pytest.raises(DataError):
        write_dataset(mixed, tmp_path / "y.mtds")
    with pytest.raises(DataError):
        write_dataset([generate_sample(0, 16)], tmp_path / "z.mtds", seeds=[1, 2])
    # rejected before anything reaches the disk
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fail_in", ["dataset", "manifest"])
def test_failed_write_keeps_previous_dataset(tmp_path, monkeypatch, fail_in):
    from test_training import fail_writes_after
    path = tmp_path / "keep.mtds"
    write_dataset(generate_dataset(2, 16, base_seed=1), path, seeds=[1, 2])
    before = path.read_bytes()
    manifest = (tmp_path / "keep.mtds.manifest").read_bytes()

    # the dataset is written first: it breaks halfway, or it is complete
    # and the manifest breaks after two bytes
    fail_writes_after(monkeypatch, len(before) // 2 if fail_in == "dataset" else len(before) + 2)
    with pytest.raises(OSError, match="halfway"):
        write_dataset(generate_dataset(2, 16, base_seed=5), path, seeds=[5, 66])
    monkeypatch.undo()

    assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.mtds", "keep.mtds.manifest"]
    assert path.read_bytes() == before
    assert (tmp_path / "keep.mtds.manifest").read_bytes() == manifest
