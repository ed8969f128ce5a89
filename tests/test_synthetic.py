"""Scene generator consistency, the Sobel oracle, and file round-trips."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from mtformer import synthetic
from mtformer.errors import DataError, FormatError
from mtformer.synthetic import (ALBEDO, CLASS_NAMES, HEADER, NUM_CLASSES,
                                SPLAT_RADIUS, SPLAT_SIGMA, TaskBundle,
                                dataset_chunks, generate_dataset,
                                generate_sample, read_dataset, read_manifest,
                                scene_light, sobel_edges, write_dataset)

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


# sha256 of the one-sample dataset file `write_dataset` makes for each seed,
# recorded when every splat and every solid still covered the whole grid
SCENE_DIGESTS = {
    (128, 0): "89f17e1ef46f15669f666927dd03eb85d0fa9c9fdc62dc24380e5dfdc11ba280",
    (128, 1): "a543174cf0f6e19f71b4dd84b1986a21fffee15722af6b6c9e80b30b5de6f88b",
    (128, 2): "281f84acd19dcc7c7d3878e99da37c35556d0b22dc22582f8a277a40ab7880a8",
    (128, 3): "3544aaa57ac4d415d9e077ab80c75dc00ac6fece97d83b2f4169bbb8c3f73ec9",
    (128, 4): "f4f8b7e3db4109a5e52fbf25eef8e1bf84e1ec895c86c403eab0413c35fdb9f2",
    (128, 5): "326d358eff24390433ce841ce23f315fc6022e581b4cceb2bafbf8b601c946cd",
    (128, 6): "f5905950733751ce62d524aabd57a4adc913566c47f015054df9799ed012411c",
    (128, 7): "8e0004bac76e5d88e51cc51ea20ed5913ad6147df76727ea94c191031de2ef8e",
    (128, 8): "28232f53e127046607ea4458c90f6d8a5659864f1080e61bfe008441b510738e",
    (128, 9): "7af8e5456552097f2a41084d6654d3087332df0a3b1a160b50ad5c6f5becce7e",
    (128, 10): "9bac5b4a54e6ecea61cb88570fd5b98c2f0cda1a16fdb7b48d4827764214847f",
    (128, 11): "e2692a074e0796fdb80a9c6164981ddb70e7da118ce89c214a03a12c988b937c",
    (128, 12): "35c04ef7b1e9dcf0186e064df25608712efe4a6a5fc718e1b4f0500d356bdfe9",
    (128, 13): "77338c43354f91cd1c9e46ec4aaff6242b8816c0f1cc8c76f87368ea322bd66a",
    (128, 14): "fa993fbcfefc3610e92abc3e3c5650dedaa18ceea362960d1baeb2fed937056a",
    (128, 15): "cd50a4ecf608bc721403dca377ecfbd44c19eb86e28f5adcd432592d0e2523a3",
    (32, 0): "cb923dc9d70627a3d61573c9cd1b1ba4f672b1b2a9a10fd78574ec0ecb155478",
    (32, 1): "9caca72ef17344cd8f9225f96810aefb605b88bc049a1fc74f35dcba5ed246ef",
    (32, 2): "87ade4106cdd8b260c8bb7c5d23f971be19402e94b16f5d1c25a534a257e8895",
    (224, 0): "905304b3b02094d16571555a1d68286091aed22d310a1a002964251a18abf36a",
    (224, 1): "44bbfe3f5ff9ddd8ebade3e3761599dfff8e66bdfa5134658180b3094b949aa4",
}


def test_scene_files_match_the_recorded_digests(tmp_path, monkeypatch):
    corners = []
    record = synthetic._corners

    def recording(*args):
        out = record(*args)
        corners.extend(out)
        return out

    monkeypatch.setattr(synthetic, "_corners", recording)
    path = tmp_path / "one.mtds"
    for (size, seed), digest in SCENE_DIGESTS.items():
        write_dataset([generate_sample(seed, size)], path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, (size, seed)
    # the set covers splats whose centre lies off the image
    assert any(not 0.0 <= c < 1.0 for corner in corners for c in corner)


def test_splat_rounds_to_zero_in_float32_at_its_radius():
    edge = np.exp(-SPLAT_RADIUS ** 2 / (2.0 * SPLAT_SIGMA ** 2))
    assert edge > 0.0
    stored = np.float32(edge)
    assert stored == 0.0 and not np.signbit(stored)


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


def test_manifest_skips_blank_lines_and_reads_crlf(tmp_path):
    (tmp_path / "d.mtds.manifest").write_bytes(b"3\r\n\n  \n-4\n 5 \n")
    assert read_manifest(tmp_path / "d.mtds") == [3, -4, 5]


def test_manifest_rejects_a_non_integer_line_with_its_number(tmp_path):
    (tmp_path / "d.mtds.manifest").write_bytes(b"3\n\n4.5\n")
    with pytest.raises(FormatError, match="line 3"):
        read_manifest(tmp_path / "d.mtds")


def test_manifest_rejects_bytes_that_are_not_utf8_with_their_line(tmp_path):
    (tmp_path / "d.mtds.manifest").write_bytes(b"3\n\xff7\n")
    with pytest.raises(FormatError, match="line 2"):
        read_manifest(tmp_path / "d.mtds")


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


@pytest.mark.parametrize("count,h,w", [(2, 2 ** 31, 2 ** 31), (2 ** 32 - 1, 16, 16)],
                         ids=["huge-image", "huge-count"])
def test_reader_checks_the_size_before_it_allocates(tmp_path, count, h, w):
    # a header may claim any image size or count; the reader allocates a
    # field only once the file is known to hold it
    path = tmp_path / "huge.mtds"
    write_dataset(generate_dataset(2, 16, base_seed=1), path)
    blob = path.read_bytes()
    path.write_bytes(HEADER.pack(b"MTDS", 1, count, h, w) + blob[HEADER.size:])
    tracemalloc.start()
    try:
        with pytest.raises(FormatError):
            read_dataset(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_dataset_size_errors_name_offset_and_bytes(tmp_path):
    path = tmp_path / "sized.mtds"
    write_dataset(generate_dataset(1, 16, base_seed=1), path)
    blob = path.read_bytes()
    rgb = 16 * 16 * 3 * 4
    path.write_bytes(blob[:HEADER.size + rgb + 5])
    with pytest.raises(FormatError) as err:
        read_dataset(path)
    assert str(err.value) == (f"dataset truncated at offset {HEADER.size + rgb}, "
                              f"needed {16 * 16 * 2} more bytes")
    path.write_bytes(blob + b"\x00\x01")
    with pytest.raises(FormatError) as err:
        read_dataset(path)
    assert str(err.value) == f"2 trailing bytes at offset {len(blob)}"


def test_negative_scene_seeds_are_data_errors():
    with pytest.raises(DataError, match="seed must be >= 0"):
        generate_sample(-1, 16)
    with pytest.raises(DataError, match="seed must be >= 0"):
        scene_light(-1)


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


def test_dataset_chunks_are_the_file_bytes(tmp_path):
    samples = generate_dataset(3, 16, base_seed=2)
    path = tmp_path / "three.mtds"
    write_dataset(samples, path)
    # the stream as one joined copy, built field by field
    joined = HEADER.pack(b"MTDS", 1, 3, 16, 16) + b"".join(
        getattr(s, name).tobytes() for s in samples for name in TaskBundle.FIELDS)
    assert path.read_bytes() == joined
    chunks = list(dataset_chunks(samples))
    assert len(chunks) == 1 + 3 * len(TaskBundle.FIELDS)
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    assert digest.digest() == hashlib.sha256(joined).digest()


def test_bad_inputs_are_rejected_before_the_file_opens(tmp_path, monkeypatch):
    def no_open(path):
        raise AssertionError(f"opened {path} for inconsistent inputs")

    monkeypatch.setattr(synthetic, "replace_on_success", no_open)
    with pytest.raises(DataError):
        write_dataset([], tmp_path / "x.mtds")
    with pytest.raises(DataError):
        write_dataset([generate_sample(0, 16), generate_sample(1, 24)], tmp_path / "y.mtds")
    with pytest.raises(DataError):
        write_dataset([generate_sample(0, 16)], tmp_path / "z.mtds", seeds=[1, 2])


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
