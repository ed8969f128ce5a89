"""Procedural six-task scenes and their on-disk container.

Each sample is a deterministic function of one 64-bit seed: a handful of
simple solids with analytic height fields, composited front-most-wins into
a camera-facing 2.5-D scene.  Depth, normals, and shading are exact (no
rasterizer), edges come from a Sobel pass over the emitted image, and
keypoints are Gaussian splats at silhouette corners.  Everything is stored
float32 (labels uint16) so files round-trip bitwise.

Each solid and each splat is computed only on the pixels it can reach.  A
solid's footprint lies inside its square [c - r, c + r], so outside that box
(plus a one-pixel margin against rounding) it changes nothing.  A splat
exp(-d^2 / 2 sigma^2) is evaluated on the square of half-width SPLAT_RADIUS
px around its corner: past d = sigma * sqrt(300 ln 2) = 21.63 px its float64
value is below 2^-150, which rounds to +0 in float32, and the keypoint map is
stored float32.  A pixel the square leaves out therefore gets the same stored
value as when every splat covers the whole grid, so the bytes do not depend
on the cut.

File layout: magic "MTDS", u32 version 1, u32 count, u32 H, u32 W, then per
sample the fields rgb f32[H,W,3], S u16[H,W], D f32[H,W], N f32[H,W,3],
K f32[H,W], E f32[H,W], R f32[H,W], row major, little endian, unpadded.
A sibling "<path>.manifest" lists one seed per line.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError, FormatError
from .files import Reader, raw, replace_on_success

CLASS_NAMES = ("background", "sphere", "box", "cylinder", "cone",
               "torus-disc", "pyramid", "wedge")
NUM_CLASSES = len(CLASS_NAMES)

ALBEDO = np.array([
    [0.35, 0.35, 0.38],   # background
    [0.90, 0.25, 0.20],   # sphere
    [0.20, 0.55, 0.90],   # box
    [0.95, 0.80, 0.25],   # cylinder
    [0.30, 0.80, 0.40],   # cone
    [0.75, 0.35, 0.85],   # torus-disc
    [0.95, 0.55, 0.15],   # pyramid
    [0.55, 0.85, 0.90],   # wedge
])

SPLAT_SIGMA = 1.5  # px
SPLAT_RADIUS = 23   # px; a splat rounds to +0 in float32 beyond 21.63 px
NOISE_STD = 0.02
LUMA = (0.299, 0.587, 0.114)

MAGIC = b"MTDS"
VERSION = 1
HEADER = struct.Struct("<4sIIII")
# per sample, in file order: each field's stored dtype and its axes after [H, W]
FIELD_LAYOUT = {"rgb": ("<f4", (3,)), "S": ("<u2", ()), "D": ("<f4", ()), "N": ("<f4", (3,)),
                "K": ("<f4", ()), "E": ("<f4", ()), "R": ("<f4", ())}


@dataclass
class TaskBundle:
    """One scene's image and its six aligned targets."""

    rgb: np.ndarray   # f32 [H,W,3] in [0,1]
    S: np.ndarray     # u16 [H,W] labels in [0,8)
    D: np.ndarray     # f32 [H,W] in [0,1], 1 = far background
    N: np.ndarray     # f32 [H,W,3] unit normals
    K: np.ndarray     # f32 [H,W] keypoint heat
    E: np.ndarray     # f32 [H,W] edge strength
    R: np.ndarray     # f32 [H,W] Lambertian shading

    @property
    def size(self) -> int:
        return self.rgb.shape[0]

    def target(self, task: str):
        """Loss-ready target array shaped like the matching head output."""
        if task == "S":
            return self.S.astype(np.int64)
        if task == "N":
            return self.N
        if task in ("D", "K", "E", "R"):
            return getattr(self, task)[..., None]
        raise DataError(f"unknown task id {task!r}")

    FIELDS = tuple(FIELD_LAYOUT)


def sobel_edges(gray) -> np.ndarray:
    """Gradient magnitude with the 3x3 Sobel pair, replicate-padded borders,
    scaled by the per-image max (a flat image stays all zero)."""
    g = np.asarray(gray, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] < 3 or g.shape[1] < 3:
        raise DimensionError(f"sobel_edges needs a [H>=3, W>=3] map, got {g.shape}")
    p = np.pad(g, 1, mode="edge")
    # one [1, 2, 1] sum per direction; each kernel side is a slice of it, so
    # opposite sides associate identically and a flat image cancels to zero
    down = p[:-2] + 2 * p[1:-1] + p[2:]  # smoothed down each column
    across = p[:, :-2] + 2 * p[:, 1:-1] + p[:, 2:]  # smoothed along each row
    mag = np.hypot(down[:, 2:] - down[:, :-2], across[2:] - across[:-2])
    peak = mag.max()
    return mag / peak if peak > 0 else mag


def _shape_field(cls: int, dx, dy, r: float):
    """Footprint mask, height profile in [0,1], and its x/y derivatives."""
    zeros = np.zeros_like(dx)
    if cls == 1:    # sphere: hemispherical cap, rim clipped to keep slopes finite
        rho2 = dx * dx + dy * dy
        mask = rho2 <= (0.999 * r) ** 2
        p = np.sqrt(np.maximum(1.0 - rho2 / r ** 2, 0.0))
        safe = np.where(mask, np.maximum(p, 1e-9), 1.0)
        return mask, p, -dx / (r ** 2 * safe), -dy / (r ** 2 * safe)
    if cls == 2:    # box: flat plateau
        mask = (np.abs(dx) <= r) & (np.abs(dy) <= r)
        return mask, np.ones_like(dx), zeros, zeros
    if cls == 3:    # cylinder lying along x: half-pipe profile across y
        b = 0.7 * r
        mask = (np.abs(dx) <= r) & (np.abs(dy) <= 0.999 * b)
        p = np.sqrt(np.maximum(1.0 - (dy / b) ** 2, 0.0))
        safe = np.where(mask, np.maximum(p, 1e-9), 1.0)
        return mask, p, zeros, -dy / (b ** 2 * safe)
    if cls == 4:    # cone
        rho = np.sqrt(dx * dx + dy * dy)
        mask = rho <= r
        p = np.maximum(1.0 - rho / r, 0.0)
        safe = np.where(rho > 1e-9, rho, 1.0)
        px = np.where(rho > 1e-9, -dx / (r * safe), 0.0)
        py = np.where(rho > 1e-9, -dy / (r * safe), 0.0)
        return mask, p, px, py
    if cls == 5:    # torus-disc: tube cross-section around a ring
        ring, tube = 0.65 * r, 0.35 * r
        rho = np.sqrt(dx * dx + dy * dy)
        off = rho - ring
        mask = np.abs(off) <= 0.999 * tube
        p = np.sqrt(np.maximum(1.0 - (off / tube) ** 2, 0.0))
        safe_p = np.where(mask, np.maximum(p, 1e-9), 1.0)
        safe_rho = np.maximum(rho, 1e-9)
        common = -off / (tube ** 2 * safe_p * safe_rho)
        return mask, p, common * dx, common * dy
    if cls == 6:    # pyramid
        ax, ay = np.abs(dx), np.abs(dy)
        mask = (ax <= r) & (ay <= r)
        p = np.maximum(1.0 - np.maximum(ax, ay) / r, 0.0)
        px = np.where(ax >= ay, -np.sign(dx) / r, 0.0)
        py = np.where(ax < ay, -np.sign(dy) / r, 0.0)
        return mask, p, px, py
    if cls == 7:    # wedge: linear ramp along x
        mask = (np.abs(dx) <= r) & (np.abs(dy) <= r)
        p = (dx + r) / (2.0 * r)
        return mask, p, np.full_like(dx, 1.0 / (2.0 * r)), zeros
    raise DataError(f"no height field for class {cls}")


def _corners(cls: int, cx: float, cy: float, r: float):
    """Silhouette corner points (scene units) that receive keypoint splats."""
    if cls in (2, 6, 7):
        d = ((-r, -r), (-r, r), (r, -r), (r, r))
    elif cls == 3:
        b = 0.7 * r
        d = ((-b, -r), (-b, r), (b, -r), (b, r))  # (dy, dx) rectangle corners
    elif cls == 5:
        outer = 0.65 * r + 0.35 * r
        d = ((-outer, 0.0), (outer, 0.0), (0.0, -outer), (0.0, outer))
    else:
        d = ((-r, 0.0), (r, 0.0), (0.0, -r), (0.0, r))
    return [(cy + dy, cx + dx) for dy, dx in d]


def _span(center: float, half: float, size: int) -> slice:
    """The pixel indices in [center - half, center + half], clipped to
    [0, size); empty when the interval misses the image."""
    lo = int(np.floor(center - half))
    hi = int(np.ceil(center + half)) + 1
    return slice(min(max(lo, 0), size), min(max(hi, 0), size))


def _light_from_seed(rng) -> np.ndarray:
    az = rng.uniform(0.0, 2.0 * np.pi)
    z = rng.uniform(0.35, 0.9)
    s = np.sqrt(1.0 - z * z)
    return np.array([s * np.cos(az), s * np.sin(az), z])


def generate_sample(seed: int, size: int) -> TaskBundle:
    """Deterministic scene for ``seed``; same seed gives a bitwise-equal bundle."""
    if size < 3:
        raise DataError(f"image size must be >= 3, got {size}")
    if seed < 0:
        raise DataError(f"scene seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    light = _light_from_seed(rng)
    count = int(rng.integers(3, 9))

    coords = (np.arange(size) + 0.5) / size
    yy, xx = np.meshgrid(coords, coords, indexing="ij")

    height = np.zeros((size, size))
    labels = np.zeros((size, size), dtype=np.int64)
    slope_x = np.zeros((size, size))
    slope_y = np.zeros((size, size))
    corners = []

    for _ in range(count):
        cls = int(rng.integers(1, NUM_CLASSES))
        cx = rng.uniform(0.18, 0.82)
        cy = rng.uniform(0.18, 0.82)
        r = rng.uniform(0.08, 0.22)
        z0 = rng.uniform(0.10, 0.55)
        amp = rng.uniform(0.20, 0.40)
        box = (_span(cy * size - 0.5, r * size + 1, size),
               _span(cx * size - 0.5, r * size + 1, size))
        mask, p, px, py = _shape_field(cls, xx[box] - cx, yy[box] - cy, r)
        u = np.where(mask, z0 + amp * p, 0.0)
        front = u > height[box]
        height[box] = np.where(front, u, height[box])
        labels[box] = np.where(front, cls, labels[box])
        slope_x[box] = np.where(front, amp * px, slope_x[box])
        slope_y[box] = np.where(front, amp * py, slope_y[box])
        corners.extend(_corners(cls, cx, cy, r))

    depth = 1.0 - height
    nx, ny = -slope_x, -slope_y  # nz = 1
    norm = np.sqrt(nx * nx + ny * ny + 1.0)
    normals = np.stack([nx / norm, ny / norm, 1.0 / norm], axis=-1)

    shading = np.maximum(normals @ light, 0.0)

    heat = np.zeros((size, size))
    pixel = coords * size - 0.5  # each pixel centre in pixel units
    for cy, cx in corners:
        cy, cx = cy * size - 0.5, cx * size - 0.5
        ys, xs = _span(cy, SPLAT_RADIUS, size), _span(cx, SPLAT_RADIUS, size)
        d2 = (pixel[ys, None] - cy) ** 2 + (pixel[None, xs] - cx) ** 2
        heat[ys, xs] = np.maximum(heat[ys, xs], np.exp(-d2 / (2.0 * SPLAT_SIGMA ** 2)))

    rgb = ALBEDO[labels] * shading[..., None]
    rgb = rgb + rng.normal(0.0, NOISE_STD, rgb.shape)
    rgb = np.clip(rgb, 0.0, 1.0).astype(np.float32)

    gray = LUMA[0] * rgb[..., 0] + LUMA[1] * rgb[..., 1] + LUMA[2] * rgb[..., 2]
    edges = sobel_edges(gray)

    return TaskBundle(rgb=rgb,
                      S=labels.astype(np.uint16),
                      D=depth.astype(np.float32),
                      N=normals.astype(np.float32),
                      K=heat.astype(np.float32),
                      E=edges.astype(np.float32),
                      R=shading.astype(np.float32))


def scene_light(seed: int) -> np.ndarray:
    """The light direction ``generate_sample(seed, ...)`` shaded with."""
    if seed < 0:
        raise DataError(f"scene seed must be >= 0, got {seed}")
    return _light_from_seed(np.random.default_rng(seed))


def generate_dataset(count: int, size: int, base_seed: int = 0) -> list:
    """Samples for seeds base_seed..base_seed+count-1, in index order."""
    return [generate_sample(base_seed + i, size) for i in range(count)]


# ------------------------------------------------------------------ storage

def dataset_chunks(samples):
    """Check ``samples`` now, then return an iterator over the byte stream
    ``write_dataset`` stores for them: the header, then each field's own
    buffer in file order, without copying any of them into one blob."""
    samples = list(samples)
    if not samples:
        raise DataError("refusing to serialize an empty dataset")
    h, w = samples[0].S.shape
    for i, s in enumerate(samples):
        if s.S.shape != (h, w):
            raise DataError(f"sample {i} is {s.S.shape}, expected {(h, w)}")

    def chunks():
        yield HEADER.pack(MAGIC, VERSION, len(samples), h, w)
        for s in samples:
            for name, (dt, _) in FIELD_LAYOUT.items():
                yield raw(np.asarray(getattr(s, name), dt))
    return chunks()


def write_dataset(samples, path, seeds=None) -> None:
    """Serialize samples; optionally write the seed manifest alongside.

    Each file is replaced atomically, the manifest just before the
    dataset, and nothing is written when the inputs are inconsistent.
    """
    samples = list(samples)
    if seeds is not None and len(seeds) != len(samples):
        raise DataError(f"{len(seeds)} seeds for {len(samples)} samples")
    chunks = dataset_chunks(samples)
    with replace_on_success(path) as f:
        for chunk in chunks:
            f.write(chunk)
        # nested, so a failed manifest write leaves the old dataset too
        if seeds is not None:
            with replace_on_success(f"{path}.manifest") as m:
                m.write("".join(f"{s}\n" for s in seeds).encode())


def read_dataset(path) -> list:
    """Parse a dataset file; malformed input raises with the byte offset.
    Each field is read straight into its own array."""
    with open(path, "rb") as f:
        r = Reader(f, "dataset")
        magic, version, count, h, w = r.unpack(HEADER.format)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r} at offset 0, expected {MAGIC!r}")
        if version != VERSION:
            raise FormatError(f"unsupported version {version} at offset 4")
        if h < 1 or w < 1:
            raise FormatError(f"degenerate image size {h}x{w} at offset 12")
        samples = [TaskBundle(**{name: r.array((h, w) + axes, dt)
                                 for name, (dt, axes) in FIELD_LAYOUT.items()})
                   for _ in range(count)]
        r.end()
    return samples


def read_manifest(path) -> list:
    """The seeds in ``<path>.manifest``, one integer per non-blank line."""
    with open(f"{path}.manifest", "rb") as f:
        lines = f.read().splitlines()
    seeds = []
    for number, raw in enumerate(lines, 1):
        try:
            line = raw.decode()
            if line.strip():
                seeds.append(int(line))
        except (UnicodeDecodeError, ValueError) as exc:
            raise FormatError(f"manifest line {number} is not an integer seed: {raw!r}") from exc
    return seeds
