"""Face-embedding data model, the FVEB binary format, and a synthetic generator.

A face is an identity label, one image-level embedding, and a grid of patch
embeddings. Real pipelines would produce these with a CNN backbone; here a
seeded generator fabricates identities as Gaussian patch prototypes, with
occluded queries whose masked grid rows carry no identity signal.
"""

from __future__ import annotations

import math
import os
import struct
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import IntEnum
from types import MappingProxyType

import numpy as np

DEFAULT_DIM = 512
DEFAULT_GRID = 8

_MAGIC = b"FVEB"
_OCCLUDER_TAG = 2**32  # stream id outside the identity range
_BASE_TAG = 2**32 + 2  # stream id of the shared base-face prototypes

# Identity prototypes sit at `identity_scale` around a shared base face, the
# way real face embeddings cluster tightly around a population mean; this is
# what lets moderate intra-class noise and partial occlusion actually degrade
# whole-image cosine ranking.
DEFAULT_IDENTITY_SCALE = 0.28


class Occlusion(IntEnum):
    NONE = 0
    MASK = 1
    SUNGLASSES = 2


def occluded_rows(occlusion: Occlusion, grid: int = DEFAULT_GRID) -> list[int]:
    """Grid rows replaced by the occluder: bottom 3/8 for masks, rows 2-3
    (scaled) for sunglasses on the 8x8 grid."""
    if occlusion == Occlusion.NONE:
        return []
    if occlusion == Occlusion.MASK:
        n = max(1, round(3 * grid / 8))
        return list(range(grid - n, grid))
    start = round(2 * grid / 8)
    n = max(1, round(2 * grid / 8))
    return list(range(start, start + n))


def occluded_patch_indices(occlusion: Occlusion, grid: int = DEFAULT_GRID) -> np.ndarray:
    rows = occluded_rows(occlusion, grid)
    return np.array([r * grid + c for r in rows for c in range(grid)], dtype=np.int64)


@dataclass(frozen=True, eq=False)
class FaceRecord:
    """One face; read-only once built, so the columns of a RecordSet cannot
    drift from the records they were built from."""
    identity: int
    image_vec: np.ndarray  # (D,)
    patches: np.ndarray    # (grid^2, D), row-major over the grid
    occlusion: Occlusion = Occlusion.NONE

    def __post_init__(self):
        # read-only views: the caller's own arrays keep their flags
        image_vec = np.asarray(self.image_vec, dtype=np.float64).view()
        patches = np.asarray(self.patches, dtype=np.float64).view()
        image_vec.flags.writeable = patches.flags.writeable = False
        object.__setattr__(self, "image_vec", image_vec)
        object.__setattr__(self, "patches", patches)
        if self.identity < 0:
            raise ValueError("identity must be non-negative")
        if image_vec.ndim != 1 or patches.ndim != 2:
            raise ValueError("image_vec must be 1-D and patches 2-D")
        if patches.shape[1] != image_vec.shape[0]:
            raise ValueError("patches and image_vec dimension mismatch")
        g = math.isqrt(patches.shape[0])
        if g * g != patches.shape[0]:
            raise ValueError("patch count must be a square grid")
        if not (np.isfinite(image_vec).all() and np.isfinite(patches).all()):
            raise ValueError("non-finite embedding values")

    @property
    def dim(self) -> int:
        return self.image_vec.shape[0]

    @property
    def n_patches(self) -> int:
        return self.patches.shape[0]

    @property
    def grid(self) -> int:
        return math.isqrt(self.patches.shape[0])


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class RecordSet:
    """Records of one shape, read-only, with columns built once here:
    `identities` (N,), the image matrix `images` (N, D), its row norms
    `image_norms` (N,) and `id_counts` (identity -> number of records)."""
    records: tuple[FaceRecord, ...] = ()
    identities: np.ndarray = field(init=False, repr=False)
    images: np.ndarray = field(init=False, repr=False)
    image_norms: np.ndarray = field(init=False, repr=False)
    id_counts: Mapping[int, int] = field(init=False, repr=False)

    def __post_init__(self):
        records = tuple(self.records)
        if len({r.patches.shape for r in records}) > 1:
            raise ValueError("mixed record shapes in one set")
        ids = [r.identity for r in records]
        images = np.stack([r.image_vec for r in records]) if records else np.zeros((0, 0))
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "identities", _read_only(np.array(ids, dtype=np.int64)))
        object.__setattr__(self, "images", _read_only(images))
        object.__setattr__(self, "image_norms", _read_only(np.linalg.norm(images, axis=1)))
        object.__setattr__(self, "id_counts", MappingProxyType(Counter(ids)))

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, i: int) -> FaceRecord:
        return self.records[i]


class Gallery(RecordSet):
    pass


class QuerySet(RecordSet):
    pass


@dataclass
class SynthConfig:
    n_identities: int
    records_per_identity: int
    intra_class_noise: float
    seed: int
    occluded_fraction: float = 0.0
    queries_per_identity: int = 1
    occlusion_type: Occlusion = Occlusion.MASK
    dim: int = DEFAULT_DIM
    grid: int = DEFAULT_GRID
    identity_scale: float = DEFAULT_IDENTITY_SCALE

    def validate(self) -> None:
        if self.n_identities < 2:
            raise ValueError("need at least 2 identities")
        if self.records_per_identity < 2:
            raise ValueError("need at least 2 records per identity")
        if self.queries_per_identity < 1:
            raise ValueError("need at least 1 query per identity")
        if self.intra_class_noise < 0:
            raise ValueError("intra_class_noise must be non-negative")
        if not (0.0 <= self.occluded_fraction <= 1.0):
            raise ValueError("occluded_fraction must lie in [0, 1]")
        if self.dim < 1 or self.grid < 2:
            raise ValueError("bad embedding dimensions")
        if self.identity_scale <= 0:
            raise ValueError("identity_scale must be positive")


def _round_f32(x: np.ndarray) -> np.ndarray:
    # on-disk precision is f32; rounding here makes save/load the identity
    return x.astype(np.float32).astype(np.float64)


def _make_record(identity: int, patches: np.ndarray, occlusion: Occlusion) -> FaceRecord:
    patches = _round_f32(patches)
    image_vec = _round_f32(patches.mean(axis=0))
    return FaceRecord(identity, image_vec, patches, occlusion)


def generate_synthetic(cfg: SynthConfig) -> tuple[Gallery, QuerySet]:
    """Deterministic synthetic gallery and query set.

    All prototypes share a base-face component; identity k's patch prototypes
    add an offset of magnitude identity_scale drawn from a stream seeded by
    (seed, k). Each record adds Gaussian noise. Occluded queries have the
    designated grid rows replaced verbatim by a shared, identity-independent
    occluder prototype, so those rows carry no identity signal.
    """
    cfg.validate()
    seed = cfg.seed & 0xFFFF_FFFF_FFFF_FFFF
    p2 = cfg.grid * cfg.grid
    sigma = cfg.intra_class_noise
    beta = cfg.identity_scale

    base = np.random.default_rng([seed, _BASE_TAG]).standard_normal((p2, cfg.dim))
    occluder = base + beta * np.random.default_rng([seed, _OCCLUDER_TAG]).standard_normal((p2, cfg.dim))

    gallery: list[FaceRecord] = []
    query_ids: list[int] = []
    query_noisy: list[np.ndarray] = []
    for k in range(cfg.n_identities):
        rng = np.random.default_rng([seed, k])
        protos = base + beta * rng.standard_normal((p2, cfg.dim))
        for _ in range(cfg.records_per_identity):
            noisy = protos + sigma * rng.standard_normal((p2, cfg.dim))
            gallery.append(_make_record(k, noisy, Occlusion.NONE))
        for _ in range(cfg.queries_per_identity):
            query_noisy.append(protos + sigma * rng.standard_normal((p2, cfg.dim)))
            query_ids.append(k)

    n_q = len(query_noisy)
    n_occ = int(round(cfg.occluded_fraction * n_q))
    perm = np.random.default_rng([seed, _OCCLUDER_TAG + 1]).permutation(n_q)
    occluded_flags = np.zeros(n_q, dtype=bool)
    occluded_flags[perm[:n_occ]] = True
    occ_idx = occluded_patch_indices(cfg.occlusion_type, cfg.grid)

    queries: list[FaceRecord] = []
    for k, patches, occluded in zip(query_ids, query_noisy, occluded_flags):
        occ = Occlusion.NONE
        if occluded:
            occ = cfg.occlusion_type
            patches = patches.copy()
            patches[occ_idx] = occluder[occ_idx]
        queries.append(_make_record(k, patches, occ))
    return Gallery(records=gallery), QuerySet(records=queries)


# ---------------------------------------------------------------------------
# FVEB binary format
# ---------------------------------------------------------------------------

class GalleryFormatError(Exception):
    pass


class BadMagicError(GalleryFormatError):
    pass


class VersionMismatchError(GalleryFormatError):
    pass


class TruncatedFileError(GalleryFormatError):
    pass


def save_records(rs: RecordSet, path) -> None:
    """FVEB, little-endian. Version 1 is the fixed 512-dim / 64-patch layout;
    version 2 prefixes explicit dimensions for other shapes."""
    if rs.records:
        dim, n_patches = rs.records[0].dim, rs.records[0].n_patches
    else:
        dim, n_patches = DEFAULT_DIM, DEFAULT_GRID * DEFAULT_GRID
    chunks = [_MAGIC]
    if (dim, n_patches) == (DEFAULT_DIM, DEFAULT_GRID * DEFAULT_GRID):
        chunks.append(struct.pack("<HI", 1, len(rs.records)))
    else:
        chunks.append(struct.pack("<HHHI", 2, dim, n_patches, len(rs.records)))
    for r in rs.records:
        chunks.append(struct.pack("<IB", r.identity, int(r.occlusion)))
        chunks.append(r.image_vec.astype("<f4").tobytes())
        chunks.append(r.patches.astype("<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def save_gallery(g: Gallery, path) -> None:
    save_records(g, path)


def _load_records(path) -> list[FaceRecord]:
    """Reads the file record by record, after checking its size against the
    header, so the whole file is never held in memory next to its records."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise BadMagicError(f"{path}: not an FVEB file")

        def take(n: int) -> bytes:
            chunk = fh.read(n)
            if len(chunk) != n:
                raise TruncatedFileError(f"{path}: truncated at byte {fh.tell()}")
            return chunk

        (version,) = struct.unpack("<H", take(2))
        if version == 1:
            dim, n_patches = DEFAULT_DIM, DEFAULT_GRID * DEFAULT_GRID
        elif version == 2:
            dim, n_patches = struct.unpack("<HH", take(4))
        else:
            raise VersionMismatchError(f"{path}: unsupported FVEB version {version}")
        (count,) = struct.unpack("<I", take(4))
        size = os.fstat(fh.fileno()).st_size
        end = fh.tell() + count * (5 + 4 * dim * (1 + n_patches))
        if end > size:
            raise TruncatedFileError(f"{path}: {count} records need {end} bytes, file has {size}")
        if end < size:
            raise TruncatedFileError(f"{path}: {size - end} trailing bytes")
        records = []
        for _ in range(count):
            identity, occ = struct.unpack("<IB", take(5))
            image_vec = np.frombuffer(take(4 * dim), dtype="<f4").astype(np.float64)
            patches = np.frombuffer(take(4 * dim * n_patches), dtype="<f4").astype(np.float64)
            records.append(FaceRecord(identity, image_vec, patches.reshape(n_patches, dim), Occlusion(occ)))
    return records


def load_gallery(path) -> Gallery:
    return Gallery(records=_load_records(path))


def load_queries(path) -> QuerySet:
    return QuerySet(records=_load_records(path))


def records_equal(a: RecordSet, b: RecordSet) -> bool:
    if len(a) != len(b):
        return False
    for ra, rb in zip(a.records, b.records):
        if ra.identity != rb.identity or ra.occlusion != rb.occlusion:
            return False
        if not (np.array_equal(ra.image_vec, rb.image_vec) and np.array_equal(ra.patches, rb.patches)):
            return False
    return True
