"""Face-embedding data model, the FVEB binary format, and a synthetic generator.

A face is an identity label, one image-level embedding, and a grid of patch
embeddings. Real pipelines would produce these with a CNN backbone; here a
seeded generator fabricates identities as Gaussian patch prototypes, with
occluded queries whose masked grid rows carry no identity signal.
"""

from __future__ import annotations

import math
import mmap
import os
import secrets
import struct
from collections import Counter
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import IntEnum
from types import MappingProxyType
from typing import BinaryIO

import numpy as np

DEFAULT_DIM = 512
DEFAULT_GRID = 8

_MAGIC = b"FVEB"
_READ_BYTES = 4 << 20  # the chunk of a load's one checking pass over the body
_OCCLUDER_TAG = 2**32  # stream id outside the identity range
_BASE_TAG = 2**32 + 2  # stream id of the shared base-face prototypes

# Identity prototypes sit at this scale around a shared base face, the
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
    """One face, read-only. The records of a RecordSet are views of one row
    of its columns. `image_vec` is float64; `patches` keeps float32, the
    on-disk precision, and any other input becomes float64. Consumers that
    compute in float64 upcast the patches first."""
    identity: int
    image_vec: np.ndarray  # (D,)
    patches: np.ndarray    # (grid^2, D), row-major over the grid
    occlusion: Occlusion = Occlusion.NONE

    def __post_init__(self):
        # read-only views: the caller's own arrays keep their flags
        image_vec = np.asarray(self.image_vec, dtype=np.float64).view()
        patches = np.asarray(self.patches)
        patches = np.asarray(patches, dtype=np.float32 if patches.dtype == np.float32
                             else np.float64).view()
        image_vec.flags.writeable = patches.flags.writeable = False
        object.__setattr__(self, "image_vec", image_vec)
        object.__setattr__(self, "patches", patches)
        if not 0 <= self.identity < 2**32:  # FVEB stores it as u4
            raise ValueError("identity must lie in [0, 2**32)")
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


@dataclass(frozen=True, eq=False)
class RecordSet:
    """Records of one shape as read-only columns: `identities` (N,) int64,
    `occlusion` (N,) uint8, `images` (N, D) f64, `patches` (N, P, D) f32
    unless an input record was f64, `image_norms` (N,) and `id_counts`
    (identity -> count). `records` are FaceRecord views of the rows; a set
    built from records stacks them. A gallery and a query set are both."""
    records: tuple[FaceRecord, ...] = ()
    identities: np.ndarray = field(init=False, repr=False)
    occlusion: np.ndarray = field(init=False, repr=False)
    images: np.ndarray = field(init=False, repr=False)
    patches: np.ndarray = field(init=False, repr=False)
    image_norms: np.ndarray = field(init=False, repr=False)
    id_counts: Mapping[int, int] = field(init=False, repr=False)

    def __post_init__(self):
        records = tuple(self.records)
        if records:  # np.stack raises ValueError on mixed shapes
            images = np.stack([r.image_vec for r in records])
            patches = np.stack([r.patches for r in records])
        else:
            images = np.zeros((0, DEFAULT_DIM))
            patches = np.zeros((0, DEFAULT_GRID * DEFAULT_GRID, DEFAULT_DIM), np.float32)
        self._set_columns(np.array([r.identity for r in records], dtype=np.int64),
                          np.array([r.occlusion for r in records], dtype=np.uint8),
                          images, patches)

    def _set_columns(self, identities, occlusion, images, patches) -> None:
        columns = dict(identities=identities, occlusion=occlusion, images=images,
                       patches=patches, image_norms=np.linalg.norm(images, axis=1))
        for name, column in columns.items():
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        ids = identities.tolist()
        object.__setattr__(self, "id_counts", MappingProxyType(Counter(ids)))
        views = []
        for n, (ident, occ) in enumerate(zip(ids, occlusion.tolist())):
            # no FaceRecord checks: the columns were checked when stacked or loaded
            r = object.__new__(FaceRecord)
            r.__dict__.update(identity=ident, image_vec=images[n], patches=patches[n],
                              occlusion=Occlusion(occ))
            views.append(r)
        object.__setattr__(self, "records", tuple(views))

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, i: int) -> FaceRecord:
        return self.records[i]


Gallery = QuerySet = RecordSet


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


def _make_record(identity: int, patches: np.ndarray, occlusion: Occlusion) -> FaceRecord:
    # on-disk precision is f32; rounding here makes save/load the identity
    patches = patches.astype(np.float32)
    image_vec = patches.astype(np.float64).mean(axis=0).astype(np.float32)
    return FaceRecord(identity, image_vec, patches, occlusion)


def generate_synthetic(cfg: SynthConfig) -> tuple[Gallery, QuerySet]:
    """Deterministic synthetic gallery and query set.

    All prototypes share a base-face component; identity k's patch prototypes
    add an offset of magnitude DEFAULT_IDENTITY_SCALE drawn from a stream seeded by
    (seed, k). Each record adds Gaussian noise. Occluded queries have the
    designated grid rows replaced verbatim by a shared, identity-independent
    occluder prototype, so those rows carry no identity signal.
    """
    cfg.validate()
    seed = cfg.seed & 0xFFFF_FFFF_FFFF_FFFF
    p2 = cfg.grid * cfg.grid
    sigma = cfg.intra_class_noise
    beta = DEFAULT_IDENTITY_SCALE

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

class GalleryFormatError(ValueError):
    pass


class BadMagicError(GalleryFormatError):
    pass


class VersionMismatchError(GalleryFormatError):
    pass


class TruncatedFileError(GalleryFormatError):
    pass


@contextmanager
def atomic_write(path) -> Iterator[BinaryIO]:
    """A binary file, opened beside `path`, that replaces `path` once the
    block completes; on an exception `path` is left as it was. A process
    that has the old file mapped keeps reading the old contents, where
    truncating the file in place would fault its next read (SIGBUS)."""
    path = os.fspath(path)
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _fveb_record(dim: int, n_patches: int) -> np.dtype:
    return np.dtype([("identity", "<u4"), ("occlusion", "u1"),
                     ("image", "<f4", (dim,)), ("patches", "<f4", (n_patches, dim))])


def save_records(rs: RecordSet, path) -> None:
    """FVEB, little-endian. Version 1 is the fixed 512-dim / 64-patch layout;
    version 2 prefixes explicit dimensions for other shapes."""
    n_patches, dim = rs.patches.shape[1:]
    if (dim, n_patches) == (DEFAULT_DIM, DEFAULT_GRID * DEFAULT_GRID):
        header = struct.pack("<HI", 1, len(rs))
    else:
        header = struct.pack("<HHHI", 2, dim, n_patches, len(rs))
    body = np.empty(len(rs), _fveb_record(dim, n_patches))
    body["identity"], body["occlusion"] = rs.identities, rs.occlusion
    body["image"], body["patches"] = rs.images, rs.patches
    with atomic_write(path) as fh:
        fh.write(_MAGIC + header)
        fh.write(body)


def load_gallery(path) -> Gallery:
    """Checks the file's size against its header, then makes one pass over
    the body, a chunk at a time, each through a mapping of that chunk alone:
    it rejects non-finite embeddings and unknown occlusion codes and fills
    `identities`, `occlusion` and `images`. `patches` is a read-only f32
    view of a mapping of the whole file (unaligned: records carry a 5-byte
    header) that the load leaves untouched, so only the patches a job reads
    get mapped in; reading a column through it would map in the whole file,
    as the page cache maps it in large folios."""
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
        record = _fveb_record(dim, n_patches)
        offset = fh.tell()
        size = os.fstat(fh.fileno()).st_size
        end = offset + count * record.itemsize
        if end > size:
            raise TruncatedFileError(f"{path}: {count} records need {end} bytes, file has {size}")
        if end < size:
            raise TruncatedFileError(f"{path}: {size - end} trailing bytes")
        if math.isqrt(n_patches) ** 2 != n_patches:
            raise ValueError(f"{path}: {n_patches} patches do not form a square grid")
        identities = np.empty(count, np.int64)
        occlusion = np.empty(count, np.uint8)
        images = np.empty((count, dim))
        step = max(1, _READ_BYTES // record.itemsize)
        for start in range(0, count, step):
            at = offset + start * record.itemsize
            skip, n = at % mmap.ALLOCATIONGRANULARITY, min(step, count - start)
            # unmapped once `chunk` is rebound; a plain read would copy the bytes
            chunk = np.frombuffer(mmap.mmap(fh.fileno(), skip + n * record.itemsize, offset=at - skip,
                                            access=mmap.ACCESS_READ), record, n, skip)
            if not (np.isfinite(chunk["image"]).all() and np.isfinite(chunk["patches"]).all()):
                raise ValueError(f"{path}: non-finite embedding values")
            if (chunk["occlusion"] >= len(Occlusion)).any():
                raise ValueError(f"{path}: unknown occlusion code")
            rows = slice(start, start + len(chunk))
            identities[rows], occlusion[rows] = chunk["identity"], chunk["occlusion"]
            images[rows] = chunk["image"]
        body = np.asarray(np.memmap(fh, dtype=record, mode="r", offset=offset, shape=(count,)))
    rs = object.__new__(RecordSet)
    rs._set_columns(identities, occlusion, images, body["patches"])
    return rs


load_queries = load_gallery
