"""Cross-correlation similarity heatmaps.

heat[i] = dot(patch_i of one image, average-pooled feature of the other),
reshaped onto the patch grid. Emitted as CSV and as an upscaled 8-bit
grayscale PGM so no plotting stack is needed.
"""

from __future__ import annotations

import numpy as np

from .records import FaceRecord


def cc_heatmap(a: FaceRecord, b: FaceRecord) -> tuple[np.ndarray, np.ndarray]:
    """Raw grid-shaped maps for both directions: (a vs avgpool(b), b vs avgpool(a))."""
    if a.patches.shape != b.patches.shape:
        raise ValueError("patch grids differ")
    g = a.grid
    pa = np.asarray(a.patches, dtype=np.float64)
    pb = np.asarray(b.patches, dtype=np.float64)
    map_ab = (pa @ pb.mean(axis=0)).reshape(g, g)
    map_ba = (pb @ pa.mean(axis=0)).reshape(g, g)
    return map_ab, map_ba


def normalize_heatmap(raw: np.ndarray) -> np.ndarray:
    """Min-max to [0, 1]; a constant map normalizes to all zeros."""
    lo, hi = raw.min(), raw.max()
    if hi - lo == 0.0:
        return np.zeros_like(raw)
    return (raw - lo) / (hi - lo)


def heatmap_to_csv(raw: np.ndarray, path) -> None:
    np.savetxt(path, raw, delimiter=",", fmt="%.10g")


def heatmap_to_pgm(raw: np.ndarray, path, side: int = 256) -> None:
    """Binary PGM (P5), nearest-neighbor upscaled, normalized map in [0, 255]."""
    norm = normalize_heatmap(raw)
    g = norm.shape[0]
    idx = (np.arange(side) * g) // side
    img = (norm[np.ix_(idx, idx)] * 255.0).round().astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5 {side} {side} 255\n".encode())
        fh.write(img.tobytes())
