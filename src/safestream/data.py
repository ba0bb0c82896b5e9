"""Dataset container and ingestion: IDX images, CSV tables, synthetic blobs."""

from __future__ import annotations

import copy
import csv
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    """Feature matrix with integer labels and stable row ids.

    ``ids`` survive deletion bookkeeping: subsetting keeps the original ids so
    deletion requests can be expressed as id sets across rounds.
    """

    X: np.ndarray
    y: np.ndarray
    ids: np.ndarray

    def __post_init__(self):
        self.X = np.ascontiguousarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.X.ndim != 2:
            raise DataError(f"feature matrix must be 2-d, got shape {self.X.shape}")
        n = self.X.shape[0]
        if len(self.y) != n or len(self.ids) != n:
            raise DataError(
                f"length mismatch: {n} rows, {len(self.y)} labels, {len(self.ids)} ids"
            )
        if n and self.y.min() < 0:
            raise DataError("labels must be non-negative class indices")
        if len(np.unique(self.ids)) != n:
            raise DataError("row ids must be unique")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.y.max()) + 1 if self.n else 0

    def take(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.X[idx], self.y[idx], self.ids[idx])

    def subset(self, keep: np.ndarray) -> "Dataset":
        """The rows where the boolean mask ``keep`` is true, in order."""
        # rows of a checked dataset kept in order by a boolean mask cannot
        # repeat an id, so the subset skips __post_init__'s checks
        sub = copy.copy(self)
        sub.X, sub.y, sub.ids = self.X[keep], self.y[keep], self.ids[keep]
        return sub

    def without_ids(self, drop: np.ndarray) -> "Dataset":
        return self.subset(~np.isin(self.ids, drop))

    def select_ids(self, wanted: np.ndarray) -> "Dataset":
        return self.subset(np.isin(self.ids, wanted))


def _read_u32(buf: bytes, offset: int, path: str) -> int:
    if offset + 4 > len(buf):
        raise DataError(f"{path}: truncated header at offset {len(buf)}")
    return struct.unpack_from(">I", buf, offset)[0]


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Parse an IDX image/label file pair into a flat-feature dataset.

    Big-endian throughout. Pixels are scaled to [0, 1] by division by 255 and
    images are flattened row-major. Parse failures name the byte offset.
    """
    try:
        with open(images_path, "rb") as f:
            img = f.read()
        with open(labels_path, "rb") as f:
            lab = f.read()
    except OSError as e:
        raise DataError(str(e)) from None

    magic = _read_u32(img, 0, images_path)
    if magic != IDX_IMAGE_MAGIC:
        raise DataError(
            f"{images_path}: bad image magic 0x{magic:08x} at offset 0, "
            f"expected 0x{IDX_IMAGE_MAGIC:08x}"
        )
    count = _read_u32(img, 4, images_path)
    rows = _read_u32(img, 8, images_path)
    cols = _read_u32(img, 12, images_path)
    need = count * rows * cols
    have = len(img) - 16
    if have < need:
        raise DataError(
            f"{images_path}: expected {need} pixel bytes, file ends at offset {16 + have}"
        )
    pixels = np.frombuffer(img, dtype=np.uint8, count=need, offset=16)
    X = pixels.astype(np.float64).reshape(count, rows * cols) / 255.0

    magic = _read_u32(lab, 0, labels_path)
    if magic != IDX_LABEL_MAGIC:
        raise DataError(
            f"{labels_path}: bad label magic 0x{magic:08x} at offset 0, "
            f"expected 0x{IDX_LABEL_MAGIC:08x}"
        )
    lab_count = _read_u32(lab, 4, labels_path)
    have = len(lab) - 8
    if have < lab_count:
        raise DataError(
            f"{labels_path}: expected {lab_count} label bytes, file ends at offset {8 + have}"
        )
    if lab_count != count:
        raise DataError(
            f"count mismatch: {count} images in {images_path}, "
            f"{lab_count} labels in {labels_path}"
        )
    y = np.frombuffer(lab, dtype=np.uint8, count=lab_count, offset=8).astype(np.int64)
    return Dataset(X, y, np.arange(count))


def load_csv(path: str, label_column: str) -> Dataset:
    """Load a headered CSV with numeric features and integer/string labels.

    String labels map to indices by first occurrence. Every feature cell
    must be a finite number. Features are min-max scaled per column to
    [0, 1]; constant columns scale to zero.
    """
    try:
        f = open(path, newline="")
    except OSError as e:
        raise DataError(str(e)) from None
    with f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if label_column not in header:
            raise DataError(f"{path}: no column named {label_column!r} in header")
        label_idx = header.index(label_column)
        feat_idx = [i for i in range(len(header)) if i != label_idx]

        rows: list[list[float]] = []
        raw_labels: list[str] = []
        for r, rec in enumerate(reader, start=2):
            if len(rec) != len(header):
                raise DataError(f"{path}: row {r} has {len(rec)} cells, expected {len(header)}")
            vals = []
            for i in feat_idx:
                try:
                    vals.append(float(rec[i]))
                except ValueError:
                    raise DataError(
                        f"{path}: non-numeric feature {rec[i]!r} at row {r}, "
                        f"column {header[i]!r}"
                    ) from None
            rows.append(vals)
            raw_labels.append(rec[label_idx])

    if not rows:
        raise DataError(f"{path}: no data rows")

    label_map: dict[str, int] = {}
    y = np.empty(len(raw_labels), dtype=np.int64)
    for i, lab in enumerate(raw_labels):
        if lab not in label_map:
            label_map[lab] = len(label_map)
        y[i] = label_map[lab]

    X = np.asarray(rows, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(X))
    if len(bad):
        r, c = bad[0]
        raise DataError(
            f"{path}: non-finite feature {X[r, c]} at row {r + 2}, "
            f"column {header[feat_idx[c]]!r}"
        )
    lo = X.min(axis=0)
    span = X.max(axis=0) - lo
    span[span == 0.0] = 1.0  # constant column -> all zeros
    X = (X - lo) / span
    return Dataset(X, y, np.arange(len(y)))


def make_synthetic(
    n: int,
    dim: int,
    n_classes: int,
    separation: float,
    seed: int,
    test_fraction: float = 0.2,
) -> tuple[Dataset, Dataset]:
    """Seeded Gaussian blobs, one per class, with a stratified train/test split.

    Class centers sit on orthonormal directions scaled by ``separation``; the
    within-class noise is unit isotropic, so ``separation`` is in sigma units.
    Each class puts round(test_fraction * its rows) into the test split, none
    at 0.0; a fraction that leaves a class no training row is a ConfigError.
    """
    if n_classes < 2:
        raise ConfigError("need at least 2 classes")
    if dim < n_classes:
        raise ConfigError(f"dim={dim} must be >= n_classes={n_classes} for orthogonal centers")
    if n < 4 * n_classes:
        raise ConfigError(f"n={n} too small for {n_classes} classes")

    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, n_classes)))
    centers = separation * q.T  # (C, dim), pairwise distance separation*sqrt(2)

    per = np.full(n_classes, n // n_classes)
    per[: n % n_classes] += 1
    y = np.repeat(np.arange(n_classes), per)
    X = rng.standard_normal((n, dim)) + centers[y]

    perm = rng.permutation(n)
    X, y = X[perm], y[perm]
    ids = np.arange(n)

    # stratified split: every class keeps a row in the train split
    test_mask = np.zeros(n, dtype=bool)
    for c in range(n_classes):
        members = np.flatnonzero(y == c)
        k = int(round(test_fraction * len(members)))
        if k >= len(members):
            raise ConfigError(f"test_fraction={test_fraction} leaves class {c} "
                              f"none of its {len(members)} rows to train on")
        test_mask[members[:k]] = True
    train_idx = np.flatnonzero(~test_mask)
    test_idx = np.flatnonzero(test_mask)
    train = Dataset(X[train_idx], y[train_idx], ids[train_idx])
    test = Dataset(X[test_idx], y[test_idx], ids[test_idx])
    return train, test
