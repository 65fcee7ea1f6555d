"""Dataset loading, scaling, and synthesis.

All features end up min-max scaled to [0, 1] because the angle encoding
assumes bounded inputs. The classic iris table ships with the package so
the 4-qubit flagship experiment needs no network or external files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources

import numpy as np


@dataclass(frozen=True)
class Dataset:
    """Binary-labeled feature table, scaled to the unit hypercube.

    A constant column has min == max and is scaled to identically 0 (the
    convention that keeps angles defined).
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple
    class_names: tuple

    def __post_init__(self):
        # for a table built by hand, which skips _minmax_scale's check
        if not np.isfinite(self.features).all():
            raise ValueError("features must be finite")

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def feature_count(self) -> int:
        return self.features.shape[1]


def _minmax_scale(raw: np.ndarray) -> np.ndarray:
    # checked before dividing: an infinite span would give inf / inf
    if not np.isfinite(raw).all():
        raise ValueError("features must be finite")
    mins = raw.min(axis=0)
    maxs = raw.max(axis=0)
    span = maxs - mins
    safe = np.where(span > 0.0, span, 1.0)
    return (raw - mins) / safe


def load_csv(path, label_column: str, keep_classes=None) -> Dataset:
    """Parse a headered CSV into a scaled two-class dataset.

    Every non-label column must be numeric. Rows that fail to parse are
    reported with their line numbers. More than two label values is an
    error unless keep_classes narrows them down; the two kept classes map
    to labels 0 and 1 in the order given (or sorted order by default).
    """
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if label_column not in header:
            raise ValueError(f"{path}: no column named {label_column!r}")
        label_idx = header.index(label_column)
        feature_names = tuple(h for i, h in enumerate(header) if i != label_idx)

        rows, raw_labels, bad = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                bad.append(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
                continue
            try:
                rows.append([float(v) for i, v in enumerate(row) if i != label_idx])
            except ValueError:
                bad.append(f"line {lineno}: non-numeric feature value")
                continue
            raw_labels.append(row[label_idx])
        if bad:
            raise ValueError(f"{path}: malformed rows:\n  " + "\n  ".join(bad))
        if not rows:
            raise ValueError(f"{path}: no data rows")

    if keep_classes is not None:
        keep = [str(c) for c in keep_classes]
        mask = [lab in keep for lab in raw_labels]
        rows = [r for r, m in zip(rows, mask) if m]
        raw_labels = [lab for lab, m in zip(raw_labels, mask) if m]
        classes = keep
    else:
        classes = sorted(set(raw_labels))
    if len(set(raw_labels)) != 2 or len(classes) != 2:
        raise ValueError(
            f"{path}: need exactly two classes, found {sorted(set(raw_labels))}; "
            "pass keep_classes to filter")

    scaled = _minmax_scale(np.asarray(rows, dtype=float))
    labels = np.array([classes.index(lab) for lab in raw_labels], dtype=np.int64)
    return Dataset(features=scaled, labels=labels, feature_names=feature_names,
                   class_names=tuple(classes))


def load_iris_binary(classes=("setosa", "versicolor")) -> Dataset:
    """The bundled iris table filtered to two species (100 records, 4 features)."""
    path = resources.files("qcanary").joinpath("assets/iris.csv")
    with resources.as_file(path) as p:
        ds = load_csv(p, "species", keep_classes=classes)
    if ds.feature_count != 4:
        raise RuntimeError("bundled iris asset is corrupt")
    return ds


def synth_gaussians(m: int, per_class: int, separation: float,
                    rng: np.random.Generator) -> Dataset:
    """Two spherical Gaussian classes at means -+ separation/2 per feature.

    Unit variance before scaling. Label balance is exact by construction.
    """
    if m < 1:
        raise ValueError("need at least one feature")
    if not per_class >= 1:  # NaN fails too
        raise ValueError(f"need at least one record per class, got {per_class}")
    lo = rng.normal(-separation / 2.0, 1.0, size=(per_class, m))
    hi = rng.normal(+separation / 2.0, 1.0, size=(per_class, m))
    raw = np.concatenate([lo, hi], axis=0)
    labels = np.concatenate([np.zeros(per_class, dtype=np.int64),
                             np.ones(per_class, dtype=np.int64)])
    names = tuple(f"f{j}" for j in range(m))
    return Dataset(features=_minmax_scale(raw), labels=labels, feature_names=names,
                   class_names=("low", "high"))
