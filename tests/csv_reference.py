"""Per-row reference readers for the ``index,label`` and
``index,cluster_id,p_minus`` tables.

These are the plain formulations ``labelforge.data`` replaced with one
column-wise table reader: every row is parsed, checked and stored in a
dict on its own, and the arrays are built from the dict in index order.
"""

import csv

import numpy as np

from labelforge.data import UNASSIGNED, Clustering, LabelSet
from labelforge.errors import CorruptArtifact, IoFailure


def load_labels(path) -> LabelSet:
    try:
        with open(path, "r", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    if not rows or rows[0][:2] != ["index", "label"]:
        raise CorruptArtifact(f"{path}: expected 'index,label' header")
    seen: dict[int, int] = {}
    for row in rows[1:]:
        if len(row) != 2:
            raise CorruptArtifact(f"{path}: malformed row {row!r}")
        try:
            idx, raw = int(row[0]), int(row[1])
        except ValueError:
            raise CorruptArtifact(f"{path}: non-integer field in {row!r}")
        if raw < 0:
            raise CorruptArtifact(f"{path}: negative label in {row!r}")
        if idx in seen:
            raise CorruptArtifact(f"{path}: duplicate index {idx}")
        seen[idx] = raw
    n = len(seen)
    if n == 0:
        raise CorruptArtifact(f"{path}: no data rows")
    if set(seen) != set(range(n)):
        missing = sorted(set(range(n)) - set(seen))[:3]
        raise CorruptArtifact(f"{path}: indices not 0..{n - 1} (missing {missing})")
    raw_labels = np.array([seen[i] for i in range(n)], dtype=np.int64)
    uniq, labels = np.unique(raw_labels, return_inverse=True)
    return LabelSet(labels, original_ids={i: int(v) for i, v in enumerate(uniq)})


def load_clustering(path) -> Clustering:
    try:
        with open(path, "r", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    if not rows or rows[0][:3] != ["index", "cluster_id", "p_minus"]:
        raise CorruptArtifact(f"{path}: expected 'index,cluster_id,p_minus' header")
    seen: dict[int, tuple[int, float | None]] = {}
    any_p = False
    for row in rows[1:]:
        if len(row) != 3:
            raise CorruptArtifact(f"{path}: malformed row {row!r}")
        try:
            idx, cid = int(row[0]), int(row[1])
        except ValueError:
            raise CorruptArtifact(f"{path}: non-integer field in {row!r}")
        if cid < UNASSIGNED:
            raise CorruptArtifact(f"{path}: invalid cluster id {cid}")
        if idx in seen:
            raise CorruptArtifact(f"{path}: duplicate index {idx}")
        p = float(row[2]) if row[2] != "" else None
        if p is not None:
            any_p = True
        seen[idx] = (cid, p)
    n = len(seen)
    if n == 0 or set(seen) != set(range(n)):
        raise CorruptArtifact(f"{path}: indices not exactly 0..n-1")
    assignment = np.array([seen[i][0] for i in range(n)], dtype=np.int64)
    p_minus = None
    if any_p:
        p_minus = np.array(
            [seen[i][1] if seen[i][1] is not None else 0.0 for i in range(n)]
        )
    return Clustering(assignment, p_minus=p_minus)
