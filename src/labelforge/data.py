"""Core data containers and bit-exact file I/O.

Embeddings are stored on disk as float32 and held in memory as float32
too: ``EmbeddingSet`` and ``LinearHead`` cast once, at construction, and
every layer computes in the dtype it is given. Every artifact that holds
arrays is a NumPy ``.npz`` archive, and the rest is sorted-key JSON. Each
writer replaces its file atomically; each reader rejects a malformed file
with a :class:`LabelForgeError`.
"""

from __future__ import annotations

import io
import json
import os
import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import CorruptArtifact, InvalidData, IoFailure

UNASSIGNED = -1


@dataclass(frozen=True)
class EmbeddingSet:
    """n x d float32 matrix of per-sample feature vectors."""

    rows: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float32)
        if rows.ndim != 2:
            raise InvalidData("rows must be a 2-D matrix")
        if rows.shape[0] < 1 or rows.shape[1] < 2:
            raise InvalidData("need n >= 1 and d >= 2")
        object.__setattr__(self, "rows", rows)
        if self.normalized:
            norms = np.linalg.norm(rows, axis=1)
            if not np.all(np.abs(norms - 1.0) < 1e-5):
                raise InvalidData("normalized flag set but rows are not unit-norm")

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class LabelSet:
    """Per-sample identity ids, contiguous in [0, num_ids)."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1:
            raise InvalidData("labels must be 1-D")
        if labels.size == 0:
            raise InvalidData("labels must be non-empty")
        if labels.min() < 0:
            raise InvalidData("negative identity id")
        k = int(labels.max()) + 1
        present = np.bincount(labels, minlength=k)
        if np.any(present == 0):
            raise InvalidData("identity ids must be contiguous with no gaps")
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.labels.size

    @property
    def num_ids(self) -> int:
        return int(self.labels.max()) + 1


@dataclass(frozen=True)
class Clustering:
    """Per-sample cluster assignment; UNASSIGNED (-1) marks rejected samples.

    ``p_minus`` optionally carries the per-sample probability of an
    incorrect assignment.
    """

    assignment: np.ndarray
    p_minus: np.ndarray | None = None

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.int64)
        if a.ndim != 1:
            raise InvalidData("assignment must be 1-D")
        assigned = a[a != UNASSIGNED]
        if assigned.size:
            if assigned.min() < 0:
                raise InvalidData("cluster ids must be >= 0 or UNASSIGNED")
            k = int(assigned.max()) + 1
            if np.any(np.bincount(assigned, minlength=k) == 0):
                raise InvalidData("cluster ids must be contiguous with no gaps")
        object.__setattr__(self, "assignment", a)
        if self.p_minus is not None:
            p = np.asarray(self.p_minus, dtype=np.float64)
            if p.shape != a.shape:
                raise InvalidData("p_minus length must match assignment")
            if np.any(~((p >= 0.0) & (p <= 1.0))):
                raise InvalidData("p_minus values must lie in [0, 1]")
            object.__setattr__(self, "p_minus", p)

    @property
    def n(self) -> int:
        return self.assignment.size

    @property
    def num_clusters(self) -> int:
        assigned = self.assignment[self.assignment != UNASSIGNED]
        return int(assigned.max()) + 1 if assigned.size else 0


@dataclass(frozen=True)
class LinearHead:
    """Multi-class linear classifier: rows of the float32 ``weights`` are
    per-class vectors."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float32)
        if w.ndim != 2 or w.shape[0] < 2:
            raise InvalidData("weights must be a (num_classes >= 2) x d matrix")
        if not np.all(np.isfinite(w)):
            raise InvalidData("weights must be finite")
        object.__setattr__(self, "weights", w)

    @property
    def d(self) -> int:
        return self.weights.shape[1]

    def logits(self, emb: EmbeddingSet) -> np.ndarray:
        if emb.d != self.d:
            raise InvalidData(f"head expects d={self.d}, got d={emb.d}")
        return emb.rows @ self.weights.T


def relabel(ids: np.ndarray) -> np.ndarray:
    """Map ids onto 0..m-1 in ascending id order; UNASSIGNED stays UNASSIGNED."""
    ids = np.asarray(ids, dtype=np.int64)
    out = np.full(ids.shape, UNASSIGNED, dtype=np.int64)
    assigned = ids != UNASSIGNED
    out[assigned] = np.unique(ids[assigned], return_inverse=True)[1]
    return out


def groups(ids: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Samples grouped by id with one stable sort: the members of id ``j``
    are ``order[bounds[j]:bounds[j + 1]]``, in ascending index order. Ids
    outside 0..count-1, such as UNASSIGNED, belong to no group."""
    order = np.argsort(ids, kind="stable")
    return order, np.searchsorted(ids[order], np.arange(count + 1))


def modal(owner: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Most frequent of the non-negative ``values`` per owner, and its count.

    Entry ``i`` pairs ``owner[i]`` with ``values[i]``. The result has one
    entry per owner ``0..owner.max()``; ties go to the smaller value, and an
    owner with no entries gets value -1 and count 0.
    """
    owner = np.asarray(owner, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    size = int(owner.max()) + 1 if owner.size else 0
    value = np.full(size, -1, dtype=np.int64)
    count = np.zeros(size, dtype=np.int64)
    if owner.size:
        width = int(values.max()) + 1
        pairs, counts = np.unique(owner * width + values, return_counts=True)
        own, val = np.divmod(pairs, width)
        # pairs ascend by (owner, value); per owner, the largest count first
        order = np.lexsort((-counts, own))
        best = order[np.r_[True, own[order][1:] != own[order][:-1]]]
        value[own[best]] = val[best]
        count[own[best]] = counts[best]
    return value, count


def l2_normalize(emb: EmbeddingSet) -> EmbeddingSet:
    """Scale every row to unit L2 norm."""
    norms = np.linalg.norm(emb.rows, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise InvalidData(f"row {zero[0]} has zero L2 norm")
    return EmbeddingSet(emb.rows / norms[:, None], normalized=True)


def _write_atomic(path, blob) -> None:
    """Write the bytes-like ``blob`` to a temp file beside ``path``, then
    rename it into place: a failed write leaves the previous file as it was."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _load(path, container, spec: dict[str, tuple], optional: tuple[str, ...] = ()):
    """``container`` built from the arrays of the archive at ``path``; an
    array that breaks its invariant makes the file corrupt."""
    arrays = load_archive(path, spec, optional)
    try:
        return container(**arrays)
    except ValueError as exc:
        raise CorruptArtifact(f"{path}: {exc}") from exc


def save_embeddings(emb: EmbeddingSet, path) -> None:
    save_archive({"rows": emb.rows}, path)


def load_embeddings(path) -> EmbeddingSet:
    return _load(path, EmbeddingSet, {"rows": ("f4", "n", "d")})


def save_labels(labels: LabelSet, path) -> None:
    save_archive({"labels": labels.labels}, path)


def load_labels(path) -> LabelSet:
    return _load(path, LabelSet, {"labels": ("i8", "n")})


def save_clustering(c: Clustering, path) -> None:
    """Write the assignment and, when present, p⁻ rounded to 6 decimals."""
    arrays = {"assignment": c.assignment}
    if c.p_minus is not None:
        # 6 decimals is the precision p⁻ was always stored at, so the soft
        # head trained on it, and every report, stay the same
        arrays["p_minus"] = np.round(c.p_minus, 6)
    save_archive(arrays, path)


def load_clustering(path) -> Clustering:
    """p⁻ is None when the archive holds no ``p_minus`` array."""
    spec = {"assignment": ("i8", "n"), "p_minus": ("f8", "n")}
    return _load(path, Clustering, spec, optional=("p_minus",))


def save_archive(arrays: dict[str, np.ndarray], path) -> None:
    """Write named arrays as one uncompressed NumPy ``.npz`` archive."""
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    _write_atomic(path, buf.getbuffer())


def load_archive(path, spec: dict[str, tuple], optional: tuple[str, ...] = ()) -> dict:
    """Read a ``.npz`` archive and check it against ``spec``.

    ``spec`` maps each expected array to ``(dtype, *shape)``; an axis is an
    int or a name that must take the same length wherever it appears.
    Arrays named in ``optional`` may be absent. Returns the arrays present,
    in spec order.
    """
    try:
        archive = np.load(path, allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError("a single .npy array")
        with archive:
            arrays = {name: archive[name] for name in spec if name in archive.files}
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise CorruptArtifact(f"{path}: not a readable .npz archive ({exc})") from exc
    dims: dict[str, int] = {}
    for name, (dtype, *shape) in spec.items():
        if name not in arrays:
            if name in optional:
                continue
            raise CorruptArtifact(f"{path}: missing array {name!r}")
        a = arrays[name]
        want = [dims.setdefault(ax, n) if isinstance(ax, str) else ax
                for ax, n in zip(shape, a.shape)]
        if a.dtype != np.dtype(dtype) or list(a.shape) != want or a.ndim != len(shape):
            raise CorruptArtifact(
                f"{path}: array {name!r} is {a.dtype} {a.shape}, expected "
                f"{np.dtype(dtype)} {tuple(shape)} with {dims}"
            )
    return arrays


def write_json(payload: dict, path) -> None:
    """Sorted-key, indented JSON with a trailing newline; NaN/inf rejected."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    _write_atomic(path, text.encode())


def read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    except ValueError as exc:
        raise CorruptArtifact(f"{path}: not valid JSON ({exc})") from exc
