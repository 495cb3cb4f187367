import errno
import gc
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelforge import data, errors
from labelforge.data import (
    UNASSIGNED,
    Clustering,
    EmbeddingSet,
    LabelSet,
    LinearHead,
    l2_normalize,
    load_archive,
    load_clustering,
    load_embeddings,
    load_labels,
    read_json,
    save_archive,
    save_clustering,
    save_embeddings,
    save_labels,
    write_json,
)


def test_embedding_roundtrip(tmp_path):
    rows = np.random.default_rng(0).standard_normal((2, 3))
    emb = EmbeddingSet(rows)
    path = tmp_path / "e.npz"
    save_embeddings(emb, path)
    back = load_embeddings(path)
    assert back.n == 2 and back.d == 3
    np.testing.assert_allclose(back.rows, rows.astype(np.float32), rtol=0, atol=0)


def test_embeddings_load_as_the_float32_rows_stored(tmp_path):
    rows = np.random.default_rng(1).standard_normal((3, 4)).astype(np.float32)
    save_embeddings(EmbeddingSet(rows), tmp_path / "e.npz")
    back = load_embeddings(tmp_path / "e.npz")
    assert back.rows.dtype == np.float32
    np.testing.assert_array_equal(back.rows, rows)


def test_float32_rows_are_held_without_a_copy():
    rows = np.random.default_rng(2).standard_normal((3, 4)).astype(np.float32)
    assert np.shares_memory(EmbeddingSet(rows).rows, rows)
    assert EmbeddingSet(rows.astype(np.float64)).rows.dtype == np.float32


def test_save_to_unwritable_path(tmp_path):
    emb = EmbeddingSet(np.array([[0.6, 0.8]]))
    with pytest.raises(errors.IoFailure):
        save_embeddings(emb, tmp_path / "missing_dir" / "e.npz")


def test_l2_normalize_345():
    emb = EmbeddingSet(np.array([[3.0, 4.0]]))
    out = l2_normalize(emb)
    np.testing.assert_allclose(out.rows, [[0.6, 0.8]])
    assert out.normalized


def test_l2_normalize_idempotent():
    rows = np.random.default_rng(1).standard_normal((5, 4))
    once = l2_normalize(EmbeddingSet(rows))
    twice = l2_normalize(once)
    np.testing.assert_allclose(twice.rows, once.rows, atol=1e-7)


def test_l2_normalize_zero_row():
    emb = EmbeddingSet(np.array([[1.0, 2.0], [0.0, 0.0]]))
    with pytest.raises(errors.InvalidData, match="^row 1 has zero L2 norm$"):
        l2_normalize(emb)


@given(st.integers(1, 20), st.integers(2, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_normalize_preserves_cosine(n, d, seed):
    rows = np.random.default_rng(seed).standard_normal((n, d)) * 3 + 0.1
    emb = EmbeddingSet(rows)
    out = l2_normalize(emb)
    # the float32 quotient bit for bit, so the cosines move by float32 rounding only
    np.testing.assert_array_equal(out.rows, emb.rows / np.linalg.norm(emb.rows, axis=1)[:, None])
    x, y = emb.rows.astype(np.float64), out.rows.astype(np.float64)
    norms = np.linalg.norm(x, axis=1)
    cos_before = (x @ x.T) / np.outer(norms, norms)
    np.testing.assert_allclose(y @ y.T, cos_before, atol=d * 2.0**-22)


def test_labels_roundtrip(tmp_path):
    labels = LabelSet(np.array([0, 1, 1, 2, 0]))
    path = tmp_path / "labels.npz"
    save_labels(labels, path)
    back = load_labels(path)
    np.testing.assert_array_equal(back.labels, labels.labels)


def test_clustering_roundtrip(tmp_path):
    c = Clustering(
        np.array([0, 0, 1, UNASSIGNED, 1]),
        p_minus=np.array([0.1, 0.2500004, 0.9999994, 0.0, 1.0]),
    )
    path = tmp_path / "c.npz"
    save_clustering(c, path)
    back = load_clustering(path)
    np.testing.assert_array_equal(back.assignment, c.assignment)
    # p⁻ is stored to 6 decimals
    np.testing.assert_array_equal(back.p_minus, [0.1, 0.25, 0.999999, 0.0, 1.0])


def test_clustering_roundtrip_no_pminus(tmp_path):
    c = Clustering(np.array([0, 1, 0]))
    path = tmp_path / "c.npz"
    save_clustering(c, path)
    back = load_clustering(path)
    assert back.p_minus is None
    np.testing.assert_array_equal(back.assignment, c.assignment)


@pytest.mark.parametrize(
    "load, arrays, cause",
    [
        (load_embeddings, {"rows": np.ones((3, 0), dtype=np.float32)}, "need n >= 1 and d >= 2"),
        (load_labels, {"labels": np.array([0, 2])}, "contiguous with no gaps"),
        (load_clustering, {"assignment": np.array([0, 0]), "p_minus": np.array([0.5, 1.5])},
         r"must lie in \[0, 1\]"),
    ],
    ids=["zero-width rows", "label gap", "p_minus 1.5"],
)
def test_loader_names_its_file(tmp_path, load, arrays, cause):
    # arrays that fit the loader's spec but break the container's invariant
    path = tmp_path / "artifact.npz"
    save_archive(arrays, path)
    with pytest.raises(errors.CorruptArtifact, match=cause) as exc:
        load(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_clustering_invariants():
    with pytest.raises(ValueError):
        Clustering(np.array([0, 2]))  # gap in ids
    with pytest.raises(ValueError):
        Clustering(np.array([0, 1]), p_minus=np.array([0.5, 1.5]))


def test_labelset_invariants():
    with pytest.raises(ValueError):
        LabelSet(np.array([0, 2]))
    with pytest.raises(errors.InvalidData, match="negative identity id"):
        LabelSet(np.array([-1, 0]))


@pytest.mark.parametrize(
    "make",
    [
        lambda: EmbeddingSet(np.full((2, 2), 1.0), normalized=True),
        lambda: EmbeddingSet(np.ones(3)),
        lambda: LabelSet(np.array([0, 2])),
        lambda: Clustering(np.array([0, -2])),
        lambda: Clustering(np.array([0, 1]), p_minus=np.array([0.5, np.nan])),
        lambda: LinearHead(np.array([[1.0, np.inf], [0.0, 1.0]])),
    ],
    ids=["not-unit-norm", "1-D rows", "label gap", "cluster id -2", "nan p_minus", "inf weight"],
)
def test_container_invariants_raise_invalid_data(make):
    # a LabelForgeError fails its stage with exit 2; a ValueError, as before
    with pytest.raises(errors.InvalidData) as exc:
        make()
    assert isinstance(exc.value, errors.LabelForgeError) and isinstance(exc.value, ValueError)


# --- samples grouped by id ---

@given(st.lists(st.integers(-1, 7), max_size=60), st.integers(0, 9))
@settings(max_examples=300, deadline=None)
def test_groups_equal_per_id_scans(ids, count):
    ids = np.array(ids, dtype=np.int64)
    order, bounds = data.groups(ids, count)
    assert bounds.shape == (count + 1,)
    for j in range(count):
        np.testing.assert_array_equal(order[bounds[j] : bounds[j + 1]], np.flatnonzero(ids == j))


# --- modal value per owner ---

@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4)), max_size=40))
@settings(max_examples=200, deadline=None)
def test_modal_sends_ties_to_the_smaller_value(pairs):
    owner = np.array([o for o, _ in pairs], dtype=np.int64)
    values = np.array([v for _, v in pairs], dtype=np.int64)
    value, count = data.modal(owner, values)
    want_value, want_count = [], []
    for o in range(owner.max() + 1 if pairs else 0):
        seen = [v for p, v in pairs if p == o]
        best = max(seen.count(v) for v in seen) if seen else 0
        want_value.append(min(v for v in seen if seen.count(v) == best) if seen else -1)
        want_count.append(best)
    assert value.tolist() == want_value
    assert count.tolist() == want_count


# --- .npz archives and JSON ---

SPLIT_SPEC = {"idx": ("i8", "n"), "mask": ("?", "n"), "w": ("f4", "n", 2)}


def _split_arrays(n=3):
    return {
        "idx": np.arange(n, dtype=np.int64),
        "mask": np.arange(n) % 2 == 0,
        "w": np.ones((n, 2), dtype=np.float32),
    }


def test_archive_roundtrip(tmp_path):
    arrays = _split_arrays()
    save_archive(arrays, tmp_path / "a.npz")
    back = load_archive(tmp_path / "a.npz", SPLIT_SPEC)
    assert list(back) == list(SPLIT_SPEC)
    for name, a in arrays.items():
        assert back[name].dtype == a.dtype
        np.testing.assert_array_equal(back[name], a)


def test_archive_optional_array_may_be_absent(tmp_path):
    arrays = _split_arrays()
    del arrays["w"]
    save_archive(arrays, tmp_path / "a.npz")
    assert "w" not in load_archive(tmp_path / "a.npz", SPLIT_SPEC, optional=("w",))


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda a: a.pop("w"), "missing array 'w'"),
        (lambda a: a.update(mask=a["mask"][:-1]), "'mask'"),
        (lambda a: a.update(w=np.ones((3, 3), dtype=np.float32)), "'w'"),
        (lambda a: a.update(w=np.ones(3, dtype=np.float32)), "'w'"),
        (lambda a: a.update(idx=a["idx"].astype(np.float64)), "'idx'"),
    ],
)
def test_archive_rejects_arrays_that_do_not_fit(tmp_path, change, message):
    arrays = _split_arrays()
    change(arrays)
    np.savez(tmp_path / "a.npz", **arrays)
    with pytest.raises(errors.CorruptArtifact, match=message):
        load_archive(tmp_path / "a.npz", SPLIT_SPEC)


def _saved(save, value) -> bytes:
    buf = io.BytesIO()
    save(buf, value)
    return buf.getvalue()


@pytest.mark.parametrize(
    "blob",
    [
        b"",
        b"index\n0\njunk\n",
        _saved(np.save, np.arange(3)),
        _saved(lambda f, arrays: np.savez(f, **arrays), _split_arrays())[:-40],
    ],
    ids=["empty", "text", "single-npy", "truncated"],
)
def test_archive_rejects_unreadable_file(tmp_path, blob):
    path = tmp_path / "a.npz"
    path.write_bytes(blob)
    with pytest.raises(errors.CorruptArtifact, match="not a readable .npz archive"):
        load_archive(path, SPLIT_SPEC)


def test_unreadable_archive_closes_its_file(tmp_path):
    path = tmp_path / "a.npz"
    path.write_bytes(_saved(lambda f, arrays: np.savez(f, **arrays), _split_arrays())[:-40])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(errors.CorruptArtifact, match="not a readable .npz archive"):
            load_archive(path, SPLIT_SPEC)
        gc.collect()
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_missing_archive_is_io_failure(tmp_path):
    with pytest.raises(errors.IoFailure):
        load_archive(tmp_path / "nope.npz", SPLIT_SPEC)


def test_json_roundtrip_and_corruption(tmp_path):
    path = tmp_path / "p.json"
    write_json({"b": [1, 2.5], "a": None}, path)
    assert path.read_text() == '{\n  "a": null,\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
    assert read_json(path) == {"a": None, "b": [1, 2.5]}
    path.write_text('{"a": ')
    with pytest.raises(errors.CorruptArtifact, match="not valid JSON"):
        read_json(path)


# every artifact writer: (writer, first payload, second payload)
WRITERS = {
    "embeddings": (save_embeddings, EmbeddingSet(np.eye(2)), EmbeddingSet(np.ones((3, 2)))),
    "labels": (save_labels, LabelSet(np.array([0, 1])), LabelSet(np.array([0, 0, 1]))),
    "clustering": (save_clustering, Clustering(np.array([0])), Clustering(np.array([0, 1]))),
    "archive": (save_archive, {"x": np.zeros(2)}, {"x": np.ones(9)}),
    "json": (write_json, {"x": 1}, {"x": list(range(50))}),
}


class _DiskFull(io.FileIO):
    """A file that accepts half of a write, then fails as a full disk does."""

    def write(self, b):
        super().write(bytes(b)[: len(b) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, kind):
    write, first, second = WRITERS[kind]
    path = tmp_path / "artifact"
    write(first, path)
    before = path.read_bytes()
    monkeypatch.setattr(data, "open", lambda p, mode: _DiskFull(p, "w"), raising=False)
    with pytest.raises(errors.IoFailure, match="No space left"):
        write(second, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
