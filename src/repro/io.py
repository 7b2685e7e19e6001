"""Serialization: save/load graphs and attack results, with integrity digests.

Poisoned graphs are expensive to generate (Table VII), so pipelines cache
them on disk.  The format is a single ``.npz`` holding the CSR adjacency
components, dense features, labels, masks, and (for attack results) the
flip lists and budget metadata — self-contained and dependency-free.

Format version 2 embeds a per-array SHA-256 digest table in the ``meta``
record and verifies it on load: a bit-flipped, truncated, or key-stripped
archive raises :class:`CorruptArtifactError` naming the file and the
offending array, never yields a silently wrong graph.  Version-1 archives
(written before the digest scheme) still load, with a one-line
"unverified legacy archive" :class:`~repro.errors.IntegrityWarning`.
:func:`journal_record_digest` extends the same scheme to checkpoint
journal records (see :class:`repro.experiments.supervisor.SweepCheckpoint`).
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from pathlib import Path
from typing import Union

import numpy as np
import scipy.sparse as sp

from .attacks.base import AttackBudget, AttackResult
from .errors import IntegrityWarning, ReproError
from .graph import EdgeFlip, FeatureFlip, Graph, validate_graph

__all__ = [
    "SerializationError",
    "CorruptArtifactError",
    "save_graph",
    "load_graph",
    "save_attack_result",
    "load_attack_result",
    "spill_graph",
    "load_spilled_graph",
    "array_digest",
    "journal_record_digest",
    "atomic_write_json",
    "atomic_write_text",
    "save_snapshot",
    "load_snapshot",
]

_FORMAT_VERSION = 2

PathLike = Union[str, Path]


class SerializationError(ReproError, ValueError):
    """Raised when a file is not a valid repro graph/attack archive."""


class CorruptArtifactError(SerializationError):
    """An archive failed integrity verification (bad digest, unreadable
    payload, or an array missing from a digested archive).

    The message always names the file and, when known, the offending array.
    """


# ---------------------------------------------------------------------------
# Digests


def array_digest(array: np.ndarray) -> str:
    """SHA-256 hex digest of an array's dtype, shape, and contents."""
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(str(array.dtype).encode())
    digest.update(np.asarray(array.shape, dtype=np.int64).tobytes())
    digest.update(array.tobytes())
    return digest.hexdigest()


def journal_record_digest(record: dict) -> str:
    """SHA-256 hex digest of a journal record's canonical JSON form.

    The record is serialized with sorted keys and *without* any ``sha256``
    field, so the digest is stable under key order and self-exclusive.
    """
    payload = {key: value for key, value in record.items() if key != "sha256"}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


# ---------------------------------------------------------------------------
# Payload assembly


def _graph_payload(graph: Graph, prefix: str = "") -> dict[str, np.ndarray]:
    adjacency = graph.adjacency.tocsr()
    payload = {
        f"{prefix}adj_data": adjacency.data,
        f"{prefix}adj_indices": adjacency.indices,
        f"{prefix}adj_indptr": adjacency.indptr,
        f"{prefix}adj_shape": np.array(adjacency.shape),
        f"{prefix}features": graph.features,
    }
    if graph.labels is not None:
        payload[f"{prefix}labels"] = graph.labels
    for mask_name in ("train_mask", "val_mask", "test_mask"):
        mask = getattr(graph, mask_name)
        if mask is not None:
            payload[f"{prefix}{mask_name}"] = mask
    return payload


def _graph_from_payload(
    data: dict, prefix: str, name: str, path: PathLike, validate: str = "off"
) -> Graph:
    try:
        adjacency = sp.csr_matrix(
            (
                data[f"{prefix}adj_data"],
                data[f"{prefix}adj_indices"],
                data[f"{prefix}adj_indptr"],
            ),
            shape=tuple(data[f"{prefix}adj_shape"]),
        )
        features = data[f"{prefix}features"]
    except KeyError as error:
        raise SerializationError(
            f"{path}: missing field in archive: {error}"
        ) from error
    except (ValueError, TypeError) as error:  # malformed CSR components
        raise CorruptArtifactError(
            f"{path}: adjacency arrays {prefix}adj_* do not form a valid CSR "
            f"matrix ({error})"
        ) from error
    graph = Graph(
        adjacency=adjacency,
        features=features,
        labels=data.get(f"{prefix}labels"),
        train_mask=data.get(f"{prefix}train_mask"),
        val_mask=data.get(f"{prefix}val_mask"),
        test_mask=data.get(f"{prefix}test_mask"),
        name=name,
        validate=False,
    )
    return validate_graph(graph, policy=validate, context=str(path))


def _fsync_path(path: Path) -> None:
    """``fsync`` a file so a rename-over is durable, not just atomic."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(path: Path) -> None:
    """``fsync`` the directory entry after ``os.replace`` (best effort —
    some filesystems refuse directory fds)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _atomic_savez(path: PathLike, payload: dict[str, np.ndarray]) -> None:
    """Write an ``.npz`` atomically: a kill mid-write never corrupts ``path``.

    Checkpoint archives are re-read on resume, so a torn write must leave
    either the old file or nothing — write to a same-directory temp name
    (kept ``.npz``-suffixed so NumPy does not append an extension), fsync,
    and ``os.replace`` into place.
    """
    path = Path(path)
    if path.suffix != ".npz":  # match np.savez's extension-appending behaviour
        path = path.with_name(path.name + ".npz")
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}.npz")
    try:
        np.savez_compressed(tmp, **payload)
        _fsync_path(tmp)
        os.replace(tmp, path)
        _fsync_dir(path.parent)
    finally:
        tmp.unlink(missing_ok=True)


def atomic_write_json(path: PathLike, payload: dict, indent: int = 2) -> None:
    """Write a JSON document atomically and durably (temp + fsync + rename).

    Benchmark reports and other machine-read summaries go through here: a
    power cut or OOM kill mid-write leaves either the previous file or
    nothing, never a half-written document that breaks the next parser.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    try:
        tmp.write_text(json.dumps(payload, indent=indent, sort_keys=True) + "\n")
        _fsync_path(tmp)
        os.replace(tmp, path)
        _fsync_dir(path.parent)
    finally:
        tmp.unlink(missing_ok=True)


def atomic_write_text(path: PathLike, text: str) -> None:
    """Write a text document atomically and durably (temp + fsync + rename).

    The human-readable benchmark tables share the same torn-write hazard as
    the JSON reports: ``EXPERIMENTS.md`` references them, so a kill mid-write
    must leave the previous table or nothing.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    try:
        tmp.write_text(text)
        _fsync_path(tmp)
        os.replace(tmp, path)
        _fsync_dir(path.parent)
    finally:
        tmp.unlink(missing_ok=True)


def _finalize_payload(payload: dict[str, np.ndarray], meta: dict) -> None:
    """Attach the digest table and serialized meta to an outgoing payload."""
    meta = dict(meta)
    meta["version"] = _FORMAT_VERSION
    meta["digests"] = {key: array_digest(value) for key, value in payload.items()}
    payload["meta"] = np.array(json.dumps(meta))


def save_graph(graph: Graph, path: PathLike) -> None:
    """Write ``graph`` to a ``.npz`` archive (atomically, with digests)."""
    payload = _graph_payload(graph)
    _finalize_payload(payload, {"kind": "graph", "name": graph.name})
    _atomic_savez(path, payload)


def load_graph(path: PathLike, validate: str = "strict") -> Graph:
    """Read a graph written by :func:`save_graph`.

    Array digests are verified first (version-2 archives); the graph then
    passes contract validation under ``validate``
    (``strict``/``repair``/``off`` — see :func:`repro.graph.validate_graph`).
    """
    data, meta = _read_archive(path, expected_kind="graph")
    return _graph_from_payload(
        data, prefix="", name=meta.get("name", "graph"), path=path, validate=validate
    )


def spill_graph(graph: Graph, path: PathLike) -> None:
    """Write ``graph`` to an uncompressed ``.npz`` for a sibling process.

    A scratch hand-off, not an archive: no digests, no fsync, no rename.
    The file lives in a private directory only as long as its writer, so
    durable copies go through :func:`save_graph` instead.
    """
    np.savez(path, **_graph_payload(graph))


def load_spilled_graph(path: PathLike, name: str) -> Graph:
    """Read a graph written by :func:`spill_graph` (no validation)."""
    with np.load(path) as archive:
        data = {key: archive[key] for key in archive.files}
    return _graph_from_payload(data, "", name, path)


def save_attack_result(result: AttackResult, path: PathLike) -> None:
    """Write an :class:`AttackResult` (both graphs + flips) to ``.npz``."""
    payload = _graph_payload(result.original, prefix="orig_")
    payload.update(_graph_payload(result.poisoned, prefix="pois_"))
    payload["edge_flips"] = np.array(
        [(f.u, f.v) for f in result.edge_flips], dtype=np.int64
    ).reshape(-1, 2)
    payload["feature_flips"] = np.array(
        [(f.node, f.dim) for f in result.feature_flips], dtype=np.int64
    ).reshape(-1, 2)
    payload["objective_trace"] = np.asarray(result.objective_trace, dtype=np.float64)
    _finalize_payload(
        payload,
        {
            "kind": "attack_result",
            "name": result.original.name,
            "budget_total": result.budget.total,
            "feature_cost": result.budget.feature_cost,
            "runtime_seconds": result.runtime_seconds,
        },
    )
    _atomic_savez(path, payload)


def load_attack_result(path: PathLike, validate: str = "off") -> AttackResult:
    """Read an attack result written by :func:`save_attack_result`.

    ``validate`` applies graph contract validation to both carried graphs
    (default ``off``: the digest table already guarantees the bytes are the
    ones the attacker wrote, and attack entry points validate their inputs).
    """
    data, meta = _read_archive(path, expected_kind="attack_result")
    name = meta.get("name", "graph")
    try:
        budget = AttackBudget(
            total=float(meta["budget_total"]),
            feature_cost=float(meta["feature_cost"]),
        )
    except KeyError as error:
        raise SerializationError(
            f"{path}: attack archive meta is missing field {error}"
        ) from error
    try:
        edge_flips = [EdgeFlip(int(u), int(v)) for u, v in data["edge_flips"]]
        feature_flips = [FeatureFlip(int(n), int(d)) for n, d in data["feature_flips"]]
        objective_trace = list(data["objective_trace"])
    except KeyError as error:
        raise SerializationError(
            f"{path}: missing field in archive: {error}"
        ) from error
    return AttackResult(
        original=_graph_from_payload(data, "orig_", name, path, validate),
        poisoned=_graph_from_payload(data, "pois_", name, path, validate),
        budget=budget,
        edge_flips=edge_flips,
        feature_flips=feature_flips,
        objective_trace=objective_trace,
        runtime_seconds=float(meta.get("runtime_seconds", 0.0)),
    )


def save_snapshot(path: PathLike, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Write a mid-trial snapshot archive (atomically, with digests).

    ``arrays`` maps names to ndarrays (weights, optimizer moments, flip
    histories); ``meta`` is any JSON-serializable dict (RNG states, loop
    counters, unit bookkeeping).  The archive reuses the checksummed
    format-v2 machinery, so a torn or bit-flipped snapshot is *detected*
    on load rather than resumed from.
    """
    payload = {
        key: np.ascontiguousarray(value) for key, value in arrays.items()
    }
    _finalize_payload(payload, {"kind": "snapshot", "state": meta})
    _atomic_savez(path, payload)


def load_snapshot(path: PathLike) -> tuple[dict[str, np.ndarray], dict]:
    """Read a snapshot written by :func:`save_snapshot` → ``(arrays, meta)``.

    Raises :class:`CorruptArtifactError` on integrity failure — callers
    (the snapshot sink) treat that as "no snapshot" and restart the trial
    from scratch rather than resuming from damaged state.
    """
    data, meta = _read_archive(path, expected_kind="snapshot")
    data.pop("meta", None)
    state = meta.get("state")
    if not isinstance(state, dict):
        raise CorruptArtifactError(f"{path}: snapshot carries no state record")
    return data, state


# ---------------------------------------------------------------------------
# Reading + verification


def _read_archive(path: PathLike, expected_kind: str) -> tuple[dict, dict]:
    """Load an archive's arrays, verify integrity, and return (data, meta)."""
    path = Path(path)
    if not path.exists():
        # A missing file is an environment error, not a corrupt artifact:
        # let it propagate as FileNotFoundError for the shell/user.
        raise FileNotFoundError(f"{path}: no such archive")
    try:
        with np.load(path, allow_pickle=False) as archive:
            data = {key: archive[key] for key in archive.files}
    except Exception as error:  # noqa: BLE001 — see comment below
        # np.load surfaces corruption in many shapes: zipfile.BadZipFile
        # (OSError), zlib.error, truncated-stream ValueError...  All of them
        # mean the same thing here: the bytes on disk are not the bytes the
        # writer produced.
        raise CorruptArtifactError(
            f"{path}: unreadable archive ({type(error).__name__}: {error})"
        ) from error
    meta = _read_meta(data, expected_kind, path)
    version = int(meta.get("version", 0))
    if version >= 2:
        _verify_digests(data, meta, path)
    else:
        warnings.warn(
            f"{path}: unverified legacy archive (format v{version}, no digests)",
            IntegrityWarning,
            stacklevel=3,
        )
    return data, meta


def _verify_digests(data: dict, meta: dict, path: Path) -> None:
    digests = meta.get("digests")
    if not isinstance(digests, dict):
        raise CorruptArtifactError(
            f"{path}: version-{meta.get('version')} archive carries no digest table"
        )
    missing = sorted(set(digests) - set(data))
    if missing:
        raise CorruptArtifactError(
            f"{path}: digested arrays missing from archive: {missing}"
        )
    for key, array in data.items():
        if key == "meta":
            continue
        expected = digests.get(key)
        if expected is None:
            raise CorruptArtifactError(
                f"{path}: array {key!r} has no recorded digest"
            )
        actual = array_digest(array)
        if actual != expected:
            raise CorruptArtifactError(
                f"{path}: array {key!r} failed SHA-256 verification "
                f"(expected {expected[:12]}…, got {actual[:12]}…)"
            )


def _read_meta(data: dict, expected_kind: str, path: PathLike) -> dict:
    if "meta" not in data:
        raise SerializationError(f"{path}: not a repro archive (no meta field)")
    try:
        meta = json.loads(str(data["meta"]))
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise CorruptArtifactError(
            f"{path}: meta record is not valid JSON ({error})"
        ) from error
    if not isinstance(meta, dict):
        raise CorruptArtifactError(f"{path}: meta record is not a JSON object")
    if meta.get("kind") != expected_kind:
        raise SerializationError(
            f"{path}: archive holds a {meta.get('kind')!r}, "
            f"expected {expected_kind!r}"
        )
    if meta.get("version", 0) > _FORMAT_VERSION:
        raise SerializationError(
            f"{path}: archive version {meta['version']} is newer than supported "
            f"({_FORMAT_VERSION})"
        )
    return meta
