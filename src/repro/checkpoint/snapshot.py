"""Durable snapshots: atomic write, integrity check, versioning.

Snapshots are written with numpy's ``savez`` plus a small JSON manifest
carrying metadata and per-array checksums, staged through a temporary
file and renamed into place so a crash mid-save never corrupts the latest
good checkpoint (the failure model of Section 3.1).
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.errors import CheckpointError

FORMAT_VERSION = 1

#: The on-disk naming scheme every checkpoint writer in the repo uses.
SNAPSHOT_NAME = re.compile(r"^ckpt-(\d+)\.npz$")


@dataclass
class Snapshot:
    """An in-memory snapshot: named arrays plus JSON-safe metadata."""

    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def add_array(self, name: str, array: np.ndarray) -> None:
        if name in self.arrays:
            raise CheckpointError(f"duplicate array name {name!r}")
        self.arrays[name] = np.asarray(array)

    def checksum(self, name: str) -> int:
        return zlib.crc32(np.ascontiguousarray(self.arrays[name]).tobytes())


def save_snapshot(snapshot: Snapshot, path: str) -> None:
    """Atomically persist ``snapshot`` to ``path`` (a .npz file)."""
    manifest = {
        "format_version": FORMAT_VERSION,
        "metadata": snapshot.metadata,
        "checksums": {
            name: snapshot.checksum(name) for name in snapshot.arrays
        },
    }
    payload = dict(snapshot.arrays)
    payload["__manifest__"] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8
    )
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, staging = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **payload)
            # The bytes must be durable *before* the rename publishes
            # them, or a crash can leave a fully-renamed but empty file —
            # exactly the corruption the atomic-replace is meant to
            # prevent (Section 3.1's failure model).
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staging, path)
    except Exception:
        if os.path.exists(staging):
            os.unlink(staging)
        raise
    _fsync_directory(directory)


def _fsync_directory(directory: str) -> None:
    """Persist a rename by fsyncing its directory (no-op where unsupported)."""
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # e.g. Windows cannot open directories
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def snapshot_path(directory: str, step: int) -> str:
    """The canonical path of the checkpoint taken after ``step`` steps."""
    return os.path.join(directory, f"ckpt-{step:06d}.npz")


def list_snapshots(directory: str) -> list[tuple[int, str]]:
    """``(step, path)`` pairs of snapshots in ``directory``, newest first."""
    found = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in names:
        match = SNAPSHOT_NAME.match(name)
        if match:
            found.append((int(match.group(1)), os.path.join(directory, name)))
    return sorted(found, reverse=True)


def prune_snapshots(directory: str, keep: int) -> list[str]:
    """Delete all but the ``keep`` newest snapshots; returns removed paths.

    A preempted fleet job checkpoints on every eviction, so an unlucky
    job could otherwise litter its workdir with one file per preemption.
    """
    if keep < 1:
        raise CheckpointError("must keep at least one snapshot")
    removed = []
    for _, path in list_snapshots(directory)[keep:]:
        os.unlink(path)
        removed.append(path)
    return removed


def latest_good_snapshot(directory: str) -> tuple[Snapshot, int] | None:
    """Newest snapshot whose checksums verify, or ``None`` if none does.

    Corrupt files (torn writes, truncation) are skipped, not fatal: the
    crash-consistency contract is that *some* older checkpoint always
    restores.
    """
    for step, path in list_snapshots(directory):
        try:
            return load_snapshot(path), step
        except CheckpointError:
            continue
    return None


def load_snapshot(path: str) -> Snapshot:
    """Load and verify a snapshot written by :func:`save_snapshot`."""
    if not os.path.exists(path):
        raise CheckpointError(f"no checkpoint at {path!r}")
    try:
        # The handle is ours, so a zip parse that raises still closes it.
        with open(path, "rb") as handle, np.load(handle) as data:
            if "__manifest__" not in data:
                raise CheckpointError(f"{path!r} is not a repro snapshot")
            manifest = json.loads(bytes(data["__manifest__"]).decode("utf-8"))
            if manifest.get("format_version") != FORMAT_VERSION:
                raise CheckpointError(
                    f"unsupported snapshot version {manifest.get('format_version')}"
                )
            snapshot = Snapshot(metadata=manifest["metadata"])
            for name in data.files:
                if name == "__manifest__":
                    continue
                snapshot.arrays[name] = data[name]
    except CheckpointError:
        raise
    except Exception as exc:  # zip/npy corruption surfaces in many shapes
        raise CheckpointError(f"failed to read snapshot {path!r}: {exc}") from exc
    for name, expected in manifest["checksums"].items():
        if name not in snapshot.arrays:
            raise CheckpointError(f"snapshot missing array {name!r}")
        actual = snapshot.checksum(name)
        if actual != expected:
            raise CheckpointError(
                f"checksum mismatch for {name!r}: snapshot is corrupt"
            )
    return snapshot
