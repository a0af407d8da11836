"""Content-addressed shard checkpoints for supervised generation.

Nonstochastic Kronecker generation is deterministic per shard (Section
III): rank ``r``'s stored edges are a pure function of the factors, the
partition, and the storage configuration.  That makes failed work ideal
for checkpoint/retry -- a shard computed once never needs recomputing, and
a recomputed shard can be *verified* bit-for-bit against the recorded
digest (cf. Sanders et al., arXiv:1803.09021 on validating generated
output at scale).

Each checkpoint is one ``.npz`` file holding the shard's edge array, its
``generated`` count, and a 64-bit content digest computed with the
project's splitmix64 hashing (:mod:`repro.util.hashing`).  The digest is
order-sensitive (row permutations change it) and shape-sensitive, so a
digest match means the recovered array is byte-for-byte the original.
Reads re-derive the digest from the data and compare against the recorded
one; a mismatch (disk corruption, partial write) is treated as *absent* by
default -- the shard regenerates -- with a structured
:class:`~repro.errors.DegradationWarning`, or raises
:class:`~repro.errors.CheckpointError` under ``strict=True``.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import warnings
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import (
    CheckpointCorruptionError,
    CheckpointError,
    DegradationWarning,
)
from repro.graph.edgelist import _canonical_order
from repro.telemetry.session import record_degradation
from repro.util.hashing import hash_pair, splitmix64

__all__ = [
    "edges_digest",
    "CheckpointStore",
    "Shard",
    "RunManifest",
    "reshard_run",
]

_KEY_RE = re.compile(r"[^A-Za-z0-9._-]+")


def edges_digest(edges: np.ndarray) -> int:
    """Order- and shape-sensitive 64-bit digest of an edge array.

    Rows are hashed pairwise (splitmix64 via :func:`hash_pair`), mixed with
    their positions so permutations change the digest, folded with uint64
    wraparound addition (associative, vectorized), and finalized together
    with the row count.
    """
    edges = np.ascontiguousarray(edges, dtype=np.int64).reshape(-1, 2)
    m = len(edges)
    with np.errstate(over="ignore"):
        rows = hash_pair(
            edges[:, 0].astype(np.uint64),
            edges[:, 1].astype(np.uint64),
            seed=m,
            directed=True,
        )
        positioned = splitmix64(rows ^ splitmix64(np.arange(m, dtype=np.uint64)))
        acc = np.uint64(0) if m == 0 else positioned.sum(dtype=np.uint64)
        final = splitmix64(acc + np.uint64(m))
    return int(final)


@dataclass(frozen=True)
class Shard:
    """One recovered checkpoint entry.

    ``resharded`` marks shards written by :func:`reshard_run` rather than
    by generation: their contents are ownership-exact but their row order
    is the canonical union order, so a digest mismatch against a
    re-*generated* shard means "stale layout", not "nondeterminism".
    """

    edges: np.ndarray
    generated: int
    digest: int
    resharded: bool = False


@dataclass(frozen=True)
class RunManifest:
    """Consensus summary of one completed checkpointed run.

    Written after a run succeeds; consumed by elastic resume.  ``family``
    is the rank-count-independent configuration signature (factor digests
    plus every parameter except the world size), so manifests of the same
    family describe the *same* edge set partitioned at different rank
    counts.  ``union_digest`` is the digest of all shards stacked in rank
    order and canonically (lexicographically) sorted -- the invariant any
    re-partition must preserve bit-for-bit.
    """

    run_key: str
    family: str
    nranks: int
    shard_digests: tuple[int, ...]
    union_digest: int
    edges_total: int


class CheckpointStore:
    """Directory of digest-verified shard checkpoints.

    Keys are arbitrary strings (sanitized into filenames); the supervised
    launcher keys shards by a run signature that folds in the factor
    digests and every generation parameter, so a resumed run can never
    consume shards from a differently-configured one.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / f"{_KEY_RE.sub('_', key)}.npz"

    def has(self, key: str) -> bool:
        """Does a checkpoint file exist for ``key`` (without verifying)?"""
        return self._path(key).exists()

    def put(
        self,
        key: str,
        edges: np.ndarray,
        generated: int = 0,
        *,
        resharded: bool = False,
    ) -> int:
        """Persist a shard; returns its content digest.

        The write goes through a temp file + atomic rename so a crash
        mid-write leaves either the old checkpoint or none -- never a
        torn file that parses.
        """
        edges = np.ascontiguousarray(edges, dtype=np.int64).reshape(-1, 2)
        digest = edges_digest(edges)
        path = self._path(key)
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(
                    fh,
                    edges=edges,
                    generated=np.int64(generated),
                    digest=np.uint64(digest),
                    resharded=np.int64(resharded),
                )
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return digest

    def get(
        self, key: str, *, strict: bool = False, discard: bool = False
    ) -> Shard | None:
        """Load and verify a shard; ``None`` when absent or unusable.

        The digest is recomputed from the loaded data and compared to the
        recorded one.  On mismatch (or an unreadable file) the checkpoint
        is discarded: a :class:`DegradationWarning` is emitted and the
        shard regenerates -- unless ``strict=True``, which raises
        :class:`CheckpointError` instead, or ``discard=True``, which
        *deletes* the damaged file and raises the transient
        :class:`CheckpointCorruptionError` (the supervised path: the retry
        finds no checkpoint and regenerates bit-identically).
        """
        path = self._path(key)
        if not path.exists():
            return None
        try:
            with np.load(path) as npz:
                edges = np.asarray(npz["edges"], dtype=np.int64).reshape(-1, 2)
                generated = int(npz["generated"])
                recorded = int(npz["digest"])
                resharded = (
                    bool(npz["resharded"]) if "resharded" in npz else False
                )
        except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
            return self._reject(
                key, path, f"unreadable checkpoint: {exc}", strict, discard
            )
        actual = edges_digest(edges)
        if actual != recorded:
            return self._reject(
                key,
                path,
                f"content digest {actual:#018x} does not match recorded "
                f"{recorded:#018x} (corrupt or torn write)",
                strict,
                discard,
            )
        return Shard(
            edges=edges, generated=generated, digest=recorded,
            resharded=resharded,
        )

    def _reject(
        self,
        key: str,
        path: Path,
        reason: str,
        strict: bool,
        discard: bool = False,
    ) -> None:
        if discard:
            path.unlink(missing_ok=True)
            raise CheckpointCorruptionError(
                f"checkpoint {key!r} at {path}: {reason} -- damaged "
                f"artifact discarded; a retry regenerates the shard"
            )
        if strict:
            raise CheckpointError(f"checkpoint {key!r} at {path}: {reason}")
        record_degradation(
            f"checkpoint {key!r}", "regenerating the shard", reason
        )
        warnings.warn(
            DegradationWarning(
                f"checkpoint {key!r}", "regenerating the shard", reason
            ),
            stacklevel=3,
        )
        return None

    def discard(self, key: str) -> None:
        """Remove one checkpoint (missing is fine)."""
        path = self._path(key)
        if path.exists():
            path.unlink()

    def keys(self) -> list[str]:
        """Stored keys (filename-sanitized form), sorted."""
        return sorted(p.stem for p in self.directory.glob("*.npz"))

    # ---- run manifests ---------------------------------------------------
    def _manifest_path(self, run_key: str) -> Path:
        return self.directory / f"{_KEY_RE.sub('_', run_key)}.manifest.json"

    def put_manifest(self, manifest: RunManifest) -> None:
        """Persist a run manifest (atomic tmp + rename, like shards)."""
        path = self._manifest_path(manifest.run_key)
        payload = json.dumps(
            {
                "run_key": manifest.run_key,
                "family": manifest.family,
                "nranks": manifest.nranks,
                "shard_digests": [f"{d:016x}" for d in manifest.shard_digests],
                "union_digest": f"{manifest.union_digest:016x}",
                "edges_total": manifest.edges_total,
            },
            indent=2,
            sort_keys=True,
        )
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def get_manifest(self, run_key: str) -> RunManifest | None:
        """Load one manifest; damaged files are deleted and yield ``None``.

        A manifest is pure derived metadata (the shards are the truth), so
        an unreadable one is silently dropped -- elastic resume simply will
        not see that run.  Digest *verification* against the shards happens
        in :func:`reshard_run`, where a mismatch is a transient error.
        """
        path = self._manifest_path(run_key)
        if not path.exists():
            return None
        try:
            with open(path) as fh:
                doc = json.load(fh)
            return RunManifest(
                run_key=str(doc["run_key"]),
                family=str(doc["family"]),
                nranks=int(doc["nranks"]),
                shard_digests=tuple(
                    int(d, 16) for d in doc["shard_digests"]
                ),
                union_digest=int(doc["union_digest"], 16),
                edges_total=int(doc["edges_total"]),
            )
        except (OSError, ValueError, KeyError, TypeError):
            path.unlink(missing_ok=True)
            return None

    def discard_manifest(self, run_key: str) -> None:
        """Remove one manifest (missing is fine)."""
        self._manifest_path(run_key).unlink(missing_ok=True)

    def manifests(self) -> list[RunManifest]:
        """Every readable manifest in the store, sorted by run key."""
        out = []
        for path in sorted(self.directory.glob("*.manifest.json")):
            run_key = path.name[: -len(".manifest.json")]
            manifest = self.get_manifest(run_key)
            if manifest is not None:
                out.append(manifest)
        return out


def reshard_run(
    store: CheckpointStore,
    manifest: RunManifest,
    *,
    new_key: str,
    new_ranks: int,
    scheme: str,
    n: int,
    seed: int = 0,
) -> RunManifest:
    """Re-partition a completed run's shards onto a new rank count.

    The elastic-resume kernel: load every source shard (digest-verified,
    damaged ones deleted), rebuild the canonical edge union, verify it
    against the manifest's consensus ``union_digest``, then re-partition
    through the *same* ownership map a fresh ``new_ranks``-rank run would
    use (:func:`repro.distributed.shuffle.edge_owners`) and persist the
    new shards plus their manifest.  Ownership-exact re-partitioning plus
    the union-digest check make the resumed run's edge set bit-identical
    to the original regardless of R -> R'.

    Any damage found along the way raises the *transient*
    :class:`CheckpointCorruptionError` after discarding the damaged
    artifact, so a supervised retry falls back to fresh generation.
    """
    from repro.distributed.shuffle import edge_owners

    blocks = []
    for rank in range(manifest.nranks):
        key = f"{manifest.run_key}.rank{rank:05d}"
        shard = store.get(key, discard=True)
        if shard is None:
            store.discard_manifest(manifest.run_key)
            raise CheckpointCorruptionError(
                f"elastic resume: source shard {key!r} of manifest "
                f"{manifest.run_key!r} is missing; manifest discarded"
            )
        if shard.digest != manifest.shard_digests[rank]:
            store.discard_manifest(manifest.run_key)
            raise CheckpointCorruptionError(
                f"elastic resume: shard {key!r} digest "
                f"{shard.digest:#018x} does not match manifest "
                f"{manifest.shard_digests[rank]:#018x} (shards were "
                f"rewritten after the manifest); manifest discarded"
            )
        blocks.append(shard.edges)
    union = _canonical_order(
        np.vstack(blocks) if blocks else np.empty((0, 2), dtype=np.int64), n
    )
    union_digest = edges_digest(union)
    if union_digest != manifest.union_digest:
        store.discard_manifest(manifest.run_key)
        raise CheckpointCorruptionError(
            f"elastic resume: shard union digest {union_digest:#018x} "
            f"does not match manifest consensus "
            f"{manifest.union_digest:#018x}; manifest discarded"
        )
    owners = edge_owners(union, new_ranks, scheme=scheme, n=n, seed=seed)
    shard_digests = []
    for rank in range(new_ranks):
        shard_edges = union[owners == rank]
        shard_digests.append(
            store.put(
                f"{new_key}.rank{rank:05d}", shard_edges, generated=0,
                resharded=True,
            )
        )
    new_manifest = RunManifest(
        run_key=new_key,
        family=manifest.family,
        nranks=new_ranks,
        shard_digests=tuple(shard_digests),
        union_digest=union_digest,
        edges_total=int(len(union)),
    )
    store.put_manifest(new_manifest)
    return new_manifest
