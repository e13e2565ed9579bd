"""Checkpoint repositories.

A store survives its writer: the LRM saves checkpoints into a
cluster-level repository so that a task can be resumed on a *different*
node after eviction or crash (migration, in the paper's terms).  The
memory store backs simulations; the file store demonstrates the same
interface against a real filesystem.

Two scaling features:

* **skip unchanged** — a save whose state digest matches the task's
  latest record is skipped entirely (no serialization re-store, no
  file write); the previous record is returned unchanged.  Always on
  in the memory store; the file store can turn it off.
* ``chunked`` (opt-in) — incremental, content-addressed storage
  (:mod:`repro.checkpoint.chunking`): serialized state is split into
  fixed-size chunks kept once per content digest across *all* tasks,
  each save writes only the chunks that changed since the task's
  previous record, and an unconditional full rebase every
  ``rebase_every`` saves bounds the restore chain.  ``load_latest``
  reassembles the original serialized bytes bit-identically.
"""

import os
import re
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

from repro.checkpoint.chunking import (
    DEFAULT_REBASE_EVERY,
    ChunkedChainError,
    ChunkedRepository,
    ChunkPool,
)
from repro.checkpoint.serializer import (
    DEFAULT_CHUNK_SIZE,
    chunk_digest,
    deserialize,
    serialize,
)


@dataclass(frozen=True)
class CheckpointRecord:
    """One saved checkpoint."""

    task_id: str
    sequence: int
    time: float
    data: bytes

    def state(self) -> dict:
        """Decode (and validate) the stored state."""
        return deserialize(self.data)


class _StoreMetricsMixin:
    """Shared counter plumbing: digest-skip, chunk stats, restore timing."""

    def _init_accounting(self, chunked, chunk_size, rebase_every,
                         skip_unchanged, pool=None):
        self.chunked = chunked
        self.skip_unchanged = skip_unchanged
        self.repo = (
            ChunkedRepository(pool, chunk_size, rebase_every)
            if chunked else None
        )
        self._last_digest: dict[str, bytes] = {}
        self._sequences: dict[str, int] = {}
        self.bytes_written = 0
        self.saves = 0
        self.skipped_saves = 0
        self._restore_hist = None

    def _should_skip(self, task_id: str, data: bytes) -> bool:
        """True when digest-skip applies; updates the digest cache."""
        digest = chunk_digest(data)
        if self.skip_unchanged and self._last_digest.get(task_id) == digest:
            self.skipped_saves += 1
            return True
        self._last_digest[task_id] = digest
        return False

    def _observe_restore(self, elapsed_s: float) -> None:
        if self._restore_hist is not None:
            self._restore_hist.observe(elapsed_s)

    def to_metrics(self, registry, prefix: str = "checkpoint") -> None:
        """Publish checkpoint-plane counters as registry views, plus a
        restore-latency histogram recorded on every ``load_latest``."""
        registry.bind(prefix, self, (
            "saves", "skipped_saves", "bytes_written",
        ))
        if self.repo is not None:
            registry.bind(prefix, self.repo, (
                "full_saves", "delta_saves", "rebases",
                "chunks_written", "chunks_deduped", "chunk_bytes_written",
            ))
            registry.view(f"{prefix}.dedup_hit_rate",
                          lambda r=self.repo: r.dedup_hit_rate)
            registry.view(f"{prefix}.pool_bytes",
                          lambda r=self.repo: r.pool.bytes_stored)
            registry.view(f"{prefix}.bytes_written_full",
                          lambda s=self: s.bytes_written_full)
            registry.view(f"{prefix}.bytes_written_delta",
                          lambda s=self: s.bytes_written_delta)
        from repro.obs.metrics import LATENCY_BOUNDS_S
        self._restore_hist = registry.histogram(
            f"{prefix}.restore_latency_s", LATENCY_BOUNDS_S
        )


class MemoryCheckpointStore(_StoreMetricsMixin):
    """In-memory repository keeping the latest checkpoint per task.

    In ``chunked`` mode the retained history is the current delta chain
    (at most ``rebase_every`` records); ``keep_history`` applies only to
    the seed full-snapshot mode.
    """

    def __init__(
        self,
        keep_history: int = 1,
        chunked: bool = False,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        rebase_every: int = DEFAULT_REBASE_EVERY,
    ):
        if keep_history < 1:
            raise ValueError("must keep at least one checkpoint")
        self.keep_history = keep_history
        self._records: dict[str, list[CheckpointRecord]] = {}
        self._init_accounting(chunked, chunk_size, rebase_every,
                              skip_unchanged=True)
        #: Chunked-mode accounting: bytes materialized by full records
        #: (initial snapshots and rebases) vs delta records.
        self.bytes_written_full = 0
        self.bytes_written_delta = 0

    def save(self, task_id: str, state: dict, now: float) -> CheckpointRecord:
        """Serialize and store a checkpoint; returns the record."""
        data = serialize(state)
        if self._should_skip(task_id, data):
            return self.load_latest(task_id)
        sequence = self._sequences.get(task_id, 0) + 1
        self._sequences[task_id] = sequence
        if self.repo is not None:
            return self._save_chunked(task_id, data, sequence, now)
        record = CheckpointRecord(task_id, sequence, now, data)
        history = self._records.setdefault(task_id, [])
        history.append(record)
        del history[:-self.keep_history]
        self.bytes_written += len(record.data)
        self.saves += 1
        return record

    def _save_chunked(self, task_id: str, data: bytes, sequence: int,
                      now: float) -> CheckpointRecord:
        before = self.repo.chunk_bytes_written
        manifest = self.repo.save(task_id, data, sequence, now)
        new_bytes = (self.repo.chunk_bytes_written - before) \
            + _manifest_size(manifest)
        if manifest["kind"] == "full":
            self.bytes_written_full += new_bytes
        else:
            self.bytes_written_delta += new_bytes
        self.bytes_written += new_bytes
        self.saves += 1
        return CheckpointRecord(task_id, sequence, now, data)

    def load_latest(self, task_id: str) -> Optional[CheckpointRecord]:
        """Most recent checkpoint for the task, or None."""
        if self.repo is not None:
            manifest = self.repo.latest(task_id)
            if manifest is None:
                return None
            started = perf_counter()
            data = self.repo.resolve_bytes(task_id)
            self._observe_restore(perf_counter() - started)
            return CheckpointRecord(
                task_id, manifest["sequence"], manifest["time"], data
            )
        history = self._records.get(task_id)
        return history[-1] if history else None

    def discard(self, task_id: str) -> None:
        """Forget all checkpoints for a finished task."""
        if self.repo is not None:
            self.repo.discard(task_id)
        self._records.pop(task_id, None)
        self._sequences.pop(task_id, None)
        self._last_digest.pop(task_id, None)

    @property
    def task_ids(self) -> list:
        if self.repo is not None:
            return self.repo.task_ids
        return sorted(self._records)


def _manifest_size(manifest: dict) -> int:
    """Exact serialized size of a chain record (the delta's overhead)."""
    return len(serialize(manifest))


_SAFE_TASK_RE = re.compile(r"[^A-Za-z0-9_.-]")


class _FileChunkPool(ChunkPool):
    """Content-addressed chunk files; writes are write-temp + rename."""

    def __init__(self, directory: str):
        super().__init__()
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, digest: bytes) -> str:
        return os.path.join(self.directory, f"{digest.hex()}.chunk")

    def has(self, digest: bytes) -> bool:
        return os.path.exists(self._path(digest))

    def put(self, digest: bytes, chunk: bytes) -> None:
        path = self._path(digest)
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(chunk)
        os.replace(tmp, path)

    def get(self, digest: bytes) -> bytes:
        path = self._path(digest)
        if not os.path.exists(path):
            raise ChunkedChainError(
                f"chunk {digest.hex()} is not in the pool"
            )
        with open(path, "rb") as f:
            return f.read()

    def delete(self, digest: bytes) -> None:
        path = self._path(digest)
        if os.path.exists(path):
            os.remove(path)

    def digests_on_disk(self) -> set:
        out = set()
        for fname in os.listdir(self.directory):
            if fname.endswith(".chunk"):
                out.add(bytes.fromhex(fname[:-len(".chunk")]))
        return out

    @property
    def bytes_stored(self) -> int:
        return sum(
            os.path.getsize(os.path.join(self.directory, f))
            for f in os.listdir(self.directory) if f.endswith(".chunk")
        )


class FileCheckpointStore(_StoreMetricsMixin):
    """Filesystem-backed repository: one file per task's latest checkpoint.

    All writes go to a temporary file first and are moved into place
    with an atomic rename, so a crash mid-save never leaves a torn
    checkpoint behind — the previous record stays intact.  Saves whose
    state digest matches the task's latest record skip the write
    entirely (``skip_unchanged``, on by default here since file I/O is
    the dominant cost).

    ``chunked`` mode persists delta chains: chunks land in
    ``<directory>/chunks/`` named by content digest (shared across
    tasks), each task's chain manifest in ``<safe>.chain``.  Chunks are
    written before the chain referencing them, so a crash can only
    leave orphaned chunks — reaped on the next store construction —
    never a chain pointing at missing data.
    """

    def __init__(
        self,
        directory: str,
        chunked: bool = False,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        rebase_every: int = DEFAULT_REBASE_EVERY,
        skip_unchanged: bool = True,
    ):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        pool = _FileChunkPool(os.path.join(directory, "chunks")) \
            if chunked else None
        self._init_accounting(chunked, chunk_size, rebase_every,
                              skip_unchanged, pool=pool)
        self.bytes_written_full = 0
        self.bytes_written_delta = 0
        self._latest: dict[str, CheckpointRecord] = {}
        if chunked:
            self._reload_chains()

    # -- paths ----------------------------------------------------------------

    def _safe(self, task_id: str) -> str:
        return _SAFE_TASK_RE.sub("_", task_id)

    def _path(self, task_id: str) -> str:
        return os.path.join(self.directory, f"{self._safe(task_id)}.ckpt")

    def _chain_path(self, task_id: str) -> str:
        return os.path.join(self.directory, f"{self._safe(task_id)}.chain")

    @staticmethod
    def _atomic_write(path: str, data: bytes) -> None:
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)    # atomic: a crash never leaves a torn file

    # -- chunked-chain persistence --------------------------------------------

    def _reload_chains(self) -> None:
        """Adopt persisted chains, then reap orphaned chunk files."""
        for fname in sorted(os.listdir(self.directory)):
            if not fname.endswith(".chain"):
                continue
            with open(os.path.join(self.directory, fname), "rb") as f:
                envelope = deserialize(f.read())
            task_id = envelope["task_id"]
            records = [
                {**rec, "changed": [[i, d] for i, d in rec["changed"]]}
                for rec in envelope["records"]
            ]
            self.repo.adopt_chain(task_id, records)
            if records:
                self._sequences[task_id] = records[-1]["sequence"]
        referenced = set(self.repo._refs)
        for digest in self.repo.pool.digests_on_disk() - referenced:
            self.repo.pool.delete(digest)

    def _persist_chain(self, task_id: str) -> int:
        envelope = serialize({
            "task_id": task_id,
            "records": self.repo.chain(task_id),
        })
        self._atomic_write(self._chain_path(task_id), envelope)
        return len(envelope)

    # -- the store interface --------------------------------------------------

    def save(self, task_id: str, state: dict, now: float) -> CheckpointRecord:
        data = serialize(state)
        if self._should_skip(task_id, data):
            previous = self.load_latest(task_id)
            if previous is not None:
                return previous
            # Nothing actually stored yet (fresh digest cache): fall
            # through and write the first record after all.
            self.skipped_saves -= 1
        sequence = self._sequences.get(task_id, 0) + 1
        self._sequences[task_id] = sequence
        if self.repo is not None:
            before = self.repo.chunk_bytes_written
            manifest = self.repo.save(task_id, data, sequence, now)
            new_bytes = (self.repo.chunk_bytes_written - before) \
                + self._persist_chain(task_id)
            if manifest["kind"] == "full":
                self.bytes_written_full += new_bytes
            else:
                self.bytes_written_delta += new_bytes
            self.bytes_written += new_bytes
            self.saves += 1
            return CheckpointRecord(task_id, sequence, now, data)
        envelope = serialize(
            {"task_id": task_id, "sequence": sequence, "time": now,
             "data": data}
        )
        self._atomic_write(self._path(task_id), envelope)
        self.bytes_written += len(envelope)
        self.saves += 1
        record = CheckpointRecord(task_id, sequence, now, data)
        self._latest[task_id] = record
        return record

    def load_latest(self, task_id: str) -> Optional[CheckpointRecord]:
        if self.repo is not None:
            manifest = self.repo.latest(task_id)
            if manifest is None:
                return None
            started = perf_counter()
            data = self.repo.resolve_bytes(task_id)
            self._observe_restore(perf_counter() - started)
            return CheckpointRecord(
                task_id, manifest["sequence"], manifest["time"], data
            )
        path = self._path(task_id)
        if not os.path.exists(path):
            return None
        started = perf_counter()
        with open(path, "rb") as f:
            envelope = deserialize(f.read())
        self._observe_restore(perf_counter() - started)
        return CheckpointRecord(
            envelope["task_id"],
            envelope["sequence"],
            envelope["time"],
            envelope["data"],
        )

    def discard(self, task_id: str) -> None:
        self._sequences.pop(task_id, None)
        self._last_digest.pop(task_id, None)
        self._latest.pop(task_id, None)
        if self.repo is not None:
            self.repo.discard(task_id)
            chain_path = self._chain_path(task_id)
            if os.path.exists(chain_path):
                os.remove(chain_path)
            return
        path = self._path(task_id)
        if os.path.exists(path):
            os.remove(path)

    @property
    def task_ids(self) -> list:
        if self.repo is not None:
            return self.repo.task_ids
        names = []
        for fname in os.listdir(self.directory):
            if fname.endswith(".ckpt"):
                names.append(fname[:-len(".ckpt")])
        return sorted(names)
