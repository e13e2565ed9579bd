"""Property and unit tests for the chunked, content-addressed
checkpoint plane.

The seed full-snapshot store is retained in production code precisely
so these tests can compare against it: for any sequence of state
mutations — including sequences long enough to cross a full rebase —
the delta chain must reconstruct the serialized checkpoint
**bit-identically** to the full-snapshot oracle, and a broken chain
(missing base, missing or corrupted chunk) must be rejected rather than
silently restored.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.checkpoint.chunking import (
    ChunkedChainError,
    ChunkedRepository,
    ChunkPool,
)
from repro.checkpoint.serializer import chunk_digest, serialize, split_chunks
from repro.checkpoint.store import FileCheckpointStore, MemoryCheckpointStore

CHUNK = 64          # tiny chunks so small states still span many chunks
REBASE = 4


def chunked_store(**kwargs):
    kwargs.setdefault("chunked", True)
    kwargs.setdefault("chunk_size", CHUNK)
    kwargs.setdefault("rebase_every", REBASE)
    return MemoryCheckpointStore(**kwargs)


# -- hypothesis: oracle equivalence ------------------------------------------

_blob = st.binary(min_size=0, max_size=CHUNK * 6)
_states = st.lists(
    st.fixed_dictionaries({
        "step": st.integers(min_value=0, max_value=1_000),
        "blob": _blob,
        "extra": st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                    width=32), max_size=8),
    }),
    min_size=1,
    max_size=3 * REBASE,   # long enough to cross multiple rebases
)


@settings(max_examples=60, deadline=None)
@given(states=_states)
def test_chain_restore_matches_full_snapshot_oracle(states):
    chain_store = chunked_store()
    oracle = MemoryCheckpointStore()
    for i, state in enumerate(states):
        chained = chain_store.save("t", state, float(i))
        full = oracle.save("t", state, float(i))
        assert chained.data == full.data
        # The restore is checked after EVERY save, so equivalence holds
        # mid-chain, immediately after a rebase, and at arbitrary
        # lengths — not just at the end.
        restored = chain_store.load_latest("t")
        expected = oracle.load_latest("t")
        assert restored.data == expected.data          # bit-identical
        assert restored.state() == expected.state()
        assert restored.sequence == expected.sequence
    # Saves of an unchanged state are skipped, so count real saves.
    if chain_store.saves > REBASE:
        assert chain_store.repo.rebases >= 1
        assert len(chain_store.repo.chain("t")) <= REBASE


@settings(max_examples=40, deadline=None)
@given(states=_states)
def test_chain_length_is_always_bounded(states):
    store = chunked_store()
    for i, state in enumerate(states):
        store.save("t", state, float(i))
        assert len(store.repo.chain("t")) <= REBASE


@settings(max_examples=40, deadline=None)
@given(blob=_blob, chunk_size=st.integers(min_value=1, max_value=257))
def test_split_chunks_roundtrip(blob, chunk_size):
    chunks = split_chunks(blob, chunk_size)
    assert b"".join(chunks) == blob
    assert all(len(c) == chunk_size for c in chunks[:-1])


# -- chain validation --------------------------------------------------------

class TestChainValidation:
    def _grow_chain(self, repo, n=3):
        data = [serialize({"v": i, "pad": b"x" * 200}) for i in range(n)]
        for i, d in enumerate(data):
            repo.save("t", d, i + 1, float(i))
        return data

    def test_missing_base_rejected(self):
        repo = ChunkedRepository(chunk_size=CHUNK, rebase_every=8)
        self._grow_chain(repo, 3)
        # Surgically remove the middle record: the last delta now
        # references a base sequence the chain no longer holds.
        del repo._chains["t"][1]
        with pytest.raises(ChunkedChainError, match="missing base"):
            repo.resolve_bytes("t")

    def test_chain_starting_with_delta_rejected(self):
        repo = ChunkedRepository(chunk_size=CHUNK, rebase_every=8)
        self._grow_chain(repo, 2)
        del repo._chains["t"][0]   # drop the full record
        with pytest.raises(ChunkedChainError):
            repo.resolve_bytes("t")

    def test_missing_chunk_rejected(self):
        repo = ChunkedRepository(chunk_size=CHUNK, rebase_every=8)
        self._grow_chain(repo, 2)
        digest = repo.resolve_digests("t")[0]
        repo.pool.delete(digest)
        with pytest.raises(ChunkedChainError, match="not in the pool"):
            repo.resolve_bytes("t")

    def test_corrupted_chunk_rejected(self):
        repo = ChunkedRepository(chunk_size=CHUNK, rebase_every=8)
        self._grow_chain(repo, 2)
        digest = repo.resolve_digests("t")[0]
        repo.pool.put(digest, b"Z" * CHUNK)   # content no longer matches
        with pytest.raises(ChunkedChainError, match="does not match"):
            repo.resolve_bytes("t")

    def test_unknown_task_rejected(self):
        repo = ChunkedRepository()
        with pytest.raises(ChunkedChainError):
            repo.resolve_bytes("ghost")

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ChunkedRepository(chunk_size=0)
        with pytest.raises(ValueError):
            ChunkedRepository(rebase_every=0)
        with pytest.raises(ValueError):
            split_chunks(b"x", 0)


# -- dedup and refcounting ---------------------------------------------------

class TestDedup:
    def test_cross_task_dedup(self):
        store = chunked_store()
        state = {"blob": bytes(range(256)) * 2}
        store.save("replica-a", state, 1.0)
        before = store.repo.chunks_written
        store.save("replica-b", state, 1.0)
        # The replica's identical chunks were all already pooled.
        assert store.repo.chunks_written == before
        assert store.repo.chunks_deduped > 0
        assert store.repo.dedup_hit_rate > 0.0
        # Both replicas still restore independently.
        assert store.load_latest("replica-a").data == \
            store.load_latest("replica-b").data

    def test_discard_releases_chunks_but_respects_sharing(self):
        store = chunked_store()
        state = {"blob": bytes(range(256)) * 2}
        store.save("a", state, 1.0)
        store.save("b", state, 1.0)
        store.discard("a")
        # b still restores: shared chunks survive a's discard...
        assert store.load_latest("b").state() == state
        store.discard("b")
        # ...and the pool drains completely once nobody references them.
        assert len(store.repo.pool) == 0
        assert store.repo.pool.bytes_stored == 0

    def test_delta_writes_only_changed_chunks(self):
        store = chunked_store()
        blob = bytearray(CHUNK * 8)
        store.save("t", {"blob": bytes(blob)}, 1.0)
        written_before = store.repo.chunk_bytes_written
        blob[3 * CHUNK] ^= 0xFF   # dirty exactly one chunk's span
        store.save("t", {"blob": bytes(blob)}, 2.0)
        delta_bytes = store.repo.chunk_bytes_written - written_before
        # Far less than the full state went to storage.
        assert 0 < delta_bytes <= 3 * CHUNK
        assert store.bytes_written_delta < store.bytes_written_full

    def test_rebase_costs_almost_nothing(self):
        store = chunked_store()
        state = {"blob": bytes(CHUNK * 6), "step": 0}
        for i in range(REBASE + 1):   # the last save triggers the rebase
            state["step"] = i
            store.save("t", state, float(i))
        assert store.repo.rebases == 1
        # The rebase's chunks were already pooled: it wrote ~no new data.
        assert store.repo.dedup_hit_rate > 0.5


# -- store-level behaviour ---------------------------------------------------

class TestChunkedMemoryStore:
    def test_skip_unchanged(self):
        store = chunked_store()
        first = store.save("t", {"p": 1}, 1.0)
        again = store.save("t", {"p": 1}, 2.0)
        assert store.skipped_saves == 1
        assert again.sequence == first.sequence
        changed = store.save("t", {"p": 2}, 3.0)
        assert changed.sequence == first.sequence + 1
        assert store.saves == 2

    def test_missing_task_and_discard(self):
        store = chunked_store()
        assert store.load_latest("ghost") is None
        store.save("t", {"p": 1}, 1.0)
        store.discard("t")
        assert store.load_latest("t") is None
        store.discard("t")   # idempotent
        assert store.task_ids == []

    def test_accounting_splits_full_and_delta(self):
        store = chunked_store()
        store.save("t", {"blob": bytes(CHUNK * 4), "s": 0}, 1.0)
        store.save("t", {"blob": bytes(CHUNK * 4), "s": 1}, 2.0)
        assert store.bytes_written == \
            store.bytes_written_full + store.bytes_written_delta
        assert store.bytes_written_full > 0
        assert store.bytes_written_delta > 0

    def test_metrics_views(self):
        from repro.obs.metrics import MetricsRegistry

        class Clock:
            now = 0.0

        store = chunked_store()
        store.save("t", {"p": 1}, 1.0)
        registry = MetricsRegistry(Clock())
        store.to_metrics(registry, prefix="checkpoint.c0")
        store.load_latest("t")
        snap = registry.snapshot()["metrics"]
        assert snap["checkpoint.c0.saves"] == 1
        assert snap["checkpoint.c0.full_saves"] == 1
        assert snap["checkpoint.c0.restore_latency_s"]["count"] == 1
        assert "checkpoint.c0.dedup_hit_rate" in snap
        assert "checkpoint.c0.rebases" in snap


class TestChunkedFileStore:
    def make(self, tmp_path):
        return FileCheckpointStore(
            str(tmp_path), chunked=True, chunk_size=CHUNK,
            rebase_every=REBASE,
        )

    def test_save_restore_and_reload(self, tmp_path):
        store = self.make(tmp_path)
        state = {"blob": bytes(range(256)), "step": 0}
        for i in range(REBASE + 2):   # crosses a rebase on disk
            state["step"] = i
            store.save(f"job/{i % 2}", dict(state), float(i))
        latest = store.load_latest("job/1")
        # A brand-new store instance adopts the persisted chains.
        fresh = self.make(tmp_path)
        restored = fresh.load_latest("job/1")
        assert restored.data == latest.data
        assert restored.sequence == latest.sequence
        # ...and continues the sequence numbering where it left off.
        nxt = fresh.save("job/1", {"blob": b"", "step": 99}, 100.0)
        assert nxt.sequence == latest.sequence + 1

    def test_orphan_chunks_reaped_on_reload(self, tmp_path):
        store = self.make(tmp_path)
        store.save("t", {"p": 1}, 1.0)
        orphan = os.path.join(str(tmp_path), "chunks", "ab" * 16 + ".chunk")
        with open(orphan, "wb") as f:
            f.write(b"crashed mid-save")
        fresh = self.make(tmp_path)
        assert not os.path.exists(orphan)
        assert fresh.load_latest("t").state() == {"p": 1}

    def test_discard_removes_chain_and_chunks(self, tmp_path):
        store = self.make(tmp_path)
        store.save("t", {"blob": bytes(CHUNK * 3)}, 1.0)
        store.discard("t")
        assert store.load_latest("t") is None
        assert store.task_ids == []
        assert os.listdir(os.path.join(str(tmp_path), "chunks")) == []

    def test_shared_chunks_survive_one_tasks_discard(self, tmp_path):
        store = self.make(tmp_path)
        state = {"blob": bytes(range(256)) * 2}
        store.save("a", state, 1.0)
        store.save("b", state, 1.0)
        store.discard("a")
        assert store.load_latest("b").state() == state

    def test_missing_chunk_file_rejected(self, tmp_path):
        store = self.make(tmp_path)
        store.save("t", {"blob": bytes(CHUNK * 3)}, 1.0)
        chunks_dir = os.path.join(str(tmp_path), "chunks")
        victim = sorted(os.listdir(chunks_dir))[0]
        os.remove(os.path.join(chunks_dir, victim))
        with pytest.raises(ChunkedChainError):
            store.load_latest("t")


# -- digest helpers ----------------------------------------------------------

def test_chunk_digest_is_stable_and_content_addressed():
    assert chunk_digest(b"abc") == chunk_digest(b"abc")
    assert chunk_digest(b"abc") != chunk_digest(b"abd")
    assert len(chunk_digest(b"")) == 16


def test_pool_get_missing_digest():
    pool = ChunkPool()
    with pytest.raises(ChunkedChainError):
        pool.get(chunk_digest(b"never stored"))


# -- grid integration --------------------------------------------------------

def test_grid_chunked_checkpoints_end_to_end():
    """A grid with chunked checkpoints still completes jobs, and the
    cluster repository actually runs in chunked mode."""
    from repro.apps.spec import ApplicationSpec
    from repro.core.grid import Grid
    from repro.apps.job import JobState
    from repro.sim.clock import SECONDS_PER_DAY

    grid = Grid(
        policy="first_fit",
        lupa_enabled=False,
        chunked_checkpoints=True,
        checkpoint_chunk_size=128,
        checkpoint_rebase_every=3,
    )
    grid.enable_metrics()
    grid.add_cluster("c0")
    for i in range(4):
        grid.add_node("c0", f"n{i}", dedicated=True)
    grid.run_for(120)
    job_id = grid.submit(ApplicationSpec(
        name="bsp", kind="bsp", tasks=4, program="kernel",
        work_mips=4e7, checkpoint_every_supersteps=2,
        metadata={"supersteps": 8},
    ))
    assert grid.wait_for_job(job_id, max_seconds=SECONDS_PER_DAY)
    assert grid.job(job_id).state is JobState.COMPLETED
    store = grid.clusters["c0"].checkpoint_store
    assert store.chunked and store.repo is not None
    assert store.saves > 0
    snap = grid.metrics.snapshot()["metrics"]
    assert snap["checkpoint.c0.saves"] == store.saves
    assert "checkpoint.c0.dedup_hit_rate" in snap
    assert "lrm.total.checkpoints_skipped" in snap
