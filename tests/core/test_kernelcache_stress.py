"""Disk-cache concurrency: hammered writers, readers, killed writers.

The disk layer is shared by every suite fork-worker and every serve
worker on the machine.  Its contract under concurrency: writes are
atomic (tempfile + ``os.replace``), so a reader sees either a complete
valid entry or a miss — never a torn file — and a writer killed
mid-store leaves only an orphaned ``*.tmp`` that lookups ignore and
``clear()`` sweeps.  Both disk caches keep their entries in one
:class:`~repro.core.cache.ContentStore`, so the orphaned-tmp, torn-read
and killed-writer tests run over each of them."""

import multiprocessing
import os

import pytest

from repro.core.cache import ArtifactCache, result_from_payload
from repro.core.kernelcache import KernelCache

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="stress test requires the fork start method")

KEYS = [f"key{i:02d}" for i in range(8)]
ROUNDS = 30


def _payload_for(key):
    return {"marker": key, "source": f"VALUE = {key!r}"}


def _code_for(key):
    return compile(f"VALUE = {key!r}", "<stress>", "exec")


def _hammer(root, worker):
    cache = KernelCache(root)
    for round_no in range(ROUNDS):
        for key in KEYS:
            payload, code = cache.get("stress", key)
            if payload is not None:
                # whatever write won, it must be complete and valid
                assert payload["marker"] == key, \
                    f"worker {worker} read a torn entry for {key}"
                assert code is not None
            cache.put("stress", key, _payload_for(key), _code_for(key))
        # drop the memo so later rounds really hit the disk
        cache._memory.clear()


@fork_only
def test_parallel_writers_never_produce_torn_entries(tmp_path):
    root = tmp_path / "kernels"
    context = multiprocessing.get_context("fork")
    writers = [context.Process(target=_hammer, args=(root, w))
               for w in range(4)]
    for proc in writers:
        proc.start()
    for proc in writers:
        proc.join(timeout=120)
        assert proc.exitcode == 0, "a writer observed corruption"
    fresh = KernelCache(root)
    for key in KEYS:
        payload, code = fresh.get("stress", key)
        assert payload is not None and payload["marker"] == key
        namespace = {}
        exec(code, namespace)
        assert namespace["VALUE"] == key
    # every replace() completed: no staging files left behind
    assert list(root.glob("*/*.tmp")) == []
    assert fresh.errors == 0


class _Kernels:
    """A :class:`KernelCache` seen through the calls the tests share."""

    def __init__(self, root):
        self.root = root
        self.cache = KernelCache(root)

    def put(self, key):
        self.cache.put("stress", key, _payload_for(key), _code_for(key))
        self.cache._memory.clear()  # later reads really hit the disk

    def get(self, key):
        payload, code = self.cache.get("stress", key)
        if payload is None:
            return None
        assert code is not None
        return payload["marker"]

    def entry(self, key):
        return self.root / "stress" / f"{key}.json"

    @property
    def errors(self):
        return self.cache.errors


class _Artifacts(_Kernels):
    """An :class:`ArtifactCache`, holding one passing result per key."""

    def __init__(self, root):
        self.root = root
        self.cache = ArtifactCache(root)

    def put(self, key):
        assert self.cache.store(key, _result_for(key))

    def get(self, key):
        result = self.cache.load(key)
        return None if result is None else result.case

    def entry(self, key):
        return self.root / f"{key}.json"

    @property
    def errors(self):
        return self.cache._store.errors


def _result_for(key):
    return result_from_payload({
        "case": key, "compile_seconds": 0.0,
        "verification": {"design": key, "checks": [], "cycles": 1,
                         "reconfigurations": 0, "golden_seconds": 0.0,
                         "simulation_seconds": 0.0, "evaluations": 0,
                         "backend": "event"},
        "metrics": {"name": key, "lo_source": 1, "configurations": [],
                    "simulation_seconds": 0.0, "cycles": 1}})


both_caches = pytest.mark.parametrize("flavour", [_Kernels, _Artifacts],
                                      ids=["kernel", "artifact"])


@both_caches
def test_orphaned_tmp_files_are_invisible_and_swept(tmp_path, flavour):
    root = tmp_path / "cache"
    flavour(root).put("good")
    # simulate writers killed mid-store: valid-looking and garbage tmps
    flavour(root).entry("good").with_name("half.tmp") \
        .write_text('{"marker": "ha')
    (root / "stray.tmp").write_text("")
    probe = flavour(root)
    assert probe.get("good") == "good"
    assert probe.get("half") is None  # tmp is not an entry
    probe.cache.clear()
    assert list(root.glob("**/*.tmp")) == []
    assert list(root.glob("**/*.json")) == []
    # the cache still works after the sweep
    probe.put("again")
    assert flavour(root).get("again") == "again"


@both_caches
def test_reader_of_a_torn_json_degrades_to_a_miss(tmp_path, flavour):
    root = tmp_path / "cache"
    flavour(root).put("k")
    path = flavour(root).entry("k")
    blob = path.read_text()
    path.write_text(blob[: len(blob) // 2])  # torn mid-write
    probe = flavour(root)
    assert probe.get("k") is None
    assert probe.errors == 1
    # a rewrite heals it
    probe.put("k")
    assert flavour(root).get("k") == "k"


@fork_only
@both_caches
def test_writer_killed_mid_put_leaves_no_partial_entry(tmp_path, flavour):
    """SIGKILL a process that loops put(); any surviving file must be
    complete — the rename either happened or it did not."""
    root = tmp_path / "cache"

    def spin():
        cache = flavour(root)
        while True:
            cache.put("victim")

    context = multiprocessing.get_context("fork")
    proc = context.Process(target=spin)
    proc.start()
    deadline = 200
    victim_path = flavour(root).entry("victim")
    while not victim_path.exists() and deadline > 0:
        deadline -= 1
        proc.join(timeout=0.05)
    os.kill(proc.pid, 9)
    proc.join(timeout=30)
    assert victim_path.exists(), "writer never completed a store"
    assert flavour(root).get("victim") == "victim"
