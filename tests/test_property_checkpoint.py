"""Property-based tests: snapshots and re-sharding over random states."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.checkpoint import Snapshot, load_snapshot, save_snapshot
from repro.checkpoint.reshard import split_even

arrays = hnp.arrays(
    dtype=st.sampled_from([np.float32, np.float16, np.int64]),
    shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=8),
    elements=st.integers(min_value=-100, max_value=100),
)


@settings(max_examples=40, deadline=None)
@given(data=st.dictionaries(st.text(
    alphabet="abcdefgh", min_size=1, max_size=6), arrays, min_size=1, max_size=5,
))
def test_snapshot_roundtrip_any_arrays(data, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("snap") / "s.npz")
    snapshot = Snapshot(metadata={"step": 1})
    for name, array in data.items():
        snapshot.add_array(name, array)
    save_snapshot(snapshot, path)
    loaded = load_snapshot(path)
    assert set(loaded.arrays) == set(data)
    for name, array in data.items():
        np.testing.assert_array_equal(loaded.arrays[name], array)
        assert loaded.arrays[name].dtype == array.dtype


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=200),
    ranks=st.integers(min_value=1, max_value=9),
)
def test_split_merge_identity(size, ranks):
    array = np.arange(size, dtype=np.float32)
    shards = split_even(array, ranks)
    assert len(shards) == ranks
    assert len({s.size for s in shards}) == 1  # equal shard sizes
    np.testing.assert_array_equal(np.concatenate(shards)[:size], array)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=4),
    src=st.integers(min_value=1, max_value=6),
    dst=st.integers(min_value=1, max_value=6),
)
def test_reshard_preserves_state_exactly(sizes, src, dst):
    rng = np.random.default_rng(0)
    state = {
        f"t{i}": rng.standard_normal(size).astype(np.float32)
        for i, size in enumerate(sizes)
    }
    for name, array in state.items():
        # K ranks' shards gathered, then split for N: a resuming generation.
        merged = np.concatenate(split_even(array, src))[:array.size]
        restored = np.concatenate(split_even(merged, dst))[:array.size]
        np.testing.assert_array_equal(restored, array)


@settings(max_examples=30, deadline=None)
@given(
    num_servers=st.integers(min_value=1, max_value=16),
    num_gpus=st.sampled_from([1, 2, 4, 8]),
    gpu_gib=st.integers(min_value=16, max_value=96),
    with_ssd=st.booleans(),
)
def test_cluster_config_roundtrip(num_servers, num_gpus, gpu_gib, with_ssd):
    """Random cluster descriptions survive a JSON text round trip and
    load exactly as written."""
    import json

    from repro.hardware.config_io import cluster_from_dict
    from repro.units import GiB

    config = {
        "num_servers": num_servers,
        "server": {
            "num_gpus": num_gpus,
            "gpu_memory_gib": gpu_gib,
            "ssd_tb": 11 if with_ssd else None,
        },
    }
    cluster = cluster_from_dict(json.loads(json.dumps(config)))
    assert cluster.num_gpus == num_servers * num_gpus
    assert cluster.num_servers == num_servers
    assert cluster.server.num_gpus == num_gpus
    assert cluster.server.gpus[0].memory_bytes == gpu_gib * GiB
    assert (cluster.server.ssd is None) == (not with_ssd)
