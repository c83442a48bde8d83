"""The atomic artifact writer and the streamed checkpoint JSON."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from csvgd import condense as gc
from csvgd.engine import (Ensemble, SvgdConfig, _checkpoint_doc, _RunState,
                          save_checkpoint)
from csvgd.experiments import _run_stub, default_config, save_config
from csvgd.files import json_pieces
from csvgd.kernels import KernelSpec
from csvgd.mechanics import Dataset, save_dataset

from conftest import random_net

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
           2.2250738585072014e-308, 1e-310, 1.7976931348623157e308]
FLOATS = st.floats() | st.sampled_from(SPECIAL)
ARRAYS = arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0,
                                         max_side=4), elements=FLOATS)
LEAVES = (st.none() | st.booleans() | st.integers() | FLOATS | st.text(max_size=6)
          | st.lists(FLOATS, max_size=4))
DOCS = st.recursive(LEAVES | ARRAYS,
                    lambda inner: st.dictionaries(st.text(max_size=6), inner,
                                                  max_size=4),
                    max_leaves=12)


def as_lists(doc):
    """``doc`` with every array replaced by its ``.tolist()``."""
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {k: as_lists(v) for k, v in doc.items()}
    return doc


def vector_state(particles, opt_state=None):
    config = SvgdConfig(step_size=0.1, max_iters=5, kernel=KernelSpec(2, 1.0))
    ensemble = Ensemble(particles, None, np.random.default_rng(3))
    return _RunState(ensemble, config, 0.0, 0.0, math.inf, 0, [], [], opt_state)


class TestJsonPieces:
    @settings(max_examples=300, deadline=None)
    @given(DOCS)
    @example({"a": np.zeros((0, 3)), "b": np.zeros((3, 0)), "c": None})
    @example({"a": np.zeros((2, 0, 4)), "b": {"c": np.array([-0.0, 5e-324])}})
    def test_pieces_join_to_json_dumps(self, doc):
        assert "".join(json_pieces(doc)) == json.dumps(as_lists(doc))

    def test_a_key_that_is_not_a_string_is_rejected(self):
        with pytest.raises(TypeError, match="string keys"):
            "".join(json_pieces({1: np.zeros(2)}))


class TestStreamedCheckpoint:
    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(0, 4), st.integers(0, 5)),
                  elements=FLOATS),
           st.booleans())
    def test_bytes_equal_json_dumps_of_the_document(self, tmp_path_factory,
                                                    particles, with_opt):
        state = vector_state(particles, -particles if with_opt else None)
        path = tmp_path_factory.mktemp("ckpt") / "stage_00.json"
        save_checkpoint(path, state)
        expected = json.dumps(as_lists(_checkpoint_doc(state)))
        assert path.read_bytes() == expected.encode()

    def test_traced_peak_of_a_wide_checkpoint_is_under_a_mebibyte(self, tmp_path):
        # N=64, D=1020: the whole-document text and lists peak near 10 MiB
        rng = np.random.default_rng(0)
        state = vector_state(rng.normal(size=(64, 1020)), rng.random((64, 1020)))
        tracemalloc.start()
        try:
            save_checkpoint(tmp_path / "stage_00.json", state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"traced peak {peak / 2**20:.2f} MiB"


def _dataset(v):
    return Dataset(np.full((3, 2), v), np.full((3, 1), -v))


def _graph(v):
    net = random_net(np.random.default_rng(int(v)), (3, 4, 1))
    return gc.prune(gc.NetGraph.from_net(net, net.layout.flatten(net.weights)[None]), 0.0)


# The artifact writers that once wrote in place: the file each writes under a
# directory, and how it writes one of two contents there.  The checkpoint's
# case is test_engine's test_interrupted_write_keeps_previous_checkpoint.
WRITERS = {
    "dataset": ("data.csv", lambda d, v: save_dataset(_dataset(v), d / "data.csv")),
    "config": ("config.json",
               lambda d, v: save_config(default_config("mvn" if v == 1 else "sweep"),
                                        d / "config.json")),
    "readme": ("README.txt",
               lambda d, v: _run_stub(d, default_config("mvn"), f"csvgd mvn --seed {v}")),
    "graph dump": ("graph.txt", lambda d, v: gc.dump_graph(_graph(v), [d / "graph.txt"])),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_failure_halfway_keeps_the_previous_file(tmp_path, full_disk, writer):
    name, write = WRITERS[writer]
    path = tmp_path / name
    write(tmp_path, 1.0)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    write(tmp_path, 2.0)
    after = path.read_bytes()
    assert after != before[name]
    (tmp_path / name).write_bytes(before[name])

    with full_disk(path, len(after) // 2):
        with pytest.raises(OSError, match="no space left"):
            write(tmp_path, 2.0)
    assert path.read_bytes() == before[name]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)
