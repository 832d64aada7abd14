"""The benchmark's traced mode runs against the library as it is.

``perfbench/tracing.py`` wraps library functions by name and reads
``Hypergraph3._link_cache`` to tell a link build from a lookup.  The file is
imported here as it stands, so a library change that breaks
``perfbench/run.py --trace 1`` fails this test.
"""

import importlib.util
from pathlib import Path

import numpy as np

from tightcycles import constructions, density, hamilton, hypercore, kernels, motifs, oracle

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_link_and_pipeline_calls_record_spans_and_restore():
    modules = dict(
        constructions=constructions, density=density, hamilton=hamilton,
        hypercore=hypercore, motifs=motifs, oracle=oracle, backend=kernels.backend(),
    )
    original = hypercore.Hypergraph3.link_pairs
    H = constructions.random(36, 0.9, 7)
    want_link = H.link_pairs(3)
    want_cycle, _ = hamilton.find_tight_hamilton(H, hamilton.PipelineParams(seed=7))
    tracer = _tracing_module().Tracer()
    tracer.install(modules)
    try:
        got_link = H.link_pairs(3)
        got_cycle, _ = hamilton.find_tight_hamilton(H, hamilton.PipelineParams(seed=7))
    finally:
        tracer.restore()
    assert hypercore.Hypergraph3.link_pairs is original
    assert np.array_equal(got_link, want_link) and not got_link.flags.writeable
    assert got_cycle == want_cycle and got_cycle is not None
    names = [span[0] for span in tracer.spans]
    assert names.count("hypercore.link_build") == 1
    assert "hamilton.find_absorber" in names and "hamilton.connect" in names
