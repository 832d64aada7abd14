"""The benchmark runs against the library as it is.

``perfbench/tracing.py`` wraps library functions by name and reads
``Hypergraph3._link_cache`` to tell a link build from a lookup, and
``perfbench/workloads.py`` reads the pipeline's attempt records.  Both files
are imported here as they stand, so a library change that breaks
``perfbench/run.py --trace 1`` or empties its pipeline metrics fails here.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from tightcycles import constructions, density, hamilton, hypercore, kernels, motifs, oracle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
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
    tracer = _perfbench_module("tracing").Tracer()
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


def test_benchmark_reads_the_attempt_record():
    # seed 0's attempt 0 fails at parity planning and attempt 1 succeeds with
    # no leftover; example1(14) fails both attempts for want of absorbers
    check_cycle = _perfbench_module("workloads")._check_cycle
    H = constructions.random(30, 0.9, 0)
    facts = check_cycle(H)(
        hamilton.find_tight_hamilton(H, hamilton.PipelineParams(seed=0))
    )
    assert facts.ok and facts.found
    assert (facts.attempts, facts.leftovers, facts.fail_stages) == (2, (0,), ("parity_planning",))
    H = constructions.example1(14, 0)
    facts = check_cycle(H)(
        hamilton.find_tight_hamilton(H, hamilton.PipelineParams(seed=0, retries=2))
    )
    assert facts.ok and not facts.found
    assert (facts.attempts, facts.leftovers, facts.fail_stages) == (
        2, (), ("absorber_shortage",) * 2
    )
