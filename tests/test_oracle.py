import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import first_root_fails, naive_tight_hamilton
from tightcycles import constructions as cons
from tightcycles import oracle as orc
from tightcycles.errors import BudgetError
from tightcycles.hypercore import from_edges, min_degree, verify_tight_cycle


@pytest.mark.parametrize("seed", range(25))
def test_dp_agrees_with_exhaustive(seed):
    for n in (5, 6, 7, 8):
        H = cons.random(n, 0.3 + 0.2 * (seed % 4), seed * 31 + n)
        assert orc.has_tight_hamilton(H) == orc.exhaustive_hamilton(H)


def test_dp_agrees_with_exhaustive_where_the_first_root_fails():
    """Hosts on which the first rooted run finds no cycle, so the union run
    and the reruns of the roots it admits decide, Hamiltonian or not."""
    n = orc.EXHAUSTIVE_MAX_N
    verdicts = []
    for hp in (0.4, 0.5):
        for seed in range(60):
            H = cons.random(n, hp, seed)
            if min_degree(H) < 3 or not first_root_fails(H):
                continue
            want = orc.exhaustive_hamilton(H)
            assert orc.has_tight_hamilton(H) == want, (hp, seed)
            verdicts.append(want)
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10


@pytest.mark.parametrize("n, seed", [(18, 0), (18, 1), (20, 0)])
def test_construction_is_not_hamiltonian_beyond_criterion_3(n, seed):
    """The two-colouring construction past criterion 3's n <= 16."""
    assert not orc.has_tight_hamilton(cons.example1(n, seed=3000 + seed))


@pytest.mark.parametrize("seed", range(5))
def test_dp_agrees_with_permutation_naive(seed):
    H = cons.random(6, 0.6, seed)
    assert orc.has_tight_hamilton(H) == naive_tight_hamilton(H)


def test_tight_cycle_extraction_is_rotation():
    for n in (6, 10, 14, 20):
        H = cons.tight_cycle(n)
        cyc = orc.extract_tight_hamilton(H)
        assert cyc is not None and verify_tight_cycle(H, cyc.vertices)
        diffs = {
            (cyc.vertices[(i + 1) % n] - cyc.vertices[i]) % n for i in range(n)
        }
        assert diffs == {1} or diffs == {n - 1}


def test_isolated_vertex_is_not_hamiltonian():
    H = from_edges(6, cons.tight_cycle(5).edges())
    assert not orc.has_tight_hamilton(H)


def test_k5_and_k4_are_hamiltonian():
    assert orc.has_tight_hamilton(cons.complete(5))
    assert orc.exhaustive_hamilton(cons.complete(5))
    assert orc.has_tight_hamilton(cons.complete(4))


def test_empty_not_hamiltonian():
    assert not orc.has_tight_hamilton(cons.empty(6))
    assert not orc.exhaustive_hamilton(cons.empty(6))


def test_relabeling_invariance():
    rng = np.random.Generator(np.random.PCG64(4))
    for seed in range(6):
        H = cons.random(7, 0.5, seed + 60)
        perm = rng.permutation(7).tolist()
        relabeled = from_edges(
            7, [(perm[a], perm[b], perm[c]) for a, b, c in H.edges()]
        )
        assert orc.has_tight_hamilton(H) == orc.has_tight_hamilton(relabeled)


def test_budget_errors():
    with pytest.raises(BudgetError):
        orc.has_tight_hamilton(cons.empty(21))
    with pytest.raises(BudgetError):
        orc.exhaustive_hamilton(cons.empty(10))
    with pytest.raises(BudgetError):
        orc.count_paths_between(cons.complete(6), (0, 1), (2, 3), 7)
    with pytest.raises(BudgetError):
        orc.count_paths_between(cons.empty(15), (0, 1), (2, 3), 2)


def test_count_paths_k6_one_inner():
    assert orc.count_paths_between(cons.complete(6), (0, 1), (2, 3), 1) == 2


def test_count_paths_empty():
    assert orc.count_paths_between(cons.empty(8), (0, 1), (2, 3), 2) == 0


def test_count_paths_reversal_bijection():
    for seed in range(4):
        H = cons.random(9, 0.5, seed + 7)
        for inner in (1, 2, 3):
            a = orc.count_paths_between(H, (0, 1), (2, 3), inner)
            b = orc.count_paths_between(H, (3, 2), (1, 0), inner)
            assert a == b


def test_count_paths_matches_connect_on_dense():
    # where the exact count is positive at inner=5, the searcher agrees
    from tightcycles.hamilton import connect

    H = cons.random(12, 0.8, 3)
    cnt = orc.count_paths_between(H, (0, 1), (2, 3), 5)
    assert cnt > 0
    path = connect(H, (0, 1), (2, 3), range(12), lengths=[5], seed=1)
    assert path is not None and len(path) == 9


def test_count_paths_rejects_overlapping_endpoints():
    with pytest.raises(ValueError):
        orc.count_paths_between(cons.complete(6), (0, 1), (1, 2), 1)


_UNDER_O = """
import json
from tightcycles import _pykernels, cli, constructions, kernels, oracle
from tightcycles.errors import UncertifiedResult
from tightcycles.hypercore import TightPath, write_h3

assert False  # stripped under -O, so the checks below run without asserts

H = constructions.tight_cycle(8)
# {1, 3, 4} is not an edge, so this order is not a tight cycle
kernels.backend().tight_hamilton_cycle = lambda n, nbr: [0, 2, 1, 3, 4, 5, 6, 7]
try:
    oracle.extract_tight_hamilton(H)
    raise SystemExit("extract_tight_hamilton returned an uncertified cycle")
except UncertifiedResult:
    pass

# [0, 1, 2, 3] is a tight cycle of K6 that misses two of its six vertices
K6 = constructions.complete(6)
kernels.backend().tight_hamilton_cycle = lambda n, nbr: [0, 1, 2, 3]
for call in (oracle.extract_tight_hamilton, oracle.has_tight_hamilton):
    try:
        call(K6)
        raise SystemExit(call.__name__ + " accepted a cycle that is not Hamilton")
    except UncertifiedResult:
        pass

# a DP table without the predecessor chain must not loop forever
try:
    frame = _pykernels._frame(8, 1 | 1 << 1, _pykernels._patterns(6))
    _pykernels._extract(8, H.nbr_flat(), {}, frame, 6, 7)
    raise SystemExit("_extract returned without a chain")
except UncertifiedResult:
    pass

write_h3(H, "c8.h3")
oracle.extract_tight_hamilton = lambda H: TightPath((0, 2, 1, 3, 4, 5, 6, 7), True)
code = cli.main(["oracle", "hamilton", "--extract", "c8.h3"])
print(json.dumps({"code": code}))
"""


_PIPELINE_UNDER_O = """
import json
from tightcycles import cli, constructions, hamilton
from tightcycles.errors import UncertifiedResult
from tightcycles.hypercore import write_h3

assert False  # stripped under -O, so the checks below run without asserts

def expect_uncertified(name, call):
    try:
        call()
    except UncertifiedResult:
        return
    raise SystemExit(name + " returned an uncertified result")

K = constructions.complete(30)
real = hamilton.verify_tight_path
params = hamilton.PipelineParams(gamma=0.1, seed=1)
ap = hamilton.build_absorbing_path(K, [0, 1], params)
outside = [v for v in range(30) if not (ap.vertex_mask() >> v) & 1 and v > 1]

hamilton.verify_tight_path = lambda H, seq: False
expect_uncertified("connect", lambda: hamilton.connect(K, (0, 1), (2, 3), range(30)))
expect_uncertified("almost_cover", lambda: hamilton.almost_cover(K, 0.05, 0.15))
expect_uncertified("absorb", lambda: hamilton.absorb(K, ap, outside[:3]))

# absorbers are accepted on their own (at most nine-vertex) path identities,
# so only the longer paths the pipeline assembles fail certification
hamilton.verify_tight_path = lambda H, seq: len(seq) <= 9 and real(H, seq)
expect_uncertified(
    "build_absorbing_path", lambda: hamilton.build_absorbing_path(K, [0, 1], params)
)
expect_uncertified("find_tight_hamilton", lambda: hamilton.find_tight_hamilton(K, params))

hamilton.verify_tight_path = lambda H, seq: False
write_h3(K, "k30.h3")
code = cli.main(["hamilton", "connect", "--from", "0,1", "--to", "2,3", "k30.h3"])
if code != 4:
    raise SystemExit("hamilton connect exited %d" % code)

# the assembled cycle is the last check: a failure there raises, not "absent"
hamilton.verify_tight_path = real
hamilton.verify_tight_cycle = lambda H, seq: False
expect_uncertified("final cycle", lambda: hamilton.find_tight_hamilton(K, params))
code = cli.main(["hamilton", "find", "k30.h3"])
print(json.dumps({"code": code}))
"""


def _run_under_O(script, cwd):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_certification_survives_python_O(tmp_path):
    """Under -O, which strips asserts, every exact-path check still raises."""
    out = _run_under_O(_UNDER_O, tmp_path)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.strip().splitlines()[-1] == '{"code": 4}'
    assert '"error": "UncertifiedResult"' in out.stderr


def test_pipeline_certification_survives_python_O(tmp_path):
    """Under -O, every pipeline stage and the CLI refuse a result that fails
    re-verification."""
    out = _run_under_O(_PIPELINE_UNDER_O, tmp_path)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.strip().splitlines()[-1] == '{"code": 4}'
    assert '"error": "UncertifiedResult"' in out.stderr
