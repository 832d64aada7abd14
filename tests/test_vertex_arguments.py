"""One range check behind every public vertex argument.

A vertex below 0 or at n and above raises ValueError with the message
"<argument> must lie in 0..n-1", and numpy integers act like Python ints,
also from n = 64 on, where a numpy shift overflows.
"""

import tracemalloc
from functools import cache

import numpy as np
import pytest

from tightcycles import constructions as cons
from tightcycles import density as dn
from tightcycles import hamilton as ham
from tightcycles import motifs as mo
from tightcycles import oracle as orc
from tightcycles.hypercore import checked_mask, codegree, degree


@cache
def host(n: int):
    return cons.complete(n)


@cache
def absorbing_path(n: int):
    ap = ham.build_absorbing_path(host(n), [], ham.PipelineParams(seed=3))
    assert ap is not None
    return ap


# (function, argument, host size, call with the vertex x in that argument);
# the oracle's path count is capped at 14 vertices, an absorber needs 21
CASES = [
    ("degree", "v", 12, lambda H, x: degree(H, x)),
    ("codegree", "u", 12, lambda H, x: codegree(H, x, 0)),
    ("codegree", "v", 12, lambda H, x: codegree(H, 0, x)),
    ("link_pairs", "v", 12, lambda H, x: H.link_pairs(x)),
    ("connect", "from_pair", 12, lambda H, x: ham.connect(H, (0, x), (2, 3), range(12))),
    ("connect", "to_pair", 12, lambda H, x: ham.connect(H, (0, 1), (x, 3), range(12))),
    ("connect", "allowed", 12, lambda H, x: ham.connect(H, (0, 1), (2, 3), [4, x])),
    ("almost_cover", "allowed", 12, lambda H, x: ham.almost_cover(H, 0.05, 0.15, allowed=[4, x])),
    ("find_absorber", "forbidden", 30, lambda H, x: ham.find_absorber(H, forbidden=[x])),
    (
        "build_absorbing_path",
        "R",
        30,
        lambda H, x: ham.build_absorbing_path(H, [x], ham.PipelineParams(seed=3)),
    ),
    ("absorb", "U", 30, lambda H, x: ham.absorb(H, absorbing_path(H.n), [x])),
    ("find_k333", "avoid", 12, lambda H, x: mo.find_k333(H, avoid=[x], tries=10)),
    ("find_c8", "avoid", 12, lambda H, x: mo.find_c8(H, budget=1000, avoid=[x])),
    ("find_c8_blowup", "avoid", 12, lambda H, x: mo.find_c8_blowup(H, budget=1000, avoid=[x])),
    ("is_connectable", "x", 12, lambda H, x: mo.is_connectable(H, x, 0, 0.05)),
    ("is_connectable", "y", 12, lambda H, x: mo.is_connectable(H, 0, x, 0.05)),
    ("count_paths_between", "from_pair", 12, lambda H, x: orc.count_paths_between(H, (0, x), (2, 3), 1)),
    ("count_paths_between", "to_pair", 12, lambda H, x: orc.count_paths_between(H, (0, 1), (x, 3), 1)),
    ("ev_value", "X", 12, lambda H, x: dn.ev_value(H, "1/2", [0, x], [(1, 2)])),
    ("ev_value", "P", 12, lambda H, x: dn.ev_value(H, "1/2", [0], [(1, x)])),
    ("vvv_value", "X", 12, lambda H, x: dn.vvv_value(H, "1/2", [x], [1], [2])),
    ("vvv_value", "Y", 12, lambda H, x: dn.vvv_value(H, "1/2", [0], [x], [2])),
    ("vvv_value", "Z", 12, lambda H, x: dn.vvv_value(H, "1/2", [0], [1], [x])),
    ("ee_value", "P", 12, lambda H, x: dn.ee_value(H, "1/2", [(x, 1)], [(1, 2)])),
    ("ee_value", "Q", 12, lambda H, x: dn.ee_value(H, "1/2", [(0, 1)], [(1, x)])),
]


@pytest.mark.parametrize("below", [True, False], ids=["minus_one", "n"])
@pytest.mark.parametrize(
    "fn,name,n,call", CASES, ids=[f"{fn}-{name}" for fn, name, _, _ in CASES]
)
def test_vertex_outside_the_host_is_refused_by_name(fn, name, n, call, below):
    H = host(n)
    with pytest.raises(ValueError, match=rf"^{name} must lie in 0\.\.{n - 1}$"):
        call(H, -1 if below else n)


R96 = cons.random(96, 0.8, 1)
R100 = cons.random(100, 0.5, 1)

# each call once with its vertex arguments as numpy arrays and once as lists
NUMPY_CASES = {
    "almost_cover-30": lambda v: ham.almost_cover(host(30), 0.05, 0.15, allowed=v(range(30))),
    "almost_cover-96": lambda v: ham.almost_cover(R96, 0.05, 0.15, allowed=v(range(96))),
    "find_c8-96": lambda v: mo.find_c8(R96, budget=2000, avoid=v(range(70, 80))),
    "ev_value-100": lambda v: dn.ev_value(R100, "1/2", v(range(0, 100, 3)), [(0, 1)]),
    "connect-96": lambda v: ham.connect(R96, v(range(2)), v(range(2, 4)), v(range(96))),
    "ee_value-100": lambda v: dn.ee_value(
        R100, "1/2", v([(0, 70), (70, 99), (5, 80)]), v([(70, 99), (99, 2), (80, 3)])
    ),
}


@pytest.mark.parametrize("call", NUMPY_CASES.values(), ids=NUMPY_CASES.keys())
def test_numpy_vertices_act_like_ints(call):
    assert call(np.array) == call(list)


def test_checked_mask():
    assert checked_mask(5, [np.int64(4), 0, 4], "S") == 0b10001
    assert checked_mask(70, np.arange(64, 70), "S") == sum(1 << v for v in range(64, 70))
    assert checked_mask(0, [], "S") == 0
    with pytest.raises(TypeError):
        checked_mask(5, [1.0], "S")


def test_huge_vertex_is_refused_before_it_is_shifted():
    # 1 << 10**8 would take 12.5 MB; the range check comes first
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^avoid must lie in 0\.\.11$"):
            checked_mask(12, [10**8], "avoid")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
