"""Compiled and pure kernels must agree everywhere they both run."""

import pytest

from tightcycles import _pykernels, constructions as cons, kernels
from tightcycles.hypercore import verify_tight_cycle

compiled = pytest.importorskip("tightcycles._kernels")


@pytest.mark.parametrize("seed", range(12))
def test_hamilton_kernels_agree(seed):
    H = cons.random(7 + seed % 3, 0.4 + 0.15 * (seed % 3), seed)
    a = _pykernels.tight_hamilton_cycle(H.n, H.nbr_flat())
    b = compiled.tight_hamilton_cycle(H.n, H.nbr_flat())
    assert (a is None) == (b is None)
    if a is not None:
        assert verify_tight_cycle(H, a)
        assert verify_tight_cycle(H, b)


@pytest.mark.parametrize("seed", range(8))
def test_ev_kernels_agree(seed):
    H = cons.random(6, 0.5, seed + 100)
    off, la, lb = H.link_lists()
    for p, q in ((1, 4), (1, 2), (3, 10)):
        a = _pykernels.ev_exact(H.n, off, la, lb, p, q)
        b = compiled.ev_exact(H.n, off, la, lb, p, q)
        assert a[0] == b[0]


@pytest.mark.parametrize("seed", range(6))
def test_vvv_kernels_agree(seed):
    H = cons.random(5, 0.5, seed + 200)
    off, ia, ib = H.link_lists()
    for p, q in ((1, 4), (1, 2)):
        a = _pykernels.vvv_exact(H.n, off, ia, ib, p, q)
        b = compiled.vvv_exact(H.n, off, ia, ib, p, q)
        assert a[0] == b[0]


@pytest.mark.parametrize("seed", range(6))
def test_ee_kernels_agree(seed):
    H = cons.random(4, 0.5, seed + 300)
    for p, q in ((1, 4), (1, 2)):
        a = _pykernels.ee_exact(H.n, H.nbr_flat(), p, q)
        b = compiled.ee_exact(H.n, H.nbr_flat(), p, q)
        assert a[0] == b[0]
        assert a[1] == b[1]


def test_backend_selection(monkeypatch):
    assert kernels.backend_name() in ("pure", "compiled")
    monkeypatch.setenv("TIGHTCYCLES_PURE", "1")
    assert kernels.backend_name() == "pure"
    monkeypatch.delenv("TIGHTCYCLES_PURE")
    assert kernels.HAS_COMPILED
    assert kernels.backend_name() == "compiled"


def test_kernel_guards():
    with pytest.raises(ValueError):
        compiled.tight_hamilton_cycle(23, [0] * (23 * 23))
