"""The exact kernels' module.  :mod:`tightcycles.density` and
:mod:`tightcycles.oracle` look it up through :func:`backend` on every call,
so a wrapper set on one of its functions (``perfbench``'s tracer sets them)
sees each call."""

from __future__ import annotations

from . import _pykernels


def backend():
    return _pykernels


def backend_name() -> str:
    return backend().NAME
