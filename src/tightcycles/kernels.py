"""The two hooks ``perfbench/run.py`` calls: the exact kernels' module and its
name.  :mod:`tightcycles.density` and :mod:`tightcycles.oracle` call the
kernels as attributes of :mod:`tightcycles._pykernels` on every use, so a
wrapper set on that module (``perfbench``'s tracer sets them through
:func:`backend`) sees each call."""

from __future__ import annotations

from . import _pykernels


def backend():
    return _pykernels


def backend_name() -> str:
    return _pykernels.NAME
