"""tightcycles: uniform-density measures, gadget searches and an absorption
pipeline for tight Hamilton cycles in 3-uniform hypergraphs."""

from .hypercore import (
    Hypergraph3,
    PairSet,
    TightPath,
    codegree,
    degree,
    from_edges,
    min_codegree,
    min_degree,
    read_h3,
    verify_tight_cycle,
    verify_tight_path,
    write_h3,
)

__version__ = "0.1.0"

__all__ = [
    "Hypergraph3",
    "PairSet",
    "TightPath",
    "codegree",
    "degree",
    "from_edges",
    "min_codegree",
    "min_degree",
    "read_h3",
    "verify_tight_cycle",
    "verify_tight_path",
    "write_h3",
]
