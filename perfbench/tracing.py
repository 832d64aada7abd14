"""In-memory span recorder for the traced benchmark run.

A layer is traced by replacing the attribute its callers look up, so the
library itself is untouched:

- ``hamilton`` imports the motif searches and the path/cycle verifiers by
  name, and calls its own stages (``connect``, ``find_absorber``, ...)
  through its module globals;
- ``density`` and ``oracle`` call ``kernels.backend().<fn>`` on every use,
  so the backend module's functions are replaced;
- ``constructions`` imports ``from_triple_array`` by name;
- the link cache is built by the first ``Hypergraph3.link_pairs`` call on a
  host, so that method is replaced on the class.

``Tracer.restore`` puts every original back.  Spans are kept in memory as
``[name, start, end, parent, unit, op, child_time, note]`` and written out
once, when the run ends.
"""

from __future__ import annotations

import json
from time import perf_counter

def _found(out):
    return out is not None


def _edges(H):
    return H.m


def _report(rep):
    return (rep.samples or 0, rep.rho_hat)


# (module, attribute, span name, note taken from the result)
_PATCHES = (
    ("constructions", "random", "constructions.random", None),
    ("constructions", "example1", "constructions.example1", None),
    ("constructions", "hp_construction", "constructions.hp", None),
    ("constructions", "from_triple_array", "hypercore.index_build", _edges),
    ("hypercore", "from_edges", "hypercore.index_build", _edges),
    ("hamilton", "verify_tight_path", "hypercore.verify", None),
    ("hamilton", "verify_tight_cycle", "hypercore.verify", None),
    ("motifs", "verify_tight_path", "hypercore.verify", None),
    ("oracle", "verify_tight_cycle", "hypercore.verify", None),
    ("density", "ev_deviation", "density.ev", _report),
    ("density", "vvv_deviation", "density.vvv", _report),
    ("density", "ee_deviation", "density.ee", _report),
    ("backend", "ev_exact", "kernels.ev_exact", None),
    ("backend", "vvv_exact", "kernels.vvv_exact", None),
    ("backend", "ee_exact", "kernels.ee_exact", None),
    ("backend", "tight_hamilton_cycle", "kernels.hamilton_dp", None),
    ("oracle", "has_tight_hamilton", "oracle.dp", None),
    ("oracle", "extract_tight_hamilton", "oracle.dp", None),
    ("oracle", "exhaustive_hamilton", "oracle.exhaustive", None),
    ("hamilton", "find_c8_blowup", "motifs.c8_blowup", _found),
    ("hamilton", "find_k333", "motifs.k333", _found),
    ("hamilton", "_cleaned_masks", "motifs.cleaned_masks", None),
    ("hamilton", "is_connectable", "motifs.is_connectable", None),
    ("hamilton", "build_absorbing_path", "hamilton.absorbing_path", None),
    ("hamilton", "find_absorber", "hamilton.find_absorber", _found),
    ("hamilton", "almost_cover", "hamilton.almost_cover", None),
    ("hamilton", "connect", "hamilton.connect", _found),
    ("hamilton", "absorb", "hamilton.absorb", None),
)


class Tracer:
    """Records one span per call into a wrapped layer function."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.unit = "setup"
        self.op = None

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, tracer.unit, tracer.op, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][6] += rec[2] - rec[1]
            if note is not None:
                rec[7] = note(out)
            return out

        return traced

    def install(self, modules: dict) -> None:
        """Patch every layer boundary; ``modules`` maps short names to modules."""
        for mod_name, attr, span, note in _PATCHES:
            mod = modules[mod_name]
            orig = getattr(mod, attr)
            self._patches.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(span, orig, note))
        cls = modules["hypercore"].Hypergraph3
        orig = cls.link_pairs
        build = self.wrap("hypercore.link_build", orig)

        def link_pairs(H, v):
            if H._link_cache is None:
                return build(H, v)
            return orig(H, v)

        self._patches.append((cls, "link_pairs", orig))
        cls.link_pairs = link_pairs

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def aggregate(self) -> dict:
        """Per unit, per span name: self time, calls and summed notes."""
        units: dict = {}
        for name, start, end, _parent, unit, _op, child, note in self.spans:
            row = units.setdefault(unit, {}).setdefault(
                name, {"self_s": 0.0, "calls": 0, "found": 0, "notes": 0, "rho": 0.0}
            )
            row["self_s"] += end - start - child
            row["calls"] += 1
            if note is True:
                row["found"] += 1
            elif isinstance(note, tuple):
                row["notes"] += note[0]
                row["rho"] += note[1]
            elif isinstance(note, int) and note is not False:
                row["notes"] += note
        return units

    def write(self, path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for name, start, end, parent, unit, op, child, _note in self.spans:
                fh.write(
                    json.dumps([name, start, end, parent, unit, op, end - start - child])
                    + "\n"
                )


def counts_of(units: dict, unit) -> dict:
    """The deterministic part of one unit's aggregate, for repeat checks."""
    return {
        name: (row["calls"], row["found"], row["notes"], row["rho"])
        for name, row in units.get(unit, {}).items()
    }


# -- per-layer metrics ------------------------------------------------------------

STAGES = (
    "absorber_shortage", "absorbing_connect", "ends_not_connectable", "absorbing",
    "parity_planning", "connect", "parity", "capacity", "divisibility", "matching",
    "absorb", "final_verify", "other",
)

# name -> (unit, better); every traced run reports all of them
PER_LAYER = {
    "constructions.gen_s": ("s", "lower"),
    "constructions.hosts": ("count", "lower"),
    "hypercore.index_build_s": ("s", "lower"),
    "hypercore.link_build_s": ("s", "lower"),
    "hypercore.edges": ("count", "lower"),
    "hypercore.verify_s": ("s", "lower"),
    "hypercore.verify_calls": ("count", "lower"),
    "density.ev_s": ("s", "lower"),
    "density.vvv_s": ("s", "lower"),
    "density.ee_s": ("s", "lower"),
    "density.proposals": ("count", "lower"),
    "density.proposals_per_s": ("1/s", "higher"),
    "density.rho_hat.ev": ("rho", "higher"),
    "density.rho_hat.vvv": ("rho", "higher"),
    "density.rho_hat.ee": ("rho", "higher"),
    **{
        f"kernels.{k}{suffix}": unit
        for k in ("ev_exact", "vvv_exact", "ee_exact", "hamilton_dp")
        for suffix, unit in (("_s", ("s", "lower")), ("_calls", ("count", "lower")))
    },
    "oracle.dp_s": ("s", "lower"),
    "oracle.exhaustive_s": ("s", "lower"),
    "motifs.c8_blowup_s": ("s", "lower"),
    "motifs.c8_blowup_calls": ("count", "lower"),
    "motifs.c8_blowup_found_ratio": ("ratio", "higher"),
    "motifs.k333_s": ("s", "lower"),
    "motifs.k333_found_ratio": ("ratio", "higher"),
    "motifs.cleaned_masks_s": ("s", "lower"),
    "motifs.is_connectable_s": ("s", "lower"),
    "hamilton.absorbing_path_s": ("s", "lower"),
    "hamilton.find_absorber_s": ("s", "lower"),
    "hamilton.absorber_found_ratio": ("ratio", "higher"),
    "hamilton.almost_cover_s": ("s", "lower"),
    "hamilton.connect_s": ("s", "lower"),
    "hamilton.connect_calls": ("count", "lower"),
    "hamilton.connect_found_ratio": ("ratio", "higher"),
    "hamilton.absorb_s": ("s", "lower"),
    "hamilton.attempts_per_op": ("count", "lower"),
    "hamilton.leftover_mean": ("vertices", "lower"),
    **{f"hamilton.fail_stage.{s}": ("count", "lower") for s in STAGES},
    "trace.op_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.ops_per_s": ("1/s", "higher"),
    "trace.untraced_ops_per_s": ("1/s", "higher"),
    "trace.overhead_share": ("ratio", "lower"),
}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(units: dict, passes: list, facts: list, kinds: list) -> dict:
    """Per-layer values for one set-up plus one pass over the operation list.

    Times are the set-up's plus the mean over the traced passes; counts are
    the set-up's plus the first pass's (every pass must repeat them).
    """
    setup = units.get("setup", {})

    def time_of(*names) -> float:
        total = sum(setup.get(n, {}).get("self_s", 0.0) for n in names)
        per_pass = sum(units.get(p, {}).get(n, {}).get("self_s", 0.0) for p in passes for n in names)
        return total + per_pass / len(passes)

    def count_of(name, key="calls") -> int:
        return setup.get(name, {}).get(key, 0) + units.get(passes[0], {}).get(name, {}).get(key, 0)

    def found_ratio(name) -> float:
        return _ratio(count_of(name, "found"), count_of(name))

    def rho_of(name) -> float:
        row = units.get(passes[0], {}).get(name)
        return row["rho"] / row["calls"] if row else 0.0

    gens = ("constructions.random", "constructions.example1", "constructions.hp")
    dens = ("density.ev", "density.vvv", "density.ee")
    m = {
        "constructions.gen_s": time_of(*gens),
        "constructions.hosts": sum(count_of(g) for g in gens),
        "hypercore.index_build_s": time_of("hypercore.index_build"),
        "hypercore.link_build_s": time_of("hypercore.link_build"),
        "hypercore.edges": count_of("hypercore.index_build", "notes"),
        "hypercore.verify_s": time_of("hypercore.verify"),
        "hypercore.verify_calls": count_of("hypercore.verify"),
        "density.ev_s": time_of("density.ev"),
        "density.vvv_s": time_of("density.vvv"),
        "density.ee_s": time_of("density.ee"),
        "density.proposals": sum(count_of(d, "notes") for d in dens),
        "density.rho_hat.ev": rho_of("density.ev"),
        "density.rho_hat.vvv": rho_of("density.vvv"),
        "density.rho_hat.ee": rho_of("density.ee"),
        "oracle.dp_s": time_of("oracle.dp"),
        "oracle.exhaustive_s": time_of("oracle.exhaustive"),
        "motifs.c8_blowup_s": time_of("motifs.c8_blowup"),
        "motifs.c8_blowup_calls": count_of("motifs.c8_blowup"),
        "motifs.c8_blowup_found_ratio": found_ratio("motifs.c8_blowup"),
        "motifs.k333_s": time_of("motifs.k333"),
        "motifs.k333_found_ratio": found_ratio("motifs.k333"),
        "motifs.cleaned_masks_s": time_of("motifs.cleaned_masks"),
        "motifs.is_connectable_s": time_of("motifs.is_connectable"),
        "hamilton.absorbing_path_s": time_of("hamilton.absorbing_path"),
        "hamilton.find_absorber_s": time_of("hamilton.find_absorber"),
        "hamilton.absorber_found_ratio": found_ratio("hamilton.find_absorber"),
        "hamilton.almost_cover_s": time_of("hamilton.almost_cover"),
        "hamilton.connect_s": time_of("hamilton.connect"),
        "hamilton.connect_calls": count_of("hamilton.connect"),
        "hamilton.connect_found_ratio": found_ratio("hamilton.connect"),
        "hamilton.absorb_s": time_of("hamilton.absorb"),
    }
    m["density.proposals_per_s"] = _ratio(m["density.proposals"], time_of(*dens))
    for k in ("ev_exact", "vvv_exact", "ee_exact", "hamilton_dp"):
        m[f"kernels.{k}_s"] = time_of(f"kernels.{k}")
        m[f"kernels.{k}_calls"] = count_of(f"kernels.{k}")

    pipeline = [f for f, kind in zip(facts, kinds) if kind == "pipeline" and f is not None]
    leftovers = [x for f in pipeline for x in f.leftovers]
    m["hamilton.attempts_per_op"] = _ratio(sum(f.attempts for f in pipeline), len(pipeline))
    m["hamilton.leftover_mean"] = _ratio(sum(leftovers), len(leftovers))
    hist = dict.fromkeys(STAGES, 0)
    for f in pipeline:
        for stage in f.fail_stages:
            hist[stage if stage in hist else "other"] += 1
    m.update({f"hamilton.fail_stage.{s}": c for s, c in hist.items()})
    return m
