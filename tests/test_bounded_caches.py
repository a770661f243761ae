"""Every module-level functools cache in postlab is listed, with its size.

An unbounded cache grows for the life of the process with every distinct
argument it sees, and a cache that restates a fact another cache holds gives
that fact two homes.  So each cache is named here with its maxsize and the
one fact it alone keeps; a new cache needs a new row.
"""

import importlib
import pkgutil

import postlab

# `module.name` -> (maxsize, what the cache alone keeps).
CACHES = {
    "circuit.flip_masks": (64, "the flip table (2**j, x_j = 0) per variable count, up to oracle_edges vertices"),
    "clone_lattice._closure3": (None, "the arity-3 closure of each of the 20 catalog labels"),
    "clone_lattice._pol_bits": (1 << 14, "the Pol bits of a relation: which catalog clones preserve it"),
    "clone_lattice._pol_mask": (32, "Pol(S) as one clone mask per (relation set, preserves limit)"),
    "clone_lattice.ensure_catalog_valid": (None, "the catalog check; it takes no arguments"),
    "csp._affine_rows": (512, "the parity checks a relation satisfies"),
    "csp._layout": (64, "each relation's first application index and the application count per (relation set, n)"),
    "csp._prime_clauses": (2048, "the prime implicates per (relation, repeat pattern)"),
    "csp._relation_block": (
        64, "one view of each application and the mask of those that refute alone, per (view, relation, n)"
    ),
    "csp._relation_lanes": (
        512, "a relation's per-assignment masks as the lanes of one word, and their AND, per (relation, n, lane width)"
    ),
    "csp._relation_violation_segments": (512, "per assignment, the applications it violates"),
    "csp._violation_masks": (8, "the brute-force oracle's masks per (relation set, n)"),
    "csp.fragment_table": (32, "the guarded per-bit table per (relation set, n, clone)"),
    "graphlab._byte_tables": (9, "the per-byte edge and adjacency tables and the pair-bit table per vertex count"),
    "reductions._find_cq": (64, "each conjunctive-query definition per (target, target set, CQ budgets)"),
    "reductions._cq_layout": (16, "cq_rewrite's reduction per (relation set, n, definitions)"),
    "reductions._selector_layout": (16, "l2_to_l3_transform's unnamed R' and projection per (relation set, n)"),
}


def module_caches() -> dict[str, int | None]:
    """`module.name` -> maxsize of each functools cache a postlab module defines."""
    found = {}
    for info in pkgutil.iter_modules(postlab.__path__):
        module = importlib.import_module(f"postlab.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters") and value.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = value.cache_parameters()["maxsize"]
    return found


def test_detector_sees_the_reduction_layouts():
    caches = module_caches()
    assert caches["reductions._selector_layout"] == 16
    assert caches["reductions._cq_layout"] == 16


def test_module_caches_are_bounded():
    unbounded = {name for name, maxsize in module_caches().items() if maxsize is None}
    assert unbounded == {"clone_lattice._closure3", "clone_lattice.ensure_catalog_valid"}


def test_every_cache_is_listed_with_its_size():
    assert module_caches() == {name: maxsize for name, (maxsize, _) in CACHES.items()}
