"""Every module-level functools cache in postlab has a size limit.

An unbounded cache grows for the life of the process with every distinct
argument it sees.  The ones that stay unbounded are listed with the reason
their key space is fixed.
"""

import importlib
import pkgutil

import postlab

# The unbounded caches that stay, each with its reason.
UNBOUNDED = {
    "clone_lattice._closure3": "keyed by the 20 catalog labels",
    "clone_lattice.ensure_catalog_valid": "takes no arguments",
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
    caches = module_caches()
    unbounded = {name for name, maxsize in caches.items() if maxsize is None}
    assert unbounded == set(UNBOUNDED)
