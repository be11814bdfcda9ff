"""Double-step graphs, New Amsterdam and Manhattan digraphs.

Construction, validation, Moore-like bounds, step-translation between the
families, and exhaustive minimum-diameter search by a period BFS, with every
reported diameter certified again by reach sets from every vertex, one set
per translation class of the step digraph.

The exports and the submodules resolve on first access (PEP 562), so
``import gridnet``, and the package import that runs before
``python -m gridnet.cli``, loads no submodule.
"""

from importlib import import_module as _import_module

# Defining module -> the public names the package re-exports from it.
_EXPORTS = {
    "bounds": (
        "BoundsError", "BoundsReport", "achievable_range", "bounds_report",
        "moore_ds", "moore_mh", "moore_na",
    ),
    "constructions": (
        "SandwichReport", "check_diameter_sandwich", "ds_to_mh", "ds_to_na",
        "na_to_mh",
    ),
    "families": (
        "DoubleStepGraph", "FamilyError", "ManhattanDigraph",
        "NewAmsterdamDigraph", "compile_ds", "compile_mh", "compile_na",
        "compile_params", "family_diameter", "format_params", "line_diameter",
        "parse_params", "require_valid",
    ),
    "graphs": (
        "Digraph", "DistanceProfile", "GraphError", "GridnetError",
        "bfs_profile", "diameter", "from_json", "line_digraph", "to_dot",
        "to_json",
    ),
    "search": (
        "SearchError", "SearchResult", "search_ds", "search_mh", "search_na",
        "sweep_verify", "theorem_41_params", "theorem_42_params",
        "theorem_43_params",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

# ``import *`` binds the exports and the library modules, not the CLI.
__all__ = sorted((*_HOME, *_EXPORTS))
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
