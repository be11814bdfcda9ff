"""The package's lazy exports, the modules each CLI verb loads, and the
names the benchmark reads.

A ``gridnet`` process compiles only the modules its verb runs: the package
resolves its exports on first access, and ``cli`` imports ``bounds``,
``search`` and ``json`` inside the verbs that use them.  Each such check
runs in a fresh interpreter, since this one has loaded every module already.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridnet

SRC = Path(gridnet.__file__).resolve().parent.parent

# The names the package exported when it imported every module eagerly, by
# defining module: the spec that the lazy exports keep.  The per-theorem
# aliases of achievable_range and predicted_diameter, the condition checks
# that moved to tests/oracles.py, the Validation record (validators now
# return the violated conditions alone) and the validators themselves (now
# each record class's validate method) are exported no more.
EXPORTS = {
    "bounds": [
        "BoundsError", "BoundsReport", "achievable_range", "bounds_report",
        "moore_ds", "moore_mh", "moore_na",
    ],
    "constructions": [
        "SandwichReport", "check_diameter_sandwich", "ds_to_mh", "ds_to_na",
        "na_to_mh",
    ],
    "families": [
        "DoubleStepGraph", "FamilyError", "ManhattanDigraph",
        "NewAmsterdamDigraph", "compile_ds", "compile_mh", "compile_na",
        "compile_params", "family_diameter", "format_params", "line_diameter",
        "parse_params", "require_valid",
    ],
    "graphs": [
        "Digraph", "DistanceProfile", "GraphError", "bfs_profile", "diameter",
        "from_json", "line_digraph", "to_dot", "to_json",
        # New with the one error base; every other name was exported before.
        "GridnetError",
    ],
    "search": [
        "SearchError", "SearchResult", "search_ds", "search_mh", "search_na",
        "sweep_verify", "theorem_41_params", "theorem_42_params",
        "theorem_43_params",
    ],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def modules_after(*lines: str) -> set[str]:
    """sys.modules of a fresh interpreter on src/ after running ``lines``."""
    code = "\n".join(("import sys", *lines, "print(sorted(sys.modules))"))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    return set(ast.literal_eval(out.splitlines()[-1]))


def modules_after_cli(*argv: str) -> set[str]:
    return modules_after("from gridnet import cli", f"cli.main({list(argv)!r})")


class TestWhatEachVerbLoads:
    @pytest.mark.parametrize("claim", ["sandwich", "line-digraph"])
    def test_structural_verify_loads_no_search_bounds_or_json(self, claim):
        loaded = modules_after_cli("verify", claim, "--n-max", "4")
        assert "gridnet.cli" in loaded
        assert loaded.isdisjoint({"gridnet.search", "gridnet.bounds", "json"})

    def test_bounds_loads_no_search(self):
        loaded = modules_after_cli("bounds", "na", "--k", "1", "--json")
        assert {"gridnet.bounds", "json"} <= loaded
        assert "gridnet.search" not in loaded

    def test_bare_import_loads_no_submodule(self):
        loaded = modules_after("import gridnet")
        assert "gridnet" in loaded
        assert not {m for m in loaded if m.startswith("gridnet.")}

    def test_submodules_resolve_after_a_bare_import(self):
        loaded = modules_after(
            "import gridnet",
            "assert gridnet.search is sys.modules['gridnet.search']",
            "assert gridnet.constructions is sys.modules['gridnet.constructions']",
        )
        assert {"gridnet.search", "gridnet.constructions"} <= loaded


class TestExports:
    @pytest.mark.parametrize("module, name", NAMES, ids=[n for _, n in NAMES])
    def test_name_is_the_defining_modules_object(self, module, name):
        ns: dict = {}
        exec(f"from gridnet import {name}", ns)
        home = importlib.import_module(f"gridnet.{module}")
        assert ns[name] is getattr(home, name)

    def test_all_lists_the_exports_and_library_modules(self):
        assert sorted(gridnet.__all__) == sorted(
            [name for _, name in NAMES] + list(EXPORTS)
        )

    def test_star_import_binds_every_name(self):
        ns: dict = {}
        exec("from gridnet import *", ns)
        for module, name in NAMES:
            assert ns[name] is getattr(ns[module], name)
        assert "cli" not in ns

    def test_dir_lists_every_export(self):
        assert set(gridnet.__all__) <= set(dir(gridnet))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            gridnet.no_such_name


class TestBenchmarkNames:
    """The names the benchmark in ``perfbench/`` reads from the package.

    Its tracer swaps names in the modules and puts them back; its BFS probe
    calls the compilers, the NA -> MH map and ``bfs_profile`` on the theorem
    4.1 and 4.2 steps.  A name removed from the package breaks the benchmark.
    """

    PERFBENCH = SRC.parent / "perfbench"

    def test_tracer_installs_and_undoes(self):
        spec = importlib.util.spec_from_file_location(
            "perfbench_layers", self.PERFBENCH / "layers.py"
        )
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
        installation = layers.install(gridnet, layers.Tracer())
        try:
            swapped = installation.leftovers()
        finally:
            installation.undo()
        assert len(swapped) == len(installation.originals)
        assert installation.leftovers() == []

    def test_probe_names_resolve(self):
        from gridnet import search

        na = search.theorem_42_params(120, 5)
        graphs = [
            gridnet.compile_ds(search.theorem_41_params(24, 3)),
            gridnet.compile_na(na),
            gridnet.compile_mh(gridnet.na_to_mh(na)),
        ]
        assert [g.order for g in graphs] == [24, 120, 240]
        for g in graphs:
            assert gridnet.bfs_profile(g, 0).eccentricity is not None
