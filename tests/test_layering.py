"""The package layering, declared once: a run imports what it runs.

``LAYERS`` lists the packages of ``src/repro`` lowest first; the root
``repro/__init__.py`` sits in the lowest layer, because every import runs
it.  ``MAY_IMPORT`` names, for each package, the packages its modules may
import at module top level (a class body and an ``if TYPE_CHECKING:``
block count as top level).  Every declared edge points to a lower layer, so
the top-level import graph between packages has no cycle; every edge in the
code must be declared and every declared edge must be used.

An import inside a function runs only when that function does, so it may
point anywhere, but it is listed in ``LAZY_IMPORTS`` when its target is not
in ``MAY_IMPORT``: the root package's name table and the subcommands of
``python -m repro`` import what they run on first use.

The fresh-interpreter cases at the end check what an entry point actually
loads.
"""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

LAYERS = (
    ("__init__", "exceptions"),
    ("sim", "utils", "erasure", "lint"),
    ("obs",),
    ("network", "faas", "baselines"),
    ("cache", "analysis"),
    ("workload",),
    ("faults", "cluster"),
    ("scenarios",),
    ("experiments", "__main__"),
)

MAY_IMPORT = {
    "__init__": (),
    "exceptions": (),
    "sim": ("exceptions",),
    "utils": ("exceptions",),
    "erasure": ("exceptions",),
    "lint": ("exceptions",),
    "obs": ("sim", "utils"),
    "network": ("exceptions", "sim", "utils"),
    "faas": ("exceptions", "obs", "sim", "utils"),
    "baselines": ("exceptions", "obs", "utils"),
    "cache": ("baselines", "erasure", "exceptions", "faas", "network", "obs", "sim", "utils"),
    "analysis": ("baselines", "exceptions", "faas", "utils"),
    "workload": ("baselines", "cache", "exceptions", "network", "obs", "sim", "utils"),
    "faults": ("cache", "exceptions", "faas", "utils", "workload"),
    "cluster": ("cache", "exceptions", "faas", "obs", "sim", "utils"),
    "scenarios": ("cache", "exceptions", "faults", "network", "utils", "workload"),
    "experiments": (
        "analysis", "baselines", "cache", "cluster", "erasure", "exceptions", "faas",
        "faults", "network", "obs", "sim", "utils", "workload",
    ),
    "__main__": ("exceptions",),
}

LAZY_IMPORTS = {
    # The public names of ``repro`` (its ``_EXPORTS`` table), on first use.
    "__init__": ("analysis", "cache", "cluster", "erasure", "workload"),
    # Each subcommand imports what it runs.
    "__main__": (
        "cache", "cluster", "experiments", "faas", "faults", "lint", "obs",
        "scenarios", "utils", "workload",
    ),
}


def _package(path: pathlib.Path) -> str:
    return path.relative_to(SRC).with_suffix("").parts[0]


def _imported_packages(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        modules = [node.module]
        if node.module == "repro":
            modules = [f"repro.{alias.name}" for alias in node.names]
    else:
        return []
    return [
        module.split(".")[1] for module in modules
        if module.startswith("repro.")
    ]


def _edges() -> tuple[dict[tuple[str, str], list[str]], dict[tuple[str, str], list[str]]]:
    """``(package, imported package) -> [file:line, ...]`` for the imports at
    module top level and for those inside a function."""
    top: dict[tuple[str, str], list[str]] = {}
    lazy: dict[tuple[str, str], list[str]] = {}

    def visit(node: ast.AST, package: str, where: str, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            nested = in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            )
            for target in _imported_packages(child):
                if target != package:
                    edges = lazy if nested else top
                    edges.setdefault((package, target), []).append(f"{where}:{child.lineno}")
            visit(child, package, where, nested)

    for path in sorted(SRC.rglob("*.py")):
        package = _package(path)
        visit(ast.parse(path.read_text(encoding="utf-8")), package,
              str(path.relative_to(ROOT)), False)
    for module in repro._EXPORTS.values():
        lazy.setdefault(("__init__", module.split(".")[1]), []).append("src/repro/__init__.py")
    return top, lazy


def _layer_of() -> dict[str, int]:
    return {package: index for index, layer in enumerate(LAYERS) for package in layer}


def test_every_package_is_declared_once():
    declared = [package for layer in LAYERS for package in layer]
    found = {_package(path) for path in SRC.rglob("*.py")}
    assert len(declared) == len(set(declared))
    assert set(declared) == found == set(MAY_IMPORT)


def test_declared_imports_point_to_lower_layers():
    layer = _layer_of()
    upward = [
        f"{package} -> {target}"
        for package, targets in MAY_IMPORT.items()
        for target in targets
        if layer[target] >= layer[package]
    ]
    assert not upward, "a declared import must point to a lower layer:\n  " + "\n  ".join(upward)


def test_every_top_level_import_is_declared():
    top, _ = _edges()
    undeclared = [
        f"{where} imports repro.{target} ({package} may import {MAY_IMPORT[package]})"
        for (package, target), sites in sorted(top.items())
        if target not in MAY_IMPORT[package]
        for where in sites
    ]
    assert not undeclared, (
        "top-level imports that break the layering; move the shared piece "
        "down to a layer both can import:\n  " + "\n  ".join(undeclared)
    )


def test_every_declared_import_is_used():
    top, _ = _edges()
    unused = [
        f"{package} -> {target}"
        for package, targets in MAY_IMPORT.items()
        for target in targets
        if (package, target) not in top
    ]
    assert not unused, "declared imports no module makes; drop them:\n  " + "\n  ".join(unused)


def test_function_level_imports_are_listed():
    _, lazy = _edges()
    found: dict[str, set[str]] = {}
    for package, target in lazy:
        if target not in MAY_IMPORT[package]:
            found.setdefault(package, set()).add(target)
    assert {package: tuple(sorted(targets)) for package, targets in found.items()} == LAZY_IMPORTS


def test_no_module_outside_the_engine_reaches_into_the_event_loop():
    """A component reads the loop's public attributes (``loop.profile``,
    ``loop.queue``, ``loop.clock``) and never an underscore one of an
    expression named ``loop`` or ``simulator``; ``clock._now``, read on hot
    paths for speed, is the clock's and stays allowed."""
    reach_ins = []
    for path in sorted(SRC.rglob("*.py")):
        if _package(path) == "sim":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
                continue
            owner = node.value
            name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            if name in ("loop", "simulator"):
                reach_ins.append(f"{path.relative_to(ROOT)}:{node.lineno} reads {name}.{node.attr}")
    assert not reach_ins, "\n  ".join(["private event-loop state read outside repro.sim:"] + reach_ins)


def test_only_the_ledger_writes_the_mapping_table():
    """``repro.cache.ledger`` is the only module that assigns or deletes an
    entry of a placement map (``.placement``) or of the mapping table
    (``.table``), by subscript or by a mutating method, so no write can
    bypass the ledger's byte totals."""
    writes = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "cache" / "ledger.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                table = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
                node.func.attr in ("pop", "popitem", "clear", "update", "setdefault")
            ):
                table = node.func.value
            else:
                continue
            if isinstance(table, ast.Attribute) and table.attr in ("placement", "table"):
                writes.append(f"{path.relative_to(ROOT)}:{node.lineno} writes .{table.attr}")
    assert not writes, "\n  ".join(["mapping-table writes outside repro.cache.ledger:"] + writes)


def _loaded_after(script: str) -> list[str]:
    """The ``repro`` and ``numpy`` modules a fresh interpreter holds after
    running ``script``."""
    probe = (
        script
        + "\nimport sys\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('repro', 'numpy')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
        cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    return ast.literal_eval(result.stdout.strip().splitlines()[-1])


def _numpy(modules: list[str]) -> list[str]:
    return [module for module in modules if module.split(".")[0] == "numpy"]


class TestEntryPoints:
    def test_the_engine_loads_only_itself(self):
        loaded = _loaded_after("import repro.sim")
        assert all(
            module in ("repro", "repro.exceptions") or module.startswith("repro.sim")
            for module in loaded
        ), loaded
        assert not _numpy(loaded)

    def test_units_load_no_numpy(self):
        assert not _numpy(_loaded_after("import repro.utils.units"))

    def test_the_linter_loads_no_numpy_and_no_simulation_package(self):
        script = (
            "import contextlib, io, runpy, sys\n"
            "sys.argv = ['repro', 'lint', 'src/repro/sim']\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        runpy.run_module('repro', run_name='__main__')\n"
            "    except SystemExit as exit:\n"
            "        assert exit.code == 0, exit.code\n"
        )
        loaded = _loaded_after(script)
        assert "repro.lint.cli" in loaded
        assert not _numpy(loaded)
        simulation = ("sim", "network", "cache", "faas", "workload")
        assert not [
            module for module in loaded
            if module.startswith("repro.") and module.split(".")[1] in simulation
        ]

    def test_the_cluster_experiment_loads_no_scenario_module(self):
        loaded = _loaded_after("import repro.experiments.cluster_scale")
        assert "repro.experiments.cluster_scale" in loaded
        assert not [module for module in loaded if module.startswith("repro.scenarios")]

    def test_the_scenario_engine_loads_no_cluster_module(self):
        """The engine runs workload grids only; the cluster replay is an
        experiment, so importing the whole scenario package (library and CLI
        included) never loads ``repro.cluster``."""
        loaded = _loaded_after(
            "import repro.scenarios, repro.scenarios.library, repro.scenarios.cli"
        )
        assert "repro.scenarios.cli" in loaded
        assert not [module for module in loaded if module.startswith("repro.cluster")]

    def test_every_public_name_resolves_to_its_module(self):
        for name, module in repro._EXPORTS.items():
            assert getattr(repro, name).__module__ == module, name
