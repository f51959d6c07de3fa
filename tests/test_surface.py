"""Every public top-level class or function in ``src/repro`` has a caller.

A name counts as reached when an identifier names it (a ``Name``, an
attribute or an import) in its own module outside its definition, or in
any other non-``__init__`` file under ``src/repro``, ``examples/`` or
``bench/``.  Tests and package ``__init__`` re-exports do not count: a
name only they reach is surface no experiment, CLI command, example or
benchmark runs.  A class decorated with ``@register_rule`` is reached
through the lint registry.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Public names kept without a caller, each with the reason.
UNREACHED_ON_PURPOSE = {
    "IdleTimeoutPolicy": (
        "the provider's idle reclaim from the paper, the fixture behind the "
        "warm-up tests"
    ),
}


def _identifiers(nodes) -> set[str]:
    names: set[str] = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def _is_registered_rule(node: ast.ClassDef) -> bool:
    return any(
        isinstance(dec, ast.Name) and dec.id == "register_rule"
        for dec in node.decorator_list
    )


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node


def _unreached() -> list[str]:
    modules = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
    }
    outside = [
        path
        for folder in (ROOT / "examples", ROOT / "bench")
        for path in sorted(folder.rglob("*.py"))
    ]
    reached: dict[pathlib.Path, set[str]] = {
        path: _identifiers([tree]) for path, tree in modules.items()
    }
    for path in outside:
        reached[path] = _identifiers([ast.parse(path.read_text(encoding="utf-8"))])

    unreached = []
    for path, tree in modules.items():
        others = set().union(*(names for other, names in reached.items() if other != path))
        for definition in _public_definitions(tree):
            name = definition.name
            if name in UNREACHED_ON_PURPOSE or name in others:
                continue
            if isinstance(definition, ast.ClassDef) and _is_registered_rule(definition):
                continue
            rest = [node for node in tree.body if node is not definition]
            if name in _identifiers(rest):
                continue
            unreached.append(f"{path.relative_to(ROOT)}:{definition.lineno} {name}")
    return unreached


def test_every_public_name_is_reached():
    unreached = _unreached()
    assert not unreached, (
        "public names only tests or package re-exports reach; delete them "
        "or give them a caller:\n  " + "\n  ".join(unreached)
    )


#: Classes whose public methods are held to the same rule: a method counts
#: as reached when an identifier names it outside its own definition.
CHECKED_CLASSES = {
    "scenarios/spec.py": ["ScenarioSpec", "ScenarioGrid"],
    "scenarios/runner.py": ["GridResult"],
    "experiments/cluster_scale.py": ["ClusterScaleResult", "TenantOutcome"],
    "experiments/figure4.py": ["Figure4Result"],
    "experiments/figure11.py": ["Figure11Result"],
    "experiments/figure12.py": ["Figure12Result"],
    "experiments/autoscale_policies.py": ["PolicyComparisonResult"],
    "utils/columns.py": ["ColumnStore"],
    "utils/stats.py": ["CdfSeries"],
    "network/flows.py": ["FlowTrace"],
    "workload/trace.py": ["TraceRecords", "Trace"],
    "workload/replay.py": ["RequestSamples", "ConcurrentReplayReport"],
}


def _unreached_methods() -> list[str]:
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for folder in (SRC, ROOT / "examples", ROOT / "bench")
        for path in sorted(folder.rglob("*.py"))
        if path.name != "__init__.py"
    }
    names = {path: _identifiers([tree]) for path, tree in trees.items()}
    unreached = []
    for relative, class_names in CHECKED_CLASSES.items():
        path = SRC / relative
        tree = trees[path]
        others = set().union(*(found for other, found in names.items() if other != path))
        classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
        for class_name in class_names:
            definition = classes[class_name]
            for method in definition.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if method.name.startswith("_") or method.name in others:
                    continue
                rest = [node for node in tree.body if node is not definition]
                rest += [node for node in definition.body if node is not method]
                if method.name not in _identifiers(rest):
                    unreached.append(
                        f"{path.relative_to(ROOT)}:{method.lineno} {class_name}.{method.name}"
                    )
    return unreached


def test_every_public_method_of_the_checked_classes_is_reached():
    unreached = _unreached_methods()
    assert not unreached, (
        "public methods only tests reach; delete them or give them a "
        "caller:\n  " + "\n  ".join(unreached)
    )


def test_exceptions_are_still_defined():
    defined = {
        definition.name
        for path in SRC.rglob("*.py")
        if path.name != "__init__.py"
        for definition in _public_definitions(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert set(UNREACHED_ON_PURPOSE) <= defined
