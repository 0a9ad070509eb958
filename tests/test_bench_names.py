"""Every ``homecyber`` name that the benchmark and the tools read still resolves.

``bench/`` and ``tools/`` call the package in two ways: ``from homecyber.X
import Y`` and ``module.attr`` on a module bound by ``from homecyber import X``.
A name deleted from ``src/`` would otherwise show only when the benchmark
fails, or when someone runs ``tools/output_digests.py``.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _scope_nodes(scope: ast.AST):
    """The nodes of one function or module body, not those of nested functions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _submodule(name: str) -> str | None:
    try:
        importlib.import_module(f"homecyber.{name}")
    except ModuleNotFoundError:
        return None
    return f"homecyber.{name}"


def _reads(scope: ast.AST, modules: dict[str, str]) -> list[tuple[str, str, int]]:
    """(module, name, line) for each homecyber name that ``scope`` reads.

    ``modules`` maps the local names of homecyber modules bound in enclosing
    scopes.  A name that the scope binds to something else (an argument, an
    assignment target) shadows the module there, as ``graph`` does in
    ``graph = self.scenario.graph``.
    """
    nodes = list(_scope_nodes(scope))
    modules, reads = dict(modules), []
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "homecyber":
            for alias in node.names:
                module = _submodule(alias.name) if node.module == "homecyber" else None
                if module:
                    modules[alias.asname or alias.name] = module
                else:
                    reads.append((node.module, alias.name, node.lineno))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                # ``import homecyber.X`` binds the package, ``import homecyber.X as m`` X
                if alias.name.split(".")[0] == "homecyber" and alias.asname:
                    modules[alias.asname] = alias.name
                elif alias.name.split(".")[0] == "homecyber":
                    modules["homecyber"] = "homecyber"
    bound = {node.id for node in nodes
             if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del))}
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        bound |= {arg.arg for arg in ast.walk(scope.args) if isinstance(arg, ast.arg)}
    for name in bound:
        modules.pop(name, None)
    for node in nodes:
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            reads.append((modules[node.value.id], node.attr, node.lineno))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            reads.extend(_reads(node, modules))
    return reads


def script_reads() -> list[tuple[str, str, str]]:
    """(``dir/file:line``, module, name) for every homecyber name that
    ``bench/*.py`` and ``tools/*.py`` read."""
    out = []
    for path in sorted([*ROOT.glob("bench/*.py"), *ROOT.glob("tools/*.py")]):
        for module, name, line in _reads(ast.parse(path.read_text()), {}):
            out.append((f"{path.parent.name}/{path.name}:{line}", module, name))
    return out


def test_every_name_the_bench_reads_resolves():
    reads = script_reads()
    # the loss laws, the exact oracles and the CLI entry point are among them,
    # and the command table and scenario loader that the digest tool reads
    for expected in (("homecyber.losses", "Lognormal"), ("homecyber.losses", "exact_line_mean"),
                     ("homecyber.losses", "limited_expected_value_of"),
                     ("homecyber.pricing", "premium"), ("homecyber.cli", "cli_dispatch"),
                     ("homecyber.cli", "COMMANDS"), ("homecyber.scenario", "load_scenario")):
        assert expected in {(module, name) for _, module, name in reads}
    assert any(where.startswith("tools/output_digests.py:") for where, _, _ in reads)
    missing = [f"{where}: {module}.{name}" for where, module, name in reads
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_shadowed_module_name_is_not_a_read():
    tree = ast.parse(
        "def check(self):\n"
        "    from homecyber import graph, losses\n"
        "    graph = self.scenario.graph\n"
        "    return graph.n, losses.exact_line_mean\n"
    )
    assert _reads(tree, {}) == [("homecyber.losses", "exact_line_mean", 4)]


def test_every_traced_layer_imports():
    # bench/tracer.py imports each module of its LAYERS tuple, so a merged or
    # deleted module breaks only the traced bench runs
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"])
    assert "losses" in layers and "reports" in layers
    for layer in layers:
        importlib.import_module(f"homecyber.{layer}")


@pytest.mark.parametrize("source, read", [
    ("from homecyber.losses import Gone", ("homecyber.losses", "Gone", 1)),
    ("def f():\n    from homecyber import pricing\n    return pricing.gone",
     ("homecyber.pricing", "gone", 3)),
    ("from homecyber import cli\ndef f():\n    return cli.gone", ("homecyber.cli", "gone", 3)),
])
def test_deleted_names_are_reads(source, read):
    assert read in _reads(ast.parse(source), {})
