"""No code that only its own tests reach, and one way to each thing:
- every top-level function and class of `src/csgnn`, and every method but
  the dunders, is referenced (as a name or an attribute) somewhere in
  `src/csgnn` outside its own definition;
- every top-level definition outside `verify.py` and `gradcheck.py` is
  reached from `cli.main`, but for the few listed below with their reasons:
  code that only the property suites run lives in `verify.py`;
- every function parameter is read by the function's body, but for the few
  listed below with their reasons;
- every name a module imports is read in that module;
- the package re-exports nothing: `import csgnn` loads no `csgnn.*` module,
  so each name is reached through the module that defines it."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "csgnn"


def _referenced(node) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _definitions(tree):
    """(qualified name, definition node) of the top-level functions and
    classes and of the classes' non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.endswith("__"):
                    yield f"{node.name}.{item.name}", item


def test_every_definition_has_a_caller_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((_referenced(tree) for tree in trees.values()), Counter())
    uncalled = [f"{module}:{qualname}"
                for module, tree in trees.items() if module != "__init__.py"
                for qualname, node in _definitions(tree)
                if everywhere[node.name] == _referenced(node)[node.name]]
    assert uncalled == []


# the modules that only `csgnn verify` runs: the property suites and the
# finite-difference gradient check
SUITE_MODULES = {"verify.py", "gradcheck.py"}

# (module, definition) outside SUITE_MODULES that only the suites reach, with
# the reason it is not in verify.py; each moves there with the next benchmark
# change, which rebinds perfbench's tracer
VERIFY_ONLY = {
    ("equivariant.py", "build_T"): "perfbench's tracer wraps it on csgnn.equivariant",
    ("equivariant.py", "jacobian_l1_probe_unchecked"):
        "perfbench's tracer wraps it on csgnn.equivariant",
    ("equivariant.py", "build_T_raw"): "build_T's body",
    ("equivariant.py", "operator_l1_norm"): "jacobian_l1_probe_unchecked's norm",
    ("equivariant.py", "vec"): "jacobian_l1_probe_unchecked's layout",
}


def _top_level(trees):
    """(module, top-level function or class) of the modules outside SUITE_MODULES."""
    for module, tree in trees.items():
        if module not in SUITE_MODULES:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    yield module, node


def unreached_definitions() -> dict:
    """(module, name) -> definition node of each top-level definition outside
    SUITE_MODULES that `cli.main` does not reach by name. A definition is
    reached when a reached body, or the module-level code of a module outside
    SUITE_MODULES, names it; a class's body, its methods included, counts as
    one. By name, so it over-approximates what runs."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    by_name = {}
    for module, node in _top_level(trees):
        by_name.setdefault(node.name, []).append(node)
    todo = ["main"] + [name for module, tree in trees.items() if module not in SUITE_MODULES
                       for node in tree.body if not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       for name in _referenced(node)]
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(ref for node in by_name.get(name, []) for ref in _referenced(node))
    return {(module, node.name): node for module, node in _top_level(trees)
            if node.name not in reached}


def test_the_commands_reach_every_definition_outside_the_suites():
    assert set(unreached_definitions()) == set(VERIFY_ONLY)


def verify_only_lines() -> int:
    """Lines of the VERIFY_ONLY definitions, decorators included."""
    return sum(node.end_lineno - min([node.lineno] + [d.lineno for d in node.decorator_list]) + 1
               for node in unreached_definitions().values())


# (module, function, parameter) that the function is handed but never reads
UNREAD_PARAMETERS = {
    # perfbench's training workload passes the graph positionally; the trace
    # holds every adjacency state. It goes with the next benchmark change.
    ("training.py", "backward", "g"),
    # perfbench's certify workload passes the node count positionally. It
    # goes with the next benchmark change.
    ("training.py", "init_params", "n"),
    # `select_checkpoint` calls every epoch step with the epoch number
    ("attacks.py", "train_gcn.epoch_step", "epoch"),
}


def _functions(node, prefix=""):
    """(qualified name, node) of every function and lambda under `node`,
    nested ones named after the functions around them."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = prefix + getattr(child, "name", "<lambda>")
            yield name, child
            yield from _functions(child, name + ".")
        else:
            yield from _functions(child, prefix + child.name + "." if isinstance(child, ast.ClassDef)
                                  else prefix)


def test_every_parameter_is_read():
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        for name, fn in _functions(ast.parse(path.read_text())):
            args = fn.args
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread |= {(path.name, name, arg.arg)
                       for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                   args.vararg, args.kwarg)
                       if arg is not None and arg.arg not in read}
    assert unread == UNREAD_PARAMETERS


def test_importing_the_package_loads_no_module():
    probe = ("import sys, csgnn; "
             "print(sorted(m for m in sys.modules if m.startswith('csgnn.')))")
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout == "[]\n"


def test_every_imported_name_is_read():
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Import)
                    or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                    for alias in node.names}
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread |= {(path.name, name) for name in imported - read}
    assert unread == set()
