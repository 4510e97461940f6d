"""No code that only its own tests reach, and one way to each thing:
- every top-level function and class of `src/csgnn`, and every method but
  the dunders, is referenced (as a name or an attribute) somewhere in
  `src/csgnn` outside its own definition;
- every function parameter is read by the function's body, but for the few
  listed below with their reasons;
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
