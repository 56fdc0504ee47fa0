"""Every name defined in `src/intmat` is read somewhere else in `src/`.

A top-level function, class or constant, or a non-dunder method, passes
when some `src/` module reads it (a bare name, or an attribute of that
name) outside its own definition. Imports are not reads, and neither are
tests: a name whose only reader is a test does not belong in the library.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "intmat"

ALLOWED = {
    "cli._Parser.error",  # argparse calls it on a usage error
    "sampling.STREAM_VERSION",  # the random stream's version tag
    # perfbench/tracing.py wraps these two through intmat.singularity and
    # intmat.mds, so they stay until the tracer reads run statistics instead
    "linalg.det_batch",
    "linalg.det_mod",
}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, defining node) of each checked name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                    yield f"{module}.{node.name}.{sub.name}", sub.name, sub
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield f"{module}.{target.id}", target.id, node


def _unread():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reads = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append(node)
    unread = []
    for module, tree in trees.items():
        for qualname, name, node in _definitions(module, tree):
            own = {id(n) for n in ast.walk(node)}
            if all(id(r) in own for r in reads.get(name, ())):
                unread.append(qualname)
    return unread


def test_every_src_name_is_read_in_src():
    unread = sorted(set(_unread()) - ALLOWED)
    assert not unread, unread


def test_the_allowlist_holds_only_unread_names():
    assert ALLOWED <= set(_unread())
