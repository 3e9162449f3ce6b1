"""The package's public surface: `__all__` matches what `__init__` imports."""

import ast
import inspect

import youbounds


def test_all_names_resolve_once():
    assert len(youbounds.__all__) == len(set(youbounds.__all__))
    for name in youbounds.__all__:
        assert hasattr(youbounds, name), name


def test_all_lists_every_public_import():
    tree = ast.parse(inspect.getsource(youbounds))
    imported = {alias.asname or alias.name
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    public = {name for name in imported if not name.startswith("_")}
    assert public
    assert public - set(youbounds.__all__) == set()
