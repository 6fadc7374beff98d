"""Every exception class in errors.py is raised in the library, or is a
base of one that is."""
import ast
import inspect
from pathlib import Path

from equicurve import errors


def _raised_names() -> set[str]:
    names = set()
    for path in Path(errors.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_class_is_raised_or_a_base_of_one():
    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass)
               if c.__module__ == errors.__name__]
    raised = _raised_names()
    live = [c for c in classes if c.__name__ in raised]
    unused = [c.__name__ for c in classes
              if not any(issubclass(r, c) for r in live)]
    assert unused == []
