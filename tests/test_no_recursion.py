"""No function in the library calls itself: deep inputs (a 1500-state chain,
a horizon of thousands of steps) must not depend on the interpreter's
recursion limit, so every search runs on an explicit stack or queue."""
import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "symcret"


def self_calls(source: str) -> list[str]:
    """``name:line`` for every call of a function, nested ones and methods
    included, to itself by name (``f(...)``, or ``self.f(...)`` and
    ``cls.f(...)`` in a method)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name):
                callee = func.id
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                  and func.value.id in ("self", "cls")):
                callee = func.attr
            else:
                continue
            if callee == node.name:
                found.append(f"{node.name}:{call.lineno}")
    return found


def test_lint_sees_direct_nested_and_method_recursion():
    source = (
        "def fact(n):\n"
        "    return 1 if n < 2 else n * fact(n - 1)\n"
        "def outer(xs):\n"
        "    def walk(x):\n"
        "        return [walk(y) for y in x]\n"
        "    return walk(xs)\n"
        "class Tree:\n"
        "    def size(self):\n"
        "        return 1 + sum(c.size() for c in self.kids) + self.size()\n"
        "    def dumps(self):\n"
        "        return json.dumps(super().dumps())\n"
    )
    assert self_calls(source) == ["fact:2", "walk:5", "size:9"]


def test_library_has_no_recursive_function():
    modules = sorted(SOURCE.rglob("*.py"))
    assert modules
    offenders = {
        path.name: calls
        for path in modules
        if (calls := self_calls(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}
