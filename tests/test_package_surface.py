import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def unused_top_level_names(root: pathlib.Path) -> list[str]:
    """module:name for each top-level function and class of src/sqvar that is
    named nowhere in src/sqvar outside its own definition, in tools/ or in the
    benchmark code of perfbench/ (its tests not counted)."""
    package = sorted((root / "src" / "sqvar").glob("*.py"))
    texts = {p: p.read_text(encoding="utf-8") for p in package}
    callers = [p.read_text(encoding="utf-8") for d in ("tools", "perfbench")
               for p in sorted((root / d).rglob("*.py")) if not p.name.startswith("test_")]
    unused = []
    for path, text in texts.items():
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            rest = "\n".join(lines[:start - 1] + lines[node.end_lineno:])
            corpus = [rest, *(t for p, t in texts.items() if p != path), *callers]
            if not any(re.search(rf"\b{node.name}\b", t) for t in corpus):
                unused.append(f"{path.stem}:{node.name}")
    return unused


def test_every_top_level_name_is_used_outside_tests():
    # what only tests call (the brute-force oracles) lives in tests/oracles.py
    assert unused_top_level_names(ROOT) == []
