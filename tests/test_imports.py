"""Package hygiene: modules use each other only through public names."""

import ast
from pathlib import Path

import orbitcodes

PACKAGE_DIR = Path(orbitcodes.__file__).resolve().parent


def test_no_private_cross_module_imports():
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}:{node.lineno} from {'.' * node.level}{node.module or ''} import {a.name}"
                    for a in node.names
                    if a.name.startswith("_")
                ]
    assert not offenders, "private names imported across modules:\n" + "\n".join(offenders)


def test_no_value_keyed_caches_in_the_code_layers():
    # a spec's block form lives on the spec and a code's decoder tables on
    # the code; a cache keyed by their value would hash them on every call
    offenders = []
    for name in ("analysis.py", "canonical.py", "decoder.py"):
        path = PACKAGE_DIR / name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}.get(type(node))
            if field and getattr(node, field) in ("lru_cache", "cache"):
                offenders.append(f"{name}:{node.lineno}")
    assert not offenders, "value-keyed caches:\n" + "\n".join(offenders)
