"""Every numeric tolerance of the package is defined in `gdneg.tolerances`."""

import ast
from pathlib import Path

import gdneg

SRC = Path(gdneg.__file__).parent


def test_no_tolerance_literal_outside_the_table():
    # A float literal this small is a tolerance; docstrings may cite values.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, (float, complex))
                and 0 < abs(node.value) < 1e-6
            ):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not found, found
