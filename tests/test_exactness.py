"""No float arises in the package.  From ints and Fractions only true
division (`/` on two ints) makes a float, so the package has none: an
exact quotient is a `Fraction` or a floor division that divides exactly.
The public doors return `Fraction`s (`QForm.entries`, `validate_gram`)
or ints, so a caller's own `/` on them stays exact too."""
import ast
import pathlib

import traceforms

PKG = pathlib.Path(traceforms.__file__).parent


def test_package_has_no_true_division():
    found = []
    for path in sorted(PKG.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
