"""Factoring happens where a value enters.  `square_class` factors a
value once into a square class, and whatever holds the value keeps its
class: a `QForm` its entries', a `FormClass` its disc's, a caller such
as a verify battery its own.  These tests read the package's source and
keep it that way: a function of `quadratic` that names one of the names
below must be one of the listed readers, only `square_class` and the
product of two classes build a class, only the cup evaluates a Hilbert
symbol, and no other module names the private square-class and cup
helpers or a form's held classes, so they reach a class only through
the public constructor and a form's invariants only through
`form_class`.  Outside input
has one door of each kind too: only `cli._read` opens a file, one
integer rule in the package root reads every integer (`galois._integer`
for coefficients and multiplicities), `perms.door` checks every
permutation given by its images, one quoting rule in the package root,
`_quote`, shows every refused value (an int past the digit limit by its
size, alike on every Python), and a form's bounds are checked only by
its two doors, `QForm` and `diagonalize`, which `cli` reaches without
naming a bound; a pin input's rank is compared with `CLIFFORD_RANK_CAP`
only by `clifford._door`; and only `cohomology` reads a 2-cochain's bits, so
only `Cocycle2.from_rows` and `Cocycle2.rows` know the bit order of
its text.  Every cap and budget of the package names itself in
a refusal, and a test expects that refusal with the cap's value.
"""
import ast
import collections
import importlib
import pathlib
import re

import traceforms

PKG = pathlib.Path(traceforms.__file__).parent

# name -> the only functions of quadratic that may name it
_READERS = {
    "factorint": {"square_class"},
    # the public door takes bare values; inside the module classes are held
    "cup": set(),
    # scale reads a's class, to multiply it into the classes q holds (a
    # form's or, as FormClass.scale, a class's); FormClass.repeat and
    # form_class the unit class, of an even count of copies and of rank 0
    "square_class": {"cup", "hilbert_symbol", "_classes", "__init__", "scale", "repeat",
                     "form_class"},
}
# name -> the only functions of quadratic that may call it
_BUILDERS = {"_SquareClass": {"square_class", "sqclass_mul"}}
_PRIVATE = {"_SquareClass", "_cup_at", "_cup_cached"}


def _tree(mod: str) -> ast.Module:
    return ast.parse((PKG / f"{mod}.py").read_text(encoding="utf-8"))


def _names_by_function(tree: ast.Module, calls: bool = False) -> dict:
    """name -> the top-level functions and methods (by name) whose
    bodies load it (with calls, call it); code outside any function
    counts as "<module>"."""
    out = collections.defaultdict(set)
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    owners = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            owners += [(m.name, m) for m in node.body if isinstance(m, funcs)]
            owners += [("<module>", s) for s in node.body if not isinstance(s, funcs)]
        else:
            owners.append((node.name if isinstance(node, funcs) else "<module>", node))
    for owner, node in owners:
        for n in ast.walk(node):
            if calls:
                n = n.func if isinstance(n, ast.Call) else None
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                out[n.id].add(owner)
    return out


def test_quadratic_names_each_door_only_from_its_readers():
    names = _names_by_function(_tree("quadratic"))
    assert {k: names.get(k, set()) for k in _READERS} == _READERS


def test_only_square_class_and_the_class_product_build_a_class():
    calls = _names_by_function(_tree("quadratic"), calls=True)
    assert {k: calls.get(k, set()) for k in _BUILDERS} == _BUILDERS


def test_only_the_cup_evaluates_a_hilbert_symbol():
    # hilbert_symbol evaluated the closed form itself, at its one place;
    # it reads the cup of its two classes, as a form's class does
    assert _names_by_function(_tree("quadratic")).get("_hilbert") == {"_cup_at"}


def test_only_cli_read_opens_a_file():
    # every input file is read by one bounded reader
    openers = {(path.stem, f) for path in sorted(PKG.glob("*.py"))
               for f in _names_by_function(_tree(path.stem), calls=True).get("open", ())}
    assert openers == {("cli", "_read")}


def test_galois_reads_every_integer_through_one_function():
    # the package's integer rule, no longer the rational reader
    names = _names_by_function(_tree("galois"))
    assert names.get("_as_int") == {"_integer"} and "_rational" not in names


def test_no_other_module_names_the_square_class_helpers():
    found = []
    for path in sorted(PKG.glob("*.py")):
        if path.stem == "quadratic":
            continue
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            named = {getattr(n, "id", None), getattr(n, "attr", None)}
            if isinstance(n, ast.ImportFrom):
                named |= {a.name for a in n.names}
            found += [f"{path.name}:{n.lineno} {x}" for x in named & _PRIVATE]
    assert found == []


# name -> the only functions of quadratic that may name it; no other
# module may name it at all
_FORM_BOUNDS = {
    "GRAM_RANK_CAP": {"__init__", "diagonalize"},
    "GRAM_BITS_CAP": {"diagonalize"},
    "validate_gram": {"diagonalize"},
}


def _named(tree: ast.AST) -> set:
    """The names and attribute names tree mentions."""
    return {x for n in ast.walk(tree)
            for x in (getattr(n, "id", None), getattr(n, "attr", None))}


# a form's held square classes: its invariants leave it only through
# form_class, so the package reads no w1 or w2 beside the class
_HELD = {"_classes", "_disc_class", "_held"}


def test_no_other_module_names_a_forms_held_classes():
    others = {path.stem: sorted(_named(_tree(path.stem)) & _HELD)
              for path in sorted(PKG.glob("*.py")) if path.stem != "quadratic"}
    assert {k: v for k, v in others.items() if v} == {}


def test_only_the_form_doors_check_a_forms_bounds():
    names = _names_by_function(_tree("quadratic"))
    assert {k: names.get(k, set()) for k in _FORM_BOUNDS} == _FORM_BOUNDS
    others = {path.stem: sorted(_named(_tree(path.stem)) & set(_FORM_BOUNDS))
              for path in sorted(PKG.glob("*.py")) if path.stem != "quadratic"}
    assert {k: v for k, v in others.items() if v} == {}


def test_only_the_pin_door_compares_a_rank_with_the_rank_cap():
    # pin_lift, pin_product_sign, involution_square_sign and pin_cocycle
    # in both modes are bounded by the one comparison in clifford._door
    owners = {(path.stem, f.name) for path in sorted(PKG.glob("*.py"))
              for f in ast.walk(_tree(path.stem)) if isinstance(f, ast.FunctionDef)
              for c in ast.walk(f)
              if isinstance(c, ast.Compare) and "CLIFFORD_RANK_CAP" in _named(c)}
    assert owners == {("clifford", "_door")}


def _strings(tree: ast.AST) -> list:
    """The string literals of tree but its bare string statements (the
    docstrings), an f-string as its source text: f"X = {m.X}" as written."""
    bare = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Expr)}
    return [ast.unparse(n) if isinstance(n, ast.JoinedStr) else n.value
            for n in ast.walk(tree) if id(n) not in bare
            and (isinstance(n, ast.JoinedStr)
                 or isinstance(n, ast.Constant) and isinstance(n.value, str))]


def _caps() -> dict:
    """Every module-level *_CAP and *_BUDGET constant: name -> value."""
    caps = {}
    for path in sorted(PKG.glob("*.py")):
        for node in _tree(path.stem).body:
            for target in node.targets if isinstance(node, ast.Assign) else ():
                name = getattr(target, "id", "")
                if re.fullmatch(r"[A-Z0-9_]+_(CAP|BUDGET)", name):
                    module = importlib.import_module(f"traceforms.{path.stem}")
                    caps[name] = getattr(module, name)
    return caps


def test_every_cap_is_named_in_a_refusal_and_expected_by_a_test():
    # a cap that trips must name itself and its value (a message, or the
    # (name, value) pair a verb's cap hands to group_from_spec), and a
    # test must expect that text
    caps = _caps()
    assert len(caps) >= 12, sorted(caps)
    package = [t for path in sorted(PKG.glob("*.py"))
               for t in _strings(_tree(path.stem))]
    tests = [t for path in sorted(pathlib.Path(__file__).parent.glob("*.py"))
             for t in _strings(ast.parse(path.read_text(encoding="utf-8")))]
    unnamed, untested = [], []
    for name, value in caps.items():
        word = rf"(?<![A-Za-z0-9_]){name}"
        if not any(re.search(rf"{word}(?![A-Za-z0-9_])", t) for t in package):
            unnamed.append(name)
        expected = rf"{word} = ({value}(?!\d)|\{{(\w+\.)?{name}\}})"
        if not any(re.search(expected, t) for t in tests):
            untested.append(name)
    assert (unnamed, untested) == ([], [])


# ROADMAP item 16: the modules whose outside text holds integers (catalog
# parameters, cycle points, the basis:<i> index, --n and --seed)
_INTEGER_TEXT = ("perms", "groups", "cli", "verify")


def test_no_integer_text_is_read_by_int():
    # int() read "1_0" as 10 and "٣" as 3, as did argparse's type=int.
    # int(bits, 2) of a cocycle file's checked 0/1 characters reads a bit
    # string, so only a one-argument int() or int handed over is counted
    found = []
    for mod in _INTEGER_TEXT:
        for n in ast.walk(_tree(mod)):
            if (isinstance(n, ast.Call) and getattr(n.func, "id", None) == "int"
                    and len(n.args) + len(n.keywords) == 1):
                found.append(f"{mod}:{n.lineno} int()")
            if isinstance(n, ast.Call) and getattr(n.func, "id", None) != "isinstance":
                handed = n.args + [k.value for k in n.keywords]
                found += [f"{mod}:{n.lineno} int handed over" for a in handed
                          if isinstance(a, ast.Name) and a.id == "int"]
    assert found == []


def _owners(pred) -> set:
    """(module, function) of every top-level function or method of the
    package, root included, with a node for which pred holds."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = set()
    for path in sorted(PKG.glob("*.py")):
        for f in ast.walk(_tree(path.stem)):
            if isinstance(f, funcs) and any(pred(n) for n in ast.walk(f)):
                out.add((path.stem, f.name))
    return out


def test_the_integer_rule_has_one_implementation():
    # integer text is recognised, and a value's type tested as int or
    # bool, only in the package root; every layer calls _as_int or _ints
    def reads_digits(n):
        return isinstance(n, ast.Attribute) and n.attr in ("isdigit", "isdecimal", "isnumeric")

    def tests_int_or_bool_type(n):
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "isinstance":
            return bool({"int", "bool"} & _named(n.args[1]))
        return isinstance(n, ast.Compare) and "type" in _named(n) and "int" in _named(n)

    assert _owners(reads_digits) == {("__init__", "_as_int")}
    assert _owners(tests_int_or_bool_type) == {
        ("__init__", "_ints"), ("verify", "jsonable")}  # jsonable renders output
    defined = {(path.stem, f.name) for path in sorted(PKG.glob("*.py"))
               for f in ast.walk(_tree(path.stem))
               if isinstance(f, ast.FunctionDef) and f.name in ("_as_int", "_ints")}
    assert defined == {("__init__", "_as_int"), ("__init__", "_ints")}
    users = {path.stem for path in sorted(PKG.glob("*.py")) if path.stem != "__init__"
             and {"_as_int", "_ints"} & _named(_tree(path.stem))}
    assert users == {"perms", "groups", "cohomology", "clifford", "quadratic", "galois",
                     "cli", "verify"}


def test_the_quoting_rule_has_one_implementation():
    # eight layers each imported reprlib, whose text for an int past the
    # digit limit was Python's own ValueError on 3.10-3.12 and an address
    # on 3.13; every layer now quotes a refused value by the root's _quote
    def names_reprlib(tree):
        imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                    for a in n.names}
        imported |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
        return "reprlib" in imported | _named(tree)

    def defines_quote(n):
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
            return n.name == "_quote"
        return isinstance(n, ast.Name) and n.id == "_quote" and isinstance(n.ctx, ast.Store)

    modules = sorted(PKG.glob("*.py"))
    assert {path.stem for path in modules if names_reprlib(_tree(path.stem))} == {"__init__"}
    assert [path.stem for path in modules for n in ast.walk(_tree(path.stem))
            if defines_quote(n)] == ["__init__"]
    users = {path.stem for path in modules if path.stem != "__init__"
             and "_quote" in _named(_tree(path.stem))}
    assert users == {"perms", "groups", "cohomology", "clifford", "quadratic", "galois",
                     "cli", "verify"}


def test_only_the_permutation_door_checks_a_permutation():
    # closure and the pin layer each had their own loop over images;
    # from_cycles refuses a repeated point, so it builds a permutation
    def names_is_perm(n):
        return getattr(n, "attr", None) == "is_perm" or getattr(n, "id", None) == "is_perm"

    def calls_the_door(n):
        return isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "door"

    assert _owners(names_is_perm) == {("perms", "door")}
    assert {o for o in _owners(calls_the_door) if o[0] != "perms"} == {
        ("groups", "closure"), ("clifford", "_door")}


def test_only_cohomology_reads_or_writes_a_cochains_bits():
    # cli worked out the row-major bit order itself, twice: int(text, 2)
    # of a --cocycle file and format(bits, "0…b") of pin-cocycle's rows
    readers = {path.stem for path in sorted(PKG.glob("*.py"))
               for n in ast.walk(_tree(path.stem))
               if isinstance(n, ast.Attribute) and n.attr == "bits"
               and isinstance(n.ctx, ast.Load)}
    assert readers == {"cohomology"}

    def bit_text(n):
        if not isinstance(n, ast.Call):
            return False
        name = getattr(n.func, "id", None)
        if name == "int":
            return len(n.args) + len(n.keywords) == 2
        return (name == "format" and len(n.args) == 2
                and ast.unparse(n.args[1]).strip("'\"").endswith("b"))

    assert {f for mod, f in _owners(bit_text) if mod == "cli"} == set()


def test_no_verdict_reads_a_hand_model():
    # classify decided the theorem by form_class(model) == form_class(q),
    # a second route beside thm-main's two checks, and never checked w1;
    # the model form is only printed, so its entries are never factored
    assert _owners(lambda n: isinstance(n, ast.Call)
                   and "predicted_2group_form" in _named(n.func)) == {
        ("galois", "classify_2group_trace_form")}
    applied = []
    for path in sorted(PKG.glob("*.py")):
        tree = _tree(path.stem)
        # the names bound to the model's result, and its "model" key
        held = {t.id for n in ast.walk(tree) if isinstance(n, ast.Assign)
                and "predicted_2group_form" in _named(n.value)
                for target in n.targets for t in ast.walk(target) if isinstance(t, ast.Name)}
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and "form_class" in _named(n.func):
                args = ast.Tuple(n.args + [k.value for k in n.keywords])
                if (_named(args) & (held | {"predicted_2group_form"})
                        or any(isinstance(s, ast.Constant) and s.value == "model"
                               for s in ast.walk(args))):
                    applied.append(f"{path.name}:{n.lineno}")
    assert applied == []
