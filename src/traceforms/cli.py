"""Command-line interface.

Subcommands: group, h2, kers, 2reduced, extension, pin-sign, pin-cocycle,
form, trace, classify, verify, suite.  All output is JSON on stdout with
sorted keys, so identical inputs produce byte-identical bytes; --pretty
switches to an indented rendering (and a table for suite/verify).

A handler gets the parsed arguments and what `main` loaded: the algebra of
a verb with --poly/--algebra, the group under the `cap` a verb declares.  It
returns (payload, passed) for `main` to print, printing only the --pretty
table of verify/suite.  Exit: 0 pass or info, 1 failing verdict, 2 bad input.

The layers are reached only as module attributes (``cohomology.h2(G)``),
read when a verb runs: the package loads each layer on first use, so a
command runs only the layers its verb needs.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

from . import clifford, cohomology, galois, groups, quadratic, verify

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _emit(obj, pretty: bool) -> None:
    if pretty:
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _fraction(text: str):
    """text as a Fraction.  Its decimal exponent is held to the digit
    limit that int() applies to --poly coefficients and JSON integers:
    1e100000 would be a 100,001-digit entry for factorint.  Only the
    verbs that read a rational import fractions (and with it decimal)."""
    from fractions import Fraction

    limit = sys.int_info.default_max_str_digits
    exp = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", text)
    if exp and abs(int(exp[1])) > limit:
        raise ValueError(f"decimal exponent in {text!r} exceeds "
                         f"sys.int_info.default_max_str_digits = {limit}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_entries(text: str) -> quadratic.QForm:
    toks = [t.strip() for t in text.split(",") if t.strip()]
    if not toks:
        raise ValueError("empty form entry list")
    return quadratic.QForm(tuple(_fraction(t) for t in toks))


def _parse_poly(text: str) -> galois.MonicPoly:
    coeffs = [int(t.strip()) for t in text.split(",") if t.strip()]
    return galois.MonicPoly(tuple(coeffs))


def _read_json(source: str, **kwargs):
    """The JSON value in source, or in the file it names after an "@".
    Nesting too deep for the decoder is malformed JSON, a ValueError."""
    if source.startswith("@"):
        with open(source[1:], encoding="ascii") as fh:
            source = fh.read()
    try:
        return json.loads(source, **kwargs)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _load_algebra(args) -> galois.EtaleAlg:
    """Algebra from --poly (single field factor) or --algebra (JSON list
    of {poly, multiplicity}, inline or @file)."""
    if args.poly is not None:
        return galois.EtaleAlg(((_parse_poly(args.poly), 1),))
    data = _read_json(args.algebra)
    shape = "algebra JSON must be a list of {poly, multiplicity}"
    if not isinstance(data, list):
        raise ValueError(shape)
    factors = []
    for item in data:
        if not isinstance(item, dict) or not isinstance(item.get("poly"), list):
            raise ValueError(shape)
        coeffs = tuple(_json_int(c, "poly coefficient") for c in item["poly"])
        mult = _json_int(item.get("multiplicity", 1), "multiplicity")
        factors.append((galois.MonicPoly(coeffs), mult))
    return galois.EtaleAlg(tuple(factors))


def _json_int(x, what: str) -> int:
    """x as an integer: a JSON integer or decimal string, nothing else."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError(f"{what} must be an integer, got {json.dumps(x)}")
    return int(x)


def _load_gram(path: str) -> list[list]:
    """The matrix in the JSON file, refused above GRAM_RANK_CAP, or when its
    rank times its entry bits exceeds GRAM_BITS_CAP.  Its entry bits are
    the largest numerator's plus den's less one, den the lcm of the
    denominators: an integer matrix's are its largest entry's."""
    # a JSON number with a fraction or exponent stays text, so _fraction
    # reads it exactly, with its exponent bound, and never as a float
    data = _read_json("@" + path, parse_float=str)
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ValueError("Gram JSON must be a list of rows")
    n = max([len(data), *map(len, data)])
    if n > quadratic.GRAM_RANK_CAP:
        raise ValueError(f"Gram rank {n} exceeds GRAM_RANK_CAP = {quadratic.GRAM_RANK_CAP}")
    rows = [[_fraction(str(x)) for x in row] for row in data]
    entries = [x for row in rows for x in row]
    num_bits = max((abs(x.numerator).bit_length() for x in entries), default=0)
    den = 1
    for x in entries:
        den = math.lcm(den, x.denominator)
        bits = num_bits + den.bit_length() - 1
        if n * bits > quadratic.GRAM_BITS_CAP:  # den only grows: stop at once
            raise ValueError(f"Gram rank {n} x {bits} entry bits exceeds "
                             f"GRAM_BITS_CAP = {quadratic.GRAM_BITS_CAP}")
    return rows


def _load_cocycle(G, spec: str) -> cohomology.Cocycle2:
    n = G.order
    if spec == "zero":
        return cohomology.Cocycle2.zero(G)
    if spec.startswith("basis:"):
        i = int(spec.split(":", 1)[1])
        basis = cohomology.h2(G)
        if not 0 <= i < basis.dim:
            raise ValueError(
                f"basis index {i} out of range (dim H² = {basis.dim})")
        return basis.class_from_coords(1 << i).representative
    with open(spec, encoding="ascii") as fh:
        bits = "".join(fh.read().split())
    if len(bits) != n * n or set(bits) - {"0", "1"}:
        raise ValueError(
            f"cocycle file must hold exactly {n}x{n} ASCII bits")
    return cohomology.Cocycle2(G, int(bits[::-1], 2))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_group(args, G):
    S = groups.sylow2(G)
    return {
        "name": G.name or "anonymous",
        "order": G.order,
        "abelian": G.is_abelian(),
        "cyclic": G.full_handle().is_cyclic(),
        "involutions": len(G.involutions()),
        "sylow2_order": S.order,
        "sylow2_cyclic": S.is_cyclic(),
        "regular_rep_alternating": groups.regular_rep_in_alternating(G),
    }, True


def _cmd_h2(args, G):
    b = cohomology.h2(G)
    return {"h2_dim": b.dim, "cocycle_dim": b.z2_dim,
            "coboundary_dim": b.b2_dim}, True


def _cmd_kers(args, G):
    kernel = cohomology.ker_s(G)
    return {
        "h2_dim": cohomology.h2(G).dim,
        "kernel_dim": len(kernel),
        "kernel_coords": sorted(cl.coords for cl in kernel),
        "two_reduced": not kernel,
    }, True


def _cmd_2reduced(args, G):
    return {"verdict": cohomology.is_2_reduced(G)}, True


def _cmd_extension(args, G):
    basis = cohomology.h2(G)
    c = _load_cocycle(G, args.cocycle)
    E = cohomology.extension_from_cocycle(G, c)
    return {
        "base_order": G.order,
        "total_order": E.total.order,
        "two_lift_property": cohomology.two_lift_property(E),
        "class_is_coboundary": basis.is_coboundary(c),
        "class_coords": basis.coords(c),
        "s_diagonal": list(cohomology.s_map(c)),
    }, True


def _cmd_pin_sign(args):
    return clifford.involution_square_sign(args.n), True


def _cmd_pin_cocycle(args, G):
    res = clifford.pin_cocycle(G, involutions_only=args.involutions_only)
    out = {
        "order": G.order,
        "involutions_only": res.involutions_only,
        "diagonal_signs": {str(g): s for g, s in sorted(res.square_signs.items())},
        "s_vector": list(res.s_vector),
    }
    if res.cocycle is not None:
        n = G.order
        flat = format(res.cocycle.bits, f"0{n * n}b")[::-1]
        out["cocycle_bits"] = [flat[g * n:(g + 1) * n] for g in range(n)]
        out["coboundary"] = cohomology.h2(G).is_coboundary(res.cocycle)
    return out, True


def _places(q: quadratic.QForm) -> list:
    """The places of w2(q), primes ascending and then inf."""
    return sorted(quadratic.w2(q), key=quadratic.place_sort_key)


def _form_report(q: quadratic.QForm) -> dict:
    return {
        "rank": q.rank,
        "signature": list(quadratic.signature(q)),
        "disc": quadratic.w1(q),
        "w2_places": _places(q),
    }


def _cmd_form(args):
    if args.gram is not None:
        q = quadratic.diagonalize(_load_gram(args.gram))
    else:
        q = _parse_entries(args.entries)
    out = dict(_form_report(q), verdicts={})
    if args.isometric_to:
        other = _parse_entries(args.isometric_to)
        out["verdicts"]["isometric"] = quadratic.is_isometric_q(q, other)
    return out, True


def _cmd_trace(args, A):
    q = galois.trace_form(A)
    return dict(_form_report(q), degree=A.degree,
                totally_real=quadratic.signature(q) == (A.degree, 0)), True


def _cmd_classify(args, A, G):
    r = galois.classify_2group_trace_form(A, G)
    q = r["computed"]
    return {
        "w1": quadratic.w1(q),
        "w2_places": _places(q),
        "signature": list(quadratic.signature(q)),
        "case": r["case"],
        "predicted_form": [str(a) for a in r["model"].entries],
        "verdict": r["isometric"],
    }, r["isometric"]


def _cmd_reports(args):
    """`verify` returns one report, `suite` the list of all of them."""
    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    if args.command == "suite":
        reports = verify.run_suite(seed)
        payload = [r.as_dict(include_runtime=args.timings) for r in reports]
    else:
        reports = [verify.run_statement(args.statement, seed)]
        payload = reports[0].as_dict(include_runtime=args.timings)
    if args.pretty:
        print("\n".join(f"{r.statement:<22} {r.verdict}" for r in reports))
    return payload, all(r.verdict != "fail" for r in reports)


# ---------------------------------------------------------------------------
# parser assembly: it reads nothing from the layers


def _h2_cap(args):
    """The order cap of the cohomology solver, checked before a table is built."""
    return "H2_CAP", cohomology.H2_CAP


class _VerifyHelp(argparse.Action):
    """-h/--help of `verify`: shows the statement names as the choices of
    --statement, read from verify only when the help is printed."""

    def __init__(self, option_strings, dest, statement):
        super().__init__(option_strings, dest, nargs=0, default=argparse.SUPPRESS,
                         help="show this help message and exit")
        self.statement = statement

    def __call__(self, parser, namespace, values, option_string=None):
        shown = self.statement.metavar
        self.statement.metavar = "{%s}" % ",".join(verify.STATEMENTS)
        try:
            parser.print_help()
        finally:  # the parser is reused: later usage lines stay as built
            self.statement.metavar = shown
        parser.exit()


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first `main` call.
    parse_args keeps no state between calls, and the handlers look up
    library functions at call time, so rebinding those takes effect."""
    top = argparse.ArgumentParser(
        prog="traceforms",
        description="Exact computation of mod-2 group-cohomology "
                    "obstructions and trace-form invariants over Q.")
    sub = top.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true",
                        help="indented output (tables for verify/suite)")

    def grouped(name, help_, handler, cap=_h2_cap):
        p = sub.add_parser(name, parents=[common], help=help_)
        p.add_argument("--group", required=True,
                       help="group spec: catalog:<name>[:param] or "
                            "perms:<cycles>")
        p.set_defaults(func=handler, cap=cap)
        return p

    grouped("group", "structural fingerprint of a group", _cmd_group,
            lambda args: ("CLOSURE_CAP", groups.CLOSURE_CAP))
    grouped("h2", "dimension data of degree-2 mod-2 cohomology", _cmd_h2)
    grouped("kers", "kernel of the involution-diagonal map on H²", _cmd_kers)
    grouped("2reduced", "whether the kernel of the diagonal map vanishes",
            _cmd_2reduced)

    p = grouped("extension",
                "build the central extension of a 2-cocycle and test "
                "involution lifting", _cmd_extension)
    p.add_argument("--cocycle", required=True,
                   help="'zero', 'basis:<i>', or a file of |G|² ASCII bits "
                        "(row-major)")

    p = sub.add_parser("pin-sign", parents=[common],
                       help="sign of the square of the pin lift of a "
                            "fixed-point-free involution")
    p.add_argument("--n", type=int, required=True, help="even degree ≤ 24")
    p.set_defaults(func=_cmd_pin_sign)

    p = grouped("pin-cocycle",
                "sign cocycle of the pin lifts of left translations",
                _cmd_pin_cocycle, lambda args: clifford.pin_cap(args.involutions_only))
    p.add_argument("--involutions-only", action="store_true",
                   help="only the diagonal signs at involutions (order ≤ 24)")

    p = sub.add_parser("form", parents=[common],
                       help="invariants of a diagonal form or a Gram matrix")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--entries", help="comma-separated nonzero rationals")
    src.add_argument("--gram", help="path to a JSON matrix of rational strings")
    p.add_argument("--isometric-to",
                   help="second diagonal form; adds an isometry verdict")
    p.set_defaults(func=_cmd_form)

    algebra = argparse.ArgumentParser(add_help=False)
    src = algebra.add_mutually_exclusive_group(required=True)
    src.add_argument("--poly", help="monic integer coefficients, leading first")
    src.add_argument("--algebra",
                     help="JSON list of {poly, multiplicity} (or @file)")

    p = sub.add_parser("trace", parents=[common, algebra],
                       help="trace-form invariants of an étale algebra")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("classify", parents=[common, algebra],
                       help="match a 2-group trace form against the four "
                            "model shapes")
    p.add_argument("--group", required=True, help="acting group spec")
    p.set_defaults(func=_cmd_classify, cap=_h2_cap)

    # --statement comes first so that `verify --help` lists it before --seed;
    # an unknown name is refused by run_statement, with the list (exit 2)
    statement = argparse.ArgumentParser(add_help=False)
    listed = statement.add_argument("--statement", required=True, metavar="NAME")
    helped = argparse.ArgumentParser(add_help=False)
    helped.add_argument("-h", "--help", action=_VerifyHelp, statement=listed)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int)
    seeded.add_argument("--timings", action="store_true",
                        help="include runtimes (output no longer byte-stable)")

    p = sub.add_parser("verify", parents=[helped, common, statement, seeded],
                       help="run one verification statement", add_help=False)
    p.set_defaults(func=_cmd_reports)

    p = sub.add_parser("suite", parents=[common, seeded],
                       help="run the full verification battery")
    p.set_defaults(func=_cmd_reports)

    return top


def main(argv=None) -> int:
    """Run one verb (see the module docstring); returns the exit code."""
    args = _build_parser().parse_args(argv)
    try:
        inputs = [_load_algebra(args)] if "poly" in args else []
        if "cap" in args:
            inputs.append(groups.group_from_spec(args.group, args.cap(args)))
        payload, passed = args.func(args, *inputs)
        _emit(payload, args.pretty)
    except (ValueError, OSError) as exc:  # package errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_PASS if passed else EXIT_FAIL
