"""Command-line interface.

Subcommands: group, h2, kers, 2reduced, extension, pin-sign, pin-cocycle,
form, trace, classify, verify, suite.  All output is JSON on stdout with
sorted keys, so identical inputs produce byte-identical bytes; --pretty
switches to an indented rendering (and a table for suite/verify).

Exit codes: 0 for pass or informational output, 1 when any verification
verdict is "fail", 2 for usage or input errors.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .clifford import involution_square_sign, pin_cap, pin_cocycle
from .cohomology import (
    H2_CAP,
    Cocycle2,
    extension_from_cocycle,
    h2,
    is_2_reduced,
    ker_s,
    s_map,
    two_lift_property,
)
from .galois import (
    EtaleAlg,
    MonicPoly,
    classify_2group_trace_form,
    trace_form,
)
from .groups import group_from_spec, regular_rep_in_alternating, sylow2
from .quadratic import (
    QForm,
    diagonalize,
    is_isometric_q,
    signature,
    validate_gram,
    w1,
    w2,
)
from .verify import (
    DEFAULT_SEED,
    STATEMENTS,
    jsonable,
    run_statement,
    run_suite,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# the order cap of the cohomology solver, checked before a table is built
_H2 = ("H2_CAP", H2_CAP)


def _emit(obj, pretty: bool) -> None:
    if pretty:
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _parse_entries(text: str) -> QForm:
    toks = [t.strip() for t in text.split(",") if t.strip()]
    if not toks:
        raise ValueError("empty form entry list")
    return QForm(tuple(Fraction(t) for t in toks))


def _parse_poly(text: str) -> MonicPoly:
    coeffs = [int(t.strip()) for t in text.split(",") if t.strip()]
    return MonicPoly(tuple(coeffs))


def _load_algebra(args) -> EtaleAlg:
    """Algebra from --poly (single field factor) or --algebra (JSON list
    of {poly, multiplicity}, inline or @file)."""
    if args.poly is not None:
        return EtaleAlg(((_parse_poly(args.poly), 1),))
    raw = args.algebra
    if raw.startswith("@"):
        with open(raw[1:], encoding="ascii") as fh:
            raw = fh.read()
    data = json.loads(raw)
    shape = "algebra JSON must be a list of {poly, multiplicity}"
    if not isinstance(data, list):
        raise ValueError(shape)
    factors = []
    for item in data:
        if not isinstance(item, dict) or not isinstance(item.get("poly"), list):
            raise ValueError(shape)
        coeffs = tuple(_json_int(c, "poly coefficient") for c in item["poly"])
        mult = _json_int(item.get("multiplicity", 1), "multiplicity")
        factors.append((MonicPoly(coeffs), mult))
    return EtaleAlg(tuple(factors))


def _json_int(x, what: str) -> int:
    """x as an integer: a JSON integer or decimal string, nothing else."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError(f"{what} must be an integer, got {json.dumps(x)}")
    return int(x)


def _load_gram(path: str) -> list[list[Fraction]]:
    with open(path, encoding="ascii") as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ValueError("Gram JSON must be a list of rows")
    m = [[Fraction(str(x)) for x in row] for row in data]
    validate_gram(m)
    return m


def _load_cocycle(G, spec: str) -> Cocycle2:
    n = G.order
    if spec == "zero":
        return Cocycle2.zero(G)
    if spec.startswith("basis:"):
        i = int(spec.split(":", 1)[1])
        basis = h2(G)
        if not 0 <= i < basis.dim:
            raise ValueError(
                f"basis index {i} out of range (dim H² = {basis.dim})")
        return basis.class_from_coords(1 << i).representative
    with open(spec, encoding="ascii") as fh:
        bits = "".join(fh.read().split())
    if len(bits) != n * n or set(bits) - {"0", "1"}:
        raise ValueError(
            f"cocycle file must hold exactly {n}x{n} ASCII bits")
    rows = []
    for g in range(n):
        row = 0
        for h in range(n):
            if bits[g * n + h] == "1":
                row |= 1 << h
        rows.append(row)
    return Cocycle2(G, tuple(rows))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_group(args) -> int:
    G = group_from_spec(args.group)
    S = sylow2(G)
    info = {
        "name": G.name or "anonymous",
        "order": G.order,
        "abelian": G.is_abelian(),
        "cyclic": any(G.element_order(g) == G.order for g in range(G.order)),
        "involutions": len(G.involutions()),
        "sylow2_order": S.order,
        "sylow2_cyclic": S.is_cyclic(),
        "regular_rep_alternating": regular_rep_in_alternating(G),
    }
    _emit(info, args.pretty)
    return EXIT_PASS


def _cmd_h2(args) -> int:
    G = group_from_spec(args.group, _H2)
    b = h2(G)
    _emit({"h2_dim": b.dim, "cocycle_dim": b.z2_dim,
           "coboundary_dim": b.b2_dim}, args.pretty)
    return EXIT_PASS


def _cmd_kers(args) -> int:
    G = group_from_spec(args.group, _H2)
    kernel = ker_s(G)
    b = h2(G)
    _emit({
        "h2_dim": b.dim,
        "kernel_dim": len(kernel),
        "kernel_coords": sorted(cl.coords for cl in kernel),
        "two_reduced": not kernel,
    }, args.pretty)
    return EXIT_PASS


def _cmd_2reduced(args) -> int:
    G = group_from_spec(args.group, _H2)
    _emit({"verdict": is_2_reduced(G)}, args.pretty)
    return EXIT_PASS


def _cmd_extension(args) -> int:
    G = group_from_spec(args.group, _H2)
    basis = h2(G)
    c = _load_cocycle(G, args.cocycle)
    E = extension_from_cocycle(G, c)
    _emit({
        "base_order": G.order,
        "total_order": E.total.order,
        "two_lift_property": two_lift_property(E),
        "class_is_coboundary": basis.is_coboundary(c),
        "class_coords": basis.coords(c),
        "s_diagonal": list(s_map(c)),
    }, args.pretty)
    return EXIT_PASS


def _cmd_pin_sign(args) -> int:
    print(json.dumps(involution_square_sign(args.n)))
    return EXIT_PASS


def _cmd_pin_cocycle(args) -> int:
    G = group_from_spec(args.group, pin_cap(args.involutions_only))
    res = pin_cocycle(G, involutions_only=args.involutions_only)
    out = {
        "order": G.order,
        "involutions_only": res.involutions_only,
        "diagonal_signs": {str(g): s for g, s in sorted(res.square_signs.items())},
        "s_vector": list(res.s_vector),
    }
    if res.cocycle is not None:
        n = G.order
        out["cocycle_bits"] = [
            format(res.cocycle.rows[g], f"0{n}b")[::-1] for g in range(n)]
        if n <= H2_CAP:
            out["coboundary"] = h2(G).is_coboundary(res.cocycle)
    _emit(out, args.pretty)
    return EXIT_PASS


def _form_report(q: QForm) -> dict:
    return {
        "rank": q.rank,
        "signature": list(signature(q)),
        "disc": w1(q),
        "w2_places": jsonable(w2(q)),
    }


def _cmd_form(args) -> int:
    if args.gram is not None:
        q = diagonalize(_load_gram(args.gram))
    else:
        q = _parse_entries(args.entries)
    out = _form_report(q)
    verdicts = {}
    if args.isometric_to:
        other = _parse_entries(args.isometric_to)
        verdicts["isometric"] = is_isometric_q(q, other)
    out["verdicts"] = verdicts
    _emit(out, args.pretty)
    return EXIT_PASS


def _cmd_trace(args) -> int:
    A = _load_algebra(args)
    q = trace_form(A)
    out = _form_report(q)
    out["degree"] = A.degree
    out["totally_real"] = signature(q) == (A.degree, 0)
    _emit(out, args.pretty)
    return EXIT_PASS


def _cmd_classify(args) -> int:
    A = _load_algebra(args)
    G = group_from_spec(args.group, _H2)
    r = classify_2group_trace_form(A, G)
    q = r["computed"]
    _emit({
        "w1": w1(q),
        "w2_places": jsonable(w2(q)),
        "signature": list(signature(q)),
        "case": r["case"],
        "predicted_form": jsonable(r["model"]),
        "verdict": r["isometric"],
    }, args.pretty)
    return EXIT_PASS if r["isometric"] else EXIT_FAIL


def _report_table(reports) -> str:
    lines = []
    for r in reports:
        lines.append(f"{r.statement:<22} {r.verdict}")
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    r = run_statement(args.statement, args.seed)
    if args.pretty:
        print(_report_table([r]))
        print(json.dumps(r.as_dict(include_runtime=args.timings),
                         sort_keys=True, indent=2))
    else:
        _emit(r.as_dict(include_runtime=args.timings), False)
    return EXIT_FAIL if r.verdict == "fail" else EXIT_PASS


def _cmd_suite(args) -> int:
    reports = run_suite(args.seed)
    if args.pretty:
        print(_report_table(reports))
        print(json.dumps([r.as_dict(include_runtime=args.timings)
                          for r in reports], sort_keys=True, indent=2))
    else:
        _emit([r.as_dict(include_runtime=args.timings) for r in reports],
              False)
    return EXIT_FAIL if any(r.verdict == "fail" for r in reports) else EXIT_PASS


# ---------------------------------------------------------------------------
# parser assembly


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

    def grouped(name, help_, handler):
        p = sub.add_parser(name, parents=[common], help=help_)
        p.add_argument("--group", required=True,
                       help="group spec: catalog:<name>[:param] or "
                            "perms:<cycles>")
        p.set_defaults(func=handler)
        return p

    grouped("group", "structural fingerprint of a group", _cmd_group)
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
                _cmd_pin_cocycle)
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
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", parents=[common],
                       help="run one verification statement")
    p.add_argument("--statement", required=True, choices=STATEMENTS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--timings", action="store_true",
                   help="include runtimes (output no longer byte-stable)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("suite", parents=[common],
                       help="run the full verification battery")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--timings", action="store_true",
                   help="include runtimes (output no longer byte-stable)")
    p.set_defaults(func=_cmd_suite)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:  # package errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
