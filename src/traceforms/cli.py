"""Command-line interface.

Subcommands: group, h2, kers, 2reduced, extension, pin-sign, pin-cocycle,
form, trace, classify, verify, suite.  All output is JSON on stdout with
sorted keys, so identical inputs produce byte-identical bytes; --pretty
switches to an indented rendering (and a table for suite/verify).

Each verb is one row of `_VERBS`: its help line, its options, the inputs
`main` loads for it (an algebra, a group under a cap read by name) and its
handler, which gets the parsed arguments and those inputs and returns
(payload, passed) for `main` to print, printing only the --pretty table of
verify/suite.  A command builds only its own verb's parser.  Exit: 0 pass
or info, 1 failing verdict, 2 bad input, 141 stdout closed early.
A file is read by `_read` and a comma list split by `_fields`; --n and
--seed are read by `_integer`, the package's integer rule, and every other
value goes unconverted to the library door that bounds and reads it exactly.

The layers are reached only as module attributes (``cohomology.h2(G)``),
read when a verb runs: the package loads each layer on first use, so a
command runs only the layers its verb needs.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import _as_int, _quote, clifford, cohomology, galois, groups, quadratic, verify

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a command killed by it


INPUT_BYTES_CAP = 1 << 20  # 3x a pretty-printed rank-128 Gram of 16-bit entries


def _read(path: str) -> str:
    """The ASCII file at path, refused past INPUT_BYTES_CAP bytes.  A file
    that cannot be opened is refused with its path shortened."""
    try:
        fh = open(path, encoding="ascii")
    except OSError as exc:
        raise OSError(exc.errno, f"{exc.strerror}: {_quote(path)}") from None
    with fh:
        text = fh.read(INPUT_BYTES_CAP + 1)
    if len(text) > INPUT_BYTES_CAP:
        raise ValueError(f"{path} exceeds INPUT_BYTES_CAP = {INPUT_BYTES_CAP} bytes")
    return text


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose refusals shorten what they quote of the
    command line, such as a refused int value; `main` sets `argv` first."""
    argv: list[str] = []

    def error(self, message):
        # argparse quotes a token, or what follows its '=' or its -h flags
        # (-hhx reads as -h -h -x), as typed or by repr; longest first
        quoted = {t for a in self.argv for t in (a, a.partition("=")[2], a.lstrip("-h"))}
        for text in sorted(quoted, key=len, reverse=True):
            short = _quote(text)
            if short != repr(text):
                message = message.replace(repr(text), short).replace(text, short)
        super().error(message)


def _integer(text: str) -> int:
    """An --n or --seed value, read by the package's integer rule."""
    try:
        return _as_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _fields(text: str) -> list[str]:
    """The comma-separated fields of text, stripped, none of them empty."""
    fields = [t.strip() for t in text.split(",")]
    if not all(fields):
        raise ValueError(f"empty field in {_quote(text)}")
    return fields


def _read_json(source: str, **kwargs):
    """The JSON value in source, or in the file it names after an "@".
    Nesting too deep for the decoder is malformed JSON, a ValueError.  An
    integer stays text, which the library door reads and bounds."""
    if source.startswith("@"):
        source = _read(source[1:])
    try:
        return json.loads(source, parse_int=str, **kwargs)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _load_algebra(args) -> galois.EtaleAlg:
    """Algebra from --poly (single field factor) or --algebra (JSON list
    of {poly, multiplicity}, inline or @file)."""
    if args.poly is not None:
        return galois.EtaleAlg([(_fields(args.poly), 1)])
    data = _read_json(args.algebra)
    if not isinstance(data, list) or not all(
            isinstance(item, dict) and isinstance(item.get("poly"), list) for item in data):
        raise ValueError("algebra JSON must be a list of {poly, multiplicity}")
    return galois.EtaleAlg([(item["poly"], item.get("multiplicity", 1)) for item in data])


def _load_cocycle(G, spec: str) -> cohomology.Cocycle2:
    if spec == "zero":
        return cohomology.Cocycle2(G, 0)
    if spec.startswith("basis:"):
        try:
            i = _as_int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"malformed cocycle spec {_quote(spec)}") from None
        basis = cohomology.h2(G)
        if not 0 <= i < basis.dim:
            raise ValueError(f"basis index {_quote(i)} out of range (dim H² = {basis.dim})")
        return basis.representative(1 << i)
    return cohomology.Cocycle2.from_rows(G, _read(spec))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_group(args, G):
    S = groups.sylow2(G)
    return {
        "name": G.name or "anonymous",
        "order": G.order,
        "abelian": G.is_abelian(),
        "cyclic": G.is_cyclic(),
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
        "kernel_coords": sorted(kernel),
        "two_reduced": not kernel,
    }, True


def _cmd_2reduced(args, G):
    return {"verdict": cohomology.is_2_reduced(G)}, True


def _cmd_extension(args, G):
    c = _load_cocycle(G, args.cocycle)
    total, t = cohomology.extension_from_cocycle(c)
    coords = cohomology.h2(G).coords(c)
    return {
        "base_order": G.order,
        "total_order": total.order,
        "two_lift_property": cohomology.two_lift_property(total, t),
        "class_is_coboundary": coords == 0,
        "class_coords": coords,
        "s_diagonal": list(cohomology.s_map(c)),
    }, True


def _cmd_pin_sign(args):
    return clifford.involution_square_sign(args.n), True


def _cmd_pin_cocycle(args, G):
    ts = G.involutions()
    out = {"order": G.order, "involutions_only": args.involutions_only}
    if args.involutions_only:  # every involution squares to one sign
        bit = (1 - clifford.involution_square_sign(G.order)) // 2 if ts else 0
        s_vector = [bit] * len(ts)
    else:
        c = clifford.pin_cocycle(G)
        s_vector = list(cohomology.s_map(c))
        out["cocycle_bits"] = c.rows()
        out["coboundary"] = cohomology.h2(G).coords(c) == 0
    out["diagonal_signs"] = {str(t): 1 - 2 * b for t, b in zip(ts, s_vector)}
    out["s_vector"] = s_vector
    return out, True


def _form_report(c: quadratic.FormClass) -> dict:
    """A form's class, its places primes ascending and then inf."""
    return {
        "rank": c.rank,
        "signature": list(c.signature),
        "disc": c.disc,
        "w2_places": sorted(c.places, key=quadratic.place_sort_key),
    }


def _cmd_form(args):
    if args.gram is not None:
        # every JSON number stays text, so `diagonalize` reads the rows
        # exactly, with the digit and exponent bounds, and never as floats
        q = quadratic.diagonalize(_read_json("@" + args.gram, parse_float=str))
    else:
        q = quadratic.QForm(_fields(args.entries))
    c = quadratic.form_class(q)
    out = dict(_form_report(c), verdicts={})
    if args.isometric_to is not None:
        other = quadratic.QForm(_fields(args.isometric_to))
        out["verdicts"]["isometric"] = c == quadratic.form_class(other)
    return out, True


def _cmd_trace(args, A):
    out = _form_report(quadratic.form_class(galois.trace_form(A)))
    out.update(degree=A.degree, totally_real=out["signature"] == [A.degree, 0])
    return out, True


def _cmd_classify(args, A, G):
    r = galois.classify_2group_trace_form(A, G)
    form = _form_report(quadratic.form_class(r["trace_form"]))
    return {
        "w1": form["disc"],
        "w2_places": form["w2_places"],
        "signature": form["signature"],
        "case": r["case"],
        "predicted_form": [str(a) for a in r["model"].entries],
        "verdict": r["isometric"],
    }, r["isometric"]


def _cmd_reports(args):
    """`verify` returns one report, `suite` the list of all of them."""
    if args.command == "suite":
        reports = verify.run_suite(args.seed)
        payload = [r.as_dict(include_runtime=args.timings) for r in reports]
    else:
        reports = [verify.run_statement(args.statement, args.seed)]
        payload = reports[0].as_dict(include_runtime=args.timings)
    if args.pretty:
        print("\n".join(f"{r.statement:<22} {r.verdict}" for r in reports))
    return payload, all(r.verdict != "fail" for r in reports)


# ---------------------------------------------------------------------------
# the verbs' options, each added after --pretty; only --statement and --seed
# read a layer, `verify`, which their verbs run anyway


def _group_option(p):
    p.add_argument("--group", required=True,
                   help="group spec: catalog:<name>[:param] or perms:<cycles>")


def _cocycle_option(p):
    p.add_argument("--cocycle", required=True,
                   help="'zero', 'basis:<i>', or a file of |G|² ASCII bits (row-major)")


def _degree_option(p):
    p.add_argument("--n", type=_integer, required=True, help="even degree ≤ 24")


def _involutions_option(p):
    p.add_argument("--involutions-only", action="store_true",
                   help="only the diagonal signs at involutions: each is "
                        "pin-sign of the group order")


def _form_options(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--entries", help="comma-separated nonzero rationals")
    src.add_argument("--gram", help="path to a JSON matrix of rational strings")
    p.add_argument("--isometric-to", help="second diagonal form; adds an isometry verdict")


def _algebra_options(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--poly", help="monic integer coefficients, leading first")
    src.add_argument("--algebra", help="JSON list of {poly, multiplicity} (or @file)")


def _statement_option(p):
    # an unknown name is refused by run_statement, with the list (exit 2);
    # the list is left unwrapped: help text would break at its hyphens
    p.add_argument("--statement", required=True, metavar="NAME",
                   help="the statement to run, as listed below")
    p.epilog = "NAME is one of:\n  " + "\n  ".join(verify.STATEMENTS)
    p.formatter_class = argparse.RawDescriptionHelpFormatter


def _seed_options(p):
    p.add_argument("--seed", type=_integer, default=verify.DEFAULT_SEED)
    p.add_argument("--timings", action="store_true",
                   help="include runtimes (output no longer byte-stable)")


# verb: (help line, the functions that add its options, whether `main`
# loads an algebra from --poly/--algebra, the (layer, name) of the cap
# under which it loads --group before any table is built, handler)
_VERBS = {
    "group": ("structural fingerprint of a group", (_group_option,), False,
              (groups, "CLOSURE_CAP"), _cmd_group),
    "h2": ("dimension data of degree-2 mod-2 cohomology", (_group_option,), False,
           (cohomology, "H2_CAP"), _cmd_h2),
    "kers": ("kernel of the involution-diagonal map on H²", (_group_option,), False,
             (cohomology, "H2_CAP"), _cmd_kers),
    "2reduced": ("whether the kernel of the diagonal map vanishes", (_group_option,),
                 False, (cohomology, "H2_CAP"), _cmd_2reduced),
    "extension": ("build the central extension of a 2-cocycle and test involution lifting",
                  (_group_option, _cocycle_option), False, (cohomology, "H2_CAP"),
                  _cmd_extension),
    "pin-sign": ("sign of the square of the pin lift of a fixed-point-free involution",
                 (_degree_option,), False, None, _cmd_pin_sign),
    "pin-cocycle": ("sign cocycle of the pin lifts of left translations (order ≤ 24)",
                    (_group_option, _involutions_option), False,
                    (clifford, "CLIFFORD_RANK_CAP"), _cmd_pin_cocycle),
    "form": ("invariants of a diagonal form or a Gram matrix", (_form_options,), False,
             None, _cmd_form),
    "trace": ("trace-form invariants of an étale algebra", (_algebra_options,), True,
              None, _cmd_trace),
    "classify": ("the main theorem's verdict on a 2-group trace form",
                 (_algebra_options, _group_option), True, (cohomology, "H2_CAP"),
                 _cmd_classify),
    "verify": ("run one verification statement", (_statement_option, _seed_options),
               False, None, _cmd_reports),
    "suite": ("run the full verification battery", (_seed_options,), False, None,
              _cmd_reports),
}


@functools.lru_cache(maxsize=len(_VERBS) + 1)
def _parser(verb=None) -> argparse.ArgumentParser:
    """The parser of one verb, or with none the top parser (every verb's as
    a subcommand), built on first use: parse_args keeps no state between
    calls, and the handlers look up library functions at call time."""
    if verb is None:
        top = _Parser(prog="traceforms", description="Exact computation of mod-2 "
                      "group-cohomology obstructions and trace-form invariants over Q.")
        sub = top.add_subparsers(dest="command", required=True)
        parsers = {v: sub.add_parser(v, help=row[0]) for v, row in _VERBS.items()}
    else:
        top = _Parser(prog=f"traceforms {verb}")
        parsers = {verb: top}
    for v, p in parsers.items():
        p.add_argument("--pretty", action="store_true",
                       help="indented output (tables for verify/suite)")
        for add in _VERBS[v][1]:
            add(p)
    return top


def main(argv=None) -> int:
    """Run one verb (see the module docstring); returns the exit code."""
    argv = _Parser.argv = sys.argv[1:] if argv is None else argv
    # a verb's own parser takes the rest, as the top parser would hand it
    verb = argv[0] if argv and argv[0] in _VERBS else None
    args, extras = _parser(verb).parse_known_args(
        argv[1:] if verb else argv, argparse.Namespace(command=verb))
    if extras:  # refused as parse_args refuses them
        _parser(None).error(f"unrecognized arguments: {' '.join(extras)}")
    _, _, algebra, cap, run = _VERBS[args.command]
    try:
        inputs = [_load_algebra(args)] if algebra else []
        if cap:  # read now: a test or a caller may rebind it
            inputs.append(groups.group_from_spec(args.group, (cap[1], getattr(*cap))))
        payload, passed = run(args, *inputs)
        layout = {"indent": 2} if args.pretty else {"separators": (",", ":")}
        # flushed here, so that a closed stdout raises here and not at exit
        print(json.dumps(payload, sort_keys=True, **layout), flush=True)
    except BrokenPipeError:  # stdout closed early, as by `| head`: no input error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (ValueError, OSError) as exc:  # package errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_PASS if passed else EXIT_FAIL
