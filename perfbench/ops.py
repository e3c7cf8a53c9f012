"""Seeded op lists for the benchmark's workloads.

Pure data: this module imports nothing from traceforms, so the program
only ever sees the inputs generated here.  An op is a JSON-able dict:

    {"index", "argv", "kind", "key", "check"}

`kind` is "cli" (argv for ``traceforms.cli.main``) or "lib" (a library
call the CLI has no verb for).  `key` names the computation for the
golden records: ops whose output cannot depend on the seed get a
canonical key that recurs at every seed; the others are keyed by argv.
`check` carries what the independent output checks need.

One call to `build_round(workload, seed)` gives one round: a fixed
composition of op classes in a fixed order.  The seed varies each op's
inputs only in ways that leave its work unchanged: generating sets of
the same group, f(x) -> f(-x), renamed points, reordered entries.
Varying the work itself (random groups, random polynomials, random
permutations) moved the metrics from seed to seed by more than any
useful regression bound, because single op costs are heavy tailed.
"""
from __future__ import annotations

import json
import random

from mathref import compose, cycle_string, inverse, perm_from_cycles, poly_disc

# The workloads of BENCHMARK.json.  `library` is one round of each of
# `cohomology`, `trace-forms` and `pin-signs` in one process; those three
# also run alone, for a look at one family, but their 15 s runs spread
# from run to run by more than the bound on a shared 2-vCPU machine.
WORKLOADS = ("library", "cli")
FAMILIES = ("cohomology", "trace-forms", "pin-signs")

# The seconds of --seconds that one round stands for.  A library round
# takes 20-30 s on a 2-vCPU machine, a cli round about 12 s.
ROUND_SECONDS = {"library": 30, "cli": 30}

# Warm-up op of each workload, run once before timing by every fresh
# interpreter.  Its inputs never occur in a round: x^2 - 7 has a
# coefficient outside [-2, 2] and is not in the pinned cli list, and the
# groups have orders 6 and 2, below those the rounds use.
WARMUP = {
    "library": ["trace", "--poly", "1,0,-7"],
    "cohomology": ["h2", "--group", "catalog:sym:3"],
    "trace-forms": ["trace", "--poly", "1,0,-7"],
    "pin-signs": ["pin-cocycle", "--group", "catalog:cyclic:2"],
    "cli": ["trace", "--poly", "1,0,-7"],
    "known-defects": ["trace", "--poly", "1,0,-7"],
}

# ---------------------------------------------------------------------------
# group classes: degree, generators (lists of cycles), and the facts the
# checks compare against: dim H^2(G; F2) and whether G is 2-reduced.


def _n_gon(k):
    return [[tuple(range(k))], [(i, k - i) for i in range(1, (k + 1) // 2)]]


GROUPS = {
    # order 8-12
    "D8": (4, [[(0, 1, 2, 3)], [(0, 2)]], 3, True),
    "Q8": (8, [[(0, 1, 2, 3), (4, 5, 6, 7)], [(0, 4, 2, 6), (1, 7, 3, 5)]], 2, False),
    "C8": (8, [[tuple(range(8))]], 1, True),
    "C2^3": (6, [[(0, 1)], [(2, 3)], [(4, 5)]], 6, True),
    "C4xC2": (6, [[(0, 1, 2, 3)], [(4, 5)]], 3, False),
    "D10": (5, _n_gon(5), 1, True),
    "D12": (6, _n_gon(6), 3, True),
    "A4": (4, [[(0, 1, 2)], [(0, 1), (2, 3)]], 1, True),
    "C12": (7, [[(0, 1, 2, 3), (4, 5, 6)]], 1, True),
    # order 16-24
    "D16": (8, _n_gon(8), 3, True),
    "C16": (16, [[tuple(range(16))]], 1, True),
    "C4xC4": (8, [[(0, 1, 2, 3)], [(4, 5, 6, 7)]], 3, False),
    "C2xD8": (6, [[(0, 1, 2, 3)], [(0, 2)], [(4, 5)]], 6, True),
    "F20": (5, [[(0, 1, 2, 3, 4)], [(1, 2, 4, 3)]], 1, True),
    "D20": (10, _n_gon(10), 3, True),
    "S4": (4, [[(0, 1, 2, 3)], [(0, 1)]], 2, True),
    "D24": (12, _n_gon(12), 3, True),
    "C2xA4": (6, [[(0, 1, 2)], [(0, 1), (2, 3)], [(4, 5)]], 2, True),
    # order 32-48
    "D32": (16, _n_gon(16), 3, True),
    "C4wrC2": (8, [[(0, 1, 2, 3)], [(0, 4), (1, 5), (2, 6), (3, 7)]], 3, False),
    "C2xD16": (10, [[tuple(range(8))], [(1, 7), (2, 6), (3, 5)], [(8, 9)]], 6, True),
    "S3xS3": (6, [[(0, 1, 2)], [(0, 1)], [(3, 4, 5)], [(3, 4)]], 3, True),
    "C2xS4": (6, [[(0, 1, 2, 3)], [(0, 1)], [(4, 5)]], 4, True),
    # used by pin-signs only
    "C4": (4, [[(0, 1, 2, 3)]], 1, True),
    "C2^2": (4, [[(0, 1)], [(2, 3)]], 3, True),
    "C6": (6, [[(0, 1, 2, 3, 4, 5)]], 1, True),
    "S3": (3, [[(0, 1, 2)], [(0, 1)]], 1, True),
    "C10": (10, [[tuple(range(10))]], 1, True),
}

# catalog specs and the class each is isomorphic to
CATALOG = {
    "catalog:dihedral:8": "D8",
    "catalog:quaternion8": "Q8",
    "catalog:z4xz2": "C4xC2",
    "catalog:cyclic:8": "C8",
    "catalog:dihedral:16": "D16",
    "catalog:elem_abelian_2:3": "C2^3",
    "catalog:cyclic:16": "C16",
    "catalog:alt:4": "A4",
}


def class_perms(name: str) -> list[tuple[int, ...]]:
    deg, gens, _, _ = GROUPS[name]
    return [perm_from_cycles(deg, g) for g in gens]


def group_spec(name: str, rng: random.Random) -> str:
    """perms: spec of the class with a seeded generating set: its own
    generators shuffled, plus up to two redundant products.  The program
    closes the set up and sorts the elements, so it builds the same table
    at every seed: the op costs the same and prints the same.  (Renaming
    the points instead moved the cost of single ops by up to 3x through
    the program's caches, too much for a steady benchmark.)"""
    gens = class_perms(name)
    for _ in range(rng.randint(0, 2)):
        gens.append(compose(rng.choice(gens), rng.choice(gens)))
    gens = [g for g in gens if g != tuple(range(len(g)))]
    rng.shuffle(gens)
    return "perms:" + ",".join(cycle_string(g) for g in gens)


def _op(argv, key=None, kind="cli", **check):
    return {"argv": argv, "kind": kind, "key": key or json.dumps(argv),
            "check": check}


# ---------------------------------------------------------------------------
# cohomology


_COH_VERBS = ("h2", "kers", "2reduced", "extension")
_LIGHT = ("D8", "Q8", "C8", "C2^3", "C4xC2", "D10", "D12", "A4", "C12")
_MID = ("D16", "C4xC4", "C2xD8", "F20", "D20")
# Heavy ops (orders 32-48) are a minority, and several mid-size ones rather
# than one large one: the time of one large elimination (kers of order 48,
# 6-9 s) varied by a quarter from run to run on a shared machine while
# light ops held within a few percent, and ops_per_s followed it.
_HEAVY = (("D32", "kers"), ("C4wrC2", "kers"), ("C2xD16", "h2"),
          ("S3xS3", "kers"), ("C2xS4", "h2"))

# Blocks of one repeated op keep the median and the tail steady: a metric
# read at a rank where every neighbour costs something else jumps with
# each op's own noise.  A block of identical ops is placed in cost so that
# it holds the rank (the median, or the 11th-largest op with at most six
# heavier ones above it).  The heavy ops are few for the same reason.
_TAIL_BLOCK = 12
# library's own median block, the degree-5 op of the trace-forms median
# block again: in the three rounds together the median falls among ops of
# many kinds within a millisecond of each other
_LIBRARY_MEDIAN_BLOCK = 40


def _coh_op(verb, spec, cls, rng):
    argv = [verb, "--group", spec]
    check = {"type": "cohomology", "class": cls, "verb": verb}
    if verb == "extension":
        i = rng.randrange(GROUPS[cls][2])
        argv += ["--cocycle", f"basis:{i}"]
        check["basis"] = i
    key = None if spec.startswith("catalog:") else f"{verb} {cls} {argv[3:]}"
    return _op(argv, key, **check)


def _cohomology(rng):
    ops = []
    for spec, cls in CATALOG.items():
        for verb in _COH_VERBS:
            ops.append(_coh_op(verb, spec, cls, rng))
    for cls in _LIGHT:
        for verb in _COH_VERBS:
            ops.append(_coh_op(verb, group_spec(cls, rng), cls, rng))
    for j, cls in enumerate(_MID):
        for verb in _COH_VERBS[2 * (j % 2):2 * (j % 2) + 2]:
            ops.append(_coh_op(verb, group_spec(cls, rng), cls, rng))
    for cls, verb in _HEAVY:
        ops.append(_coh_op(verb, group_spec(cls, rng), cls, rng))
    ops += [_coh_op("h2", group_spec("S4", rng), "S4", rng) for _ in range(_TAIL_BLOCK)]
    return ops


# ---------------------------------------------------------------------------
# trace forms


def draw_poly(rng: random.Random, degree: int) -> tuple[int, ...]:
    """Monic, coefficients in [-2, 2]; inseparable draws are redrawn."""
    while True:
        cs = (1,) + tuple(rng.randint(-2, 2) for _ in range(degree))
        if poly_disc(cs) != 0:
            return cs


def twist(coeffs, flip: bool) -> tuple[int, ...]:
    """f(x) -> (-1)^d f(-x): the same field, so the same invariants and
    the same cost, under other coefficients."""
    if not flip:
        return tuple(coeffs)
    return tuple(c if i % 2 == 0 else -c for i, c in enumerate(coeffs))


# Every trace-forms input comes from a fixed pool drawn once from its own
# stream; the seed twists each polynomial and reorders and rescales form
# entries.  The cost of one draw is heavy tailed (factoring): with pools
# drawn per seed, ops_per_s moved by a fifth from seed to seed.
_POOL_SIZES = {4: 6, 5: 6, 6: 6, 8: 2, 9: 2}


def _pool_rng(name: str) -> random.Random:
    return random.Random(f"perfbench/trace-forms/{name}")


def trace_pool() -> list[tuple[int, ...]]:
    rng = _pool_rng("pool")
    return [draw_poly(rng, d) for d, k in _POOL_SIZES.items() for _ in range(k)]


def pinned_poly(degree: int) -> tuple[int, ...]:
    """The first draw of the degree's own stream (degrees 12 and 16 are
    the pinned draws of ROADMAP item 1)."""
    return draw_poly(random.Random(f"perfbench/trace-forms/degree-{degree}"), degree)


# octic fixtures: name, coefficients, group spec, disc class, totally real
OCTICS = (
    ("multiquadratic_real", (1, 0, -40, 0, 352, 0, -960, 0, 576),
     "catalog:elem_abelian_2:3", 1, True),
    ("multiquadratic_imaginary", (1, 0, -16, 0, 88, 0, 192, 0, 144),
     "catalog:elem_abelian_2:3", 1, False),
    ("cyclic8_real", (1, 0, -8, 0, 20, 0, -16, 0, 2), "catalog:cyclic:8", 2, True),
    ("cyclic8_imaginary", (1, 0, 8, 0, 20, 0, 16, 0, 2), "catalog:cyclic:8", 2, False),
    ("dihedral8_imaginary", (1, 0, 4, 0, 2, 0, 28, 0, 1), "catalog:dihedral:8", 1, False),
)


def _poly_arg(cs):
    return ",".join(map(str, cs))


def _trace_op(cs, canonical):
    return _op(["trace", "--poly", _poly_arg(cs)],
               f"trace {_poly_arg(canonical)}", type="poly", coeffs=list(cs))


def _form_pool() -> list:
    rng = _pool_rng("forms")
    nonzero = [x for x in range(-12, 13) if x]
    return [([rng.choice(nonzero) for _ in range(rng.randint(2, 6))],
             rng.choice((None, True, False))) for _ in range(12)]


def _form_op(entries, iso, rng):
    entries = entries[:]
    rng.shuffle(entries)
    # "--opt=value": a value may start with "-"
    argv = ["form", "--entries=" + ",".join(map(str, entries))]
    if iso is not None:
        other = [e * rng.randint(1, 3) ** 2 for e in entries]
        rng.shuffle(other)
        if not iso:
            other[0] = -other[0]  # the signature changes
        argv.append("--isometric-to=" + ",".join(map(str, other)))
    return _op(argv, type="form", entries=entries, iso=iso)


def _trace_forms(rng):
    ops = [_trace_op(twist(cs, rng.random() < 0.5), cs) for cs in trace_pool()]
    # the median block (degree 5) and the tail block (degree 7)
    for degree, count in ((5, 20), (7, _TAIL_BLOCK), (12, 1)):
        cs = pinned_poly(degree)
        ops += [_trace_op(twist(cs, rng.random() < 0.5), cs) for _ in range(count)]
    bases = _pool_rng("algebra-bases")
    for m in (2, 3, 4, 2, 3, 4):
        canonical = draw_poly(bases, bases.randint(2, 4))
        base = twist(canonical, rng.random() < 0.5)
        ops.append(_trace_op(base, canonical))
        alg = json.dumps([{"poly": list(base), "multiplicity": m}])
        ops.append(_op(["trace", "--algebra", alg], f"algebra {canonical} {m}",
                       type="algebra", base=list(base), m=m))
    for name, cs, spec, disc, real in OCTICS:
        ops.append(_op(["classify", "--poly", _poly_arg(cs), "--group", spec],
                       f"classify {name}", type="classify", disc=disc,
                       real=real))
    ops += [_form_op(entries, iso, rng) for entries, iso in _form_pool()]
    return ops


# ---------------------------------------------------------------------------
# pin signs

# D10 is the tail block; n = 20 is the median block.  The order-12 full
# table is A4's (1.2 s): C12's (5-7 s) alone took a tenth of a library run.
_PIN_FULL = ("C4", "C2^2", "C6", "S3", "D8", "Q8", "C8", "C2^3", "C4xC2",
             "A4") + ("D10",) * _TAIL_BLOCK
_PIN_INVOLUTIONS = ("C12", "D12", "D16", "C2xD8", "D20")
_PIN_SIGN_N = tuple(range(2, 25, 2)) + (20,) * 17


def _triples() -> list:
    """Fixed permutation triples of degree 6-12, two per degree."""
    rng = random.Random("perfbench/pin-signs/triples")
    out = []
    for n in (6, 7, 8, 9, 10, 11, 12) * 2:
        out.append([rng.sample(range(n), n) for _ in range(3)])
    return out


def _pin_signs(rng):
    ops = []
    for cls in _PIN_FULL:
        spec = group_spec(cls, rng)
        ops.append(_op(["pin-cocycle", "--group", spec], f"pin-cocycle {cls}",
                       type="pin-cocycle", cls=cls, spec=spec, full=True))
    for cls in dict.fromkeys(_PIN_FULL):
        spec = ops[_PIN_FULL.index(cls)]["check"]["spec"]
        ops.append(_op(["pin-cocycle", "--involutions-only", "--group", spec],
                       f"pin-cocycle --involutions-only {cls}",
                       type="pin-cocycle", cls=cls, spec=spec, full=False))
    for cls in _PIN_INVOLUTIONS:
        spec = group_spec(cls, rng)
        ops.append(_op(["pin-cocycle", "--involutions-only", "--group", spec],
                       f"pin-cocycle --involutions-only {cls}",
                       type="pin-cocycle", cls=cls, spec=spec, full=False))
    for n in _PIN_SIGN_N:
        ops.append(_op(["pin-sign", "--n", str(n)], f"pin-sign {n}",
                       type="pin-sign", n=n))
    # each triple renamed by a seeded permutation of the points: the cycle
    # types of p, q, r and of their products, which set the cost, stay
    for triple in _triples():
        n = len(triple[0])
        sigma = rng.sample(range(n), n)
        inv = inverse(sigma)
        triple = [list(compose(sigma, compose(p, inv))) for p in triple]
        ops.append(_op(["pin_product_sign", json.dumps(triple)], kind="lib",
                       type="product-sign", n=n, perms=triple))
    return ops


# ---------------------------------------------------------------------------
# cli: a pinned list, each op in a fresh `python -m traceforms` child

PINNED_CLI = (
    ["group", "--group", "catalog:quaternion8", "--pretty"],
    ["group", "--group", "perms:(0 1 2 3),(0 2)"],
    ["h2", "--group", "catalog:sym:4"],
    ["h2", "--group", "catalog:dihedral:16"],
    ["kers", "--group", "catalog:z4xz2"],
    ["kers", "--group", "perms:(0 1 2 3),(0 1)"],
    ["2reduced", "--group", "catalog:cyclic:8"],
    ["2reduced", "--group", "catalog:quaternion8"],
    ["extension", "--group", "catalog:cyclic:4", "--cocycle", "basis:0"],
    ["extension", "--group", "catalog:quat_cover", "--cocycle", "zero"],
    ["pin-sign", "--n", "12"],
    ["pin-sign", "--n", "24"],
    ["pin-cocycle", "--group", "catalog:cyclic:4"],
    ["pin-cocycle", "--group", "catalog:dihedral:8", "--involutions-only"],
    ["form", "--entries", "1,1", "--isometric-to", "2,2"],
    ["form", "--entries", "3,-5,7"],
    ["trace", "--poly", "1,0,-3"],
    ["trace", "--poly", "1,0,-4,0,2"],
    ["trace", "--algebra", '[{"poly": [1,0,-3], "multiplicity": 2}]'],
    ["classify", "--poly", "1,0,-8,0,20,0,-16,0,2", "--group", "catalog:cyclic:8"],
    ["verify", "--statement", "h2-s4"],
    ["verify", "--statement", "prop-lift2"],
    ["verify", "--statement", "quat-counterexample"],
    ["verify", "--statement", "rel-identities"],
)


def _cli(seed):
    ops = [_op(list(argv), type="pinned") for argv in PINNED_CLI * 2]
    ops.append(_op(["suite", "--seed", str(seed)], type="suite"))
    return ops


# ---------------------------------------------------------------------------


def build_round(workload: str, seed: int) -> list[dict]:
    """The op list of one round: same seed, same list."""
    rng = random.Random(f"perfbench/{workload}/{seed}")
    if workload == "library":
        cs = pinned_poly(5)
        ops = _cohomology(rng) + _trace_forms(rng) + _pin_signs(rng) + [
            _trace_op(twist(cs, rng.random() < 0.5), cs)
            for _ in range(_LIBRARY_MEDIAN_BLOCK)]
    elif workload == "cohomology":
        ops = _cohomology(rng)
    elif workload == "trace-forms":
        ops = _trace_forms(rng)
    elif workload == "pin-signs":
        ops = _pin_signs(rng)
    elif workload == "cli":
        ops = _cli(seed)
    elif workload == "known-defects":
        # The pinned degree-16 op does not finish at the time limit today.
        # It is kept out of the timed workloads, on which no op may fail,
        # and runs alone here so the defect stays on record.
        d16 = pinned_poly(16)
        ops = [_trace_op(d16, d16)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # The order is the same at every seed.  The program's caches (h2 by
    # group, cup by pair, the Clifford sign masks) carry work from op to
    # op, so a seeded order moved single ops by up to 4x and op_p50_s by
    # nearly half from seed to seed.
    random.Random(f"perfbench/{workload}/order").shuffle(ops)
    for i, op in enumerate(ops):
        op["index"] = i
    return ops
