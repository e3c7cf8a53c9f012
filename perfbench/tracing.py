"""Traced runs: wrappers around the public functions of each layer.

`install(tracer)` rebinds each wrapped function in every traceforms
module namespace that binds it (``diagonalize`` is bound in quadratic,
galois, verify, cli and the package), so calls through any of those
names are seen.  A wrapper records a span (name, start, end, parent
span, op id) in memory, or, for the hottest small functions, only a
count.  `layer_metrics` turns spans and counts into the per-layer
metrics; `write_spans` writes the spans out at the end of a run.

Nothing here changes what the program computes or prints: a traced op
gives the same stdout bytes as an untraced one.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter

VERBS = ("group", "h2", "kers", "2reduced", "extension", "pin-sign",
         "pin-cocycle", "form", "trace", "classify", "verify", "suite")
STATEMENTS = ("prop-lift2", "2reduced-table", "h2-s4", "quat-counterexample",
              "pin-splitness", "thm-main", "cor-numb2", "two-cyclic-sylow",
              "property-suites", "rel-identities")
BATTERIES = ("diag_invariance", "hilbert_oracle", "reciprocity", "whitney",
             "scale_formula", "pin_proportionality", "regular_parity",
             "smap_coboundary")

# (name, unit, better); BENCHMARK.json lists the same metrics
PER_LAYER = [
    ("perms.compose_calls", "count", "lower"),
    ("groups.build_s", "s", "lower"),
    ("groups.elements", "count", "lower"),
    ("gf2.nullspace_s", "s", "lower"),
    ("gf2.rows", "count", "lower"),
    ("gf2.cols", "count", "lower"),
    ("gf2.rank", "count", "lower"),
    ("cohomology.system_s", "s", "lower"),
    ("cohomology.solves", "count", "lower"),
    ("cohomology.h2_calls", "count", "lower"),
    ("cohomology.solves_per_group", "ratio", "lower"),
    ("cohomology.solves_per_group.kers", "ratio", "lower"),
    ("cohomology.reduce_s", "s", "lower"),
    ("cohomology.validate_s", "s", "lower"),
    ("cohomology.validate_calls", "count", "lower"),
    ("cohomology.extension_s", "s", "lower"),
    ("clifford.fold_s", "s", "lower"),
    ("clifford.fold_calls", "count", "lower"),
    ("clifford.fold_terms", "count", "lower"),
    ("clifford.convert_s", "s", "lower"),
    ("clifford.product_sign_calls", "count", "lower"),
    ("quadratic.factorint_s", "s", "lower"),
    ("quadratic.factorint_calls", "count", "lower"),
    ("quadratic.factorint_useful_ratio", "ratio", "higher"),
    ("quadratic.factorint_max_digits", "digits", "lower"),
    ("quadratic.rho_s", "s", "lower"),
    ("quadratic.rho_calls", "count", "lower"),
    ("quadratic.mr_calls", "count", "lower"),
    ("quadratic.hilbert_s", "s", "lower"),
    ("quadratic.hilbert_calls", "count", "lower"),
    ("quadratic.cup_calls", "count", "lower"),
    ("quadratic.cup_hit_ratio", "ratio", "higher"),
    ("quadratic.diagonalize_s", "s", "lower"),
    ("quadratic.diagonalize_calls", "count", "lower"),
    ("quadratic.entry_digits_max", "digits", "lower"),
    ("galois.poly_check_s", "s", "lower"),
    ("galois.trace_gram_s", "s", "lower"),
    ("galois.disc_s", "s", "lower"),
    ("galois.trace_form_calls", "count", "lower"),
    ("galois.trace_form_per_trace_op", "ratio", "lower"),
    ("oracles.hilbert_oracle_s", "s", "lower"),
    ("oracles.hilbert_oracle_calls", "count", "lower"),
    *((f"verify.statement_s.{s}", "s", "lower") for s in STATEMENTS),
    *((f"verify.battery_s.{b}", "s", "lower") for b in BATTERIES),
    *((f"cli.verb_s.{v}", "s", "lower") for v in VERBS),
    ("cli.spawn_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """Spans and counts of one traced run (or of one traced child)."""

    def __init__(self):
        self.spans: list = []       # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxes: Counter = Counter()
        self.factor_inputs: set[int] = set()
        self.op = -1
        self.verb = ""
        self._op_groups: Counter = Counter()   # id(group) -> solves this op
        self._solved: set[int] = set()
        self._op_trace_forms = 0
        self._caches: dict = {}

    def begin_op(self, op: int, verb: str) -> None:
        self.op, self.verb = op, verb
        self._op_groups.clear()
        self._op_trace_forms = 0

    def end_op(self, seconds: float) -> None:
        c = self.counts
        if self.verb in VERBS:
            c[f"verb_s.{self.verb}"] += seconds
        # groups first solved in this op; a later solve of the same group
        # (another cache key) is waste that solves_per_group shows
        fresh = [g for g in self._op_groups if g not in self._solved]
        self._solved.update(self._op_groups)
        c["solve_groups"] += len(fresh)
        if self.verb == "kers":
            c["kers_groups"] += len(fresh)
            c["kers_solves"] += sum(self._op_groups[g] for g in fresh)
        if self.verb == "trace":
            c["trace_ops"] += 1
            c["trace_ops_trace_forms"] += self._op_trace_forms
        self.op = -1

    def collect(self) -> None:
        """Add the hits and misses of the program's caches since install."""
        for key, (info, start) in self._caches.items():
            now = info()
            self.counts[key + "_hits"] += now.hits - start.hits
            self.counts[key + "_misses"] += now.misses - start.misses
            self._caches[key] = (info, now)

    def raw(self) -> dict:
        """Everything `merge` needs, as JSON."""
        self.collect()
        return {"spans": self.spans, "counts": dict(self.counts),
                "maxes": dict(self.maxes),
                "factor_inputs": sorted(self.factor_inputs)}

    def merge(self, raw: dict, op: int) -> None:
        """Add a traced child's record; its spans move to op `op`."""
        base = len(self.spans)
        for name, t0, t1, parent, _ in raw["spans"]:
            self.spans.append([name, t0, t1, parent + base if parent >= 0 else -1, op])
        self.counts.update(raw["counts"])
        for k, v in raw["maxes"].items():
            self.maxes[k] = max(self.maxes[k], v)
        self.factor_inputs.update(raw["factor_inputs"])


# ---------------------------------------------------------------------------
# hooks: count the work a call did, from its arguments and result.  A
# string hook is a plain counter.


def _group(t, args, res):
    t.counts["elements"] += len(args[1])


def _nullspace(t, args, res):
    rows, ncols = args[0], args[1]
    t.counts["gf2_rows"] += len(rows)
    t.counts["gf2_cols"] += ncols
    t.counts["gf2_rank"] += ncols - len(res)


def _solve(t, args, res):
    t.counts["solves"] += 1
    t._op_groups[id(args[1])] += 1


def _fold(t, args, res):
    t.counts["fold_calls"] += 1
    t.counts["fold_terms"] += len(res)


def _factorint(t, args, res):
    n = args[0]
    t.counts["factorint_calls"] += 1
    t.factor_inputs.add(n)
    t.maxes["factorint_digits"] = max(t.maxes["factorint_digits"], len(str(n)))


def _diagonalize(t, args, res):
    t.counts["diagonalize_calls"] += 1
    digits = max((len(str(abs(part))) for x in res.entries
                  for part in (x.numerator, x.denominator)), default=0)
    t.maxes["entry_digits"] = max(t.maxes["entry_digits"], digits)


def _trace_form(t, args, res):
    t.counts["trace_form_calls"] += 1
    t._op_trace_forms += 1


# (module, attribute, span name or None for a count only, hook)
_TARGETS = (
    ("perms", "compose", None, "compose_calls"),
    ("groups", "closure", "groups.build", None),
    ("groups", "Group.__init__", "groups.build", _group),
    ("gf2", "nullspace", "gf2.nullspace", _nullspace),
    ("cohomology", "cocycle_space", "cohomology.cocycle_space", None),
    ("cohomology", "H2Basis.__init__", "cohomology.solve", _solve),
    ("cohomology", "h2", "cohomology.h2", "h2_calls"),
    ("cohomology", "H2Basis.coords", "cohomology.reduce", None),
    ("cohomology", "Cocycle2.validate", "cohomology.validate", "validate_calls"),
    ("cohomology", "extension_from_cocycle", "cohomology.extension", None),
    ("clifford", "_fold_factors", "clifford.fold", _fold),
    ("clifford", "pin_cocycle", "clifford.convert", None),
    ("clifford", "pin_product_sign", "clifford.convert", "product_sign_calls"),
    ("quadratic", "factorint", "quadratic.factorint", _factorint),
    ("quadratic", "_pollard_rho", "quadratic.rho", "rho_calls"),
    ("quadratic", "is_probable_prime", None, "mr_calls"),
    ("quadratic", "hilbert_symbol", "quadratic.hilbert", "hilbert_calls"),
    ("quadratic", "cup", None, "cup_calls"),
    ("quadratic", "diagonalize", "quadratic.diagonalize", _diagonalize),
    ("galois", "_poly_gcd_degree", "galois.poly_check", None),
    ("galois", "trace_gram", "galois.trace_gram", None),
    ("galois", "_det_fraction_free", "galois.disc", None),
    ("galois", "trace_form", "galois.trace_form", _trace_form),
    ("oracles", "hilbert_symbol_oracle", "oracles.hilbert_oracle",
     "hilbert_oracle_calls"),
    ("verify", "run_statement", "verify.statement", None),
)
_COUNT_ONLY = [hook for _, _, name, hook in _TARGETS if name is None]


def _wrap(t: Tracer, fn, name, hook):
    spans, stack, counts = t.spans, t.stack, t.counts
    if name is None:
        def counted(*args, **kwargs):
            counts[hook] += 1
            return fn(*args, **kwargs)
        return counted
    per_arg = name == "verify.statement"  # one span name per statement

    def wrapper(*args, **kwargs):
        sid = len(spans)
        spans.append(None)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            res = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            label = f"{name}.{args[0]}" if per_arg else name
            spans[sid] = [label, t0, t1, stack[-1] if stack else -1, t.op]
        if isinstance(hook, str):
            counts[hook] += 1
        elif hook is not None:
            hook(t, args, res)
        return res
    return wrapper


def install(t: Tracer):
    """Install the wrappers; returns a function that removes them."""
    import traceforms.cli  # noqa: F401  (loads every layer)

    mods = {k[len("traceforms."):]: m for k, m in sys.modules.items()
            if k.startswith("traceforms.")}
    namespaces = [m for k, m in sys.modules.items()
                  if k == "traceforms" or k.startswith("traceforms.")]
    for key, lru in (("h2", mods["cohomology"].h2),
                     ("cup", mods["quadratic"]._cup_cached)):
        t._caches[key] = (lru.cache_info, lru.cache_info())
    undo = []
    for mod, attr, name, hook in _TARGETS:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mods[mod], cls_name)
            fn = cls.__dict__[meth]
            setattr(cls, meth, _wrap(t, fn, name, hook))
            undo.append((cls, meth, fn))
            continue
        fn = getattr(mods[mod], attr)
        w = _wrap(t, fn, name, hook)
        for ns in namespaces:
            for k, v in list(vars(ns).items()):
                if v is fn:
                    setattr(ns, k, w)
                    undo.append((ns, k, fn))
    verify = mods["verify"]
    undo.append((verify, "_BATTERIES", verify._BATTERIES))
    verify._BATTERIES = tuple((b, _wrap(t, fn, f"verify.battery.{b}", None))
                              for b, fn in verify._BATTERIES)

    def uninstall():
        for obj, k, v in reversed(undo):
            setattr(obj, k, v)
    return uninstall


def calibrate(n: int = 20000) -> tuple[float, float]:
    """Cost of one span and of one counted call, in seconds, measured on
    a function that does nothing."""
    def noop(*args):
        return None

    def per_call(fn):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(n):
                fn(0)
            best = min(best, (time.perf_counter() - t0) / n)
        return best

    bare = per_call(noop)
    span = per_call(_wrap(Tracer(), noop, "calibrate", None)) - bare
    count = per_call(_wrap(Tracer(), noop, None, "calibrate")) - bare
    return max(span, 0.0), max(count, 0.0)


def layer_metrics(t: Tracer, overhead: tuple[float, float]) -> dict[str, float]:
    """The per-layer metrics from the spans and counts of a traced run."""
    spans = t.spans
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def incl(name):
        """Time inside spans called `name`, counting nested ones once."""
        inside, total = [False] * len(spans), 0.0
        for i, s in enumerate(spans):
            outer = s[3] >= 0 and inside[s[3]]
            if s[0] == name and not outer:
                total += dur[i]
            inside[i] = outer or s[0] == name
        return total

    def self_time(name):
        return sum(dur[i] - child[i] for i, s in enumerate(spans) if s[0] == name)

    def ratio(a, b):
        return a / b if b else 0.0

    c, mx = t.counts, t.maxes
    m = {
        "perms.compose_calls": c["compose_calls"],
        "groups.build_s": incl("groups.build"),
        "groups.elements": c["elements"],
        "gf2.nullspace_s": incl("gf2.nullspace"),
        "gf2.rows": c["gf2_rows"],
        "gf2.cols": c["gf2_cols"],
        "gf2.rank": c["gf2_rank"],
        "cohomology.system_s": self_time("cohomology.cocycle_space"),
        "cohomology.solves": c["solves"],
        "cohomology.h2_calls": c["h2_calls"],
        "cohomology.solves_per_group": ratio(c["solves"], c["solve_groups"]),
        "cohomology.solves_per_group.kers": ratio(c["kers_solves"], c["kers_groups"]),
        "cohomology.reduce_s": incl("cohomology.reduce"),
        "cohomology.validate_s": incl("cohomology.validate"),
        "cohomology.validate_calls": c["validate_calls"],
        "cohomology.extension_s": incl("cohomology.extension"),
        "clifford.fold_s": incl("clifford.fold"),
        "clifford.fold_calls": c["fold_calls"],
        "clifford.fold_terms": c["fold_terms"],
        "clifford.convert_s": self_time("clifford.convert"),
        "clifford.product_sign_calls": c["product_sign_calls"],
        "quadratic.factorint_s": incl("quadratic.factorint"),
        "quadratic.factorint_calls": c["factorint_calls"],
        "quadratic.factorint_useful_ratio": ratio(len(t.factor_inputs),
                                                  c["factorint_calls"]),
        "quadratic.factorint_max_digits": mx["factorint_digits"],
        "quadratic.rho_s": incl("quadratic.rho"),
        "quadratic.rho_calls": c["rho_calls"],
        "quadratic.mr_calls": c["mr_calls"],
        "quadratic.hilbert_s": incl("quadratic.hilbert"),
        "quadratic.hilbert_calls": c["hilbert_calls"],
        "quadratic.cup_calls": c["cup_calls"],
        "quadratic.cup_hit_ratio": ratio(c["cup_hits"], c["cup_hits"] + c["cup_misses"]),
        "quadratic.diagonalize_s": incl("quadratic.diagonalize"),
        "quadratic.diagonalize_calls": c["diagonalize_calls"],
        "quadratic.entry_digits_max": mx["entry_digits"],
        "galois.poly_check_s": incl("galois.poly_check"),
        "galois.trace_gram_s": incl("galois.trace_gram"),
        "galois.disc_s": incl("galois.disc"),
        "galois.trace_form_calls": c["trace_form_calls"],
        "galois.trace_form_per_trace_op": ratio(c["trace_ops_trace_forms"],
                                                c["trace_ops"]),
        "oracles.hilbert_oracle_s": incl("oracles.hilbert_oracle"),
        "oracles.hilbert_oracle_calls": c["hilbert_oracle_calls"],
        "cli.spawn_s": c["spawn_s"],
        "trace.spans": len(spans),
        "trace.overhead_s": (len(spans) * overhead[0]
                             + sum(c[k] for k in _COUNT_ONLY) * overhead[1]),
    }
    for s in STATEMENTS:
        m[f"verify.statement_s.{s}"] = incl(f"verify.statement.{s}")
    for b in BATTERIES:
        m[f"verify.battery_s.{b}"] = incl(f"verify.battery.{b}")
    for v in VERBS:
        m[f"cli.verb_s.{v}"] = c[f"verb_s.{v}"]
    return {name: m[name] for name, _, _ in PER_LAYER}


def self_check(t: Tracer) -> str | None:
    """The wrapped solve count must equal the misses of h2's cache."""
    if t.counts["solves"] != t.counts["h2_misses"]:
        return (f"trace self-check: {t.counts['solves']} wrapped solves, "
                f"{t.counts['h2_misses']} h2 cache misses")
    return None


def write_spans(t: Tracer, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for s in t.spans:
            fh.write(json.dumps(s) + "\n")
