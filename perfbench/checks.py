"""Per-op output checks.

Two kinds.  Golden records (`golden.json`, stdout digest and exit code
per op key, recorded at the default seed) catch any byte change in an
output whose key recurs.  Independent checks hold at every seed: they
recompute a fact by another route (`mathref`) or compare two ops of the
same round that must agree.
"""
from __future__ import annotations

import hashlib
import json

import mathref
from ops import GROUPS, class_perms


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


class Checker:
    """Checks the ops of one run.  `check` returns a failure reason or
    None; `finish` returns the (op, reason) pairs of the cross-op checks,
    which need the whole round."""

    def __init__(self, golden: dict | None = None):
        self.golden = golden or {}
        self.recorded: dict[str, list] = {}
        self._facts: dict[str, dict] = {}
        self._pending: list = []          # (op, parsed output)
        self._bases: dict = {}            # base poly -> trace output
        self._pin: dict = {}              # (spec, full) -> diagonal signs

    def check(self, op: dict, rc, stdout: bytes, stderr: bytes = b"") -> str | None:
        self.recorded[op["key"]] = [rc, digest(stdout)]
        want = self.golden.get(op["key"])
        if want is not None and want != [rc, digest(stdout)]:
            return f"differs from the golden record (exit {rc}, want {want[0]})"
        if rc != 0:
            tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
            return f"exit {rc}: {' '.join(tail)}"
        c = op["check"]
        try:
            out = json.loads(stdout)
            return getattr(self, "_" + c["type"].replace("-", "_"))(op, c, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"malformed output ({type(exc).__name__}: {exc})"

    def finish(self) -> list:
        bad = []
        pending, self._pending = self._pending, []
        for op, out in pending:
            c = op["check"]
            if c["type"] == "algebra":
                base = self._bases.get(tuple(c["base"]))
                if base is None:
                    bad.append((op, "no base-field op in the round"))
                    continue
                want = mathref.sw_repeat(base["rank"], base["disc"],
                                         set(base["w2_places"]),
                                         base["signature"], c["m"])
                got = {"rank": out["rank"], "disc": out["disc"],
                       "places": set(out["w2_places"]),
                       "signature": out["signature"]}
                if got != want:
                    bad.append((op, f"sw_repeat of the base gives {want}, got {got}"))
            else:
                other = self._pin.get((c["spec"], not c["full"]))
                if other is not None and other != out["diagonal_signs"]:
                    bad.append((op, "full table and --involutions-only disagree "
                                    "on the squares"))
        return bad

    def facts(self, cls: str) -> dict:
        if cls not in self._facts:
            self._facts[cls] = mathref.group_facts(class_perms(cls))
        return self._facts[cls]

    # -- one method per check type -------------------------------------

    def _cohomology(self, op, c, out):
        f = self.facts(c["class"])
        n, h2_dim, reduced = f["order"], GROUPS[c["class"]][2], GROUPS[c["class"]][3]
        verb = c["verb"]
        if verb == "h2":
            if out["coboundary_dim"] != n - 1 - f["hom_dim"]:
                return "dim B2 != (|G| - 1) - dim Hom(G, Z/2)"
            if out["h2_dim"] != out["cocycle_dim"] - out["coboundary_dim"]:
                return "dim H2 != dim Z2 - dim B2"
            if out["h2_dim"] != h2_dim:
                return f"dim H2 = {out['h2_dim']}, want {h2_dim}"
        elif verb == "kers":
            coords = out["kernel_coords"]
            if out["h2_dim"] != h2_dim:
                return f"dim H2 = {out['h2_dim']}, want {h2_dim}"
            if (out["kernel_dim"] != len(coords) or len(set(coords)) != len(coords)
                    or any(not 0 < x < 2 ** h2_dim for x in coords)):
                return "kernel basis does not match kernel_dim"
            if out["two_reduced"] != (not coords) or out["two_reduced"] != reduced:
                return f"two_reduced = {out['two_reduced']}, want {reduced}"
        elif verb == "2reduced":
            if out["verdict"] != reduced:
                return f"verdict {out['verdict']}, want {reduced}"
        else:
            if (out["base_order"], out["total_order"]) != (n, 2 * n):
                return "extension orders are wrong"
            if out["class_coords"] != 1 << c["basis"] or out["class_is_coboundary"]:
                return "basis class is not the requested basis vector"
            if len(out["s_diagonal"]) != f["involutions"]:
                return "s_diagonal length != number of involutions"
            # (g, a)^2 = (e, c(g, g)): g lifts to an involution iff c(g, g) = 0
            if out["two_lift_property"] != (not any(out["s_diagonal"])):
                return "two_lift_property disagrees with s_diagonal"
        return None

    def _poly(self, op, c, out):
        cs = c["coeffs"]
        d = len(cs) - 1
        if (out["degree"], out["rank"]) != (d, d):
            return "degree or rank is wrong"
        disc, D = out["disc"], mathref.poly_disc(cs)
        if not mathref.is_square(disc * D) or any(disc % (p * p) == 0 for p in range(2, 100)):
            return f"disc {disc} is not the square class of the discriminant {D}"
        r1 = mathref.real_roots(cs)
        r2 = (d - r1) // 2
        if out["signature"] != [r1 + r2, r2]:
            return f"signature {out['signature']}, Sturm count gives {[r1 + r2, r2]}"
        if out["totally_real"] != (r1 == d):
            return "totally_real disagrees with the real root count"
        if len(out["w2_places"]) % 2:
            return "odd number of w2 places"
        self._bases[tuple(cs)] = out
        return None

    def _algebra(self, op, c, out):
        d = (len(c["base"]) - 1) * c["m"]
        if (out["degree"], out["rank"]) != (d, d):
            return "degree or rank is wrong"
        if len(out["w2_places"]) % 2:
            return "odd number of w2 places"
        self._pending.append((op, out))
        return None

    def _classify(self, op, c, out):
        if not out["verdict"]:
            return "the fixture is not isometric to its model"
        if out["w1"] != c["disc"]:
            return f"w1 = {out['w1']}, fixture disc class {c['disc']}"
        if out["signature"] != ([8, 0] if c["real"] else [4, 4]):
            return "signature disagrees with the fixture's reality"
        return None

    def _form(self, op, c, out):
        ents = c["entries"]
        pos = sum(1 for e in ents if e > 0)
        prod = 1
        for e in ents:
            prod *= e
        primes = {"inf", 2} | set(mathref.small_factor(prod))
        if out["rank"] != len(ents) or out["signature"] != [pos, len(ents) - pos]:
            return "rank or signature is wrong"
        if out["disc"] != mathref.squarefree(prod):
            return f"disc {out['disc']}, want {mathref.squarefree(prod)}"
        if len(out["w2_places"]) % 2 or not set(out["w2_places"]) <= primes:
            return "w2 places are not an even set of relevant places"
        want = {} if c["iso"] is None else {"isometric": c["iso"]}
        if out["verdicts"] != want:
            return f"verdicts {out['verdicts']}, want {want}"
        return None

    def _pin_cocycle(self, op, c, out):
        f = self.facts(c["cls"])
        n = f["order"]
        signs = out["diagonal_signs"]
        if out["order"] != n or out["involutions_only"] == c["full"]:
            return "order or mode is wrong"
        if len(signs) != f["involutions"] or set(signs.values()) - {1, -1}:
            return "diagonal signs do not cover the involutions"
        keys = sorted(signs, key=int)
        if out["s_vector"] != [int(signs[k] == -1) for k in keys]:
            return "s_vector disagrees with the diagonal signs"
        if c["full"]:
            bits = out["cocycle_bits"]
            if len(bits) != n or any(len(r) != n or set(r) - set("01") for r in bits):
                return "cocycle table has the wrong shape"
            if bits[0] != "0" * n or any(r[0] != "0" for r in bits):
                return "cocycle is not normalized"
            if any(bits[int(k)][int(k)] != ("1" if signs[k] == -1 else "0") for k in keys):
                return "cocycle diagonal disagrees with the squares"
            if not isinstance(out["coboundary"], bool):
                return "no coboundary verdict"
        self._pin[(c["spec"], c["full"])] = signs
        self._pending.append((op, out))
        return None

    def _pin_sign(self, op, c, out):
        want = 1 if c["n"] % 8 in (0, 2) else -1
        return None if out == want else f"sign {out}, closed form gives {want}"

    def _product_sign(self, op, c, out):
        a, b, x, y = out
        if {a, b, x, y} - {0, 1}:
            return "sign bits are not 0/1"
        return None if a ^ b == x ^ y else "cocycle identity fails on the triple"

    def _suite(self, op, c, out):
        verdicts = {r["statement"]: r["verdict"] for r in out}
        if len(verdicts) != 10 or set(verdicts.values()) != {"pass"}:
            return f"suite verdicts {verdicts}"
        return None

    def _pinned(self, op, c, out):
        return None
