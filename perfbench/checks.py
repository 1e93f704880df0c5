"""Independent checks of every job's output.

Nothing here calls the sunflowers package: families are re-read from the
fixture files with a parser of our own and tested with plain frozensets,
so a defect in the library cannot hide itself.  Each check returns None
when the output is right and a message naming the fault otherwise.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations
from pathlib import Path

SE_TOLERANCE = 4  # Monte Carlo estimates must fall within 4 standard errors
EXACT_LIMIT = 24  # the CLI reports exact_satisfying up to this ground size


def parse_family(text: str) -> tuple[int, list[frozenset]]:
    """The text family format: `x=<ground_size>`, then one set per line."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("x="):
        raise ValueError("missing x= header")
    return int(lines[0][2:]), [frozenset(int(t) for t in ln.split()) for ln in lines[1:]]


def profile(sets) -> set:
    return {len(a & b) for a, b in combinations(sets, 2)}


def sunflower_core(sets):
    """Core of the sunflower the sets form, by the petal formulation, or None."""
    core = frozenset.intersection(*sets)
    petals = [s - core for s in sets]
    if any(a & b for a, b in combinations(petals, 2)):
        return None
    return core


def has_sunflower(sets, r: int) -> bool:
    return any(sunflower_core(c) is not None for c in combinations(sets, r))


def link_counts(sets) -> dict:
    """|F_T| for every nonempty T inside some member."""
    out: dict = {}
    for s in sets:
        elems = sorted(s)
        for k in range(1, len(elems) + 1):
            for t in combinations(elems, k):
                out[t] = out.get(t, 0) + 1
    return out


class Checker:
    """Validates outputs; caches parsed fixtures and oracle verdicts."""

    def __init__(self, root: Path):
        self.root = root
        self._families: dict = {}
        self._exact: dict = {}

    def family(self, rel: str):
        if rel not in self._families:
            self._families[rel] = parse_family((self.root / rel).read_text())
        return self._families[rel]

    def check(self, job, outcome):
        if outcome.rc not in job.exits:
            return f"exit code {outcome.rc} outside {sorted(job.exits)}: {outcome.stderr.strip()[:200]}"
        try:
            return getattr(self, "check_" + job.check.replace("-", "_"))(job.params, outcome)
        except (ValueError, KeyError, TypeError, ZeroDivisionError, json.JSONDecodeError) as exc:
            return f"unreadable output ({type(exc).__name__}: {exc})"

    # -- generators ---------------------------------------------------------

    def check_gen_l(self, p, out):
        x, sets = parse_family(out.stdout)
        if x != p["x"] or not 1 <= len(sets) <= p["count"] or len(set(sets)) != len(sets):
            return f"{len(sets)} sets on x={x}, asked {p['count']} on x={p['x']}"
        if any(len(s) != p["n"] or max(s) >= x for s in sets):
            return "a set has the wrong size or leaves the ground set"
        if not profile(sets) <= set(p["L"]):
            return f"intersection sizes {sorted(profile(sets))} not within L={p['L']}"
        return None

    def check_gen_uniform(self, p, out):
        x, sets = parse_family(out.stdout)
        if x != p["x"] or len(set(sets)) != p["count"] or len(sets) != p["count"]:
            return f"expected {p['count']} distinct sets on x={p['x']}"
        if any(len(s) != p["n"] or max(s) >= x for s in sets):
            return "a set has the wrong size or leaves the ground set"
        return None

    def check_gen_sunflower(self, p, out):
        _, sets = parse_family(out.stdout)
        core = sunflower_core(sets) if len(sets) >= 2 else None
        if len(sets) != p["r"] or core is None or len(core) != p["core"]:
            return "generated sets are not the requested sunflower"
        if any(len(s) != p["core"] + p["petal"] for s in sets):
            return "a petal has the wrong size"
        return None

    def check_gen_transversal(self, p, out):
        _, sets = parse_family(out.stdout)
        b, k = p["blocks"], p["size"]
        ok = len(set(sets)) == k**b and all(
            sorted(e // k for e in s) == list(range(b)) for s in sets)
        return None if ok else "not the full transversal family"

    # -- predicates and search ----------------------------------------------

    def check_check(self, p, out):
        x, sets = self.family(p["family"])
        o = json.loads(out.stdout)["outputs"]
        prof = profile(sets)
        if o["members"] != len(sets) or o["intersection_profile"] != sorted(prof):
            return "member count or intersection profile disagrees with the file"
        if o["verdicts"].get("L_intersecting") != (prof <= set(p["L"])):
            return "L_intersecting verdict is wrong"
        return None

    def check_find(self, p, out):
        _, sets = self.family(p["family"])
        o = json.loads(out.stdout)["outputs"]
        status = o["status"]
        if {"found": 0, "absent": 1, "unknown": 2}[status] != out.rc:
            return f"status {status} with exit code {out.rc}"
        if p.get("expect") and status != p["expect"]:
            return f"status {status}, expected {p['expect']}"
        if status == "found":
            petals = [frozenset(s) for s in o["sunflower"]["sets"]]
            members = set(sets)
            if len(petals) != p["r"] or len(set(petals)) != p["r"]:
                return "certificate does not have r distinct sets"
            if not all(s in members for s in petals):
                return "certificate uses a set that is not a member"
            core = sunflower_core(petals)
            if core is None or core != frozenset(o["sunflower"]["core"]):
                return "certificate is not a sunflower with the reported core"
        elif status == "absent" and p.get("oracle") and has_sunflower(sets, p["r"]):
            return "absent, but the exhaustive oracle finds a sunflower"
        return None

    # -- bounds ---------------------------------------------------------------

    def check_bounds_exact(self, p, out):
        n, r = p["n"], p["r"]
        want = {"erdos-rado": math.factorial(n) * (r - 1) ** n,
                "pigeonhole-limit": max(r - 1, n * n - n + 1)}[p["which"]]
        got = json.loads(out.stdout)["outputs"]["bound"]["value"]
        return None if got == str(want) else f"{p['which']} = {got}, expected {want}"

    def check_crossover(self, p, out):
        n, r = p["n"], p["r"]
        c = json.loads(out.stdout)["outputs"]["crossover"]
        rows = c["rows"]
        if [row["d"] for row in rows] != list(range(1, n + 1)):
            return "crossover rows are not d = 1..n"
        for row in rows:
            d = row["d"]
            want = math.factorial(n) // math.factorial(n - d) * (r - 1) ** (d + 1)
            if row["falling_factorial"] != str(want):
                return f"falling-factorial bound wrong at d={d}"
        first = next((row["d"] for row in rows if row["smaller"] == "d-intersecting"), None)
        return None if first == c["first_improvement"] else "first_improvement disagrees with rows"

    # -- spread ---------------------------------------------------------------

    def _exact_agrees(self, p, value: Fraction):
        key = (p["family"], str(p["alpha"]))
        seen = self._exact.setdefault(key, value)
        return None if seen == value else "exact_satisfying differs between jobs"

    def _within_se(self, est, se, exact: Fraction):
        if abs(Fraction(est) - exact) > SE_TOLERANCE * Fraction(se):
            return f"estimate {est} more than {SE_TOLERANCE} SE ({se}) from exact {float(exact)}"
        return None

    def check_spread_mc(self, p, out):
        x, sets = self.family(p["family"])
        o = json.loads(out.stdout)["outputs"]
        s = o["sampled_satisfying"]
        if s["trials"] != p["trials"] or s["estimate"] != s["successes"] / s["trials"]:
            return "sampled estimate inconsistent with its trial count"
        if x > EXACT_LIMIT:
            return None if "exact_satisfying" not in o else "exact reported above x=24"
        exact = Fraction(o["exact_satisfying"])
        return self._exact_agrees(p, exact) or self._within_se(s["estimate"], s["stderr"], exact)

    def check_spread_exact(self, p, out):
        exact = Fraction(json.loads(out.stdout)["outputs"]["exact_satisfying"])
        if not 0 <= exact <= 1:
            return "exact probability outside [0, 1]"
        return self._exact_agrees(p, exact)

    def check_spread_kappa(self, p, out):
        _, sets = self.family(p["family"])
        o = json.loads(out.stdout)["outputs"]
        k = Fraction(p["kappa"])
        n = len(next(iter(sets)))
        size = len(sets)
        counts = link_counts(sets)
        spread = size >= k**n and all(c <= size / k ** len(t) for t, c in counts.items())
        if o["is_kappa_spread"] != spread or out.rc != (0 if spread else 1):
            return f"is_kappa_spread={o['is_kappa_spread']}, oracle says {spread}"
        t = tuple(o["spread_link"]["t_set"])
        if len(t) > p["d"] or (t and counts.get(t, 0) < size / k ** len(t)):
            return f"spread link T={list(t)} does not qualify"
        best = min([size ** (1 / n)] + [(size / c) ** (1 / len(t)) for t, c in counts.items()])
        if not math.isclose(o["spread_kappa"], best, rel_tol=1e-9):
            return f"spread_kappa {o['spread_kappa']} != {best}"
        return None

    def check_spread_disjoint(self, p, out):
        _, sets = self.family(p["family"])
        rep = json.loads(out.stdout)["outputs"]["disjointness"]
        if not rep["contrapositive_ok"]:
            return "contrapositive check failed"
        if rep["has_r_disjoint"]:
            w = [frozenset(s) for s in rep["witness"]]
            if len(w) != p["r"] or any(a & b for a, b in combinations(w, 2)) or not set(w) <= set(sets):
                return "disjointness witness is wrong"
        return None

    def check_experiment(self, p, out):
        x, _ = self.family(p["family"])
        lines = out.stdout.strip().splitlines()
        if lines[0] != "alpha,estimate,stderr,exact" or len(lines) - 1 != p["rows"]:
            return f"expected the CSV header and {p['rows']} rows"
        for line in lines[1:]:
            alpha, est, se, exact = line.split(",")
            if not 0 <= float(est) <= 1 or (exact == "") != (x > EXACT_LIMIT):
                return f"alpha={alpha}: estimate or exact column malformed"
            if x <= EXACT_LIMIT:
                bad = self._within_se(float(est), float(se), Fraction(exact))
                if bad:
                    return f"alpha={alpha}: {bad}"
        return None

    # -- encoding -------------------------------------------------------------

    def check_encode(self, p, out):
        x, sets = self.family(p["family"])
        o = json.loads(out.stdout)["outputs"]
        enc, mk = o["encoding"], o["markov"]
        if enc["num_w"] != math.comb(x, p["w"]) or mk["num_w"] != enc["num_w"]:
            return "W enumeration size is not C(x, w)"
        if not (enc["passed"] and mk["holds"]):
            return f"audit failed: passed={enc['passed']} holds={mk['holds']}"
        return None
