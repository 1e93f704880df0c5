"""Spans around the calls into each layer of the sunflowers package.

The tracer wraps the public functions of every layer module and rebinds
each wrapped name everywhere it is bound (the defining module, the modules
that imported it by name, and the package itself), so that for example
`cli.find_any` and `finders.is_L_intersecting` are traced as well as
`finders.find_any` and `families.is_L_intersecting`.  The library is not
modified on disk; `uninstall` restores every binding.

A span is (name, start, end, parent, job, info).  Spans stay in memory and
are written out when the run ends.  `info` holds the work counts an
observer derived from the call's inputs and outputs (see counts.py).
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import defaultdict

import counts

LAYERS = ("cli", "formats", "generators", "families", "finders", "spread", "encoding", "bounds")

# Per-element helpers whose cost per call is below a span's own cost; the
# spans of their callers cover them.  `cli` is traced at `main` only.
UNTRACED = {
    "families": {"mask_of", "elements_of", "submasks"},
    "encoding": {"classify_pair", "bad_pair_members", "encode_bad_pair", "decode_bad_pair"},
}
TRACED_ONLY = {"cli": {"main"}}

NARROW_X = 63  # widest ground set a 64-bit mask row holds


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _family_sizes(family):
    return [m.bit_count() for m in family.masks]


def _obs_random_l(a, k, res):
    target = _arg(a, k, 3, "target_count")
    budget = _arg(a, k, 5, "budget", 100_000)
    return {"target": target, "budget": budget, "got": len(res)}


def _obs_profile(a, k, res):
    return {"pairs": counts.pairs_scanned(len(_arg(a, k, 0, "family")))}


def _obs_find_any(a, k, res):
    return {"status": res.status}


def _obs_recursive(a, k, res):
    return {"found": res[0] is not None}


def _obs_brute(a, k, res):
    family = _arg(a, k, 0, "family")
    r = _arg(a, k, 1, "r")
    witness = None
    if res is not None:
        index = {m: i for i, m in enumerate(family.masks)}
        witness = [index[s.mask] for s in res.petal_sets]
    return {"subsets": counts.r_subsets_examined(len(family), r, witness)}


def _obs_sample(a, k, res):
    family = _arg(a, k, 0, "family")
    x = family.ground_size
    return {"trials": res.trials, "x": x,
            "tests": counts.member_tests(res.trials, len(family), x),
            "bytes": counts.mc_bytes_computed(res.trials, len(family), x)}


def _obs_exact(a, k, res):
    return {"cells": counts.lattice_cells(_arg(a, k, 0, "family").ground_size)}


def _obs_links(a, k, res):
    return {"visits": counts.submask_visits(_family_sizes(_arg(a, k, 0, "family")))}


def _obs_spread_link(a, k, res):
    visits = counts.submask_visits(_family_sizes(_arg(a, k, 0, "family")))
    if len(res.link_family):
        visits += counts.submask_visits(_family_sizes(res.link_family))
    return {"visits": visits}


def _obs_audit(a, k, res):
    family = _arg(a, k, 0, "family")
    w = _arg(a, k, 1, "w_size")
    return {"w_sets": counts.w_sets(family.ground_size, w),
            "pairs": counts.pairs_classified(family.ground_size, w, len(family)),
            "bad": getattr(res, "total_bad_pairs", 0)}


def _obs_crossover(a, k, res):
    return {"rows": len(res.rows)}


def _obs_load(a, k, res):
    return {"bytes": len(_arg(a, k, 0, "text").encode())}


OBSERVERS = {
    "generators.gen_random_L_intersecting": _obs_random_l,
    "families.intersection_profile": _obs_profile,
    "finders.find_any": _obs_find_any,
    "finders.l_intersecting_find": _obs_recursive,
    "finders.brute_force_sunflower": _obs_brute,
    "spread.sample_satisfying": _obs_sample,
    "spread.exact_satisfying": _obs_exact,
    "spread.spread_kappa": _obs_links,
    "spread.is_kappa_spread": _obs_links,
    "spread.find_spread_link": _obs_spread_link,
    "encoding.audit_encoding_bound": _obs_audit,
    "encoding.audit_markov_step": _obs_audit,
    "bounds.crossover_report": _obs_crossover,
    "formats.load_family": _obs_load,
}


class Tracer:
    """Records one span per traced call; install() patches, uninstall()
    restores.  `job` labels the spans of the job currently running."""

    def __init__(self):
        self.spans: list = []
        self.job = -1
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name, fn):
        spans, stack, observe = self.spans, self._stack, OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, time.perf_counter(), parent, self.job, None)
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            spans[idx] = (name, start, end, parent, self.job,
                          observe(args, kwargs, result) if observe else None)
            return result

        return traced

    def _wrap_compare(self, fn):
        """certified_compare: count maker calls, so that every call beyond
        the first of make_a is one precision doubling."""
        traced = self._wrap("bounds.certified_compare", fn)
        spans = self.spans

        @functools.wraps(fn)
        def counting(make_a, make_b, *args, **kwargs):
            calls = [0]

            def counted(d):
                calls[0] += 1
                return make_a(d)

            idx = len(spans)
            result = traced(counted, make_b, *args, **kwargs)
            name, start, end, parent, job, _ = spans[idx]
            spans[idx] = (name, start, end, parent, job, {"doublings": calls[0] - 1})
            return result

        return counting

    def install(self) -> None:
        modules = [importlib.import_module(f"sunflowers.{layer}") for layer in LAYERS]
        package = importlib.import_module("sunflowers")
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__
                        or attr in UNTRACED.get(layer, ())
                        or (layer in TRACED_ONLY and attr not in TRACED_ONLY[layer])):
                    continue
                if attr == "certified_compare":
                    wrappers[fn] = self._wrap_compare(fn)
                else:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules + [package]:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part covered by its child spans.
    Spans of one thread nest, so direct children never overlap."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer totals from the spans of one traced pass."""
    own = self_times(spans)
    inclusive: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(int)
    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for (name, start, end, _, _, info), s in zip(spans, own):
        m[name.split(".", 1)[0] + ".self_s"] += s
        inclusive[name] += end - start
        calls[name] += 1
        for key, value in (info or {}).items():
            if not isinstance(value, str):
                total[f"{name}.{key}"] += value

    rl = [(end - start, info) for name, start, end, _, _, info in spans
          if name == "generators.gen_random_L_intersecting" and info]
    saturated = [(dt, info) for dt, info in rl if info["got"] < info["target"]]
    requested = sum(info["target"] for _, info in rl)
    m.update({
        "formats.load_family.s": inclusive["formats.load_family"],
        "formats.load_family.calls": calls["formats.load_family"],
        "formats.bytes_parsed": total["formats.load_family.bytes"],
        "formats.dump.s": inclusive["formats.dump_family_text"] + inclusive["formats.dump_family_json"],
        "generators.random_l.s": inclusive["generators.gen_random_L_intersecting"],
        "generators.random_l.calls": calls["generators.gen_random_L_intersecting"],
        "generators.random_l.saturated_calls": len(saturated),
        "generators.random_l.saturated_s": sum(dt for dt, _ in saturated),
        "generators.random_l.draws_saturated": sum(info["budget"] for _, info in saturated),
        "generators.random_l.fill_ratio": (sum(info["got"] for _, info in rl) / requested
                                           if requested else 0.0),
        "generators.random_uniform.s": inclusive["generators.gen_random_uniform"],
        "families.intersection_profile.s": inclusive["families.intersection_profile"],
        "families.intersection_profile.calls": calls["families.intersection_profile"],
        "families.pairs_scanned": total["families.intersection_profile.pairs"],
        "families.is_L_intersecting.s": inclusive["families.is_L_intersecting"],
        "families.find_r_disjoint.s": inclusive["families.find_r_disjoint"],
        "families.link.s": inclusive["families.link"],
    })

    statuses = [info["status"] for name, *_, info in spans if name == "finders.find_any" and info]
    recursive = [info["found"] for name, *_, info in spans
                 if name == "finders.l_intersecting_find" and info]
    examined = total["finders.brute_force_sunflower.subsets"]
    brute_s = inclusive["finders.brute_force_sunflower"]
    m.update({
        "finders.find_any.s": inclusive["finders.find_any"],
        "finders.find_any.calls": calls["finders.find_any"],
        "finders.verdict.found": statuses.count("found"),
        "finders.verdict.absent": statuses.count("absent"),
        "finders.verdict.unknown": statuses.count("unknown"),
        "finders.recursive.s": inclusive["finders.l_intersecting_find"],
        "finders.recursive.found_ratio": sum(recursive) / len(recursive) if recursive else 0.0,
        "finders.brute.s": brute_s,
        "finders.brute.calls": calls["finders.brute_force_sunflower"],
        "finders.r_subsets_examined": examined,
        "finders.r_subsets_per_s": examined / brute_s if brute_s else 0.0,
    })

    mc = [(end - start, info) for name, start, end, _, _, info in spans
          if name == "spread.sample_satisfying" and info]

    def trials_per_s(narrow: bool) -> float:
        part = [(dt, info["trials"]) for dt, info in mc if (info["x"] <= NARROW_X) == narrow]
        busy = sum(dt for dt, _ in part)
        return sum(t for _, t in part) / busy if busy else 0.0

    m.update({
        "spread.mc.s": inclusive["spread.sample_satisfying"],
        "spread.mc.trials": total["spread.sample_satisfying.trials"],
        "spread.mc.narrow.trials_per_s": trials_per_s(True),
        "spread.mc.wide.trials_per_s": trials_per_s(False),
        "spread.mc.member_tests": total["spread.sample_satisfying.tests"],
        "spread.mc.bytes_computed": total["spread.sample_satisfying.bytes"],
        "spread.exact.s": inclusive["spread.exact_satisfying"],
        "spread.exact.lattice_cells": total["spread.exact_satisfying.cells"],
        "spread.links.s": (inclusive["spread.spread_kappa"] + inclusive["spread.is_kappa_spread"]
                           + inclusive["spread.find_spread_link"]),
        "spread.links.submask_visits": (total["spread.spread_kappa.visits"]
                                        + total["spread.is_kappa_spread.visits"]
                                        + total["spread.find_spread_link.visits"]),
        "spread.disjoint.s": inclusive["spread.check_satisfying_disjoint"],
    })

    audit_s = inclusive["encoding.audit_encoding_bound"]
    markov_s = inclusive["encoding.audit_markov_step"]
    pairs = total["encoding.audit_encoding_bound.pairs"] + total["encoding.audit_markov_step.pairs"]
    m.update({
        "encoding.audit.s": audit_s,
        "encoding.markov.s": markov_s,
        "encoding.w_sets": (total["encoding.audit_encoding_bound.w_sets"]
                            + total["encoding.audit_markov_step.w_sets"]),
        "encoding.pairs_classified": pairs,
        "encoding.pairs_per_s": pairs / (audit_s + markov_s) if audit_s + markov_s else 0.0,
        "encoding.bad_pairs": total["encoding.audit_encoding_bound.bad"],
        "bounds.crossover.s": inclusive["bounds.crossover_report"],
        "bounds.rows": total["bounds.crossover_report.rows"],
        "bounds.compare.calls": calls["bounds.certified_compare"],
        "bounds.precision_doublings": total["bounds.certified_compare.doublings"],
        "bounds.real_bound.s": (inclusive["bounds.three_sunflower_bound"]
                                + inclusive["bounds.rlogn_bound"]
                                + inclusive["bounds.d_intersecting_bound"]),
    })
    return m
