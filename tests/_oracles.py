"""Independent reference implementations used as test oracles.

Everything here works on plain Python frozensets and explicit loops, on
purpose: these must not share code paths with the library under test.
The two parser oracles return library families, so that results compare
with `==`; they build them with the general `SetFamily` constructor,
which sorts and checks the members itself, not with the parsers' path.
"""

from fractions import Fraction
from itertools import combinations


def profile_by_double_loop(sets):
    """Pairwise intersection sizes via an explicit double loop."""
    out = set()
    fsets = [frozenset(s) for s in sets]
    for i in range(len(fsets)):
        for j in range(i + 1, len(fsets)):
            out.add(len(fsets[i] & fsets[j]))
    return frozenset(out)


def sunflower_core_by_petals(sets):
    """Sunflower test via the petal formulation: sets minus the global
    intersection must be pairwise disjoint.  Returns the core frozenset
    or None."""
    fsets = [frozenset(s) for s in sets]
    core = frozenset.intersection(*fsets)
    petals = [s - core for s in fsets]
    for a, b in combinations(petals, 2):
        if a & b:
            return None
    return core


def satisfying_by_subset_loop(ground_size, sets, alpha):
    """Exact satisfying probability by looping over all 2^x subsets."""
    a = Fraction(alpha)
    fsets = [frozenset(s) for s in sets]
    total = Fraction(0)
    for bits in range(1 << ground_size):
        r = {e for e in range(ground_size) if bits >> e & 1}
        if any(s <= r for s in fsets):
            k = len(r)
            total += a**k * (1 - a) ** (ground_size - k)
    return total


def satisfying_successes_by_replay(ground_size, sets, alpha, trials, seed):
    """Monte Carlo successes by replaying the seeded draws in one call
    and testing frozenset containment row by row.  It shares only numpy's
    Philox stream with the library, which draws the same words in blocks
    of rows.  It compares `Generator.random` uniforms with alpha, where
    the library compares the raw words with ceil(alpha * 2^53) << 11, so
    it checks that threshold independently."""
    import numpy as np

    rng = np.random.Generator(np.random.Philox(key=seed))
    included = rng.random((trials, ground_size)) < alpha
    fsets = [frozenset(s) for s in sets]
    successes = 0
    for row in included:
        r = frozenset(e for e, kept in enumerate(row.tolist()) if kept)
        if any(s <= r for s in fsets):
            successes += 1
    return successes


def bad_members_by_witness_table(ground_size, sets, w_elems, d):
    """Members without a goodness witness, via precomputed witness sets."""
    w = frozenset(w_elems)
    fsets = [frozenset(s) for s in sets]
    bad = []
    for s in fsets:
        outside = s - w
        witnessed = any(
            (cand - w) <= outside and len(cand - w) <= d for cand in fsets
        )
        if not witnessed:
            bad.append(s)
    return bad


def others_inside_unions(sets, w_elems):
    """Per set S, the indices of the other sets T with T inside W u S."""
    w = frozenset(w_elems)
    fsets = [frozenset(s) for s in sets]
    return [
        [k for k, t in enumerate(fsets) if k != j and t <= w | s]
        for j, s in enumerate(fsets)
    ]


def link_count_by_scan(sets, t_elems):
    """|F_T| by scanning members for supersets of T."""
    t = frozenset(t_elems)
    return sum(1 for s in sets if t <= frozenset(s))


def first_sunflower_by_full_scan(sets, r, core=None):
    """First index tuple, in combinations order, of r sets forming a
    sunflower by the petal formulation, else None.  With `core` given the
    core is fixed: every set holds it and the sets minus it are pairwise
    disjoint (so core=frozenset() asks for pairwise-disjoint sets)."""
    fsets = [frozenset(s) for s in sets]
    for combo in combinations(range(len(fsets)), r):
        chosen = [fsets[i] for i in combo]
        if core is None:
            if sunflower_core_by_petals(chosen) is not None:
                return combo
        elif all(core <= s for s in chosen) and all(
            not ((a - core) & (b - core)) for a, b in combinations(chosen, 2)
        ):
            return combo
    return None


def has_sunflower_by_full_scan(sets, r):
    """Exhaustive r-sunflower existence via the petal formulation."""
    return first_sunflower_by_full_scan(sets, r) is not None


def greedy_L_masks_by_full_budget(x, n, allowed, target_count, seed, budget):
    """Kept masks of the greedy L-intersecting construction by the plain
    loop: every draw up to the target or the end of the budget is tested
    against every kept set, and masks are packed element by element.  It
    shares only numpy's Philox stream with the library, which it must
    reproduce draw for draw."""
    import numpy as np

    def n_subset_masks(rng, max_draws):
        drawn = 0
        while drawn < max_draws:
            block = min(512, max_draws - drawn)
            picks = np.argpartition(rng.random((block, x)), n - 1, axis=1)[:, :n]
            for row in picks:
                mask = 0
                for e in row:
                    mask |= 1 << int(e)
                yield mask
            drawn += block

    rng = np.random.Generator(np.random.Philox(key=seed))
    if n == 0:
        return [0][: min(target_count, budget)]
    kept = []
    for mask in n_subset_masks(rng, budget):
        if len(kept) >= target_count:
            break
        if all((mask & m).bit_count() in allowed for m in kept):
            kept.append(mask)
    return kept


def parse_family_text_line_by_line(text):
    """The text-format parser as it was before the one-pass scan: every
    line checked on its own, then every row sorted by the general
    SetFamily constructor.  It reads tokens with int(),
    so it also takes the '+1', '1_0' and non-ASCII digit tokens that the
    library refuses; compare the two only on ASCII integer tokens."""
    from sunflowers import ParseError, SetFamily

    ground_size = None
    rows = []
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")  # universal newlines
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ground_size is None:
            if not line.startswith("x="):
                raise ParseError(f"line {lineno}: expected header 'x=<ground_size>', got {raw!r}")
            try:
                ground_size = int(line[2:])
            except ValueError:
                raise ParseError(f"line {lineno}: bad ground size in {raw!r}") from None
            if ground_size < 0:
                raise ParseError(f"line {lineno}: ground size must be >= 0")
            continue
        try:
            elems = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer element in {raw!r}") from None
        if sorted(elems) != elems:
            raise ParseError(f"line {lineno}: elements must be ascending in {raw!r}")
        if len(set(elems)) != len(elems):
            raise ParseError(f"line {lineno}: duplicate element in {raw!r}")
        if any(e < 0 or e >= ground_size for e in elems):
            raise ParseError(f"line {lineno}: element out of range [0, {ground_size}) in {raw!r}")
        rows.append((lineno, elems))
    if ground_size is None:
        raise ParseError("missing header line 'x=<ground_size>'")
    seen = {}
    for lineno, elems in rows:
        key = tuple(elems)
        if key in seen:
            raise ParseError(f"line {lineno}: duplicate set (first seen on line {seen[key]})")
        seen[key] = lineno
    return SetFamily(ground_size, (elems for _, elems in rows))


def parse_family_json_row_by_row(text):
    """The JSON parser as it was before the one-pass construction: rows
    sorted and checked by the general SetFamily constructor; a 'weights' key is refused once the sets are read."""
    import json

    from sunflowers import FamilyError, ParseError, SetFamily

    def is_int(value):
        return isinstance(value, int) and not isinstance(value, bool)

    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or "ground_size" not in obj or "sets" not in obj:
        raise ParseError("JSON family needs 'ground_size' and 'sets' keys")
    ground_size = obj["ground_size"]
    if not is_int(ground_size):
        raise ParseError("'ground_size' must be an integer")
    raw_sets = obj["sets"]
    if not isinstance(raw_sets, list):
        raise ParseError("'sets' must be a list of element lists")
    sets = []
    for i, row in enumerate(raw_sets):
        if not isinstance(row, list) or not all(is_int(e) for e in row):
            raise ParseError(f"set #{i}: must be a list of integers")
        if len(set(row)) != len(row):
            raise ParseError(f"set #{i}: duplicate element in {row}")
        if any(e < 0 or e >= ground_size for e in row):
            raise ParseError(f"set #{i}: element out of range [0, {ground_size})")
        sets.append(row)
    try:
        family = SetFamily(ground_size, sets)
    except FamilyError as exc:
        raise ParseError(str(exc)) from None
    if "weights" in obj:
        raise ParseError("weights are no longer read; remove the 'weights' key")
    return family
