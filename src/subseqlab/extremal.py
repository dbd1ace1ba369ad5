"""Extremal tables: the hardest-to-compress words of each length.

``extremal_value(k, n)`` is the minimum, over all length-n words on a
k-letter alphabet, of the most-common-subsequence count.  Relabelling
keeps every count, so the scan is one depth-first walk, in lex order,
over words x in first-occurrence form.  Each node searches rev(x).  Its
suffixes are x's ancestors reversed, so their exact top counts, kept on
the stack, are the search's capacities; its parent is a factor of it,
so the parent's count is a floor to start from.  Top counts are
supermultiplicative, and every word of length r counts at least a
pigeonhole bound L(r), so a node is cut once its count reaches the best
leaf so far divided by L of the symbols still to come: by an aborted
search, or with no search, by an ancestor's exact count times a letter
bound on the rest (see _min_scan).  Ties are cut, so the minimizer is
the lexicographically first.  Reversal keeps every count too, and a
leaf whose reversal has a smaller form meets that twin's count as the
best, so it is always cut.  A table starts each row at best = U + 1, U
the smallest top count of the previous row's minimizer extended by one
symbol.  A scan returns its minimizer's path counts, the exact top
counts of its prefixes, which every node on that path kept on the stack;
they are the capacities of the extensions' searches, so the next row
prices each extension with the scan's own node search (see _seed_bound).

A node search is the branch-and-bound step of ``counting``, floored at
the parent's count and stopped at the node's threshold, run on packed
integers (see _node_search): a count vector over rev(x) is one int of
W-bit fields, W = n + n.bit_length(), so a step is one mask, two
multiplications and a shift.  Counts of a length-L word stay below 2^L
and each field of a capacity product below L * 2^(L-1), so no field
carries into the next.  It keeps no dominance store: a dominated state
never beats the count its dominator's subtree already reached, so the
store only cost time; the recursive reference in tests/oracles.py keeps
its dominance test as a reference only.  The stack keeps the search's
inputs per depth, built only for a node that is searched or expanded: a
child's symbol masks are its parent's shifted up one field, with field
0 set for the new symbol, and its packed capacities are its parent's
with the parent's exact count in one more field.

Relabelling and reversal keep every count, so the scan memoizes searches
by orbit: the key of x[:d+1] is min(x[:d+1], first-occurrence form of
x[d::-1]), the value either the exact count from a finished search or
the lower bound from an aborted one.  A node whose entry is exact, or a
bound at its threshold, is settled without a search.  One memo serves
one public call: every row of an ``extremal_table``, both rows of a
``check_submultiplicativity``, and within a single row the reversal
twins of the words already searched.

The n-th root of the table value brackets the growth constant:

    value^(1/n)  <=  mu_k  <=  (n * value)^(1/n)        (k >= 2, n >= 3)

Windows are compared and rendered by exact integer arithmetic only —
``cross_compare`` cross-multiplies powers, and the decimal strings come
from integer n-th roots of scaled values, rounded toward the safe side.

Literature constants too large to recompute live in a small registry
(data/known_values.json) flagged ``verified-external``; the searches
never feed them back into oracle comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cmp_to_key
from math import comb

# perfbench/layers.py wraps this binding and perfbench/test_perfbench.py
# reads it, although the scan no longer calls it
from .counting import _search_most_common, sum_over_lengths
from .errors import BudgetError, ContractError, require_int, require_word
from .words import Word

# the largest n searched for each k without an explicit budget: k <= 4
# from the table, every k >= 5 WIDE_ALPHABET_BUDGET; each default table
# takes under half a second on a 2-vCPU host (Python 3.11)
DEFAULT_BUDGETS = {1: 100, 2: 16, 3: 9, 4: 6}
WIDE_ALPHABET_BUDGET = 13


@dataclass(frozen=True)
class ExtremalRecord:
    k: int
    n: int
    value: int
    minimizer: Word | None
    method: str  # "exhaustive" or "verified-external"


@dataclass(frozen=True)
class MuWindow:
    """Exact two-sided bracket for the growth constant mu_k.

    ``lower`` and ``upper`` are (base, root) pairs meaning base^(1/root);
    the decimal strings are rounded down resp. up, so the printed
    interval always contains the exact one.
    """

    k: int
    lower: tuple[int, int]
    upper: tuple[int, int]
    lower_decimal: str
    upper_decimal: str
    places: int

    def __post_init__(self) -> None:
        for name, pair in (("lower", self.lower), ("upper", self.upper)):
            if not (
                isinstance(pair, tuple)
                and len(pair) == 2
                and all(isinstance(v, int) for v in pair)
                and pair[1] >= 1
            ):
                raise ContractError(
                    f"{name} must be an (int, int) pair with a positive root, got {pair!r}"
                )
        a, n1 = self.lower
        b, n2 = self.upper
        if cross_compare(a, n1, b, n2) > 0:
            raise ContractError("window lower bound exceeds upper bound")


def _min_scan(
    k: int,
    n: int,
    seed: tuple[tuple[int, ...], tuple[int, ...]] | None,
    memo: dict[tuple[int, ...], tuple[int, bool]],
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(value, lex-first minimizer x, path counts M(x[:i]) for i = 0..n).

    ``seed`` is the (minimizer, path counts) pair of row n - 1, whose
    one-symbol extensions bound the minimum from above (see _seed_bound).
    The top patterns of u and v concatenate, so M(uv) >= M(u) * M(v).  A
    word of length r has a letter occurring c >= ceil(r / k) times, whose
    half power occurs half[c] = C(c, c // 2) times, so M >= L(r) =
    half[ceil(r / k)].  Every leaf below the node y = x[:d+1] counts at
    least M(y) * L(n - d - 1), so y is cut once M(y) reaches ceil(best /
    L(n - d - 1)): before its search if vals[j] * half[top letter count
    of y[j:]] does for some j <= d (j = d is the parent), else when its
    search aborts.  At a leaf L(0) = 1, so the threshold is best.  Every
    node on the minimizer's path was expanded, not cut, so its vals
    entries are exact counts: the path counts the next row's seed needs.

    ``memo`` maps the orbit key min(y, first-occurrence form of rev(y))
    to (M(y), True) after a finished search and to (a lower bound >= the
    threshold, False) after an aborted one.  M is constant on the orbit,
    so a node whose entry is exact, or a bound at its threshold, needs
    no search: every cut and every vals entry stay as a search would
    leave them.
    """
    if n == 0:
        return 1, (), (1,)
    # the _node_search inputs of x[:d], kept per depth: masks[d][t] has
    # field b set where rev(x[:d])[b] == t, and packed[d] holds vals[i]
    # in field i + 1 for i < d
    width = n + n.bit_length()
    field = (1 << width) - 1
    best = 2**n + 1  # above every count: a word has 2^n position subsets
    if seed is not None:
        best = _seed_bound(k, *seed, width)
    best_syms = best_path = ()
    half = [comb(c, c // 2) for c in range(n + 1)]
    x = [0] * n
    vals = [1] * (n + 1)  # vals[d]: exact top count of x[:d]
    masks = [[0] * k] * (n + 1)
    packed = [0] * (n + 1)
    # pending nodes (d, x[d], distinct symbols in x[:d]), popped in lex order
    stack = [(0, 0, 0)]
    while stack:
        d, s, used = stack.pop()
        x[d] = s
        threshold = -(-best // half[-(-(n - d - 1) // k)])
        if _product_reaches(x, vals, d, k, half, threshold):
            continue
        code: dict[int, int] = {}
        key = min(tuple(x[: d + 1]), tuple([code.setdefault(t, len(code)) for t in x[d::-1]]))
        value, exact = memo.get(key, (0, False))
        if value >= threshold:  # settled: an exact count or a bound at the threshold
            continue
        if not exact or d + 1 < n:  # searched or expanded: build its inputs
            # rev(x[:d + 1]) is s before rev(x[:d]): every field moves up one
            masks[d + 1] = m = [t << width for t in masks[d]]
            m[s] |= field
            packed[d + 1] = packed[d] | vals[d] << (d + 1) * width
        if not exact:
            value, aborted = _node_search(masks[d + 1], s, packed[d + 1], d + 1, width, threshold)
            memo[key] = (value, not aborted)
            if aborted:  # with a count >= threshold
                continue
        if d + 1 == n:
            best, best_syms, best_path = value, tuple(x), (*vals[:n], value)
            continue
        vals[d + 1] = value
        used = max(used, s + 1)
        stack += [(d + 1, t, used) for t in reversed(range(min(used + 1, k)))]
    return best, best_syms, best_path


def _seed_bound(k: int, syms: tuple[int, ...], path: tuple[int, ...], width: int) -> int:
    """1 + min over t of M(syms.t), for a word ``syms`` whose prefixes
    have the exact top counts ``path``, by one _node_search per symbol.

    The search inputs are those the scan's stack would hold for syms.t.
    Each search aborts at best - 1, the smallest count found so far, and
    runs only while that exceeds the floor M(syms) = path[-1], below
    which no extension counts."""
    field = (1 << width) - 1
    masks = [0] * k
    for b, s in enumerate(reversed(syms), start=1):
        masks[s] |= field << b * width
    caps = sum(c << i * width for i, c in enumerate(path, start=1))
    length = len(syms) + 1
    best = 2**length + 1
    for t in range(k):
        if best - 1 <= path[-1]:
            break
        m = masks.copy()
        m[t] |= field
        value, aborted = _node_search(m, t, caps, length, width, best - 1)
        if not aborted:
            best = value + 1
    return best


def _node_search(
    masks: list[int], root: int, caps: int, length: int, width: int, abort_at: int
) -> tuple[int, bool]:
    """(value, aborted) of the floored, aborting most-common search of a
    scan node's reversed prefix u, |u| = ``length``, on packed integers.

    It is the package's one search that stops early: at the first count
    >= ``abort_at``, which it returns with aborted True; otherwise the
    value is M(u).  Its reference is the recursive
    tests/oracles.branch_and_bound(u, k, 0, capacities, abort_at,
    floor=capacities[1]), which also tries roots other than u[0] =
    ``root``, whose patterns count at most the floor; from u[0] on it
    has the same DFS order and capacity bound.  The reference also drops
    pointwise-dominated states, which never changes the result: the
    dominating state's subtree was searched first and counts at least as
    much, so the running maximum already covers the dominated one.  So
    this kernel keeps no store.  The step and bound are those of
    counting._branch_and_bound, on another state.  A count vector
    c[0..L], L = length, is one int whose field i, bits [i*W, (i+1)*W)
    for W = ``width``, holds c[i]; ``masks[t]`` has every bit of field b
    set where u[b] == t, and field f of ``caps`` holds M(u[L - f + 1:])
    for f = 1..L, so the floor M(u[1:]) is its field L.  Appending t to
    c is:

    * cm = c & masks[t]: the c[b] with u[b] == t;
    * p = cm * ONES, ONES a 1 in every field: field i of p is the sum of
      cm[b] over b <= i, so field L is the child's count and
      (p << W) & FULL its vector;
    * field L of cm * caps is the capacity bound, sum of cm[b] * M(u[b + 1:]).

    The fields read are exact while no field carries into the next, that
    is while every field stays below 2^W.  An entry of a count vector is
    at most 2^L - 1, so W >= L keeps it there.  Field i <= L of cm * caps
    sums, over b < i, cm[b] <= 2^b times a top count of i - b - 1
    symbols, at most 2^(i-b-1): i terms of at most 2^(i-1), so below
    L * 2^(L-1) < 2^(L - 1 + L.bit_length()).  Fields above L only carry
    upwards.  So W = n + n.bit_length() serves every node of a length-n
    scan.  Needs floor < abort_at, which the scan's cut and _seed_bound ensure.
    """
    lw = length * width
    field = (1 << width) - 1
    full = (1 << lw + width) - 1
    ones = full // field
    best = caps >> lw
    states = [ones] * (length + 1)
    nxt = [0] * (length + 1)
    stop = [len(masks)] * (length + 1)
    nxt[0], stop[0] = root, root + 1
    depth = 0
    while depth >= 0:
        s = nxt[depth]
        if s == stop[depth]:
            depth -= 1
            continue
        nxt[depth] = s + 1
        cm = states[depth] & masks[s]
        p = cm * ones
        v = p >> lw & field
        if v > best:
            best = v
            if v >= abort_at:
                return best, True
        if (cm * caps) >> lw & field > best:
            depth += 1
            states[depth] = (p << width) & full
            nxt[depth] = 0
    return best, False


def _product_reaches(x, vals, d, k, half, threshold) -> bool:
    """Whether vals[j] * half[top letter count of x[j : d + 1]] >= threshold for a j <= d.

    x[:j] is a factor of x[:j + 1], so vals[j] never grows as j falls,
    and the product can first reach the threshold only at a j where the
    top letter count grows."""
    counts = [0] * k
    top = 0
    for j in range(d, -1, -1):
        s = x[j]
        counts[s] += 1
        if counts[s] > top:
            top = counts[s]
            if vals[j] * half[top] >= threshold:
                return True
    return False


@cache
def _known_records() -> tuple[ExtremalRecord, ...]:
    # imported here: only a registry lookup reads JSON or package data
    import json
    from importlib import resources

    raw = resources.files(__package__).joinpath("data/known_values.json").read_text()
    return tuple(
        ExtremalRecord(r["k"], r["n"], int(r["value"]), None, r["method"])
        for r in json.loads(raw)["extremal_records"]
    )


def known_record(k: int, n: int) -> ExtremalRecord | None:
    require_int(k=k, n=n)
    for r in _known_records():
        if (r.k, r.n) == (k, n):
            return r
    return None


def extremal_value(
    k: int,
    n: int,
    budgets: dict[int, int] | None = None,
    use_registry: bool = True,
) -> ExtremalRecord:
    """Exact minimum of the most-common-subsequence count over [k]^n.

    Registry hits are returned as-is (method ``verified-external``);
    everything else is searched exhaustively within the per-k budget.
    """
    limits = _check_request(k, n, budgets, "n")
    return _row(k, n, limits, use_registry, None, {})[0]


def extremal_table(
    k: int,
    n_max: int,
    budgets: dict[int, int] | None = None,
    use_registry: bool = False,
) -> list[ExtremalRecord]:
    """Records for n = 1..n_max; each searched row seeds the next one,
    and all rows share one orbit memo (see _min_scan)."""
    limits = _check_request(k, n_max, budgets, "n_max")
    records: list[ExtremalRecord] = []
    memo: dict = {}
    seed = None
    for n in range(1, n_max + 1):
        record, seed = _row(k, n, limits, use_registry, seed, memo)
        records.append(record)
    return records


def _row(k, n, limits, use_registry, seed, memo: dict) -> tuple[ExtremalRecord, tuple | None]:
    """(record, seed of row n + 1) of row (k, n), for arguments already
    checked; a searched row starts from ``seed`` and reads and fills
    ``memo``, and a registry record seeds nothing (see _min_scan)."""
    hit = _checked_row(k, n, limits, use_registry)
    if hit is not None:
        return hit, None
    value, syms, path = _min_scan(k, n, seed, memo)
    return ExtremalRecord(k, n, value, Word(syms, k), "exhaustive"), (syms, path)


def _checked_row(k, n, limits: dict[int, int], use_registry) -> ExtremalRecord | None:
    """The registry record of row (k, n), or None once the row is known
    to be searchable within its budget."""
    hit = known_record(k, n) if use_registry else None
    if hit is not None:
        return hit
    limit = limits.get(k, WIDE_ALPHABET_BUDGET)
    if n > limit:
        raise BudgetError(
            f"extremal search for k={k} is budgeted to n <= {limit} (asked n={n}); "
            "pass budgets={...} to raise the limit explicitly"
        )
    return None


def _check_request(k, n, budgets, name: str) -> dict[int, int]:
    """The per-k length budgets, once k >= 1, the length ``name`` = n >= 0
    and ``budgets`` (a dict of int limits, or None) are checked."""
    require_int(k=k, **{name: n})
    if k < 1 or n < 0:
        raise ContractError(f"need k >= 1 and {name} >= 0, got k={k}, {name}={n}")
    if not isinstance(budgets, (dict, type(None))):
        raise ContractError(f"budgets must be a dict, got {budgets!r}")
    limits = {**DEFAULT_BUDGETS, **(budgets or {})}
    require_int(**{f"budgets[{key!r}]": limit for key, limit in limits.items()})
    return limits


# ---------------------------------------------------------------------------
# exact root arithmetic


def iroot(x: int, n: int) -> int:
    """floor(x ** (1/n)) by Newton iteration on integers."""
    require_int(x=x, n=n)
    if x < 0 or n < 1:
        raise ContractError(f"iroot needs x >= 0, n >= 1, got x={x}, n={n}")
    if x == 0:
        return 0
    if n == 1:
        return x
    g = 1 << -(-x.bit_length() // n)
    while True:
        t = ((n - 1) * g + x // g ** (n - 1)) // n
        if t >= g:
            break
        g = t
    while g**n > x:
        g -= 1
    while (g + 1) ** n <= x:
        g += 1
    return g


def cross_compare(a: int, n1: int, b: int, n2: int) -> int:
    """Sign of a^(1/n1) - b^(1/n2), decided by cross-powering (exact)."""
    require_int(a=a, n1=n1, b=b, n2=n2)
    if a < 0 or b < 0 or n1 < 1 or n2 < 1:
        raise ContractError("cross_compare needs nonnegative bases, positive roots")
    left, right = a**n2, b**n1
    return (left > right) - (left < right)


def root_decimal(a: int, n: int, places: int, mode: str) -> str:
    """a^(1/n) as a decimal string with the given places, rounded
    down ("floor") or up ("ceil").  Python prints ints of at most 4300
    digits, so this allows 1000 places and 3900 digits in all."""
    require_int(a=a, n=n, places=places)
    if mode not in ("floor", "ceil"):
        raise ContractError(f"mode must be floor or ceil, got {mode!r}")
    if not 0 <= places <= 1000:
        raise ContractError(f"places must be in [0, 1000], got {places}")
    scaled = a * 10 ** (places * n)
    r = iroot(scaled, n)
    if mode == "ceil" and r**n != scaled:
        r += 1
    if r.bit_length() > 13000:
        raise ContractError(f"the root to {places} places needs more than 3900 digits")
    if places == 0:
        return str(r)
    return f"{r // 10**places}.{str(r % 10**places).zfill(places)}"


def mu_window(record: ExtremalRecord, places: int = 3) -> MuWindow:
    """Two-sided growth-constant bracket from one extremal record:
    value^(1/n) <= mu_k <= (n*value)^(1/n), valid for k >= 2, n >= 3."""
    if not isinstance(record, ExtremalRecord):
        raise ContractError(f"record must be an ExtremalRecord, got {record!r}")
    require_int(k=record.k, n=record.n, value=record.value)
    if record.k < 2 or record.n < 3:
        raise ContractError("window bracketing needs k >= 2 and n >= 3")
    lower = (record.value, record.n)
    upper = (record.n * record.value, record.n)
    return MuWindow(
        record.k,
        lower,
        upper,
        root_decimal(*lower, places, "floor"),
        root_decimal(*upper, places, "ceil"),
        places,
    )


def best_window(records: list[ExtremalRecord], places: int = 3) -> MuWindow:
    """Tightest window combinable from several records of the same k."""
    if not isinstance(records, (list, tuple)):
        raise ContractError(f"records must be a list of ExtremalRecords, got {records!r}")
    windows = [mu_window(r, places) for r in records]
    if not windows:
        raise ContractError("need at least one record with n >= 3")
    k = windows[0].k
    if any(w.k != k for w in windows):
        raise ContractError("records must share one alphabet size")
    by_root = cmp_to_key(lambda p, q: cross_compare(*p, *q))
    lo = max((w.lower for w in windows), key=by_root)
    hi = min((w.upper for w in windows), key=by_root)
    return MuWindow(
        k,
        lo,
        hi,
        root_decimal(*lo, places, "floor"),
        root_decimal(*hi, places, "ceil"),
        places,
    )


def mu_upper_from_profile(w: Word) -> tuple[int, int]:
    """Upper bound mu_k <= S^(1/n) as the exact pair (S, n), with n = |w|
    and S = ``sum_over_lengths(w)``, the sum of w's per-length maxima.

    An embedding of a pattern v into w^m splits v into m consecutive
    pieces v_1 .. v_m, one per copy of w, so occ(v, w^m) is the sum over
    those splits of prod_i occ(v_i, w).  Each factor is at most the
    maximum at length |v_i|, and expanding S^m covers every split, so
    occ(v, w^m) <= S^m.  Hence value(k, nm) <= M(w^m) <= S^m for every
    m, and mu_k <= S^(1/n).
    """
    require_word(w=w)
    if len(w) < 1:
        raise ContractError("profile bound needs a nonempty word")
    return (sum_over_lengths(w), len(w))


@dataclass(frozen=True)
class SubmultReport:
    k: int
    m: int
    n: int
    lhs: int
    binom: int
    base: int
    rhs: int
    holds: bool


def check_submultiplicativity(
    k: int, m: int, n: int, budgets: dict[int, int] | None = None
) -> SubmultReport:
    """Exact instance check of the table inequality
    value(k, m*n) <= C(m*n + m - 1, m - 1) * value(k, n)^m."""
    require_int(m=m, n=n)
    if m < 1 or n < 1:
        raise ContractError("need m >= 1 and n >= 1")
    limits = _check_request(k, m * n, budgets, "n")
    _checked_row(k, m * n, limits, False)  # over budget: fail before any search
    memo: dict = {}
    base = _row(k, n, limits, False, None, memo)[0].value
    lhs = _row(k, m * n, limits, False, None, memo)[0].value
    binom = comb(m * n + m - 1, m - 1)
    rhs = binom * base**m
    return SubmultReport(k, m, n, lhs, binom, base, rhs, lhs <= rhs)
