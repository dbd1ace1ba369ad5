import json
import random
import tracemalloc
from importlib import resources
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from subseqlab import extremal as extremal_module
from subseqlab.counting import _search_most_common, max_occurrences, sum_over_lengths
from subseqlab.errors import BudgetError, ContractError
from subseqlab.extremal import (
    ExtremalRecord,
    best_window,
    check_submultiplicativity,
    cross_compare,
    extremal_table,
    extremal_value,
    iroot,
    known_record,
    mu_upper_from_profile,
    mu_window,
    root_decimal,
)
from subseqlab.words import Word, from_ids, word

from contract_inputs import DOCUMENTED_ERRORS, JUNK, NOT_A_WORD, int_or_junk
import oracles
from oracles import (
    brute_max_over_patterns,
    brute_most_common,
    canonical_representatives,
    orbit_of,
)

# frozen by the exhaustive search and spot-checked against the
# double brute force below
TABLE_K2 = [1, 1, 2, 2, 3, 5, 6, 9, 16]  # n = 1..9
TABLE_K3 = [1, 1, 1, 2, 2, 2, 3, 5, 6]  # n = 1..9


def test_small_tables_frozen():
    assert [r.value for r in extremal_table(2, 9)] == TABLE_K2
    assert [r.value for r in extremal_table(3, 9)] == TABLE_K3


def test_matches_double_brute_force_small():
    # every word of [k]^n, exhaustive pattern sweep per word
    for k, n_top in ((2, 7), (3, 5)):
        for n in range(1, n_top + 1):
            brute = min(
                brute_max_over_patterns(w, k) for w in product(range(k), repeat=n)
            )
            assert extremal_value(k, n, use_registry=False).value == brute


def test_record_internally_consistent():
    for k in (2, 3):
        for n in range(0, 9):
            rec = extremal_value(k, n, use_registry=False)
            assert rec.method == "exhaustive"
            assert max_occurrences(rec.minimizer)[0] == rec.value
            # minimizer is the canonical orbit representative
            syms = rec.minimizer.symbols
            assert syms in set(canonical_representatives(k, n)) or n == 0


def test_monotone_in_n_and_k():
    for k, table in ((2, TABLE_K2), (3, TABLE_K3)):
        assert all(a <= b for a, b in zip(table, table[1:]))
    assert all(v3 <= v2 for v2, v3 in zip(TABLE_K2, TABLE_K3))


def test_canonical_representatives_cover_orbits():
    # one representative per orbit, the orbit's lexicographic minimum:
    # count them against the orbit census
    for n in range(0, 9):
        keys = {min(orbit_of(w, 2)) for w in product(range(2), repeat=n)}
        reps = list(canonical_representatives(2, n))
        assert len(reps) == len(set(reps)) == len(keys)
        assert set(reps) == keys


def test_minimizer_is_first_minimum_of_unaborted_scan():
    # reference: full max_occurrences over the representatives in order,
    # keeping the first word that attains the minimum
    for k, n_top in ((2, 11), (3, 7)):
        for n in range(0, n_top + 1):
            ref = None
            for syms in canonical_representatives(k, n):
                value = max_occurrences(Word(syms, k))[0]
                if ref is None or value < ref[0]:
                    ref = (value, syms)
            rec = extremal_value(k, n, use_registry=False)
            assert (rec.value, rec.minimizer) == (ref[0], Word(ref[1], k))


def test_seeded_table_rows_match_unseeded_scans():
    # a table seeds each row with the previous row's minimizer; the rows
    # must equal the unseeded extremal_value records
    for k, n_max in ((2, 13), (3, 8), (4, 6)):
        rows = extremal_table(k, n_max)
        assert rows == [extremal_value(k, n, use_registry=False) for n in range(1, n_max + 1)]


def test_k2_n15_pinned():
    rec = extremal_value(2, 15, use_registry=False)
    assert rec.value == 162
    assert rec.minimizer.symbols == (0, 1, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1)


class _CountingMemo(dict):
    """A scan memo that counts the scan's lookups."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


def _unpacked(masks, caps, length, width):
    """The reversed prefix and the capacities [_, M(u[1:]), .., M(u[L:])]
    that a node search's packed inputs hold, L = ``length``; every field
    of ``masks`` is all ones or empty, and each position is one symbol's."""
    field = (1 << width) - 1
    syms = []
    for b in range(length):
        fields = [m >> b * width & field for m in masks]
        assert sorted(fields) == [0] * (len(masks) - 1) + [field]
        syms.append(fields.index(field))
    assert sum(masks) < 1 << length * width
    assert caps & field == 0 and caps < 1 << (length + 1) * width
    capacities = [0] + [caps >> (length + 1 - j) * width & field for j in range(1, length + 1)]
    return tuple(syms), capacities


def _seed_of(k, n):
    """The (minimizer, path counts) seed that row (k, n) passes to row n + 1."""
    return extremal_module._min_scan(k, n, None, {})[1:]


def _traced_scan(monkeypatch, k, n, seed, exact=False):
    """Run one scan on a fresh memo and return (searches, aborted
    searches, memo hits), searches being node and seed searches and a
    hit a lookup that needed no search.  Every search must get a floor
    below its threshold and, with ``exact``, the oracle's top counts as
    capacities."""
    node_search = extremal_module._node_search
    brute = {}
    seen = [0, 0, 0]  # searches, aborted, node searches

    def checked(masks, root, caps, length, width, abort_at):
        assert len(masks) == k and width == n + n.bit_length()
        syms, capacities = _unpacked(masks, caps, length, width)
        # exact ancestor capacities, and a floor below the threshold
        assert syms[0] == root and capacities[length] == 1
        for j in range(1, length if exact else 1):
            suffix = syms[j:]
            if suffix not in brute:
                brute[suffix] = brute_max_over_patterns(suffix, k)
            assert capacities[j] == brute[suffix]
        assert capacities[1] < abort_at
        seed_search = memo.lookups == 0  # seed searches come before the walk
        if seed_search:
            # a one-symbol extension of the seed, reversed
            assert syms[1:] == seed[0][::-1] and length == n
        result = node_search(masks, root, caps, length, width, abort_at)
        seen[0] += 1
        seen[1] += result[1]
        seen[2] += not seed_search
        return result

    memo = _CountingMemo()
    monkeypatch.setattr(extremal_module, "_node_search", checked)
    try:
        extremal_module._min_scan(k, n, seed, memo)
    finally:
        monkeypatch.undo()
    assert seen[2] > 0
    return seen[0], seen[1], memo.lookups - seen[2]


def test_scan_searches_get_exact_capacities_and_a_floor_below_the_threshold(monkeypatch):
    for k, n in ((2, 9), (3, 6), (4, 5)):
        _traced_scan(monkeypatch, k, n, None, exact=True)
        _traced_scan(monkeypatch, k, n, _seed_of(k, n - 1), exact=True)


def test_scan_node_searches_pinned(monkeypatch):
    # (searches, aborted, memo hits) of the pruned walk: the
    # depth-scaled threshold, the product cut, the abort test, the seed
    # threshold and the orbit memo each change these counts; searches
    # plus hits is the node count of a scan without the memo, plus the
    # seed searches, which abort at the smallest seed count so far
    assert _traced_scan(monkeypatch, 2, 13, None) == (2332, 724, 1135)
    assert _traced_scan(monkeypatch, 2, 13, _seed_of(2, 12)) == (1667, 604, 936)
    assert _traced_scan(monkeypatch, 3, 7, None) == (81, 21, 5)
    assert _traced_scan(monkeypatch, 3, 7, _seed_of(3, 6)) == (62, 25, 4)


def test_seed_bounds_and_path_counts_match_the_witness_search_and_brute_force(monkeypatch):
    # every row of each table: the bound a row starts from is 1 + the
    # smallest full witness-search count of the seed's one-symbol
    # extensions, each seed search gets a floor below its abort count,
    # and the path counts a row returns are the brute-force top counts of
    # its minimizer's prefixes
    scan = extremal_module._min_scan
    node_search = extremal_module._node_search

    def kept(k, n, seed, memo):
        result = scan(k, n, seed, memo)
        rows.append((n, seed, result))
        return result

    def floored(masks, root, caps, length, width, abort_at):
        assert caps >> length * width < abort_at
        return node_search(masks, root, caps, length, width, abort_at)

    monkeypatch.setattr(extremal_module, "_node_search", floored)
    for k, n_max in ((1, 20), (2, 12), (3, 8), (4, 7)):
        rows = []
        monkeypatch.setattr(extremal_module, "_min_scan", kept)
        extremal_table(k, n_max, budgets={k: n_max})
        monkeypatch.setattr(extremal_module, "_min_scan", scan)
        assert [n for n, _, _ in rows] == list(range(1, n_max + 1))
        for n, seed, (value, syms, path) in rows:
            assert path == tuple(brute_max_over_patterns(syms[:i], k) for i in range(n + 1))
            assert path[-1] == value
            if n == 1:
                assert seed is None
                continue
            assert seed == rows[n - 2][2][1:]
            full = min(_search_most_common(Word((*seed[0], t), k))[0] for t in range(k))
            assert extremal_module._seed_bound(k, *seed, n + n.bit_length()) == 1 + full, (k, n)


def _scan_memos(monkeypatch, call):
    """(n, memo) of each scan that ``call()`` runs, in order."""
    scan = extremal_module._min_scan
    scans = []

    def kept(k, n, seed, memo):
        scans.append((n, memo))
        return scan(k, n, seed, memo)

    monkeypatch.setattr(extremal_module, "_min_scan", kept)
    try:
        call()
    finally:
        monkeypatch.undo()
    return scans


def test_scan_memo_entries_match_the_oracle(monkeypatch):
    # one memo per table; each key is its orbit's lex-least word, each
    # exact entry is the key's top count, each abort entry a lower bound
    for k, n_max in ((2, 11), (3, 7)):
        scans = _scan_memos(monkeypatch, lambda: extremal_table(k, n_max))
        assert [n for n, _ in scans] == list(range(1, n_max + 1))
        memo = scans[0][1]
        assert all(m is memo for _, m in scans)
        kinds = set()
        for key, (value, exact) in memo.items():
            assert key == min(orbit_of(key, k)), key
            top = brute_max_over_patterns(key, k)
            assert value == top if exact else value <= top, (key, value, exact)
            kinds.add(exact)
        assert kinds == {True, False}


def test_scan_memo_stays_within_its_searches_and_memory(monkeypatch):
    # the memo holds one entry per searched orbit at most, and the whole
    # (2, 14) table traces under 1 MiB of peak allocation
    node_search = extremal_module._node_search
    searches = [0]

    def counted(*args):
        searches[0] += 1
        return node_search(*args)

    monkeypatch.setattr(extremal_module, "_node_search", counted)
    tracemalloc.start()
    try:
        scans = _scan_memos(monkeypatch, lambda: extremal_table(2, 14, use_registry=False))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < len(scans[0][1]) <= searches[0]
    assert peak < 2**20, peak


def test_node_search_matches_the_recursive_reference():
    # the packed kernel against oracles.branch_and_bound floored at the
    # exact M(u[1:]), on every k=2 word u of n <= 10, k=3 word of n <= 6
    # and k=1 word of n <= 12, at the field width of a length-n scan: the
    # same value, abort flag and abort value for every abort_at above the
    # floor: 2, 3, 5, 9, the floor plus one, and the top count and one
    # more.  The kernel always has a threshold; 2^n, above every count,
    # stands for none.  Against brute force, the package's one aborting
    # search aborts exactly when M(u) reaches its threshold, and then
    # returns a count from the threshold up to M(u); else it returns M(u).
    cases = 0
    for k, n_top in ((2, 10), (3, 6), (1, 12)):
        top = {(): 1}
        for n in range(1, n_top + 1):
            width = n + n.bit_length()
            field = (1 << width) - 1
            for syms in product(range(k), repeat=n):
                top[syms] = brute_max_over_patterns(syms, k)
                caps = [0] + [top[syms[j:]] for j in range(1, n + 1)]
                masks = [
                    sum(field << b * width for b, s in enumerate(syms) if s == t) for t in range(k)
                ]
                packed = sum(caps[j] << (n + 1 - j) * width for j in range(1, n + 1))
                aborts = {2, 3, 5, 9, caps[1] + 1, top[syms], top[syms] + 1}
                for abort_at in (None, *sorted(aborts)):
                    if abort_at is not None and abort_at <= caps[1]:
                        continue  # a floor lies below abort_at
                    value, _, aborted = oracles.branch_and_bound(syms, k, 0, caps, abort_at, caps[1])
                    got = extremal_module._node_search(
                        masks, syms[0], packed, n, width, 2**n if abort_at is None else abort_at
                    )
                    assert got == (value, aborted), (syms, abort_at)
                    threshold = 2**n if abort_at is None else abort_at
                    assert aborted == (top[syms] >= threshold), (syms, abort_at)
                    if aborted:
                        assert threshold <= value <= top[syms], (syms, abort_at)
                    else:
                        assert value == top[syms], (syms, abort_at)
                    cases += 1
    assert cases == 12844


def test_unary_table_reaches_the_widest_fields():
    # a^n counts C(n, n // 2): the largest counts, and the widest packed
    # fields, of any row up to n = 60
    rows = extremal_table(1, 60, budgets={1: 60})
    assert [r.value for r in rows] == [comb(n, n // 2) for n in range(1, 61)]


def test_scan_cuts_rest_on_product_bounds_the_oracle_confirms():
    # the product cut: M(w) >= M(w[:j]) * C(c, c // 2) for every split j,
    # c the top letter count of w[j:], on every word of the sweep
    for k, n_top in ((2, 10), (3, 6)):
        top = {(): 1}
        for n in range(1, n_top + 1):
            for syms in product(range(k), repeat=n):
                top[syms] = brute_max_over_patterns(syms, k)
                for j in range(n + 1):
                    c = max(syms[j:].count(s) for s in range(k))
                    assert top[syms] >= top[syms[:j]] * comb(c, c // 2), (syms, j)
    # the depth-scaled threshold: L(r) = C(c, c // 2), c = ceil(r / k),
    # is at most the smallest top count of any length-r word
    for k, table in ((2, TABLE_K2), (3, TABLE_K3)):
        for r, value in enumerate(table, start=1):
            c = -(-r // k)
            assert comb(c, c // 2) <= value, (k, r)


def test_budget_errors_name_the_limit():
    with pytest.raises(BudgetError, match="n <= 16"):
        extremal_value(2, 17, use_registry=False)
    with pytest.raises(BudgetError, match="n <= 100"):
        extremal_value(1, 101)
    # every k >= 5 is budgeted to n <= 13, unless budgets says otherwise
    with pytest.raises(BudgetError, match="n <= 13"):
        extremal_value(7, 14)
    with pytest.raises(BudgetError, match=r"n <= 1 \(asked n=2\)"):
        extremal_value(5, 2, budgets={5: 1})
    rec = extremal_value(5, 2, budgets={5: 2})
    assert rec.value == 1
    assert [r.value for r in extremal_table(5, 3)] == [1, 1, 1]


def test_registry_record_is_external_and_not_recomputed():
    rec = extremal_value(2, 40)
    assert rec == known_record(2, 40)
    assert rec.method == "verified-external"
    assert rec.value == 5500610
    assert rec.minimizer is None
    # registry is bypassed when computing, so the budget guard fires
    with pytest.raises(BudgetError):
        extremal_value(2, 40, use_registry=False)
    data = json.loads(resources.files("subseqlab").joinpath("data/known_values.json").read_text())
    assert [(r["k"], r["n"]) for r in data["extremal_records"]] == [(2, 40)]


# ---------------------------------------------------------------------------
# exact root arithmetic


def test_iroot_exhaustive_small():
    for x in range(0, 300):
        for n in range(1, 6):
            r = iroot(x, n)
            assert r**n <= x < (r + 1) ** n
    with pytest.raises(ContractError):
        iroot(-1, 2)
    with pytest.raises(ContractError):
        iroot(4, 0)


def test_root_decimal_rounding_directions():
    assert root_decimal(8, 3, 3, "floor") == "2.000"
    assert root_decimal(8, 3, 3, "ceil") == "2.000"  # exact root: no bump
    assert root_decimal(2, 2, 4, "floor") == "1.4142"
    assert root_decimal(2, 2, 4, "ceil") == "1.4143"
    assert root_decimal(10, 1, 0, "floor") == "10"
    with pytest.raises(ContractError):
        root_decimal(2, 2, 3, "nearest")
    # past Python's 4300-digit int printing limit
    assert len(root_decimal(2**40, 40, 1000, "ceil")) == 1002
    with pytest.raises(ContractError, match=r"^places must be in \[0, 1000\], got 1001$"):
        root_decimal(2, 2, 1001, "floor")
    with pytest.raises(ContractError, match="more than 3900 digits"):
        root_decimal(10**5000, 1, 0, "floor")


def test_cross_compare_examples():
    assert cross_compare(2, 3, 6, 3) == -1
    assert cross_compare(4, 2, 2, 1) == 0
    assert cross_compare(9, 2, 2, 1) == 1
    rng = random.Random(3)
    for _ in range(200):
        a, n1 = rng.randrange(1, 50), rng.randrange(1, 6)
        b, n2 = rng.randrange(1, 50), rng.randrange(1, 6)
        sign = cross_compare(a, n1, b, n2)
        approx = a ** (1 / n1) - b ** (1 / n2)
        if abs(approx) > 1e-9:
            assert sign == (1 if approx > 0 else -1)


# ---------------------------------------------------------------------------
# growth-constant windows


def test_window_from_smallest_record():
    rec = extremal_value(2, 3, use_registry=False)
    win = mu_window(rec)
    assert win.lower == (2, 3) and win.upper == (6, 3)
    assert win.lower_decimal == "1.259"
    assert win.upper_decimal == "1.818"


def test_window_needs_bracketing_regime():
    with pytest.raises(ContractError):
        mu_window(ExtremalRecord(2, 2, 1, None, "exhaustive"))
    with pytest.raises(ContractError):
        mu_window(ExtremalRecord(1, 5, 1, None, "exhaustive"))


def test_registry_window_reproduced_exactly():
    win = mu_window(known_record(2, 40))
    assert win.lower == (5500610, 40)
    assert win.upper == (40 * 5500610, 40)
    assert win.lower_decimal == "1.474"
    assert win.upper_decimal == "1.617"


def test_cross_consistency_of_windows():
    records = [extremal_value(2, n, use_registry=False) for n in range(3, 11)]
    for r1 in records:
        for r2 in records:
            lo = (r1.value, r1.n)
            hi = (r2.n * r2.value, r2.n)
            assert cross_compare(*lo, *hi) <= 0
    win = best_window(records)
    # consistent with the proven bracket 1.5 <= growth constant <= 1.5547
    a, n = win.lower
    assert a * 10 ** (4 * n) <= 15547**n  # lower <= 1.5547, cross-powered
    b, n2 = win.upper
    assert b * 2**n2 >= 3**n2  # upper >= 3/2, cross-powered


def test_profile_upper_bound_examples():
    assert mu_upper_from_profile(word("abab")) == (8, 4)
    assert mu_upper_from_profile(word("a")) == (2, 1)
    with pytest.raises(ContractError):
        mu_upper_from_profile(word("", 2))


def test_profile_bound_holds_on_powers():
    # occ(v, w^m) <= S(w)^m for every pattern v, so M(w^m) <= S^m: every
    # word with k <= 3 and |w| <= 4, every m <= 3 (462 cases)
    for k in (1, 2, 3):
        for n in range(1, 5):
            for syms in product(range(k), repeat=n):
                s, length = mu_upper_from_profile(Word(syms, k))
                assert length == n
                for m in (1, 2, 3):
                    assert brute_most_common(syms * m, k)[0] <= s**m, (syms, m)


def test_profile_bound_dominates_generic_upper():
    # sum over lengths <= (n-1)*M(w) + 2 <= n*M(w) whenever M(w) >= 2,
    # so the profile bound from the minimizer is at least as tight
    rng = random.Random(17)
    for _ in range(80):
        k = rng.choice([2, 3])
        n = rng.randrange(3, 12)
        w = from_ids((rng.randrange(k) for _ in range(n)), alphabet_size=k)
        s = sum_over_lengths(w)
        m = max_occurrences(w)[0]
        assert s <= (n - 1) * m + 2
    for n in range(3, 11):
        rec = extremal_value(2, n, use_registry=False)
        s, _ = mu_upper_from_profile(rec.minimizer)
        assert cross_compare(s, n, n * rec.value, n) <= 0


def test_submultiplicativity_instances(monkeypatch):
    # the base row first, then the long row on the same memo
    scans = _scan_memos(monkeypatch, lambda: check_submultiplicativity(2, 3, 4))
    assert [n for n, _ in scans] == [4, 12] and scans[0][1] is scans[1][1]
    rep = check_submultiplicativity(2, 2, 3)
    assert (rep.lhs, rep.binom, rep.base, rep.rhs) == (5, 7, 2, 28)
    assert rep.holds
    rep = check_submultiplicativity(2, 1, 6)
    assert rep.holds and rep.lhs == rep.rhs == 5
    rep = check_submultiplicativity(2, 3, 3)
    assert rep.holds and rep.lhs == 16 and rep.rhs == 55 * 8
    rep = check_submultiplicativity(3, 2, 4)
    assert rep.holds
    with pytest.raises(BudgetError):
        check_submultiplicativity(2, 2, 10)
    with pytest.raises(ContractError):
        check_submultiplicativity(2, 0, 3)


# ---------------------------------------------------------------------------
# contracts


def test_non_int_arguments_are_contract_errors():
    for call in (
        lambda: extremal_value(2, 3, budgets={2: "x"}),
        lambda: extremal_value(None, 5),
        lambda: extremal_value(2, 2.0),
        lambda: extremal_value(2, 3, budgets=[(2, 3)]),
        lambda: extremal_table(2, 3.0),
        lambda: iroot(2.5, 2),
        lambda: iroot(4, None),
        lambda: root_decimal(2, 3, 1.5, "floor"),
        lambda: cross_compare(1e308, 1, 2, 5),
        lambda: mu_window(ExtremalRecord(2, 5, 2.5, None, "exhaustive")),
        lambda: check_submultiplicativity(2, None, 3),
        lambda: mu_window(None),
        lambda: best_window([None]),
        lambda: best_window(None),
        lambda: known_record(2.0, 40),
        lambda: known_record("2", 40),
    ):
        with pytest.raises(ContractError, match="must be"):
            call()


def test_table_checks_its_arguments_before_any_row():
    # an empty table (n_max = 0) still refuses a bad k, n_max or budgets
    with pytest.raises(ContractError, match=r"^need k >= 1 and n_max >= 0, got k=2, n_max=-3$"):
        extremal_table(2, -3)
    with pytest.raises(ContractError, match=r"^need k >= 1 and n_max >= 0, got k=-1, n_max=0$"):
        extremal_table(-1, 0)
    with pytest.raises(ContractError, match=r"^budgets must be a dict, got 'x'$"):
        extremal_table(2, 0, budgets="x")
    with pytest.raises(ContractError, match="must be"):
        extremal_table(2, 0, budgets={2: "x"})
    assert extremal_table(2, 0) == []


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_extremal_api_raises_only_documented_errors(data):
    draw = data.draw
    k = draw(int_or_junk(-1, 4))
    n = draw(int_or_junk(-1, 8))
    budgets = draw(
        st.one_of(
            st.none(),
            st.dictionaries(st.integers(-1, 5), int_or_junk(-1, 8), max_size=3),
            JUNK,
        )
    )
    use_registry = draw(st.booleans())
    places = draw(int_or_junk(-1, 5))
    small = int_or_junk(-5, 10**6)
    root = int_or_junk(-2, 6)
    record = ExtremalRecord(
        draw(int_or_junk(0, 4)), draw(int_or_junk(0, 12)), draw(small), None, "exhaustive"
    )

    def or_junk(value):
        return draw(st.one_of(st.just(value), NOT_A_WORD))

    calls = [
        lambda: extremal_value(k, n, budgets=budgets, use_registry=use_registry),
        lambda: extremal_table(k, n, budgets=budgets, use_registry=use_registry),
        lambda: mu_window(or_junk(record), places),
        lambda: best_window([or_junk(record)] * draw(st.integers(0, 2)), places),
        lambda: best_window(draw(NOT_A_WORD), places),
        lambda: iroot(draw(small), draw(root)),
        lambda: root_decimal(draw(small), draw(root), places, draw(st.sampled_from(["floor", "ceil", "up"]))),
        lambda: cross_compare(draw(small), draw(root), draw(small), draw(root)),
        lambda: check_submultiplicativity(k, draw(int_or_junk(-1, 3)), draw(int_or_junk(-1, 3)), budgets),
        lambda: mu_upper_from_profile(draw(NOT_A_WORD)),
    ]
    for call in calls:
        try:
            call()
        except DOCUMENTED_ERRORS:
            pass
