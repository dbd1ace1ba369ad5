import hashlib
import random
import tracemalloc
from itertools import product
from math import comb
from operator import ge

import pytest
from hypothesis import example, given, settings, strategies as st

from subseqlab import counting as counting_module
from subseqlab.counting import (
    FIXED_LENGTH_WITNESS_BUDGET,
    _branch_and_bound,
    _enumerate,
    _position_index,
    _positions_by_symbol,
    _search_most_common,
    _step_tables,
    _suffix_capacities,
    count_occurrences,
    enumerate_embeddings,
    max_occurrences,
    max_occurrences_of_length,
    occurrence_profile,
    sum_over_lengths,
    validate_embedding,
)
from subseqlab.construction import build_construction_word
from subseqlab.errors import BudgetError, ContractError
from subseqlab.shapes import _DENSITY_PALETTE, run_claim_suite, sample_pattern
from subseqlab.words import Word, from_ids, power, word

from contract_inputs import DOCUMENTED_ERRORS, JUNK, NOT_A_WORD, int_or_junk
import oracles
from oracles import (
    brute_max_over_patterns,
    brute_most_common,
    brute_most_common_of_length,
    brute_profile,
    count_by_combinations,
    dominated,
    embeddings_by_combinations,
    embeddings_by_scanning,
    extend_counts,
)


def rand_word(rng, k, n):
    return from_ids((rng.randrange(k) for _ in range(n)), alphabet_size=k)


# ---------------------------------------------------------------------------
# counting


def test_count_classic_example():
    assert count_occurrences(word("abra", 18), word("abracadabra")) == 9


def test_count_empty_pattern_and_overlong_pattern():
    assert count_occurrences(word("", 2), word("abab")) == 1
    assert count_occurrences(word("aaa", 2), word("ab")) == 0


def test_count_alphabet_mismatch():
    with pytest.raises(ContractError):
        count_occurrences(word("ab"), word("abc"))


def test_count_matches_combination_oracle():
    rng = random.Random(11)
    for _ in range(250):
        k = rng.choice([2, 3])
        w = rand_word(rng, k, rng.randrange(0, 11))
        v = rand_word(rng, k, rng.randrange(0, 5))
        assert count_occurrences(v, w) == count_by_combinations(v.symbols, w.symbols)


@settings(max_examples=200)
@given(
    st.lists(st.integers(0, 1), max_size=4),
    st.lists(st.integers(0, 1), max_size=10),
)
def test_count_matches_combination_oracle_hypothesis(v_ids, w_ids):
    v, w = from_ids(v_ids, 2), from_ids(w_ids, 2)
    assert count_occurrences(v, w) == count_by_combinations(tuple(v_ids), tuple(w_ids))


def test_count_binomial_on_constant_words():
    w = power(word("a", 2), 7)
    for m in range(9):
        assert count_occurrences(power(word("a", 2), m), w) == comb(7, m)


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_example():
    res = enumerate_embeddings(word("ab"), word("abab"))
    assert list(res) == [(0, 1), (0, 3), (2, 3)]
    assert not res.truncated


def test_enumerate_empty_pattern():
    res = enumerate_embeddings(word("", 2), word("abab"))
    assert list(res) == [()]


def test_enumerate_no_occurrence():
    res = enumerate_embeddings(word("ba"), word("ab"))
    assert len(res) == 0 and not res.truncated


def test_enumerate_cap_truncation():
    res = enumerate_embeddings(word("ab"), word("abab"), cap=2)
    assert list(res) == [(0, 1), (0, 3)]
    assert res.truncated
    exact = enumerate_embeddings(word("ab"), word("abab"), cap=3)
    assert not exact.truncated
    nothing = enumerate_embeddings(word("ab"), word("abab"), cap=0)
    assert len(nothing) == 0 and nothing.truncated
    with pytest.raises(ContractError):
        enumerate_embeddings(word("ab"), word("abab"), cap=-1)


def test_enumerate_long_pattern_does_not_recurse():
    v, w = Word((0, 1) * 750, 2), Word((0, 1) * 800, 2)
    res = enumerate_embeddings(v, w, cap=3)
    assert len(res) == 3 and res.truncated
    assert res.maps[0] == tuple(range(1500))
    for e in res:
        validate_embedding(v, w, e)


def test_enumeration_size_equals_count():
    rng = random.Random(23)
    for _ in range(300):
        k = rng.choice([2, 3])
        w = rand_word(rng, k, rng.randrange(0, 10))
        v = rand_word(rng, k, rng.randrange(0, 4))
        res = enumerate_embeddings(v, w)
        assert len(res) == count_occurrences(v, w)
        for e in res:
            validate_embedding(v, w, e)


def _enumeration_agrees(v, w):
    """enumerate_embeddings against the brute-force order at caps around
    the count: same maps, order and truncation."""
    maps, _ = embeddings_by_combinations(v.symbols, w.symbols)
    count = len(maps)
    for cap in {None, 0, 1, count - 1, count, count + 1} - {-1}:
        res = enumerate_embeddings(v, w, cap)
        want = (maps, False) if cap is None or count <= cap else (maps[:cap], True)
        assert (res.maps, res.truncated) == want, (v, w, cap)


def test_enumeration_matches_the_brute_force_order():
    # every k <= 2 host of at most nine symbols with every pattern of at
    # most four symbols
    for k in (1, 2):
        patterns = [Word(v, k) for size in range(5) for v in product(range(k), repeat=size)]
        for n in range(10):
            for host in product(range(k), repeat=n):
                for v in patterns:
                    _enumeration_agrees(v, Word(host, k))


def test_enumeration_reuses_tails_and_walks_last_index_like_brute_force():
    # (01)^j: advancing one index moves the greedy tail by whole periods,
    # so tails are both re-placed and kept; 0^n: every prefix has a run of
    # last-index candidates
    for j in range(1, 8):
        for size in range(6):
            for v in product(range(2), repeat=size):
                _enumeration_agrees(Word(v, 2), Word((0, 1) * j, 2))
    for n in range(17):
        for size in range(min(n, 8) + 2):
            _enumeration_agrees(Word((0,) * size, 2), Word((0,) * n, 2))


def test_enumeration_of_the_claim_suite_patterns_matches_a_scanning_walk():
    # the 20 patterns of run_claim_suite(2, 12, 20, 7), drawn as it draws
    # them, against a walk that tries positions one by one; the suite's
    # own walk, fed from one index of the whole host, lists the same maps
    cw = build_construction_word(2, 12)
    host = cw.word.symbols
    index = _positions_by_symbol(host, set(host))
    rng = random.Random(7)
    for _ in range(20):
        v = sample_pattern(rng, cw, rng.choice(_DENSITY_PALETTE))
        for cap in (0, 1, 150, 400):
            res = enumerate_embeddings(v, cw.word, cap)
            want = embeddings_by_scanning(v.symbols, host, cap)
            assert (res.maps, res.truncated) == want, (v, cap)
            fed = _enumerate(v.symbols, host, index, cap)
            assert (fed.maps, fed.truncated) == want, (v, cap)


def test_enumeration_budget(monkeypatch):
    # the real budget refuses C(60, 10) maps of 10 positions at once, and
    # the 51,200 maps of the first 20-symbol pattern of an uncapped suite
    with pytest.raises(BudgetError, match="ENUMERATION_BUDGET"):
        enumerate_embeddings(Word((0,) * 10, 2), Word((0,) * 60, 2))
    with pytest.raises(BudgetError, match="51200 maps of 20 positions"):
        run_claim_suite(2, 12, 1, 1, embed_cap=None)
    # both sides of a budget of 60 symbols: C(6, 3) = 20 maps of 3 fit it
    # and C(7, 3) = 35 do not, unless a cap keeps them to 20
    monkeypatch.setattr(counting_module, "ENUMERATION_BUDGET", 60)
    v = Word((0,) * 3, 2)
    assert len(enumerate_embeddings(v, Word((0,) * 6, 2))) == 20
    assert len(enumerate_embeddings(v, Word((0,) * 6, 2), cap=25)) == 20
    res = enumerate_embeddings(v, Word((0,) * 7, 2), cap=20)
    assert len(res) == 20 and res.truncated
    for cap in (None, 21):
        with pytest.raises(BudgetError, match="35 maps|21 maps"):
            enumerate_embeddings(v, Word((0,) * 7, 2), cap=cap)
    # a cap that keeps the maps under the budget needs no count
    def no_count(v, w):
        raise AssertionError("counted")

    monkeypatch.setattr(counting_module, "_count", no_count)
    assert len(enumerate_embeddings(v, Word((0,) * 7, 2), cap=20)) == 20
    assert len(enumerate_embeddings(Word((), 2), Word((0,) * 7, 2))) == 1


def test_validate_embedding_rejects_junk():
    v, w = word("ab"), word("abab")
    validate_embedding(v, w, (2, 3))
    with pytest.raises(ContractError, match="^symbol mismatch at position 1$"):
        validate_embedding(v, w, (1, 2))  # w[1] is 'b'
    with pytest.raises(ContractError, match="^embedding length does not match pattern length$"):
        validate_embedding(v, w, (0,))
    with pytest.raises(ContractError, match="^position 4 out of range$"):
        validate_embedding(v, w, (0, 4))  # one past the end
    with pytest.raises(ContractError, match="^position -1 out of range$"):
        validate_embedding(v, w, (-1, 1))
    # w[-1] would read the matching last 'b': a negative index is refused
    with pytest.raises(ContractError, match="^position -1 out of range$"):
        validate_embedding(word("ba"), w, (-1, 2))
    # the first bad position is the one named, whatever comes after it
    with pytest.raises(ContractError, match="^symbol mismatch at position 1$"):
        validate_embedding(v, w, (1, 9))


def test_embedding_messages_pinned():
    w = word("abababab")
    validate_embedding(word("", 2), w, ())
    validate_embedding(word("aba"), w, (0, 3, 6))
    for positions in ((2, 1), (1, 1), (0, 5, 5), (0, 2, 1, 3)):
        v = Word(tuple(w.symbols[p] for p in positions), 2)
        with pytest.raises(ContractError, match="^positions must be strictly increasing$"):
            validate_embedding(v, w, positions)
    # the length check comes first
    message = "^embedding length does not match pattern length$"
    for positions, length in (((0, 1), 3), ((2, 1), 3), ((), 1)):
        with pytest.raises(ContractError, match=message):
            validate_embedding(Word((0,) * length, 2), w, positions)


# ---------------------------------------------------------------------------
# prefix-count states


def test_state_extension_matches_prefix_counts():
    rng = random.Random(5)
    for _ in range(100):
        k = 2
        w = rand_word(rng, k, rng.randrange(1, 9))
        v = rand_word(rng, k, rng.randrange(1, 5))
        state = [1] * (len(w) + 1)  # the empty prefix
        for s in v.symbols:
            state = extend_counts(state, w.symbols, 0, s)
        for j in range(len(w) + 1):
            prefix_w = Word(w.symbols[:j], k)
            assert state[j] == count_occurrences(v, prefix_w)


def test_state_dominance_is_preserved_by_extension():
    # pointwise-larger states stay pointwise larger under any common
    # extension -- the fact that makes dominance pruning sound
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randrange(1, 8)
        w = rand_word(rng, 2, n)
        low = [rng.randrange(0, 4) for _ in range(n + 1)]
        for j in range(1, n + 1):  # states are nondecreasing in j
            low[j] = max(low[j], low[j - 1])
        high = [c + rng.randrange(0, 3) for c in low]
        for j in range(1, n + 1):
            high[j] = max(high[j], high[j - 1])
        assert dominated([high], low)
        assert dominated([low], high) == (low == high)
        for _ in range(rng.randrange(1, 5)):
            sym = rng.randrange(2)
            low = extend_counts(low, w.symbols, 0, sym)
            high = extend_counts(high, w.symbols, 0, sym)
            assert dominated([high], low)
        assert high[-1] >= low[-1]


# ---------------------------------------------------------------------------
# maximisers


def test_most_common_examples():
    assert max_occurrences(word("abab")) == (3, word("ab"))
    assert max_occurrences(word("aaaa")) == (6, word("aa", 1))
    # M(w) = 2 is already the floor M(w[3:]): the witness search must
    # start below it to find the witness
    assert max_occurrences(word("abdcc")) == (2, word("abc", 4))
    count, witness = max_occurrences(word("ab"))
    assert count == 1 and len(witness) == 0


def test_most_common_matches_brute_force():
    rng = random.Random(31)
    for _ in range(150):
        k = rng.choice([2, 3])
        w = rand_word(rng, k, rng.randrange(0, 10))
        value, witness = max_occurrences(w)
        b_value, b_witness = brute_most_common(w.symbols, k)
        assert (value, witness.symbols) == (b_value, b_witness)
        assert count_occurrences(witness, w) == value


def test_search_exhaustive_matches_brute_force():
    # every k=2 word of n <= 10 and k=3 word of n <= 6: value and lex-min
    # witness are the brute-force ones, and the search never aborts (the
    # one search that stops early, the extremal scan's, has its abort
    # contract checked on the same words in test_extremal)
    for k, n_top in ((2, 10), (3, 6)):
        for n in range(n_top + 1):
            for syms in product(range(k), repeat=n):
                assert _search_most_common(Word(syms, k)) == (*brute_most_common(syms, k), False)


def test_search_with_supplied_capacities_is_exact():
    # exact suffix capacities supplied, the search started at the floor
    # capacities[1]: the value is exact, and the witness is the lex-min
    # one when M(w) beats the floor, else ().  The capacities a plain
    # search computes for itself are exact for j > n // 2 and upper
    # bounds below.
    for k, n_top in ((2, 10), (3, 6)):
        brute = {}
        for n in range(n_top + 1):
            for syms in product(range(k), repeat=n):
                brute[syms] = brute_most_common(syms, k)
                if n == 0:
                    continue
                index = _position_index(syms, k)
                capacities = [0] + [brute[syms[j:]][0] for j in range(1, n + 1)]
                own = _suffix_capacities(Word(syms, k), n, index)[0]
                half = n // 2
                assert own[half + 1 :] == capacities[half + 1 :]
                assert all(map(ge, own[1:], capacities[1:]))
                tables = _step_tables(index, 0, n)
                value, witness = brute[syms]
                if value == capacities[1]:
                    witness = ()
                assert _branch_and_bound(syms, k, 0, capacities, tables, capacities[1]) == (
                    value,
                    witness,
                )


def test_search_matches_recursive_reference():
    # the explicit-stack kernel against the recursive one it replaced, on
    # seeded words up to n = 26: the same value and witness from the
    # search, and from the kernel at every start, started at 1 and at
    # the exact floor; suffix capacities exact for j > n // 2 and upper
    # bounds below
    rng = random.Random(20261019)
    for _ in range(60):
        k = rng.choice([2, 3, 4])
        n = rng.randrange(1, 27)
        syms = tuple(rng.randrange(k) for _ in range(n))
        w = Word(syms, k)
        index = _position_index(syms, k)
        caps = oracles.suffix_capacities(syms, k)
        own = _suffix_capacities(w, n, index)[0]
        assert own[n // 2 + 1 :] == caps[n // 2 + 1 :]
        assert all(map(ge, own, caps))
        assert _search_most_common(w) == oracles.search_most_common(syms, k)
        for start in range(n):
            tables = _step_tables(index, start, n)
            for floor in (None, caps[start + 1]):
                assert _branch_and_bound(syms, k, start, caps, tables, floor or 1) == (
                    oracles.branch_and_bound(syms, k, start, caps, floor=floor)[:2]
                )


def test_suffix_capacities_exact_on_the_shorter_half():
    # every k=2 word of n <= 12 and k=3 word of n <= 8: capacities[j]
    # equals M(w[j:]) for j > n // 2 and bounds it from above below that,
    # with capacities[n // 2 + 1] the brute-force M(y), y = w[n // 2 + 1:].
    # The pattern returned counts M(y) in y, and it is the lex-min
    # witness of the shortest suffix of y whose top count is M(y).  M and
    # the witness of every suffix come from the recursive reference, one
    # floored search per word on the already known M of its own
    # suffixes; the witness is () unless M beats the floor, which it does
    # on that shortest suffix.
    for k, n_top in ((2, 12), (3, 8)):
        top = {(): (1, ())}
        for n in range(1, n_top + 1):
            for syms in product(range(k), repeat=n):
                exact = [0] + [top[syms[j:]][0] for j in range(1, n + 1)]
                top[syms] = oracles.branch_and_bound(syms, k, 0, exact, floor=exact[1])[:2]
                own, right = _suffix_capacities(Word(syms, k), n, _position_index(syms, k))
                half = n // 2
                y = syms[half + 1 :]
                assert own[half + 1 :] == exact[half + 1 :]
                assert all(map(ge, own[1:], exact[1:]))
                assert own[half + 1] == brute_max_over_patterns(y, k)
                assert oracles.count_by_plain_dp(right, y) == own[half + 1]
                shortest = max(j for j in range(half + 1, n + 1) if exact[j] == exact[half + 1])
                assert right == top[syms[shortest:]][1]


def test_search_long_pattern_does_not_recurse():
    # the maximiser of a^2100 is a^1050, 1050 pattern symbols deep
    n = 2100
    syms = (0,) * n
    caps = [comb(n - j, (n - j) // 2) for j in range(n + 1)]
    tables = _step_tables(_position_index(syms, 1), 0, n)
    assert _branch_and_bound(syms, 1, 0, caps, tables, caps[1]) == (
        comb(n, n // 2),
        (0,) * (n // 2),
    )


def _start_words(seed):
    """Seeded words for the search start: random over k = 1..5, periodic,
    periodic with a few letters changed, and unary."""
    rng = random.Random(seed)
    for _ in range(40):
        k = rng.randint(1, 5)
        yield tuple(rng.randrange(k) for _ in range(rng.randint(1, 30))), k
    for mutate in (False, True):
        for _ in range(20):
            k = rng.randint(2, 4)
            base = [rng.randrange(k) for _ in range(rng.randint(1, 6))]
            syms = [base[i % len(base)] for i in range(rng.randint(3, 30))]
            for _ in range(rng.randint(1, 3) if mutate else 0):
                syms[rng.randrange(len(syms))] = rng.randrange(k)
            yield tuple(syms), k
    for n in (1, 2, 3, 9, 17, 30):
        yield (0,) * n, 1
    yield (0, 1, 3, 2, 2), 4  # abdcc: floor = H = M(w)
    yield (0, 1, 0), 2  # aba: floor = H < M(w)


def _kernel_calls(n, plain):
    """Kernel calls of one most-common search of n symbols: the suffix
    chain's n - n // 2 - 1 and the root's, then the left half's search."""
    return n - n // 2 + (_kernel_calls(n // 2 + 1, plain) if n > plain else 0)


def test_search_start_matches_the_oracle(monkeypatch):
    # the search starts just below H, the count of the left half's
    # witness joined with the top pattern of the right half y = w[h + 1:]
    # that its suffix chain found, the witness of the shortest suffix of
    # y whose top count is M(y), with floor = M(y) <= H <= M(w),
    # h = n // 2; value and lex-min witness stay the recursive oracle's,
    # at the package's plain-start length and with every word of 3 or
    # more symbols on the H start, including H above the floor and
    # H = M(w).  No kernel call searches y besides that chain.
    calls = []
    kernel = counting_module._branch_and_bound

    def spy(syms, k, start, capacities, tables, low):
        calls.append((start, low))
        return kernel(syms, k, start, capacities, tables, low)

    monkeypatch.setattr(counting_module, "_branch_and_bound", spy)
    edges = set()
    for syms, k in _start_words(20261019):
        n = len(syms)
        half = n // 2
        expected = oracles.search_most_common(syms, k)
        top = expected[0]
        caps = oracles.suffix_capacities(syms, k)
        floor = caps[half + 1]
        shortest = max(j for j in range(half + 1, n + 1) if caps[j] == floor)
        left = oracles.search_most_common(syms[: half + 1], k)[1]
        right = oracles.search_most_common(syms[shortest:], k)[1]
        H = oracles.count_by_plain_dp(left + right, syms)
        assert floor <= H <= top
        if n > 2:
            edges.add((floor < H, H == top))
        for plain in (counting_module._PLAIN_START, 2):
            monkeypatch.setattr(counting_module, "_PLAIN_START", plain)
            calls.clear()
            assert _search_most_common(Word(syms, k)) == expected
            assert len(calls) == _kernel_calls(n, plain)
            # the word's own search is the last one to run on w[0:]
            assert calls[-1] == (0, max(1, (H if n > plain else floor) - 1))
    assert edges == {(False, False), (False, True), (True, False), (True, True)}


def test_search_peak_memory_is_bounded():
    # tracemalloc peaks of max_occurrences (Python 3.11) when the search
    # started just below M(w[n // 2 + 1:]): a^160 555,152 bytes, (ab)^50
    # 1,618,600.  Started below H they are 559,304 (both starts are tight
    # there, and the half searches add a little) and 172,580.  The bound
    # is the earlier figure plus 5 %.
    for w, recorded in ((Word((0,) * 160, 1), 555_152), (Word((0, 1) * 50, 2), 1_618_600)):
        tracemalloc.start()
        try:
            max_occurrences(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= recorded * 1.05, (w, peak)


def test_fixed_length_peak_memory_is_bounded():
    # tracemalloc peaks of the fixed-length kernel (Python 3.11) on (ab)^40,
    # recorded when the test was written; the bound is that figure plus 5 %
    w = Word((0, 1) * 40, 2)
    for call, recorded in (
        (lambda: max_occurrences_of_length(w, 60), 1_482_192),
        (lambda: occurrence_profile(w), 2_109_200),
    ):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= recorded * 1.05, (call, peak)


def test_max_occurrences_and_profile_pinned():
    # (value, witness) of seeded words, recorded with the recursive search
    # the explicit-stack kernel replaced
    def seeded_words(seed, count, n_max):
        rng = random.Random(seed)
        for _ in range(count):
            k = rng.choice([2, 3, 4])
            n = rng.randrange(0, n_max + 1)
            yield Word(tuple(rng.randrange(k) for _ in range(n)), k)

    h = hashlib.sha256()
    for w in seeded_words(20261019, 320, 26):
        value, witness = max_occurrences(w)
        h.update(repr((w.alphabet_size, w.symbols, value, witness.symbols)).encode())
    assert h.hexdigest() == "7211db15bcb3651db6e9878e0bab919fad5c79dedd9bd169ba5e152a7b3a8e69"
    h = hashlib.sha256()
    for w in seeded_words(20261020, 320, 16):
        profile = [(v, x.symbols) for v, x in occurrence_profile(w)]
        h.update(repr((w.alphabet_size, w.symbols, profile)).encode())
    assert h.hexdigest() == "75555b2e46ae67f072250ca8c5ffd434ae4a53c096be809d9f5f02bf69b60270"


def test_fixed_length_examples():
    assert max_occurrences_of_length(word("abab"), 2) == (3, word("ab"))
    assert max_occurrences_of_length(word("abab"), 1) == (2, word("a", 2))
    assert max_occurrences_of_length(word("abab"), 0) == (1, word("", 2))
    count, witness = max_occurrences_of_length(word("abab"), 7)
    assert count == 0 and witness.symbols == (0,) * 7
    with pytest.raises(ContractError):
        max_occurrences_of_length(word("abab"), -1)


def test_fixed_length_matches_brute_force():
    rng = random.Random(37)
    for _ in range(120):
        k = rng.choice([2, 3])
        w = rand_word(rng, k, rng.randrange(1, 9))
        length = rng.randrange(0, len(w) + 1)
        value, witness = max_occurrences_of_length(w, length)
        b_value, b_witness = brute_most_common_of_length(w.symbols, k, length)
        assert (value, witness.symbols) == (b_value, b_witness)


def test_fixed_length_search_pinned():
    # (count, witness) of 450 seeded random words and lengths, recorded
    # with the recursive search this explicit-stack loop replaced
    rng = random.Random(20261018)
    h = hashlib.sha256()
    for _ in range(450):
        k = rng.choice([1, 2, 3, 4])
        n = rng.randrange(0, 16)
        w = Word(tuple(rng.randrange(k) for _ in range(n)), k)
        length = rng.randrange(0, n + 2)
        value, witness = max_occurrences_of_length(w, length)
        h.update(repr((k, w.symbols, length, value, witness.symbols)).encode())
    assert h.hexdigest() == "36bdc5323b34e8dc06d465c09cfbd00c3cdcfc765af36d987ea21d77b8fe8cec"


def test_fixed_length_long_pattern_does_not_recurse():
    value, witness = max_occurrences_of_length(Word((0,) * 1500, 1), 1400)
    assert value == comb(1500, 1400)
    assert witness == Word((0,) * 1400, 1)


def test_profile_and_sum():
    # every length-3 pattern fits "abab" at most once (aab/aba/abb/bab
    # all embed exactly once), so the profile tops out at length 2
    prof = occurrence_profile(word("abab"))
    assert [c for c, _ in prof] == [1, 2, 3, 1, 1]
    assert sum_over_lengths(word("abab")) == 8
    assert sum_over_lengths(word("aa", 1)) == 4
    assert sum_over_lengths(word("", 2)) == 1


def test_profile_matches_brute_force():
    rng = random.Random(41)
    for _ in range(40):
        k = rng.choice([2, 3])
        w = rand_word(rng, k, rng.randrange(0, 9))
        assert [c for c, _ in occurrence_profile(w)] == brute_profile(w.symbols, k)


def _length_kernel_inputs():
    rng = random.Random(20261021)
    for _ in range(160):
        k = rng.choice([1, 2, 3, 4])
        n = rng.randrange(0, 17)
        yield Word(tuple(rng.randrange(k) for _ in range(n)), k)
    for n in (1, 7, 16):
        yield Word((0,) * n, 1)
        yield Word((2,) * n, 3)
    for n in (1, 4, 8):
        yield power(word("ab"), n)
    # supports disjoint from each other and from the low symbols
    yield Word((4, 1, 4, 4, 1, 1, 4, 1, 4), 6)
    yield Word((5, 3, 3, 5, 3, 5, 5, 3, 3, 5, 3, 5), 6)
    yield Word((0, 2, 0, 2, 2, 0, 2, 0, 0, 2), 6)


def test_length_kernel_matches_one_length_oracle():
    # the all-lengths kernel, through both public entries, against the
    # one-length search it replaced: value and witness at every length
    for w in _length_kernel_inputs():
        expected = [
            oracles.fixed_length_search(w.symbols, w.alphabet_size, length)
            for length in range(len(w) + 2)
        ]
        profile = [(v, x.symbols) for v, x in occurrence_profile(w)]
        assert profile == expected[:-1]
        for length, row in enumerate(expected):
            value, witness = max_occurrences_of_length(w, length)
            assert (value, witness.symbols) == row
            assert witness.alphabet_size == w.alphabet_size
        assert sum_over_lengths(w) == sum(v for v, _ in profile)


def test_searches_run_on_the_support_only():
    # a huge alphabet costs nothing: the searches see the support only,
    # and witnesses come back in the word's alphabet, as on the same
    # word over {0, 1} with its symbols renamed in order
    k = 10**9
    small = (0, 1, 1, 0, 1, 0, 0)
    top = brute_most_common(small, 2)
    for support in ((0, 1), (3, 900000000)):
        w = Word(tuple(map(support.__getitem__, small)), k)

        def lifted(value, x):
            return value, Word(tuple(map(support.__getitem__, x)), k)

        assert max_occurrences(w) == lifted(*top)
        profile = [lifted(*oracles.fixed_length_search(small, 2, n)) for n in range(len(small) + 1)]
        assert occurrence_profile(w) == profile
        for length, row in enumerate(profile):
            assert max_occurrences_of_length(w, length) == row
        assert max_occurrences_of_length(w, 8) == (0, Word((0,) * 8, k))
    assert max_occurrences(Word((), k)) == (1, Word((), k))
    assert occurrence_profile(Word((), k)) == [(1, Word((), k))]


def test_length_above_the_word_is_budgeted():
    w = word("ab")
    value, witness = max_occurrences_of_length(w, FIXED_LENGTH_WITNESS_BUDGET)
    assert value == 0 and witness == Word((0,) * FIXED_LENGTH_WITNESS_BUDGET, 2)
    for length in (FIXED_LENGTH_WITNESS_BUDGET + 1, 10**9, 2**63):
        with pytest.raises(BudgetError, match=f"over the budget of {FIXED_LENGTH_WITNESS_BUDGET} symbols"):
            max_occurrences_of_length(w, length)


# ---------------------------------------------------------------------------
# structural facts the rest of the package leans on


def test_doubling_exhaustive_binary():
    # every pattern w occurs at least |w| + 1 times in ww
    from itertools import product as iproduct

    for n in range(0, 9):
        for syms in iproduct(range(2), repeat=n):
            w = Word(syms, 2)
            assert count_occurrences(w, Word(w.symbols + w.symbols, 2)) >= n + 1


def test_supermultiplicativity_random():
    rng = random.Random(43)
    for _ in range(60):
        k = rng.choice([2, 3])
        w1 = rand_word(rng, k, rng.randrange(0, 8))
        w2 = rand_word(rng, k, rng.randrange(0, 8))
        m1, _ = max_occurrences(w1)
        m2, _ = max_occurrences(w2)
        m12, _ = max_occurrences(Word(w1.symbols + w2.symbols, k))
        assert m12 >= m1 * m2


def test_count_invariant_under_reverse_and_relabel():
    rng = random.Random(47)
    for _ in range(400):
        k = rng.choice([2, 3])
        w = rand_word(rng, k, rng.randrange(0, 10))
        v = rand_word(rng, k, rng.randrange(0, 5))
        reversed_pair = (Word(v.symbols[::-1], k), Word(w.symbols[::-1], k))
        assert count_occurrences(*reversed_pair) == count_occurrences(v, w)
        perm = list(range(k))
        rng.shuffle(perm)
        relabelled = (Word(tuple(perm[s] for s in x.symbols), k) for x in (v, w))
        assert count_occurrences(*relabelled) == count_occurrences(v, w)


def test_max_invariant_under_reverse_and_relabel():
    rng = random.Random(53)
    for _ in range(1000):
        k = rng.choice([2, 3])
        w = rand_word(rng, k, rng.randrange(0, 10))
        value = max_occurrences(w)[0]
        assert max_occurrences(Word(w.symbols[::-1], k))[0] == value
        perm = list(range(k))
        rng.shuffle(perm)
        assert max_occurrences(Word(tuple(perm[s] for s in w.symbols), k))[0] == value


def test_single_letter_maximum_is_pigeonhole_bound():
    rng = random.Random(59)
    for _ in range(200):
        k = rng.choice([2, 3, 4])
        n = rng.randrange(1, 12)
        w = rand_word(rng, k, n)
        value, witness = max_occurrences_of_length(w, 1)
        freq = max(w.symbols.count(s) for s in range(k))
        assert value == freq
        assert value >= -(-n // k)  # ceil(n / k)
        assert w.symbols.count(witness.symbols[0]) == value


# ---------------------------------------------------------------------------
# contracts

@st.composite
def _words(draw, max_len):
    """Fields of a legal word (possibly empty, k = 1 included), or of one
    whose alphabet size or an extra symbol is junk or out of range."""
    k = draw(st.integers(1, 4))
    syms = tuple(draw(st.lists(st.integers(0, k - 1), max_size=max_len)))
    if draw(st.booleans()):
        return syms, k
    return (*syms, draw(int_or_junk(-1, 5))), draw(int_or_junk(-1, 5))


def test_non_int_arguments_are_contract_errors():
    v, w = word("ab"), word("abab")
    for positions in ((0, 1.5), (0, "1"), (None,), [0, 1], None):
        with pytest.raises(ContractError, match="^positions must be a tuple of ints"):
            validate_embedding(v, w, positions)
    for bad in (1.5, 2.0, "1"):
        with pytest.raises(ContractError, match="length must be an int"):
            max_occurrences_of_length(w, bad)
        with pytest.raises(ContractError, match="cap must be an int"):
            enumerate_embeddings(v, w, cap=bad)
    with pytest.raises(ContractError, match="length must be an int"):
        max_occurrences_of_length(w, None)
    assert len(enumerate_embeddings(v, w, cap=None)) == 3  # None means no cap


@given(
    v=_words(5),
    w=_words(12),
    short=_words(9),
    cap=st.one_of(st.none(), int_or_junk(-1, 5)),
    positions=st.one_of(st.lists(int_or_junk(-2, 14), max_size=6).map(tuple), JUNK),
    length=int_or_junk(-1, 14),
    junk=NOT_A_WORD,
)
@example(
    v=((), 2),
    w=((0, 1), 2),
    short=((), 2),
    cap=None,
    positions=(),
    length=2**63,
    junk="ab",
)
@settings(max_examples=300, deadline=None)
def test_counting_api_raises_only_documented_errors(
    v, w, short, cap, positions, length, junk
):
    calls = [
        lambda: count_occurrences(Word(*v), Word(*w)),
        lambda: enumerate_embeddings(Word(*v), Word(*w), cap),
        lambda: validate_embedding(Word(*v), Word(*w), positions),
        lambda: max_occurrences(Word(*w)),
        lambda: max_occurrences_of_length(Word(*w), length),
        lambda: occurrence_profile(Word(*short)),
        lambda: sum_over_lengths(Word(*short)),
        lambda: count_occurrences(junk, Word(*w)),
        lambda: count_occurrences(Word(*v), junk),
        lambda: enumerate_embeddings(junk, Word(*w), cap),
        lambda: validate_embedding(Word(*v), junk, positions),
        lambda: max_occurrences(junk),
        lambda: max_occurrences_of_length(junk, length),
        lambda: occurrence_profile(junk),
        lambda: sum_over_lengths(junk),
    ]
    for call in calls:
        try:
            call()
        except DOCUMENTED_ERRORS:
            pass
