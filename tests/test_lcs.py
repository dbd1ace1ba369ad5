import hashlib
import random
import tracemalloc
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subseqlab.lcs as lcs_module
from subseqlab.construction import verify_permutation_properties
from subseqlab.counting import count_occurrences
from subseqlab.errors import BudgetError, ContractError
from subseqlab.lcs import (
    _dp_lcs2,
    _dp_lcs3,
    _patience_sweep,
    _perm_lcs2,
    check_triple_product,
    is_permutation_word,
    lcs2,
    lcs3,
    multi_lcs,
    CHAIN_MASK_BIT_BUDGET,
    permutation_chain_lcs,
)
from subseqlab.words import Word, word

from contract_inputs import DOCUMENTED_ERRORS, NOT_A_WORD
from oracles import (
    bit_lcs_length,
    brute_lcs,
    dp_lcs2,
    dp_lcs3,
    lis_by_patience,
    quadratic_chain_lcs,
    subsequence_by_two_pointer,
    suffix_lcs_table,
)


def _perm_word(rng, length, alphabet_size=None):
    k = alphabet_size or length
    syms = rng.sample(range(k), length)
    return Word(tuple(syms), max(k, 1))


# ---------------------------------------------------------------------------
# two words


def test_classic_pair():
    a, b = word("abcbdab"), word("bdcaba")
    assert lcs2(a, b) == (4, word("bcab", alphabet_size=a.alphabet_size))


def test_identical_word_is_its_own_witness():
    w = word("abacabad")
    assert lcs2(w, w) == (len(w), w)


def test_empty_and_disjoint():
    e = word("", alphabet_size=4)
    assert lcs2(e, word("abc", alphabet_size=4)) == (0, e)
    assert lcs2(word("aa", alphabet_size=4), word("bb", alphabet_size=4)) == (0, e)


def test_is_permutation_word():
    assert is_permutation_word(Word((2, 0, 1), 3)) and is_permutation_word(Word((), 1))
    assert not is_permutation_word(word("aba"))
    for junk in (5, (0, 1), "ab"):
        with pytest.raises(ContractError, match="^w must be a Word, got "):
            is_permutation_word(junk)


def test_alphabet_mismatch_rejected():
    with pytest.raises(ContractError):
        lcs2(word("ab"), word("abc"))


def test_lex_min_matters():
    # "ab" and "ba" are the only maximum common subsequences; want "ab"
    a = word("aba")
    b = word("bab")
    length, witness = lcs2(a, b)
    assert length == 2
    assert witness == word("ab")


@given(
    st.lists(st.integers(0, 3), max_size=9),
    st.lists(st.integers(0, 3), max_size=14),
)
@settings(max_examples=250, deadline=None)
def test_dp_matches_brute_force(xs, ys):
    a, b = Word(tuple(xs), 4), Word(tuple(ys), 4)
    length, witness = lcs2(a, b)
    assert (length, witness.symbols) == brute_lcs([xs, ys])


def test_permutation_route_matches_dp_route():
    # full, partial and disjoint supports; the pair route must agree with
    # the DP route, the chain kernel and the quadratic chain reference,
    # witness included
    rng = random.Random(20260814)
    for trial in range(600):
        if trial % 2:
            a, b = _partial_perm_words(rng, 2, rng.choice([1, 2, 5, 12, 40, 100]))
        else:
            n = rng.choice([0, 1, 2, 3, 5, 8, 13, 30, 60, 120])
            k = max(n + rng.randrange(0, 5), 1)
            a = _perm_word(rng, n, k)
            b = _perm_word(rng, min(n + rng.randrange(0, 3), k), k)
        assert is_permutation_word(a) and is_permutation_word(b)
        result = _perm_lcs2(a, b)
        assert result == _dp_lcs2(a, b)
        assert (result[0], result[1].symbols) == dp_lcs2(a.symbols, b.symbols)
        assert result == permutation_chain_lcs([a, b])
        assert (result[0], result[1].symbols) == quadratic_chain_lcs([a.symbols, b.symbols])
        # public entry dispatches to the fast route for these inputs
        assert lcs2(a, b) == result


def test_patience_sweep_heights_match_the_dp():
    # the kernel the block verifier reads class bounds from: its height
    # count is the LCS length, and each common symbol sits once, in the
    # bucket of the longest chain starting at it, on disjoint, partly
    # overlapping and identical permutation sequences of length 0..64
    rng = random.Random(20261020)
    kinds = ("disjoint", "overlapping", "identical")
    for trial in range(300):
        kind = kinds[trial % 3]
        a = tuple(rng.sample(range(130), rng.randrange(0, 65)))
        others = [s for s in range(130) if s not in a]
        if kind == "disjoint":
            b = tuple(rng.sample(others, rng.randrange(0, 65)))
        elif kind == "overlapping":
            kept = rng.sample(a, rng.randrange(0, len(a) + 1))
            b = [*kept, *rng.sample(others, rng.randrange(0, 65 - len(kept)))]
            rng.shuffle(b)
            b = tuple(b)
        else:
            b = a
        L = suffix_lcs_table(a, b)
        buckets = _patience_sweep(a, b)
        assert len(buckets) == L[0][0], (kind, a, b)
        points = sorted(e for bucket in buckets for e in bucket)
        assert points == sorted((p1, b.index(c), c) for p1, c in enumerate(a) if c in b)
        for h, bucket in enumerate(buckets):
            for p1, p2, c in bucket:
                assert a[p1] == c == b[p2]
                assert 1 + L[p1 + 1][p2 + 1] == h + 1, (kind, a, b, c)


def _rand_syms(rng, k, n):
    return tuple(rng.randrange(k) for _ in range(n))


def _dp_route_inputs(rng, u):
    """u symbol tuples over one alphabet of 1-6 letters: random, with
    empty words, with disjoint supports, or with very unequal lengths."""
    k = rng.randrange(1, 7)
    kind = rng.choice(["random", "empty", "disjoint", "unequal"])
    if kind == "disjoint" and k >= u:
        cut = k // u
        words = [
            tuple(rng.randrange(i * cut, (i + 1) * cut) for _ in range(rng.randrange(1, 9)))
            for i in range(u)
        ]
    elif kind == "unequal":
        lengths = [rng.randrange(0, 4) for _ in range(u - 1)] + [rng.randrange(30, 70)]
        rng.shuffle(lengths)
        words = [_rand_syms(rng, k, n) for n in lengths]
    else:
        words = [_rand_syms(rng, k, rng.randrange(0, 13)) for _ in range(u)]
        if kind == "empty":
            words[rng.randrange(u)] = ()
    return k, words


def test_dp_routes_match_oracles():
    # (length, witness) of the bit-parallel pair kernel and the
    # threshold-list triple kernel against the per-cell table DPs
    rng = random.Random(20261022)
    for _ in range(1500):
        k, (a, b) = _dp_route_inputs(rng, 2)
        expected = dp_lcs2(a, b)
        length, witness = _dp_lcs2(Word(a, k), Word(b, k))
        assert (length, witness.symbols) == expected, (a, b)
        assert lcs2(Word(a, k), Word(b, k)) == (length, witness)
        k, ws = _dp_route_inputs(rng, 3)
        expected = dp_lcs3(*ws)
        length, witness = _dp_lcs3(*(Word(s, k) for s in ws))
        assert (length, witness.symbols) == expected, ws
        assert lcs3(*(Word(s, k) for s in ws)) == (length, witness)


def test_dp_triple_kernel_with_a_permutation_word():
    # s3 a permutation (of all or part of the alphabet) while the others
    # repeat symbols, in every order of the three words
    rng = random.Random(20261023)
    for _ in range(300):
        k = rng.randrange(2, 9)
        perm = tuple(rng.sample(range(k), rng.randrange(1, k + 1)))
        ws = [_rand_syms(rng, k, rng.randrange(k + 1, 14)) for _ in range(2)]
        for order in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
            trip = [(*ws, perm)[i] for i in order]
            length, witness = lcs3(*(Word(s, k) for s in trip))
            assert (length, witness.symbols) == dp_lcs3(*trip), trip


def test_dp_pair_kernel_on_multiword_ints():
    # pairs of 65, 200 and 1000+ symbols: the row ints span several
    # machine words
    rng = random.Random(20261024)
    for n1, n2, k in ((65, 64, 2), (64, 65, 3), (200, 130, 2), (200, 200, 5), (1030, 1001, 4)):
        a, b = _rand_syms(rng, k, n1), _rand_syms(rng, k, n2)
        length, witness = lcs2(Word(a, k), Word(b, k))
        assert (length, witness.symbols) == dp_lcs2(a, b)


def test_lcs_dp_routes_pinned():
    # (length, witness) of seeded non-permutation inputs at the request
    # sizes of the benchmark's query stream, recorded with the per-cell
    # table DPs the kernels replaced
    rng = random.Random(20261021)
    h = hashlib.sha256()
    for t in range(300):
        if t % 5 < 3:
            k = rng.choice([2, 4, 8])
            ws = [Word(_rand_syms(rng, k, rng.randint(40, 150)), k) for _ in range(2)]
            length, witness = lcs2(*ws)
        else:
            k = rng.choice([2, 3, 4])
            ws = [Word(_rand_syms(rng, k, rng.randint(10, 30)), k) for _ in range(3)]
            length, witness = lcs3(*ws)
        assert not all(map(is_permutation_word, ws))
        h.update(repr((k, [w.symbols for w in ws], length, witness.symbols)).encode())
    assert h.hexdigest() == "ea9d79717fff8dde33571d2d60f14552a3d9393e1bde85dfe91413cf6463fe89"


def test_long_binary_pair_in_little_memory():
    # a per-cell table would hold 16M ints here; the kernel's rows take
    # 4001 ints of 4000 bits, about 2 MB
    rng = random.Random(4000)
    a, b = (Word(_rand_syms(rng, 2, 4000), 2) for _ in range(2))
    tracemalloc.start()
    try:
        length, witness = lcs2(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert length == bit_lcs_length(a.symbols, b.symbols) == len(witness)
    assert subsequence_by_two_pointer(witness.symbols, a.symbols)
    assert subsequence_by_two_pointer(witness.symbols, b.symbols)


def test_lcs_with_identity_is_lis():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randrange(1, 40)
        p = _perm_word(rng, n)
        identity = Word(tuple(range(n)), n)
        assert lcs2(identity, p)[0] == lis_by_patience(p.symbols)


def test_witness_embeds_in_both_inputs():
    rng = random.Random(99)
    for _ in range(200):
        a = Word(tuple(rng.randrange(3) for _ in range(rng.randrange(12))), 3)
        b = Word(tuple(rng.randrange(3) for _ in range(rng.randrange(12))), 3)
        length, witness = lcs2(a, b)
        assert len(witness) == length
        assert count_occurrences(witness, a) >= 1
        assert count_occurrences(witness, b) >= 1


def test_reversal_preserves_length():
    rng = random.Random(5)
    for _ in range(100):
        a = Word(tuple(rng.randrange(3) for _ in range(rng.randrange(15))), 3)
        b = Word(tuple(rng.randrange(3) for _ in range(rng.randrange(15))), 3)
        assert lcs2(a, b)[0] == lcs2(Word(a.symbols[::-1], 3), Word(b.symbols[::-1], 3))[0]


# ---------------------------------------------------------------------------
# three and more words


def test_three_way_matches_brute_force():
    rng = random.Random(42)
    for _ in range(120):
        ws = [
            Word(tuple(rng.randrange(3) for _ in range(rng.randrange(1, 9))), 3)
            for _ in range(3)
        ]
        length, witness = lcs3(*ws)
        b_len, b_wit = brute_lcs([w.symbols for w in ws])
        assert (length, witness.symbols) == (b_len, b_wit)
        for w in ws:
            assert count_occurrences(witness, w) >= 1


def test_three_way_permutation_route_matches_dp_route():
    rng = random.Random(4242)
    for _ in range(120):
        n = rng.randrange(0, 9)
        k = max(n + rng.randrange(0, 3), 1)
        ws = [_perm_word(rng, rng.randrange(0, n + 1) if n else 0, k) for _ in range(3)]
        length, witness = lcs3(*ws)
        assert _dp_lcs3(*ws) == permutation_chain_lcs(ws) == (length, witness)
        assert (length, witness.symbols) == dp_lcs3(*(w.symbols for w in ws))


def test_three_way_budget():
    long = Word((0, 1) * 100, 2)
    with pytest.raises(BudgetError, match="budget"):
        lcs3(long, long, long)
    # a raised cap lets the same call through
    with patch.object(lcs_module, "LCS3_CELL_BUDGET", 10**7):
        assert lcs3(long, long, long)[0] == 200


def test_chain_route_on_pairs_equals_lcs2():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(0, 30)
        a, b = _perm_word(rng, n, n + 2), _perm_word(rng, n, n + 2)
        assert permutation_chain_lcs([a, b]) == lcs2(a, b)


def test_chain_route_rejects_repeats():
    with pytest.raises(ContractError):
        permutation_chain_lcs([word("aba"), word("ab")])


def test_chain_length_never_grows_with_more_words():
    rng = random.Random(12)
    for _ in range(50):
        n = rng.randrange(1, 25)
        ws = [_perm_word(rng, n) for _ in range(4)]
        lengths = [permutation_chain_lcs(ws[:u])[0] for u in range(1, 5)]
        assert lengths == sorted(lengths, reverse=True)
        assert lengths[0] == n


def _partial_perm_words(rng, u, k):
    """u permutation words over range(k): independent random supports,
    one shared support, disjoint supports, or one support with a few
    symbols dropped per word (nearly equal supports)."""
    kind = rng.choice(["random", "shared", "disjoint", "near"])
    if kind == "disjoint":
        pool = rng.sample(range(k), k)
        cut = k // u
        return [Word(tuple(pool[i * cut : (i + 1) * cut]), k) for i in range(u)]
    if kind == "random":
        supports = [rng.sample(range(k), rng.randrange(k + 1)) for _ in range(u)]
    else:
        base = rng.sample(range(k), rng.randrange(k + 1))
        drop = 0 if kind == "shared" else min(3, len(base))
        supports = [rng.sample(base, len(base) - rng.randrange(drop + 1)) for _ in range(u)]
    return [Word(tuple(s), k) for s in supports]


def test_chain_kernel_matches_quadratic_reference():
    rng = random.Random(20261018)
    for trial in range(500):
        u = rng.randrange(1, 6)
        k = rng.choice([1, 2, 5, 12, 40, 100, 200, 300])
        ws = _partial_perm_words(rng, u, k)
        length, witness = permutation_chain_lcs(ws)
        assert (length, witness.symbols) == quadratic_chain_lcs([w.symbols for w in ws])


def test_chain_kernel_matches_quadratic_reference_on_block_triples(monkeypatch):
    # every triple the t=2 block sweep sends through lcs3's permutation
    # route: each of the 56 index triples, once
    seen = []
    kernel = lcs_module.permutation_chain_lcs

    def recording(ws):
        result = kernel(ws)
        seen.append((ws, result))
        return result

    monkeypatch.setattr(lcs_module, "permutation_chain_lcs", recording)
    assert verify_permutation_properties(2).ok
    assert len(seen) == 56
    for ws, (length, witness) in seen:
        assert len(ws) == 3
        assert (length, witness.symbols) == quadratic_chain_lcs([w.symbols for w in ws])


def test_chain_kernel_budget(monkeypatch):
    # the default admits t=3 blocks (6561 symbols) and refuses t=4 ones
    # (65536) before building a mask
    assert 6561**2 <= CHAIN_MASK_BIT_BUDGET
    identity = Word(tuple(range(65536)), 65536)
    with pytest.raises(BudgetError, match="65536 common symbols"):
        permutation_chain_lcs([identity, identity, identity])
    # the budget counts common symbols, m^2 bits for m of them
    ws = [Word((0, 1, 2, 3, 4, 5), 7), Word((5, 4, 3, 2, 1, 0), 7), Word((1, 0, 3, 2, 5, 4, 6), 7)]
    monkeypatch.setattr(lcs_module, "CHAIN_MASK_BIT_BUDGET", 35)
    with pytest.raises(BudgetError, match="36 mask bits for 6 common symbols, over the budget of 35"):
        lcs3(*ws)
    with pytest.raises(BudgetError, match="over the budget of 35"):
        permutation_chain_lcs(ws[:2])
    # pairs keep their own route, which needs no masks
    assert lcs2(*ws[:2])[0] == 1
    monkeypatch.setattr(lcs_module, "CHAIN_MASK_BIT_BUDGET", 36)
    length, witness = lcs3(*ws)
    assert (length, witness.symbols) == dp_lcs3(*(w.symbols for w in ws))


@st.composite
def _any_word(draw):
    """A word over its own alphabet of 1-6 symbols: sometimes a
    permutation word, otherwise with repeats likely."""
    k = draw(st.integers(1, 6))
    if draw(st.booleans()):
        syms = draw(st.permutations(range(k)))[: draw(st.integers(0, k))]
    else:
        syms = draw(st.lists(st.integers(0, k - 1), max_size=7))
    return Word(tuple(syms), k)


@given(
    st.lists(_any_word(), max_size=4),
    st.integers(1, 300),
    st.integers(0, 40),
    NOT_A_WORD,
    st.integers(0, 3),
)
@settings(max_examples=400, deadline=None)
def test_lcs_api_raises_only_documented_errors(ws, budget, mask_bits, junk, slot):
    calls = [
        lambda: [is_permutation_word(w) for w in ws],
        lambda: is_permutation_word(junk),
        lambda: multi_lcs(ws),
        lambda: permutation_chain_lcs(ws),
        lambda: multi_lcs([*ws[:slot], junk, *ws[slot:]]),
        lambda: permutation_chain_lcs([*ws[:slot], junk, *ws[slot:]]),
    ]
    if len(ws) >= 2:
        calls.append(lambda: lcs2(ws[0], ws[1]))
        calls.append(lambda: lcs2(junk, ws[1]))
        calls.append(lambda: lcs2(ws[0], junk))
    if len(ws) >= 3:
        calls.append(lambda: lcs3(*ws[:3]))
        calls.append(lambda: check_triple_product(*ws[:3]))
        calls.append(lambda: lcs3(ws[0], ws[1], junk))
        calls.append(lambda: check_triple_product(junk, ws[1], ws[2]))
    with (
        patch.object(lcs_module, "CHAIN_MASK_BIT_BUDGET", mask_bits),
        patch.object(lcs_module, "MULTI_LCS_STATE_BUDGET", budget),
        patch.object(lcs_module, "LCS3_CELL_BUDGET", budget),
    ):
        for call in calls:
            try:
                call()
            except DOCUMENTED_ERRORS:
                pass


def test_multi_agrees_with_pair_and_triple():
    rng = random.Random(13)
    for _ in range(60):
        ws = [
            Word(tuple(rng.randrange(3) for _ in range(rng.randrange(1, 8))), 3)
            for _ in range(4)
        ]
        assert multi_lcs(ws[:2]) == lcs2(*ws[:2])[0]
        assert multi_lcs(ws[:3]) == lcs3(*ws[:3])[0]
        assert multi_lcs(ws) == brute_lcs([w.symbols for w in ws])[0]


def test_multi_single_word_and_contracts():
    assert multi_lcs([word("abcab")]) == 5
    with pytest.raises(ContractError):
        multi_lcs([])
    with pytest.raises(ContractError):
        multi_lcs([word("ab"), word("abc")])
    # a container of words that is not a list or tuple is refused
    p, q = Word((0, 1, 2), 3), Word((2, 0, 1), 3)
    for f in (multi_lcs, permutation_chain_lcs):
        assert f((p, q)) == f([p, q])
        for ws in (iter([p, q]), {p, q}, {p: 1, q: 2}):
            with pytest.raises(ContractError, match="list or tuple"):
                f(ws)


def test_multi_budget():
    ws = [Word((0, 1) * 50, 2) for _ in range(4)]
    with pytest.raises(BudgetError, match="100000000"):
        multi_lcs(ws)


# ---------------------------------------------------------------------------
# the pairwise-product floor for permutation triples


def test_product_floor_exhaustive_tiny():
    from itertools import permutations

    for p in permutations(range(3)):
        for q in permutations(range(3)):
            for r in permutations(range(3)):
                rep = check_triple_product(Word(p, 3), Word(q, 3), Word(r, 3))
                assert rep.holds
                assert rep.product == rep.lcs12 * rep.lcs13 * rep.lcs23
                assert rep.support_size == 3


def test_product_floor_random():
    rng = random.Random(314)
    for _ in range(500):
        n = rng.randrange(1, 31)
        ps = [_perm_word(rng, n) for _ in range(3)]
        rep = check_triple_product(*ps)
        assert rep.holds, (ps, rep)
        assert rep.product >= rep.support_size == n


def test_product_floor_contracts():
    with pytest.raises(ContractError):
        check_triple_product(word("aba"), word("ab"), word("ba"))
    with pytest.raises(ContractError):
        check_triple_product(
            Word((0, 1), 3), Word((1, 0), 3), Word((1, 2), 3)
        )
