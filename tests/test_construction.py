import hashlib
import random
from itertools import combinations, product
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import subseqlab.construction as construction_module
import subseqlab.lcs as lcs_module
from subseqlab.construction import (
    ConstructionWord,
    IntermediateReport,
    PropertyReport,
    PropertyResult,
    TupleAlphabet,
    agreement_set,
    base_sign_vectors,
    build_construction_word,
    build_permutation,
    signs_to_text,
    single_sign_mutations,
    verify_lemma_intermediate,
    verify_permutation_properties,
    verify_sign_properties,
)
from subseqlab.errors import BudgetError, ContractError
from subseqlab.lcs import is_permutation_word, lcs2
from subseqlab.words import Word

from contract_inputs import DOCUMENTED_ERRORS, JUNK, int_or_junk


# ---------------------------------------------------------------------------
# tuple alphabet packing


def test_alphabet_round_trip():
    alph = TupleAlphabet(3, 4)
    assert alph.size == 81
    seen = set()
    for s in range(alph.size):
        c = alph.coords(s)
        assert len(c) == 4 and all(1 <= x <= 3 for x in c)
        assert sum((ci - 1) * 3 ** (3 - i) for i, ci in enumerate(c)) == s
        seen.add(c)
    assert len(seen) == 81


def test_alphabet_most_significant_first():
    alph = TupleAlphabet(2, 3)
    assert alph.coords(0) == (1, 1, 1)
    assert alph.coords(1) == (1, 1, 2)
    assert alph.coords(4) == (2, 1, 1)
    assert alph.coords(7) == (2, 2, 2)


def test_prefix_class_matches_coords():
    # the class sweeps' grouping: each class holds, in the block's
    # order, the symbols whose first x coordinates pack to its index
    alph = TupleAlphabet(3, 4)
    perm = Word(tuple(random.Random(58).sample(range(alph.size), alph.size)), alph.size)
    for x in range(5):
        classes = construction_module._prefix_classes(perm, alph, x)
        assert len(classes) == 3**x
        for packed, cls in enumerate(classes):
            want = []
            for s in perm.symbols:
                value = 0
                for ci in alph.coords(s)[:x]:
                    value = value * 3 + (ci - 1)
                if value == packed:
                    want.append(s)
            assert cls == Word(tuple(want), alph.size)


def test_alphabet_contract_errors():
    alph = TupleAlphabet(2, 2)
    with pytest.raises(ContractError):
        alph.coords(4)
    with pytest.raises(ContractError):
        TupleAlphabet(0, 2)


# ---------------------------------------------------------------------------
# signed order


def test_sign_parsing_round_trip():
    assert signs_to_text((1, -1, 1, -1)) == "+-+-"
    for u in base_sign_vectors():
        assert tuple(1 if c == "+" else -1 for c in signs_to_text(u)) == u
    with pytest.raises(ContractError):
        signs_to_text((1, 0))


def test_permutation_all_plus_is_ascending():
    p = build_permutation((1, 1), 2)
    assert p.symbols == (0, 1, 2, 3)


def test_permutation_minus_plus_ordering():
    # signed keys sort the tuples as (2,1),(2,2),(1,1),(1,2)
    p = build_permutation((-1, 1), 2)
    assert p.symbols == (2, 3, 0, 1)


def test_permutation_all_minus_reverses():
    for t, r in ((2, 2), (3, 3)):
        plus = build_permutation((1,) * r, t)
        minus = build_permutation((-1,) * r, t)
        assert minus.symbols == plus.symbols[::-1]


def test_permutation_is_permutation():
    rng = random.Random(0)
    for _ in range(20):
        r = rng.randrange(1, 5)
        u = tuple(rng.choice((1, -1)) for _ in range(r))
        t = rng.randrange(2, 4)
        p = build_permutation(u, t)
        assert len(p) == t**r
        assert is_permutation_word(p)


def test_single_flip_inverts_exactly_that_coordinate():
    # flipping sign c swaps the order of exactly those symbol pairs whose
    # first differing coordinate is c
    rng = random.Random(1)
    t, r = 3, 3
    alph = TupleAlphabet(t, r)
    for _ in range(6):
        u = tuple(rng.choice((1, -1)) for _ in range(r))
        base = build_permutation(u, t)
        base_pos = {s: i for i, s in enumerate(base.symbols)}
        for c in range(r):
            flipped = list(u)
            flipped[c] = -flipped[c]
            other = build_permutation(tuple(flipped), t)
            other_pos = {s: i for i, s in enumerate(other.symbols)}
            for a, b in combinations(range(alph.size), 2):
                ca, cb = alph.coords(a), alph.coords(b)
                first_diff = next(i for i in range(r) if ca[i] != cb[i])
                swapped = (base_pos[a] < base_pos[b]) != (other_pos[a] < other_pos[b])
                assert swapped == (first_diff == c)


def test_permutation_budget_and_contracts():
    with pytest.raises(BudgetError):
        build_permutation((1,) * 8, 10)
    with pytest.raises(ContractError):
        build_permutation((1, 2), 2)
    with pytest.raises(ContractError):
        build_permutation((1, -1), 1)


# ---------------------------------------------------------------------------
# the base family


def test_base_family_shape():
    vs = base_sign_vectors()
    assert len(vs) == 8
    assert vs[0] == (1,) * 8
    assert vs[1] == (-1, -1, -1, 1, -1, 1, -1, -1)
    assert all(len(v) == 8 and set(v) <= {1, -1} for v in vs)


def test_agreement_sets():
    vs = base_sign_vectors()
    assert agreement_set([vs[0]]) == frozenset(range(1, 9))
    assert agreement_set([vs[0], vs[1]]) == frozenset({4, 6})
    assert agreement_set([vs[0], vs[1], vs[2]]) == frozenset()
    with pytest.raises(ContractError):
        agreement_set([])
    with pytest.raises(ContractError):
        agreement_set([(1, 1), (1, 1, 1)])


def _by_name(report: PropertyReport) -> dict[str, PropertyResult]:
    return {r.name: r for r in report.results}


def _seeded_sign_families(count=50):
    """Random period-8 families; every fifth draws its eight vectors
    from only three, so it repeats vectors."""
    rng = random.Random(15)
    for n in range(count):
        vectors = [tuple(rng.choice((1, -1)) for _ in range(8)) for _ in range(8)]
        if n % 5 == 0:
            vectors = [rng.choice(vectors[:3]) for _ in range(8)]
        yield tuple(vectors)


def test_sign_properties_pass_on_base_family():
    report = verify_sign_properties(base_sign_vectors())
    assert report.ok
    assert len(report.results) == 8
    assert all(r.checked for r in report.results)
    results = _by_name(report)
    assert results["adjacent-pairs-agree-le2"].worst == 2
    assert results["consecutive-triples-agree-nowhere"].worst == 0


def test_sign_properties_fail_on_constant_family():
    report = verify_sign_properties([(1,) * 8] * 8)
    assert not report.ok
    adjacent = _by_name(report)["adjacent-pairs-agree-le2"]
    assert not adjacent.ok
    assert adjacent.worst == 8


def test_every_single_sign_flip_breaks_something():
    # regression tripwire: an observed fact about this family, not a theorem
    mutations = list(single_sign_mutations(base_sign_vectors()))
    assert len(mutations) == 64
    for (vi, ci), family in mutations:
        report = verify_sign_properties(family)
        assert not report.ok, f"flip at vector {vi}, coordinate {ci} broke nothing"


def test_sign_reports_are_pinned():
    # every failure label and worst value of the base family, its 64
    # mutations, the constant family and seeded random families
    base = base_sign_vectors()
    families = [
        base,
        *(family for _, family in single_sign_mutations(base)),
        ((1,) * 8,) * 8,
        *_seeded_sign_families(),
    ]
    h = hashlib.sha256()
    for family in families:
        h.update(repr(verify_sign_properties(family)).encode())
    assert h.hexdigest() == "95aace9280611570e3bcf6cc8fa9a7e603c46055ef28fadc00d0bca4d0558a03"


# ---------------------------------------------------------------------------
# the concatenated word


def test_construction_word_basics():
    cw = build_construction_word(2, 9)
    assert cw.block_length == 256
    assert len(cw.word) == 9 * 256
    syms = cw.word.symbols
    assert syms[:256] == tuple(range(256))
    assert syms[8 * 256 :] == syms[:256]
    assert syms[256:512] == build_permutation(base_sign_vectors()[1], 2).symbols


def test_construction_word_contracts():
    with pytest.raises(ContractError):
        build_construction_word(2, 0)
    with pytest.raises(ContractError):
        build_construction_word(1, 2)
    with pytest.raises(BudgetError):
        build_construction_word(4, 100)
    w = build_construction_word(2, 3).word
    with pytest.raises(ContractError, match="^block_count must be an int, got '3'$"):
        ConstructionWord(2, 8, "3", 256, w)
    with pytest.raises(ContractError, match="^word must be a Word"):
        ConstructionWord(2, 8, 3, 256, w.symbols)


# ---------------------------------------------------------------------------
# joint LCS of a signed-lex family


def test_intermediate_examples():
    rep = verify_lemma_intermediate(2, 2, [(1, 1), (-1, -1)])
    assert rep.agreement == frozenset() and rep.expected == 1 and rep.ok
    rep = verify_lemma_intermediate(2, 3, [(1, -1), (1, 1)])
    assert rep.agreement == frozenset({1}) and rep.expected == 3 and rep.ok
    rep = verify_lemma_intermediate(3, 2, [(1, -1, 1)])
    assert rep.expected == 8 and rep.computed == 8 and rep.ok


def test_intermediate_deduplicates():
    rep = verify_lemma_intermediate(2, 2, [(1, 1), (1, 1)])
    assert rep.family_size == 1 and rep.expected == 4 and rep.ok


def test_intermediate_exhaustive_r_le_2():
    for r in (1, 2):
        all_vs = list(product((1, -1), repeat=r))
        for t in (2, 3):
            for size in range(1, len(all_vs) + 1):
                for family in combinations(all_vs, size):
                    rep = verify_lemma_intermediate(r, t, family)
                    assert rep.ok, (r, t, family, rep)


def test_intermediate_spot_checks_r3():
    rng = random.Random(33)
    all_vs = list(product((1, -1), repeat=3))
    for _ in range(15):
        size = rng.randrange(1, 4)
        family = rng.sample(all_vs, size)
        rep = verify_lemma_intermediate(3, 2, family)
        assert rep.ok, (family, rep)


def test_intermediate_contracts():
    with pytest.raises(ContractError):
        verify_lemma_intermediate(2, 2, [])
    with pytest.raises(ContractError):
        verify_lemma_intermediate(3, 2, [(1, 1)])


# ---------------------------------------------------------------------------
# block LCS bounds


def test_block_properties_t2():
    report = verify_permutation_properties(2)
    assert report.ok
    assert all(r.checked for r in report.results)
    results = _by_name(report)
    assert results["adjacent-lcs-le-t2"].worst <= 4
    assert results["consecutive-triple-lcs-eq-1"].worst == 1
    assert results["fixed-prefix6-lcs-le-t"].worst <= 2
    assert results["fixed-prefix5-lcs-le-t2"].worst <= 4
    assert results["fixed-prefix3-lcs-le-t3"].worst <= 8


def test_block_properties_t2_reports_are_pinned():
    # pins taken from the quadratic chain route; the triple sweeps must
    # read the same through the layer-mask kernel, failures included
    pinned = PropertyReport(
        tuple(
            PropertyResult(name, True, True, worst, ())
            for name, worst in (
                ("adjacent-lcs-le-t2", 4),
                ("distinct-pair-lcs-le-t4", 16),
                ("consecutive-triple-lcs-eq-1", 1),
                ("adjacent-plus-outsider-lcs-le-t", 2),
                ("distinct-triple-lcs-le-t2", 4),
                ("fixed-prefix6-lcs-le-t", 2),
                ("fixed-prefix5-lcs-le-t2", 4),
                ("fixed-prefix3-lcs-le-t3", 8),
            )
        )
    )
    assert verify_permutation_properties(2) == pinned
    h = hashlib.sha256()
    for key, family in list(single_sign_mutations(base_sign_vectors()))[::9]:
        h.update(repr((key, verify_permutation_properties(2, vectors=family))).encode())
    assert h.hexdigest() == "ae78a94fa7f6d66180fcf317047c19d8b81b469ab5d1b2433d626d4295b724bd"


def test_block_properties_t2_every_mutation_is_pinned():
    # all 64 mutations, and a family repeating vectors both adjacently
    # and at a distance, which the content-equality filters skip
    b = base_sign_vectors()
    families = [family for _, family in single_sign_mutations(b)]
    families.append((b[0], b[1], b[1], b[3], b[0], b[5], b[6], b[3]))
    h = hashlib.sha256()
    for family in families:
        h.update(repr(verify_permutation_properties(2, vectors=family)).encode())
    assert h.hexdigest() == "3d9e0530f79c555068b116669428d8ba0ac75bfeb56aa5a4ba47f1c14be94465"


def test_family_sweeps_measure_each_instance_once(monkeypatch):
    # 28 pairs and 56 triples; then, per prefix length, one lcs2 per
    # class of each unordered block pair: 28 + 24*64 + 28*32 + 28*8 = 2684
    calls = {"lcs2": 0, "lcs3": 0}

    def counted(name):
        real = getattr(construction_module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(construction_module, name, counted(name))
    assert verify_permutation_properties(2).ok
    assert calls == {"lcs2": 2684, "lcs3": 56}


def test_block_properties_t3():
    # the chain kernel's mask budget admits t=3 blocks (6561 symbols),
    # so all 112 triples are checked
    report = verify_permutation_properties(3)
    assert report.ok
    assert all(r.checked for r in report.results)
    assert {name: r.worst for name, r in _by_name(report).items()} == {
        "adjacent-lcs-le-t2": 9,
        "distinct-pair-lcs-le-t4": 81,
        "consecutive-triple-lcs-eq-1": 1,
        "adjacent-plus-outsider-lcs-le-t": 3,
        "distinct-triple-lcs-le-t2": 9,
        "fixed-prefix6-lcs-le-t": 3,
        "fixed-prefix5-lcs-le-t2": 9,
        "fixed-prefix3-lcs-le-t3": 27,
    }


def test_block_properties_detect_bad_family():
    # a constant family collapses adjacent blocks to identical words,
    # blowing the adjacent-pair bound sky high
    report = verify_permutation_properties(2, vectors=[(1,) * 8] * 8)
    assert not report.ok
    assert _by_name(report)["adjacent-lcs-le-t2"].worst == 256


def test_block_properties_budget_skips_triples(monkeypatch):
    # t=2 blocks have 256 common symbols, 65536 mask bits per triple
    monkeypatch.setattr(lcs_module, "CHAIN_MASK_BIT_BUDGET", 65535)
    report = verify_permutation_properties(2)
    triples = (
        "consecutive-triple-lcs-eq-1",
        "adjacent-plus-outsider-lcs-le-t",
        "distinct-triple-lcs-le-t2",
    )
    for name in triples:
        triple = _by_name(report)[name]
        assert not triple.checked and triple.worst is None
        assert triple.note == (
            "chain kernel needs 65536 mask bits for 256 common symbols, "
            "over the budget of 65535"
        )
    # the pair and prefix-class sweeps still run
    assert all(r.checked for r in report.results if r.name not in triples)
    # unchecked results do not poison the verdict
    assert report.ok


# ---------------------------------------------------------------------------
# contracts


def _draw_family(draw):
    """Sign vectors of length 0..3 over {+1, -1}, or with junk entries,
    or junk in place of a vector or of the whole family."""
    entry = st.sampled_from((1, -1)) if draw(st.booleans()) else int_or_junk(-2, 2)
    vector = st.one_of(st.lists(entry, max_size=3).map(tuple), JUNK)
    return draw(st.one_of(st.lists(vector, max_size=9), JUNK))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_construction_api_raises_only_documented_errors(data):
    draw = data.draw
    t, r = draw(int_or_junk(-1, 3)), draw(int_or_junk(-1, 3))
    family = _draw_family(draw)
    vector = family
    if isinstance(family, list):  # one of its vectors, or junk
        vector = draw(st.one_of(st.sampled_from(family or [()]), JUNK))

    def alphabet_calls():
        alphabet = TupleAlphabet(t, r)
        alphabet.coords(draw(int_or_junk(-2, 90)))

    def word_calls():
        with patch.object(construction_module, "CONSTRUCTION_BUDGET", draw(st.integers(0, 900))):
            cw = build_construction_word(t, draw(int_or_junk(-1, 3)))
        if draw(st.booleans()):  # one symbol repeated in the last block
            syms = (*cw.word.symbols[:-1], cw.word.symbols[-2])
            broken = Word(syms, cw.block_length)
            cw = ConstructionWord(cw.t, 8, cw.block_count, cw.block_length, broken)
        cw.block_offsets

    def junk_word_calls():
        length = draw(int_or_junk(-1, 4))
        syms = draw(st.lists(st.integers(0, 3), max_size=12).map(tuple))
        cw = ConstructionWord(
            t,
            r,
            draw(int_or_junk(-1, 4)),
            length,
            draw(st.one_of(st.just(Word(syms, 4)), st.just(syms), JUNK)),
        )
        cw.block_offsets

    calls = [
        alphabet_calls,
        word_calls,
        junk_word_calls,
        lambda: signs_to_text(vector),
        lambda: build_permutation(vector, t, draw(int_or_junk(0, 600))),
        lambda: agreement_set(family),
        lambda: list(single_sign_mutations(family)),
        lambda: verify_sign_properties(family),
        lambda: verify_lemma_intermediate(r, draw(int_or_junk(-1, 2)), family),
        # t <= 1 or a junk family fails before any block is built
        lambda: verify_permutation_properties(draw(int_or_junk(-1, 1)), family),
    ]
    for call in calls:
        try:
            call()
        except DOCUMENTED_ERRORS:
            pass
