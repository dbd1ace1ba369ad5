"""Certificates: every claimed bound must survive an independent
recount, and the derivation machinery must match its stated rules."""

import hashlib
import random
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from subseqlab import certify
from subseqlab.certify import (
    BlockDecomposition,
    TripleFinding,
    best_triple,
    certify_word,
    chained_certificate,
    decompose,
    disjoint_triples,
    duplicate_letter_certificate,
    lcs_pair_certificate,
)
from subseqlab.construction import build_construction_word
from subseqlab.counting import count_occurrences
from subseqlab.errors import ContractError, NotApplicable
from subseqlab.lcs import check_triple_product
from subseqlab.words import Word, concat, from_ids, power, word

from contract_inputs import DOCUMENTED_ERRORS, NOT_A_WORD, int_or_junk
from oracles import count_by_plain_dp, subsequence_by_two_pointer


def rand_word(rng, k, n):
    return from_ids((rng.randrange(k) for _ in range(n)), alphabet_size=k)


def perm_block_word(rng, k, blocks):
    syms = []
    for _ in range(blocks):
        p = list(range(k))
        rng.shuffle(p)
        syms.extend(p)
    return from_ids(syms, alphabet_size=k)


# ---------------------------------------------------------------------------
# decomposition and parameters


def test_decompose_even_split():
    w = rand_word(random.Random(0), 4, 12)
    bd = decompose(w, 3)
    assert bd.block_count == 3
    assert bd.block_length == 4
    assert bd.remainder == 0
    assert concat(concat(bd.blocks[0], bd.blocks[1]), bd.blocks[2]) == w


def test_decompose_reports_remainder():
    w = rand_word(random.Random(1), 4, 13)
    bd = decompose(w, 3)
    assert bd.block_length == 4 and bd.remainder == 1


def test_decompose_permutation_flags():
    w = word("aabbac")
    bd = decompose(w, 2)
    assert [b.symbols for b in bd.blocks] == [(0, 0, 1), (1, 0, 2)]
    assert bd.is_permutation == (False, True)
    assert bd.permutation_indices == (2,)


def test_decompose_contracts():
    w = word("abc")
    with pytest.raises(ContractError):
        decompose(w, 0)
    with pytest.raises(ContractError):
        decompose(w, 4)


# ---------------------------------------------------------------------------
# duplicate letters


def test_duplicate_letter_basic():
    cert = duplicate_letter_certificate(decompose(word("aabbac"), 2))
    assert cert.witness == Word((0,), 3)
    assert cert.claimed == 2
    assert cert.ok
    assert [s.rule for s in cert.steps] == ["repeat-letter", "product-across-blocks"]


def test_duplicate_letter_two_blocks():
    cert = duplicate_letter_certificate(decompose(word("aabbab"), 2))
    assert cert.witness == word("ab")
    assert cert.claimed == 4
    assert cert.verified == count_occurrences(word("ab"), word("aabbab")) == 7
    assert cert.ok


def test_duplicate_letter_not_applicable():
    with pytest.raises(NotApplicable):
        duplicate_letter_certificate(decompose(word("abccba"), 2))


# ---------------------------------------------------------------------------
# triples


def test_best_triple_identical_blocks():
    w = power(word("abcd"), 3)
    t = best_triple(decompose(w, 3))
    assert (t.first, t.middle, t.last) == (1, 2, 3)
    assert t.common_symbols == 4
    assert (t.lcs_first_middle, t.lcs_first_last, t.lcs_middle_last) == (4, 4, 4)


def test_best_triple_disjoint_supports():
    syms = list(range(12))
    w = from_ids(syms, alphabet_size=12)
    t = best_triple(decompose(w, 3))
    assert t.common_symbols == 0
    assert (t.lcs_first_middle, t.lcs_first_last, t.lcs_middle_last) == (0, 0, 0)


def test_best_triple_needs_three_permutation_blocks():
    with pytest.raises(NotApplicable):
        best_triple(decompose(word("aabbcc"), 3))


def test_triple_product_dominates_common_count():
    rng = random.Random(7)
    for _ in range(40):
        w = perm_block_word(rng, 6, 5)
        bd = decompose(w, 5)
        t = best_triple(bd)
        prod = t.lcs_first_middle * t.lcs_first_last * t.lcs_middle_last
        assert prod >= t.common_symbols


def test_triple_product_lemma_via_checker():
    # same fact, established by the independent permutation-LCS checker
    rng = random.Random(8)
    for _ in range(20):
        w = perm_block_word(rng, 6, 3)
        bd = decompose(w, 3)
        report = check_triple_product(bd.blocks[0], bd.blocks[1], bd.blocks[2])
        assert report.holds


def test_disjoint_triples_cardinality_and_order():
    rng = random.Random(9)
    w = perm_block_word(rng, 6, 6)
    family = disjoint_triples(decompose(w, 6), 2)
    assert len(family.triples) == 2 and not family.short
    used = [i for t in family.triples for i in (t.first, t.middle, t.last)]
    assert sorted(used) == list(range(1, 7))  # no block reused
    middles = [t.middle for t in family.triples]
    assert middles == sorted(middles)


def test_disjoint_triples_short_family():
    rng = random.Random(10)
    w = perm_block_word(rng, 6, 4)
    family = disjoint_triples(decompose(w, 4), 2)
    assert len(family.triples) == 1 and family.short


# ---------------------------------------------------------------------------
# pair and chained certificates


def test_pair_certificate_identical_blocks():
    u = word("abcde")
    cert = lcs_pair_certificate(decompose(power(u, 2), 2), 1, 2)
    assert cert.claimed == 6
    assert cert.witness == u
    assert cert.ok


def test_pair_certificate_reversed_block():
    cert = lcs_pair_certificate(decompose(word("abccba"), 2), 1, 2)
    assert cert.claimed == 2
    assert len(cert.witness) == 1
    assert cert.ok


def test_pair_certificate_disjoint_supports():
    w = from_ids(range(6), alphabet_size=6)
    cert = lcs_pair_certificate(decompose(w, 2), 1, 2)
    assert cert.claimed == 1 and len(cert.witness) == 0
    assert cert.ok


def test_pair_certificate_contract():
    bd = decompose(word("abab"), 2)
    with pytest.raises(ContractError):
        lcs_pair_certificate(bd, 2, 1)
    with pytest.raises(ContractError):
        lcs_pair_certificate(bd, 1, 3)


def test_splitting_bound_exhaustive_small_patterns():
    # every common subsequence of the two halves, up to length 6,
    # must occur at least its length + 1 times in the whole word
    rng = random.Random(11)
    for _ in range(3):
        w = rand_word(rng, 3, 12)
        first, second = w.symbols[:6], w.symbols[6:]
        for length in range(0, 7):
            for pat in iproduct(range(3), repeat=length):
                if subsequence_by_two_pointer(pat, first) and subsequence_by_two_pointer(
                    pat, second
                ):
                    assert count_by_plain_dp(pat, w.symbols) >= length + 1


def test_chained_certificate_single_triple():
    w = power(word("abcd"), 3)
    bd = decompose(w, 3)
    family = disjoint_triples(bd, 1)
    cert = chained_certificate(bd, family.triples)
    # all three pair candidates claim 5; recount dwarfs it
    assert cert.claimed == 5
    assert cert.ok
    assert cert.info["inequality_count"] == 3
    assert cert.info["inequality_product"] == 64


def test_chained_certificate_two_triples_product():
    rng = random.Random(12)
    w = perm_block_word(rng, 6, 6)
    bd = decompose(w, 6)
    family = disjoint_triples(bd, 2)
    cert = chained_certificate(bd, family.triples)
    assert cert.ok
    assert cert.info["inequality_count"] == 5
    # the product candidate (first-middle of triple 1 times middle-last
    # of triple 2) is among the evaluated ones, so the claim is at
    # least as large
    t1, t2 = family.triples
    assert cert.claimed >= (t1.lcs_first_middle + 1) * (t2.lcs_middle_last + 1)


def test_chained_certificate_rejects_unordered():
    rng = random.Random(13)
    w = perm_block_word(rng, 6, 6)
    bd = decompose(w, 6)
    family = disjoint_triples(bd, 2)
    with pytest.raises(ContractError):
        chained_certificate(bd, tuple(reversed(family.triples)))


def test_chained_certificate_rejects_a_finding_its_blocks_do_not_support():
    w = power(word("abcd"), 3)
    bd = decompose(w, 3)
    (t,) = disjoint_triples(bd, 1).triples
    inflated = TripleFinding(t.first, t.middle, t.last, t.common_symbols, 9, 9, 9)
    with pytest.raises(ContractError):
        chained_certificate(bd, (inflated,))


def test_chained_certificate_rejects_triples_outside_the_decomposition():
    w = power(word("abc"), 6)
    family = disjoint_triples(decompose(w, 6), 2).triples
    with pytest.raises(ContractError, match="not increasing in 1..2"):
        chained_certificate(decompose(w, 2), family)
    t = family[0]
    for blocks in ((0, 1, 2), (-1, 1, 2), (2, 1, 3), (1, 2, 7)):
        bad = TripleFinding(*blocks, t.common_symbols, t.lcs_first_middle, t.lcs_first_last, t.lcs_middle_last)
        with pytest.raises(ContractError, match="not increasing in 1..6"):
            chained_certificate(decompose(w, 6), (bad,))


def test_chained_certificate_empty_falls_back_to_best_pair():
    w = power(word("abcde"), 2)
    cert = chained_certificate(decompose(w, 2), ())
    assert cert.claimed == 6 and cert.ok


def test_chained_certificate_fallback_not_applicable():
    with pytest.raises(NotApplicable):
        chained_certificate(decompose(word("aabb"), 2), ())


# ---------------------------------------------------------------------------
# whole words


def test_certify_word_power_of_permutation():
    u = from_ids(range(4), alphabet_size=4)
    w = power(u, 4)
    cert = certify_word(w, chunk=8)
    assert cert.claimed >= (len(u) + 1) ** 2
    assert cert.ok
    assert cert.steps[-1].rule == "chunk-product"


def test_certify_word_single_chunk_passthrough():
    w = rand_word(random.Random(14), 4, 20)
    whole = certify_word(w, chunk=100)
    assert whole.ok
    assert whole.info["chunk_claims"] and len(whole.info["chunk_claims"]) == 1


def test_certify_word_empty():
    cert = certify_word(Word((), 4), chunk=8)
    assert cert.claimed == 1 and cert.verified == 1 and cert.ok


def test_certify_word_contract():
    with pytest.raises(ContractError):
        certify_word(word("ab"), 0)


def test_certify_word_step_refs_in_range():
    w = rand_word(random.Random(15), 4, 60)
    cert = certify_word(w, chunk=20)
    for idx, step in enumerate(cert.steps):
        assert all(0 <= r < idx for r in step.refs)
    claims = cert.info["chunk_claims"]
    prod = 1
    for c in claims:
        prod *= c
    assert prod == cert.claimed


def test_certify_word_soundness_sweep():
    rng = random.Random(16)
    for trial in range(60):
        k = rng.choice((4, 6))
        if trial % 2:
            w = rand_word(rng, k, rng.randrange(1, 200))
        else:
            w = perm_block_word(rng, k, rng.randrange(1, 200 // k))
        cert = certify_word(w, chunk=rng.choice((16, 32, 64)))
        assert cert.ok, (trial, k, cert.claimed, cert.verified)
        assert subsequence_by_two_pointer(cert.witness.symbols, w.symbols)


def test_certify_construction_word_scaling():
    cw = build_construction_word(2, 16)
    claims = []
    for blocks in (4, 8, 12, 16):
        prefix = Word(cw.word.symbols[: 256 * blocks], cw.word.alphabet_size)
        cert = certify_word(prefix, chunk=1024)
        assert cert.ok
        claims.append(cert.claimed)
    assert claims == sorted(claims)
    assert claims[-1] > 1


def test_certify_word_recounts_once(monkeypatch):
    calls = []

    def counting(v, w):
        calls.append((v, w))
        return count_occurrences(v, w)

    monkeypatch.setattr(certify, "count_occurrences", counting)
    rng = random.Random(17)
    words = [rand_word(rng, 4, 150), perm_block_word(rng, 6, 20), Word((), 3)]
    words.append(build_construction_word(2, 4).word)
    for w in words:
        calls.clear()
        cert = certify_word(w, chunk=32 if len(w) < 1000 else 1024)
        assert calls == [(cert.witness, w)]
        assert cert.verified == count_occurrences(cert.witness, w)


# ---------------------------------------------------------------------------
# pinned outputs: witness, claim, recount, steps and info of every
# certificate, as produced by the certify module before its chunk routes
# switched to claims with one recount


def _record(cert):
    steps = tuple((s.rule, s.refs, s.blocks) for s in cert.steps)
    return (cert.witness.symbols, cert.claimed, cert.verified, steps, sorted(cert.info.items()))


def _digest(records):
    return hashlib.sha256(repr(records).encode()).hexdigest()


def _pinned_words():
    rng = random.Random(20261017)
    out = []
    for trial in range(150):
        k = rng.choice((4, 5, 6))
        if trial % 2:
            w = rand_word(rng, k, rng.randrange(1, 300))
        else:
            syms = list(perm_block_word(rng, k, rng.randrange(1, 40)).symbols)
            for _ in range(rng.randrange(0, 4)):
                syms[rng.randrange(len(syms))] = rng.randrange(k)
            w = Word(tuple(syms), k)
        out.append((w, rng.choice((8, 16, 32, 64, 128))))
    for _ in range(60):
        # near-powers of one permutation: long common subsequences, so
        # the split-pair and concat-product routes win
        k = rng.randrange(5, 11)
        base = list(range(k))
        rng.shuffle(base)
        syms = []
        for _ in range(rng.randrange(2, 13)):
            block = base[:]
            i = rng.randrange(k - 1)
            block[i], block[i + 1] = block[i + 1], block[i]
            syms.extend(block)
        out.append((Word(tuple(syms), k), k * rng.randrange(2, 7)))
    return out


def test_certify_word_pinned_outputs():
    records = [_record(certify_word(w, chunk)) for w, chunk in _pinned_words()]
    rules = {rule for r in records for rule, _, _ in r[3]}
    assert {"repeat-letter", "letter-frequency", "split-pair", "concat-product"} <= rules
    assert _digest(records) == "d9bca80f1ec93c0525361ba0ea2629a38a044099eaf6ffd3436928de6b4645b0"


def test_certify_word_pinned_block_word():
    cert = certify_word(build_construction_word(2, 16).word, chunk=1024)
    assert (cert.claimed, cert.verified) == (83521, 239337728)
    assert cert.info == {"chunk_claims": [17, 17, 17, 17]}
    assert [s.rule for s in cert.steps] == ["split-pair"] * 4 + ["chunk-product"]
    assert _digest(_record(cert)) == (
        "e4c6464df7a85febf8bd50bd6a757d5ab4ada7dc695c1f85b8987e2399d4da21"
    )


def test_public_certificates_pinned_outputs():
    rng = random.Random(7)
    records = []
    for _ in range(60):
        k = rng.choice((4, 5, 6))
        syms = list(perm_block_word(rng, k, rng.randrange(2, 14)).symbols)
        for _ in range(rng.randrange(0, 3)):
            syms[rng.randrange(len(syms))] = rng.randrange(k)
        bd = decompose(Word(tuple(syms), k), len(syms) // k)
        for build in (
            lambda: duplicate_letter_certificate(bd),
            lambda: lcs_pair_certificate(bd, 1, bd.block_count),
            lambda: chained_certificate(
                bd, disjoint_triples(bd, len(bd.permutation_indices) // 3).triples
            ),
            lambda: chained_certificate(bd, ()),
        ):
            try:
                records.append(_record(build()))
            except NotApplicable as exc:
                records.append(("NA", str(exc)))
    assert _digest(records) == "6a2ee6b382f86a031469213d47b1fa95efa83bb0aaa66e83d9fba8f281f879b9"


# ---------------------------------------------------------------------------
# contracts

def test_non_int_arguments_are_contract_errors():
    w = word("abcabcabc")
    bd = decompose(w, 3)
    for bad in (1.5, 2.0, None, "1"):
        for call in (
            lambda: certify_word(w, bad),
            lambda: decompose(w, bad),
            lambda: disjoint_triples(bd, bad),
            lambda: lcs_pair_certificate(bd, bad, 2),
            lambda: lcs_pair_certificate(bd, 1, bad),
        ):
            with pytest.raises(ContractError, match="must be an int"):
                call()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_certify_api_raises_only_documented_errors(data):
    draw = data.draw
    k = draw(st.integers(1, 5))
    if draw(st.booleans()):  # permutation blocks, so the triple routes run
        blocks = draw(st.lists(st.permutations(range(k)), max_size=6))
        syms = tuple(s for block in blocks for s in block)
    else:
        syms = tuple(draw(st.lists(st.integers(0, k - 1), max_size=24)))
    w = Word(syms, k)

    def bd():
        return decompose(w, draw(int_or_junk(-1, 8)))

    def triples(b):
        found = disjoint_triples(b, draw(int_or_junk(-1, 3))).triples
        return found[::-1] if draw(st.booleans()) else found

    calls = [
        lambda: certify_word(w, draw(int_or_junk(-1, 26))),
        lambda: certify_word(draw(NOT_A_WORD), draw(int_or_junk(-1, 26))),
        lambda: decompose(draw(NOT_A_WORD), draw(int_or_junk(-1, 8))),
        lambda: duplicate_letter_certificate(bd()),
        lambda: best_triple(bd()),
        lambda: lcs_pair_certificate(bd(), draw(int_or_junk(-1, 6)), draw(int_or_junk(-1, 6))),
        lambda: chained_certificate(bd(), triples(bd())),
    ]
    for call in calls:
        try:
            call()
        except DOCUMENTED_ERRORS:
            pass
