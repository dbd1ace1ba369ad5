"""Certificates: every claimed bound must survive an independent
recount, and the derivation machinery must match its stated rules."""

import hashlib
import random
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from subseqlab import certify
from subseqlab.certify import certify_word
from subseqlab.construction import build_construction_word
from subseqlab.counting import count_occurrences
from subseqlab.errors import ContractError
from subseqlab.lcs import check_triple_product, lcs2
from subseqlab.words import Word, from_ids, power, word

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
# the facts the routes rest on


def test_triple_product_lemma_via_checker():
    # three permutation blocks: the product of their pairwise LCS
    # lengths covers their common support, by the independent checker
    rng = random.Random(8)
    k = 6
    for _ in range(20):
        w = perm_block_word(rng, k, 3)
        blocks = [Word(w.symbols[i * k : (i + 1) * k], k) for i in range(3)]
        assert check_triple_product(*blocks).holds


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


def test_permutation_route_runs_each_pair_once(monkeypatch):
    # P permutation blocks of length k make P // 3 consecutive triples,
    # and the candidates use each of their 3 pairs; two blocks, one pair
    calls = []

    def counting(w1, w2):
        calls.append((w1, w2))
        return lcs2(w1, w2)

    monkeypatch.setattr(certify, "lcs2", counting)
    rng = random.Random(18)
    k = 5
    for blocks in range(2, 12):
        w = power(from_ids(range(k), alphabet_size=k), blocks)
        calls.clear()
        certify_word(w, chunk=len(w))
        assert len(calls) == (1 if blocks == 2 else 3 * (blocks // 3))
        # random permutations and one non-permutation block in the middle
        syms = list(perm_block_word(rng, k, blocks).symbols)
        syms[k * (blocks // 2)] = syms[k * (blocks // 2) + 1]
        calls.clear()
        certify_word(Word(tuple(syms), k), chunk=len(syms))
        perms = blocks - 1
        assert len(calls) == (0 if perms < 2 else 1 if perms == 2 else 3 * (perms // 3))


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


def _wide_words():
    rng = random.Random(20261019)
    out = [(Word((), k), chunk) for k, chunk in ((1, 1), (3, 5), (7, 70))]
    while len(out) < 1000:
        k = rng.randrange(1, 8)
        if len(out) % 3 == 0:
            out.append((rand_word(rng, k, rng.randrange(0, 160)), rng.randrange(1, 71)))
            continue
        # permutation blocks, random or near-powers of one permutation,
        # with 0-2 symbol mutations; chunks mostly whole blocks, some with
        # a remainder, so the permutation route sees 0 to 70 blocks
        blocks = rng.randrange(0, 160 // k + 1)
        if len(out) % 3 == 1:
            syms = list(perm_block_word(rng, k, blocks).symbols)
        else:
            base = list(range(k))
            rng.shuffle(base)
            syms = []
            for _ in range(blocks):
                block = base[:]
                i = rng.randrange(k)
                block[i], block[i - 1] = block[i - 1], block[i]
                syms.extend(block)
        for _ in range(rng.randrange(0, 3) if syms else 0):
            syms[rng.randrange(len(syms))] = rng.randrange(k)
        extra = rng.choice((0, 0, rng.randrange(k)))
        chunk = max(1, min(70, k * rng.randrange(1, 70 // k + 1) + extra))
        out.append((Word(tuple(syms), k), chunk))
    return out


def test_certify_word_pinned_wide():
    records = [_record(certify_word(w, chunk)) for w, chunk in _wide_words()]
    rules = {rule for r in records for rule, _, _ in r[3]}
    assert rules == {
        "empty-word",
        "repeat-letter",
        "product-across-blocks",
        "letter-frequency",
        "split-pair",
        "concat-product",
        "chunk-product",
    }
    assert _digest(records) == "ba75312c8d0693dc259c1799859789b4e6450ecf0df2925cc7a72958b5d65db9"


# ---------------------------------------------------------------------------
# contracts

def test_non_int_arguments_are_contract_errors():
    w = word("abcabcabc")
    for bad in (1.5, 2.0, None, "1"):
        with pytest.raises(ContractError, match="must be an int"):
            certify_word(w, bad)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_certify_api_raises_only_documented_errors(data):
    draw = data.draw
    k = draw(st.integers(1, 5))
    if draw(st.booleans()):  # permutation blocks, so the permutation route runs
        blocks = draw(st.lists(st.permutations(range(k)), max_size=6))
        syms = tuple(s for block in blocks for s in block)
    else:
        syms = tuple(draw(st.lists(st.integers(0, k - 1), max_size=24)))
    w = Word(syms, k)
    calls = [
        lambda: certify_word(w, draw(int_or_junk(-1, 26))),
        lambda: certify_word(draw(NOT_A_WORD), draw(int_or_junk(-1, 26))),
    ]
    for call in calls:
        try:
            call()
        except DOCUMENTED_ERRORS:
            pass
