"""Shape analysis: profiles against a definitional oracle, band
classification, claim checkers on synthetic shapes, prefix-break
counts, the greedy segment decomposition, pinned claim-suite reports,
and the documented-errors contract."""

import hashlib
import random
from dataclasses import replace
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from subseqlab import shapes as shapes_module
from subseqlab.construction import ConstructionWord, build_construction_word
from subseqlab.counting import enumerate_embeddings
from subseqlab.errors import ContractError
from subseqlab.shapes import (
    _DENSITY_PALETTE,
    _band_thresholds,
    _bands,
    _invariants,
    _profile,
    SHAPE_CLASSES,
    EmbeddingProfile,
    ReachTable,
    ShapeDecomposition,
    check_after_jump_decay,
    check_big_interval_containment,
    check_break_bound,
    check_calm_by_period_end,
    check_medium_then_calm,
    check_no_double_big,
    check_profile_invariants,
    check_single_medium_after_big,
    claim_window_indices,
    classify_overlap,
    break_counts,
    decompose_shape,
    embedding_profile,
    run_break_bound_suite,
    run_claim_suite,
    sample_pattern,
    shape_of,
)
from subseqlab.words import Word

from contract_inputs import DOCUMENTED_ERRORS, JUNK, NOT_A_WORD, int_or_junk
from oracles import (
    block_offset_maps,
    claim_suite,
    e_set,
    profile_by_definitions,
    profile_invariants_one_embedding,
    profile_one_embedding,
    subsequence_by_two_pointer,
)


@pytest.fixture(scope="module")
def cw_t2_b3():
    return build_construction_word(2, 3)


# ---------------------------------------------------------------------------
# profiles


def test_empty_pattern_profile(cw_t2_b3):
    cw = cw_t2_b3
    v = Word((), cw.word.alphabet_size)
    p = embedding_profile(v, (), cw)
    assert p.entry == (1, 1, 1)
    assert p.reach == (0, 0, 0)
    assert p.overlap == (-1, -1)
    assert shape_of(p, 2) == (0, 0)


def test_profile_of_prefix_inside_first_block(cw_t2_b3):
    cw = cw_t2_b3
    v = Word(cw.word.symbols[:4], cw.word.alphabet_size)
    p = embedding_profile(v, (0, 1, 2, 3), cw)
    # all four pattern letters sit in block 1; nothing reaches blocks 2, 3
    assert p.entry == (1, 5, 5)
    assert p.reach[0] >= 4
    assert p.reach[1:] == (4, 4)
    assert p.overlap[1] == -1


def test_profile_rejects_non_embedding(cw_t2_b3):
    cw = cw_t2_b3
    syms = cw.word.symbols
    # positions are fine but symbol 0 of v is wrong on purpose
    v = Word(((syms[0] + 1) % cw.word.alphabet_size, syms[5]), cw.word.alphabet_size)
    with pytest.raises(ContractError):
        embedding_profile(v, (0, 5), cw)


def test_profile_matches_definitional_oracle(cw_t2_b3):
    cw_t2_b12 = build_construction_word(2, 12)
    # blocks repeat with period 8, and so does their index
    assert all(cw_t2_b12.block_offsets[i + 8] is cw_t2_b12.block_offsets[i] for i in range(4))
    cases = (
        (cw_t2_b3, 3, 8),
        (cw_t2_b12, 2, 4),
        (build_construction_word(3, 2), 1, 2),
    )
    rng = random.Random(4180)
    total = 0
    for cw, per_density, cap in cases:
        patterns = [Word((), cw.word.alphabet_size)] + [
            sample_pattern(rng, cw, density)
            for density in _DENSITY_PALETTE
            for _ in range(per_density)
        ]
        for v in patterns:
            for f in enumerate_embeddings(v, cw.word, cap=cap):
                got = embedding_profile(v, f, cw)
                ent, rea, ove = profile_by_definitions(
                    v.symbols, f, cw.word.symbols, cw.block_count, cw.block_length
                )
                assert (got.entry, got.reach, got.overlap) == (ent, rea, ove)
                total += 1
    assert total >= 90


def test_block_index_rejects_non_permutation_block(cw_t2_b3):
    syms = list(cw_t2_b3.word.symbols)
    syms[256 + 7] = syms[256 + 3]  # block 2 repeats a symbol
    bad = ConstructionWord(2, 3, 256, Word(tuple(syms), 256))
    with pytest.raises(ContractError, match="block 2 is not a permutation"):
        bad.block_offsets
    v = Word(tuple(syms[:2]), 256)
    with pytest.raises(ContractError, match="block 2 is not a permutation"):
        embedding_profile(v, (0, 1), bad)
    # a word too short for its declared blocks is refused when built
    with pytest.raises(ContractError, match="^word has 700 symbols, not block_count"):
        ConstructionWord(2, 3, 256, Word(cw_t2_b3.word.symbols[:700], 256))


def test_profile_invariants_on_samples(cw_t2_b3):
    cw = cw_t2_b3
    rng = random.Random(914)
    for _ in range(8):
        v = sample_pattern(rng, cw, 0.05)
        for f in enumerate_embeddings(v, cw.word, cap=10):
            p = embedding_profile(v, f, cw)
            assert check_profile_invariants(v, p, cw, maximality=True) == []


def _with_reach(p, block, delta):
    """p with reach[block-1] moved by delta and the overlaps recomputed
    from it, so overlap-definition cannot object."""
    reach = list(p.reach)
    reach[block - 1] += delta
    overlap = tuple(reach[i] - p.entry[i + 1] for i in range(p.block_count - 1))
    return EmbeddingProfile(p.pattern_length, p.block_count, p.entry, tuple(reach), overlap)


def test_invariant_checker_flags_corrupted_profile(cw_t2_b3):
    cw = cw_t2_b3
    n = cw.word.alphabet_size
    v = Word(cw.word.symbols[:3], n)
    p = embedding_profile(v, (0, 1, 2), cw)
    bad = EmbeddingProfile(
        p.pattern_length,
        p.block_count,
        (p.entry[0], p.entry[1] + 1, p.entry[2]),
        p.reach,
        p.overlap,
    )
    kinds = {item["kind"] for item in check_profile_invariants(v, bad, cw)}
    assert "overlap-definition" in kinds

    # block 1 holds b[5], b[6] in order but b[2] only before them, so
    # the third pattern symbol lands in block 2 and reach[0] is 2
    b1 = cw.word.symbols[: cw.block_length]
    v = Word((b1[5], b1[6], b1[2]), n)
    f = enumerate_embeddings(v, cw.word, cap=1).maps[0]
    p = embedding_profile(v, f, cw)
    assert (p.entry, p.reach) == ((1, 3, 4), (2, 3, 3))
    for maximality in (False, True):
        assert check_profile_invariants(v, p, cw, maximality=maximality) == []
    # raised reach: the slice b[5], b[6], b[2] does not fit block 1
    assert check_profile_invariants(v, _with_reach(p, 1, +1), cw) == [
        {"kind": "block-fit", "block": 1}
    ]
    # lowered reach still fits (its overlap drops below -1), but only
    # maximality sees that it can be extended
    lowered = _with_reach(p, 1, -1)
    plain = check_profile_invariants(v, lowered, cw)
    assert plain == [{"kind": "overlap-floor", "block": 1}]
    assert check_profile_invariants(v, lowered, cw, maximality=True) == plain + [
        {"kind": "reach-maximality", "block": 1}
    ]

    # a repeated symbol never fits a permutation block
    v = Word((b1[0], b1[0]), n)
    f = enumerate_embeddings(v, cw.word, cap=1).maps[0]
    p = embedding_profile(v, f, cw)
    assert (p.entry, p.reach) == ((1, 2, 3), (1, 2, 2))
    assert check_profile_invariants(v, _with_reach(p, 1, +1), cw) == [
        {"kind": "block-fit", "block": 1}
    ]

    # a profile of another block count is refused, not half-checked
    short = EmbeddingProfile(2, 2, p.entry[:2], p.reach[:2], p.overlap[:1])
    with pytest.raises(ContractError, match="does not fit a 3-block word"):
        check_profile_invariants(v, short, cw)


# ---------------------------------------------------------------------------
# bands and claim checkers


def test_classify_overlap_boundaries():
    t = 2
    assert classify_overlap(-1, t) == 0
    assert classify_overlap(0, t) == 0
    assert classify_overlap(1, t) == 1
    assert classify_overlap(10 * t - 1, t) == 1
    assert classify_overlap(10 * t, t) == 2
    assert classify_overlap(10 * t**2, t) == 3
    assert classify_overlap(10 * t**3, t) == 4
    assert classify_overlap(10 * t**4 - 1, t) == 4
    assert classify_overlap(10 * t**4, t) == 8
    assert classify_overlap(10**9, t) == 8


def test_bands_refuse_t_below_two():
    # below t = 2 the thresholds 1, 10t, ..., 10t^4 stop increasing
    p = EmbeddingProfile(3, 2, (1, 2), (1, 3), (-1,))
    for t in (-1, 0, 1):
        with pytest.raises(ContractError, match="need t >= 2"):
            classify_overlap(5, t)
        with pytest.raises(ContractError, match="need t >= 2"):
            shape_of(p, t)


def test_claim_window_indices_margin():
    assert list(claim_window_indices((0,) * 8)) == []
    assert list(claim_window_indices((0,) * 9)) == [1]
    assert list(claim_window_indices((0,) * 15)) == list(range(1, 8))


def test_all_zero_shape_is_clean():
    s = (0,) * 12
    for checker in (
        check_after_jump_decay,
        check_no_double_big,
        check_medium_then_calm,
        check_calm_by_period_end,
        check_single_medium_after_big,
    ):
        assert checker(s) == []


def test_after_jump_decay_flags_injected_pattern():
    s = (8, 3, 0, 0, 0, 0, 0, 0, 0)
    found = check_after_jump_decay(s)
    assert found and found[0]["index"] == 1


def test_after_jump_decay_accepts_all_three_decay_modes():
    assert check_after_jump_decay((3, 0, 0, 0, 0, 0, 0, 0, 0)) == []
    assert check_after_jump_decay((4, 1, 0, 0, 0, 0, 0, 0, 0)) == []
    assert check_after_jump_decay((8, 2, 0, 1, 1, 0, 1, 0, 0)) == []
    # the slow mode requires the five-entry calm stretch
    assert check_after_jump_decay((8, 2, 0, 1, 2, 0, 1, 0, 0)) != []
    assert check_after_jump_decay((3, 1, 1, 0, 0, 0, 0, 0, 0)) != []


def test_after_jump_decay_respects_margin():
    # the offending 8 starts too close to the end to be asserted
    s = (0, 0, 0, 0, 0, 0, 0, 8, 3)
    assert check_after_jump_decay(s) == []


def test_no_double_big():
    assert check_no_double_big((8, 0, 0, 0, 0, 0, 0, 8, 0)) != []
    assert check_no_double_big((8, 0, 0, 0, 0, 0, 0, 0, 8)) == []  # gap of 8 is fine
    assert check_no_double_big((8, 0, 0, 0, 0, 0, 0, 0, 0)) == []


def test_medium_then_calm():
    s = (8, 0, 3, 2, 0, 0, 0, 0, 0)
    found = check_medium_then_calm(s)
    assert found and found[0]["offset"] == 2
    assert check_medium_then_calm((8, 0, 3, 1, 0, 0, 0, 0, 0)) == []


def test_calm_by_period_end():
    assert check_calm_by_period_end((8, 0, 0, 0, 0, 0, 0, 3, 0)) != []
    assert check_calm_by_period_end((8, 0, 0, 0, 0, 0, 0, 2, 0)) == []


def test_single_medium_after_big():
    assert check_single_medium_after_big((8, 3, 0, 3, 0, 0, 0, 0, 0)) != []
    assert check_single_medium_after_big((8, 3, 0, 0, 0, 0, 0, 0, 0)) == []


def test_checkers_reject_alien_entries():
    with pytest.raises(ContractError):
        check_no_double_big((0, 5, 0))


def test_big_interval_containment_detects_escape():
    t = 2
    entry = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
    reach = (200, 250, 9, 9, 9, 9, 9, 9, 9, 10)
    overlap = tuple(reach[i] - entry[i + 1] for i in range(9))
    p = EmbeddingProfile(300, 10, entry, reach, overlap)
    assert shape_of(p, t)[0] == 8
    found = check_big_interval_containment(p, shape_of(p, t))
    assert found and found[0]["index"] == 1 and found[0]["offset"] == 1

    reach_ok = (200,) + (200,) * 8 + (200,)
    overlap_ok = tuple(reach_ok[i] - entry[i + 1] for i in range(9))
    p_ok = EmbeddingProfile(300, 10, entry, reach_ok, overlap_ok)
    assert shape_of(p_ok, t)[0] == 8
    assert check_big_interval_containment(p_ok, shape_of(p_ok, t)) == []
    with pytest.raises(ContractError, match="does not fit this profile"):
        check_big_interval_containment(p_ok, shape_of(p_ok, t) + (0,))


# ---------------------------------------------------------------------------
# prefix-break positions


def test_e_set_constant_word():
    b = Word((5, 5, 5, 5), 256)
    for x in range(1, 9):
        assert e_set(b.symbols, 2, 8, x) == frozenset()
    assert break_counts(b, 2) == [0] * 8


def test_e_set_first_coordinate_alternation():
    lo, hi = 0, 128  # differ exactly in the first coordinate
    b = Word((lo, hi, lo, hi, lo), 256)
    assert e_set(b.symbols, 2, 8, 1) == frozenset({1, 2, 3, 4})
    assert e_set(b.symbols, 2, 8, 8) == frozenset({1, 2, 3, 4})
    assert break_counts(b, 2) == [4] * 8


def test_e_set_depth_sensitivity():
    # consecutive ids differ only in the last coordinate
    b = Word((6, 7, 6), 256)
    for x in range(1, 8):
        assert e_set(b.symbols, 2, 8, x) == frozenset()
    assert e_set(b.symbols, 2, 8, 8) == frozenset({1, 2})
    assert break_counts(b, 2) == [0] * 7 + [2]


def test_break_counts_agree_with_e_set():
    # r is read off the alphabet size t^r; e_set decodes coordinates
    rng = random.Random(2601)
    for t, r in ((2, 8), (3, 8), (2, 3), (4, 2), (5, 1)):
        for _ in range(25):
            n = rng.randrange(1, 60)
            b = Word(tuple(rng.randrange(t**r) for _ in range(n)), t**r)
            counts = break_counts(b, t)
            assert counts == [len(e_set(b.symbols, t, r, x)) for x in range(1, r + 1)]
    with pytest.raises(ContractError):
        break_counts(Word((0, 1), 7), 2)


def test_break_bound_on_block_subsequences():
    report = run_break_bound_suite(2, samples=120, seed=5)
    assert report.ok and report.patterns_checked == 120


def test_break_bound_flags_non_block_word():
    lo, hi = 0, 128
    # 5 first-coordinate breaks: impossible inside one signed-lex block (cap 2)
    b = Word((lo, hi) * 3, 256)
    found = check_break_bound(b, 2)
    assert found and found[0]["x"] == 1 and found[0]["count"] == 5


# ---------------------------------------------------------------------------
# decomposition


def rules_of(dec):
    return [seg.rule for seg in dec.segments]


def test_decompose_singletons():
    dec = decompose_shape((0, 1, 2, 0))
    assert dec.ok
    assert rules_of(dec) == ["singleton-012"] * 4
    assert dec.tail_start == 5


def test_decompose_pair_and_triple():
    dec = decompose_shape((3, 0, 4, 1, 0, 2))
    assert dec.ok
    assert rules_of(dec) == ["pair-34-0", "triple-34-12", "singleton-012"]
    assert [seg.symbols for seg in dec.segments] == [(3, 0), (4, 1, 0), (2,)]


def test_decompose_eight_block():
    s = (8, 0, 0, 0, 0, 0, 0, 0, 1)
    dec = decompose_shape(s)
    assert dec.ok
    assert rules_of(dec) == ["eight-8", "singleton-012"]
    assert dec.segments[0].symbols == s[:8]


def test_decompose_special_nine():
    s = (8, 0, 0, 0, 0, 0, 3, 1, 0)
    dec = decompose_shape(s)
    assert dec.ok
    assert rules_of(dec) == ["nine-8-special"]
    assert dec.segments[0].symbols == s
    assert dec.tail_start == 10

    # same prefix, (4, 1) trigger
    s2 = (8, 0, 0, 0, 0, 0, 4, 1, 2)
    dec2 = decompose_shape(s2)
    assert rules_of(dec2) == ["nine-8-special"]


def test_decompose_stops_with_short_tail():
    # an 8 with fewer than eight entries left cannot be segmented
    dec = decompose_shape((0, 0, 8, 1, 0))
    assert dec.ok
    assert rules_of(dec) == ["singleton-012", "singleton-012"]
    assert dec.tail_start == 3
    # a trailing medium with no partner entry
    dec2 = decompose_shape((1, 3))
    assert dec2.ok and dec2.tail_start == 2


def test_decompose_failure_on_unmatched_window():
    dec = decompose_shape((3, 3, 0, 0, 0, 0, 0, 0, 0))
    assert not dec.ok
    assert dec.failure["index"] == 1
    assert dec.failure["entry"] == 3 and dec.failure["next"] == 3


def test_decompose_tail_never_longer_than_eight():
    rng = random.Random(99)
    population = (0, 0, 0, 1, 1, 2, 3, 4, 8)
    for _ in range(300):
        n = rng.randrange(0, 40)
        s = tuple(rng.choice(population) for _ in range(n))
        dec = decompose_shape(s)
        if dec.ok:
            covered = sum(len(seg.symbols) for seg in dec.segments)
            assert dec.tail_start == covered + 1
            assert n - covered <= 8
            # segments tile a prefix in order
            flat = tuple(x for seg in dec.segments for x in seg.symbols)
            assert flat == s[:covered]


# ---------------------------------------------------------------------------
# sampling suites


def test_claim_suite_smoke():
    report = run_claim_suite(2, blocks=10, patterns=6, seed=20260814, embed_cap=40)
    assert report.ok, report.violations
    assert report.patterns_checked == 6
    assert report.embeddings_checked >= 6
    assert report.distinct_shapes >= 1


def _suite_digest(report) -> str:
    key = (
        report.patterns_checked,
        report.embeddings_checked,
        report.distinct_shapes,
        report.shapes,
        sorted(report.violations.items()),
    )
    return hashlib.sha256(repr(key).encode()).hexdigest()


# pinned reports: (args, kwargs) -> (embeddings_checked, distinct_shapes,
# digest); any change to what a report says changes its digest
_PINNED_SUITES = (
    (
        (2, 12, 20, 7),
        {},
        (1408, 32, "a932e2cf2bbb0c8b589aa98f7099de9fc58e15206266d4feba292c5a22e6f776"),
    ),
    (
        (2, 16, 6, 3),
        {},
        (680, 20, "256e25003466a3b465c8b5b022c4e9e6e7a91f285f4de75b5c7110c18cc7eab7"),
    ),
    (
        (2, 1, 8, 5),
        {},
        (8, 1, "dd23ade29a4cb11d6c1cc8a5aa33457b097010bc56ec2bac02dc39d5787f4ae4"),
    ),
    (
        (2, 10, 6, 20260814),
        {"embed_cap": 40},
        (167, 11, "b8ba6617f00398568298c67720fa0fd6671bdd62208e27e05c3a0c8912281613"),
    ),
    (
        (2, 10, 5, 11),
        {},
        (390, 6, "0cb3ada51ac5cf51f1abac7884ea8f77d107c9dd08103ef251d5cad608a79209"),
    ),
    (
        (3, 2, 4, 1),
        {},
        (5, 1, "c4577befda457f979d16a62afa4dbe6dd805ec1c49d8ac19517b64b40c5c5964"),
    ),
)


def test_claim_suite_deterministic():
    for args, kwargs, (embeddings, distinct, digest) in _PINNED_SUITES:
        report = run_claim_suite(*args, **kwargs)
        assert report.ok, (args, report.violations)
        assert (report.embeddings_checked, report.distinct_shapes) == (embeddings, distinct)
        assert _suite_digest(report) == digest, args


def _flag_break_bounds(monkeypatch):
    # flag every third piece length, so the report carries break-bound
    # items whose order per embedding and block is pinned
    real = shapes_module.check_break_bound

    def flagging(b, t):
        flag = [{"claim": "break-bound", "x": 1, "count": len(b), "cap": 0}]
        return (flag if len(b) % 3 == 1 else []) + real(b, t)

    monkeypatch.setattr(shapes_module, "check_break_bound", flagging)


def _flag_shapes(monkeypatch):
    # flag shapes through one shape checker and through the decomposition
    # (failures, and long tails), so every embedding of a flagged shape
    # carries its own items, tagged and keyed in report order
    real_claims = shapes_module.ALL_SHAPE_CLAIMS
    real_decompose = shapes_module.decompose_shape

    def check_no_double_big(s):
        flag = [{"claim": "no-double-big", "index": 0, "window": s[:3]}]
        return (flag if s.count(1) % 3 == 1 else []) + real_claims[1](s)

    def flagging_decompose(s):
        if sum(s) % 3 == 0:
            failure = {"index": 1, "entry": s[:1], "next": s[1:2], "window": s[:9]}
            return ShapeDecomposition((), 1, failure)
        if sum(s) % 3 == 1:
            return ShapeDecomposition((), 1, None)
        return real_decompose(s)

    flagged = (real_claims[0], check_no_double_big) + real_claims[2:]
    monkeypatch.setattr(shapes_module, "ALL_SHAPE_CLAIMS", flagged)
    monkeypatch.setattr(shapes_module, "decompose_shape", flagging_decompose)


@pytest.mark.parametrize(
    "flag", [None, _flag_break_bounds, _flag_shapes], ids=["plain", "break-bounds", "shapes"]
)
def test_claim_suite_matches_the_uncached_oracle(monkeypatch, flag):
    # the suite's caches (per shape, and per pattern and block slice) and
    # its big-interval shortcut must not change a report: same categories,
    # and the same items in the same order, as every checker run afresh
    if flag is not None:
        flag(monkeypatch)
    for args, kwargs, _ in _PINNED_SUITES:
        r = run_claim_suite(*args, **kwargs)
        embeddings, distinct, violations = claim_suite(shapes_module, *args, **kwargs)
        assert (r.embeddings_checked, r.shapes) == (embeddings, distinct), args
        assert list(r.violations) == list(violations), args
        assert r.violations == violations, args
        assert repr(r.violations) == repr(violations), args  # key order inside items too


def test_claim_suite_break_bound_items_keep_their_order(monkeypatch):
    _flag_break_bounds(monkeypatch)
    pinned = (
        ((2, 12, 20, 7), 7431, "04c5c37b0a951729739044543ac29f66abb662a6bcda365973b03c33cd26a0f2"),
        ((2, 10, 5, 11), 1568, "1f31bf9aa4fc3c7da06c7fab7f7b30f9b5b0968e36a81b4e5b8291e83441091a"),
    )
    for args, total, digest in pinned:
        r = run_claim_suite(*args)
        assert r.total_violations == total
        key = (r.embeddings_checked, sorted(r.violations.items()))
        assert hashlib.sha256(repr(key).encode()).hexdigest() == digest, args


@cache
def _pinned_samples():
    """Every pattern of every pinned suite, drawn as run_claim_suite
    draws them: (cw, pattern, its enumerated maps, the word's block
    offset maps) per pattern."""
    out = []
    for args, kwargs, (embeddings, _, _) in _PINNED_SUITES:
        t, blocks, patterns, seed = args
        cw = build_construction_word(t, blocks)
        offset_maps = block_offset_maps(cw.word.symbols, cw.block_count, cw.block_length)
        rng = random.Random(seed)
        cap = kwargs.get("embed_cap", 150)
        samples = []
        for _ in range(patterns):
            v = sample_pattern(rng, cw, rng.choice(_DENSITY_PALETTE))
            maps = enumerate_embeddings(v, cw.word, cap=cap).maps
            samples.append((cw, v, maps, offset_maps))
        assert sum(len(sample[2]) for sample in samples) == embeddings, args
        out += samples
    return out


def _one_embedding_route(offset_maps, v, profile, maximality):
    try:
        return profile_invariants_one_embedding(v.symbols, profile, offset_maps, maximality)
    except ValueError:
        return ContractError


def _table_route(cw, v, profile, maximality, reach):
    try:
        return check_profile_invariants(v, profile, cw, maximality=maximality, reach=reach)
    except ContractError:
        return ContractError


def test_reach_table_matches_the_per_embedding_route():
    # one table per pattern, as the suite shares it, against each
    # embedding's reach scanned and each slice fitted afresh; junk
    # profiles read (and fill) the same table
    rng = random.Random(1601)
    checked = 0
    for cw, v, maps, offset_maps in _pinned_samples():
        reach = ReachTable(v, cw)
        for f in maps:
            p = embedding_profile(v, f, cw, reach=reach)
            expected = profile_one_embedding(v.symbols, f, offset_maps, cw.block_length)
            assert (p.entry, p.reach, p.overlap) == expected
            assert embedding_profile(v, f, cw) == p
            for q in (p, _junk_profile(rng.randint, p), _junk_profile(rng.randint, p)):
                for maximality in (False, True):
                    want = _one_embedding_route(offset_maps, v, q, maximality)
                    assert _table_route(cw, v, q, maximality, reach) == want
                    assert _table_route(cw, v, q, maximality, None) == want
            checked += 1
    assert checked == sum(pinned[0] for _, _, pinned in _PINNED_SUITES)


def test_shared_route_matches_the_public_entries(monkeypatch):
    # the suite sends only each pattern's first embedding through the
    # public entries; every embedding of the pinned suites gets the same
    # profile, shape and invariant items from the route the others take
    checked = 0
    for cw, v, maps, _ in _pinned_samples():
        reach = ReachTable(v, cw)
        block_starts = range(0, cw.block_count * cw.block_length, cw.block_length)
        thresholds = _band_thresholds(cw.t)
        for f in maps:
            p = embedding_profile(v, f, cw, reach=reach)
            ent, rea, ove = _profile(f, block_starts, reach)
            assert (ent, rea, ove) == (p.entry, p.reach, p.overlap)
            assert _bands(ove, thresholds) == shape_of(p, cw.t)
            for maximality in (False, True):
                items = check_profile_invariants(v, p, cw, maximality=maximality, reach=reach)
                assert _invariants(len(v), ent, rea, ove, reach, maximality) == items
            checked += 1
    assert checked == sum(pinned[0] for _, _, pinned in _PINNED_SUITES)
    # and the suite calls the public profile entry once per pattern
    calls = []
    real = shapes_module.embedding_profile

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(shapes_module, "embedding_profile", counted)
    assert run_claim_suite(2, 12, 20, 7).embeddings_checked == 1408
    assert len(calls) == 20


def test_reach_table_of_another_pattern_or_word_is_refused(cw_t2_b3):
    cw = cw_t2_b3
    v = Word(cw.word.symbols[:3], cw.word.alphabet_size)
    f = (0, 1, 2)
    p = embedding_profile(v, f, cw)
    others = (
        ReachTable(Word(cw.word.symbols[:2], cw.word.alphabet_size), cw),
        ReachTable(v, build_construction_word(2, 4)),
        {},
    )
    for other in others:
        with pytest.raises(ContractError, match="ReachTable of this pattern and word"):
            embedding_profile(v, f, cw, reach=other)
        with pytest.raises(ContractError, match="ReachTable of this pattern and word"):
            check_profile_invariants(v, p, cw, reach=other)


def test_claim_suite_shape_items_repeat_per_embedding_in_order(monkeypatch):
    _flag_shapes(monkeypatch)
    pinned = (
        ((2, 12, 20, 7), 1778, "5b65eed419e159853fca200773e1e6df2bc9c46125b6b94182e93f4491e75c23"),
        ((2, 10, 5, 11), 384, "8f6ad475c5bf47bbde47f253845e7eed90d488bc292fe8521b3b4ea5a5c2e766"),
        ((2, 16, 6, 3), 914, "3230b08e43b8143a6e3a5548c0387b26c8c2022c20aee4379a0be46ac1ce8a83"),
    )
    for args, total, digest in pinned:
        r = run_claim_suite(*args)
        assert r.total_violations == total
        assert list(r.violations) == ["decomposition", "no-double-big"]
        tails = [item for item in r.violations["decomposition"] if "tail" in item]
        assert tails and all(list(item) == ["sample", "embedding", "tail"] for item in tails)
        key = (r.embeddings_checked, sorted(r.violations.items()))
        assert hashlib.sha256(repr(key).encode()).hexdigest() == digest, args


def test_claim_suite_catches_a_wrong_reach_table(monkeypatch):
    # every profile check but the scan reads the table the reach came
    # from, so a table off by one is caught on each pattern's first
    # embedding, where the blocks are scanned without it
    real = ReachTable.__missing__
    for delta, kind in ((+1, "block-fit"), (-1, "reach-maximality")):

        def shifted(self, key):
            end = self[key] = min(max(real(self, key) + delta, key[1]), len(self.symbols))
            return end

        monkeypatch.setattr(ReachTable, "__missing__", shifted)
        report = run_claim_suite(2, 12, 20, 7)
        flagged = [item for item in report.violations["profile-invariant"] if item["kind"] == kind]
        assert flagged and all(item["embedding"] == 0 for item in flagged), delta


def test_sample_pattern_is_subsequence():
    cw = build_construction_word(2, 3)
    rng = random.Random(1)
    for _ in range(20):
        v = sample_pattern(rng, cw, 0.02)
        assert len(v) >= 1
        assert subsequence_by_two_pointer(v.symbols, cw.word.symbols)


# ---------------------------------------------------------------------------
# contract: documented errors only, on legal and illegal inputs

@cache
def _small_word(blocks: int, broken: bool) -> ConstructionWord:
    """A t=2 construction word; ``broken`` repeats a symbol in its last block."""
    cw = build_construction_word(2, blocks)
    if not broken:
        return cw
    syms = list(cw.word.symbols)
    syms[-1] = syms[-2]
    return ConstructionWord(2, blocks, 256, Word(tuple(syms), 256))


@st.composite
def _pattern_and_map(draw, cw):
    """A pattern and a position map for it: a true embedding of a host
    subsequence, or (often) junk of any length, range or alphabet."""
    n = len(cw.word)
    if draw(st.booleans()):
        pos = sorted(draw(st.sets(st.integers(0, n - 1), max_size=12)))
        v = Word(tuple(cw.word.symbols[p] for p in pos), cw.word.alphabet_size)
    else:
        k = draw(st.sampled_from((1, 2, 255, 256, 257, 300)))
        v = Word(tuple(draw(st.lists(st.integers(0, k - 1), max_size=12))), k)
        pos = sorted(draw(st.sets(st.integers(-3, n + 3), max_size=12)))
    return v, pos


def _junk_profile(pick, p):
    """p, or p with one value moved or one tuple shortened; ``pick(lo,
    hi)`` chooses an int in [lo, hi]."""
    fields = [p.pattern_length, p.block_count, p.entry, p.reach, p.overlap]
    which = pick(0, 5)
    if which == 5:
        return p
    if which < 2:
        fields[which] += pick(-3, 3)
    else:
        values = list(fields[which])
        if values and pick(0, 1):
            values.pop()
        elif values:
            i = pick(0, len(values) - 1)
            values[i] += pick(-600, 600)
        fields[which] = tuple(values)
    return EmbeddingProfile(*fields)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_shapes_api_raises_only_documented_errors(data):
    draw = data.draw
    cw = _small_word(draw(st.integers(1, 3)), draw(st.booleans()))
    v, pos = draw(_pattern_and_map(cw))
    t, r = draw(st.integers(0, 3)), draw(st.integers(0, 9))
    b = Word(tuple(draw(st.lists(st.integers(0, 299), max_size=10))), 300)
    if draw(st.booleans()) and 1 <= t and 1 <= r and t**r <= 300:
        b = Word(tuple(s % t**r for s in b.symbols), t**r)
    s = tuple(draw(st.lists(st.sampled_from(SHAPE_CLASSES + (5, -1, 2.5, "8")), max_size=20)))
    positions = (tuple(pos), tuple(pos[:-1]), (*pos, len(cw.word)), tuple(reversed(pos)))

    def or_junk(value):
        return draw(st.one_of(st.just(value), NOT_A_WORD))

    def profile_calls():
        reach = draw(st.sampled_from((None, "own", "other", {})))
        if reach in ("own", "other"):
            other = Word(v.symbols[:-1], v.alphabet_size)
            reach = ReachTable(v if reach == "own" else other, cw)
        f = draw(st.one_of(st.sampled_from(positions), NOT_A_WORD))
        p = embedding_profile(or_junk(v), f, or_junk(cw), reach=reach)
        junk = _junk_profile(lambda lo, hi: draw(st.integers(lo, hi)), p)
        maximality = draw(st.booleans())
        if draw(st.booleans()):
            field = draw(st.sampled_from(("pattern_length", "block_count", "entry", "reach")))
            value = getattr(junk, field)
            if isinstance(value, tuple) and value:
                value = (*value[:-1], draw(JUNK))
            else:
                value = draw(JUNK)
            junk = replace(junk, **{field: value})
        check_profile_invariants(
            or_junk(v), or_junk(junk), or_junk(cw), maximality=maximality, reach=reach
        )

    def suite_calls():
        run_claim_suite(
            draw(int_or_junk(1, 2)),
            draw(int_or_junk(0, 2)),
            draw(int_or_junk(-2, 2)),
            or_junk(draw(st.integers(0, 99))),
            embed_cap=draw(int_or_junk(-1, 3)),
        )
        run_break_bound_suite(
            draw(int_or_junk(1, 2)), draw(int_or_junk(-2, 2)), or_junk(draw(st.integers(0, 99)))
        )

    overlap = tuple(draw(st.lists(int_or_junk(-1, 20000), max_size=6)))
    B = len(overlap) + 1
    entry = tuple(draw(st.lists(int_or_junk(1, 9), min_size=B, max_size=B)))
    known = EmbeddingProfile(9, B, entry, (0,) * B, overlap)
    calls = [
        profile_calls,
        suite_calls,
        lambda: decompose_shape(or_junk(s)),
        lambda: shape_of(or_junk(known), draw(int_or_junk(0, 3))),
        lambda: check_big_interval_containment(or_junk(known), or_junk(s)),
        lambda: break_counts(or_junk(b), draw(int_or_junk(0, 3))),
        lambda: check_break_bound(or_junk(b), draw(int_or_junk(0, 3))),
    ]
    for call in calls:
        try:
            call()
        except DOCUMENTED_ERRORS:
            pass


def test_junk_arguments_are_contract_errors(cw_t2_b3):
    cw = cw_t2_b3
    v = Word(cw.word.symbols[:3], cw.word.alphabet_size)
    p = embedding_profile(v, (0, 1, 2), cw)
    calls = (
        lambda: decompose_shape(None),
        lambda: decompose_shape(5),
        lambda: shape_of(None, 2),
        lambda: shape_of(p, "2"),
        lambda: check_big_interval_containment(None, (0, 0)),
        lambda: run_claim_suite(2, 2, "1", 1),
        lambda: run_claim_suite(2, 2, 1, None),  # no seed: not deterministic
        lambda: run_break_bound_suite(2, "3", 1),
        lambda: run_break_bound_suite(2, 3, [1]),
        lambda: embedding_profile(v, (0, 1, 2), "cw"),
        lambda: embedding_profile(v, None, cw),
        lambda: check_profile_invariants(v, p, "cw"),
        lambda: check_profile_invariants(v, None, cw),
        lambda: check_profile_invariants(None, p, cw),
        lambda: ReachTable(None, cw),
        lambda: ReachTable(v, "cw"),
        lambda: break_counts(None, 2),
        lambda: break_counts(Word((0,), 8), "2"),
        # non-int profile entries and band arguments
        lambda: classify_overlap(3, "2"),
        lambda: classify_overlap(None, 2),
        lambda: shape_of(EmbeddingProfile(1, 2, (1, 1), (0, 0), ("x",)), 2),
        lambda: shape_of(replace(p, overlap=None), 2),
        lambda: check_profile_invariants(v, replace(p, entry=(p.entry[0], "x", *p.entry[2:])), cw),
        lambda: check_profile_invariants(v, replace(p, reach=(*p.reach[:-1], 1.5)), cw),
        lambda: check_profile_invariants(v, replace(p, block_count="3"), cw),
        lambda: check_profile_invariants(v, replace(p, pattern_length=None), cw, maximality=True),
        lambda: check_big_interval_containment(replace(p, entry=None), (0,)),
        lambda: check_big_interval_containment(
            EmbeddingProfile(9, 11, (1, "x") + (1,) * 9, (0,) * 11, (0,) * 10), (8,) + (0,) * 9
        ),
    )
    for call in calls:
        with pytest.raises(ContractError):
            call()


def test_negative_suite_sizes_are_contract_errors():
    # zero patterns or samples is an empty report; a negative count is refused
    assert run_claim_suite(2, 2, 0, 1).patterns_checked == 0
    assert run_break_bound_suite(2, 0, 1).patterns_checked == 0
    with pytest.raises(ContractError, match="patterns must be >= 0, got -3"):
        run_claim_suite(2, 2, -3, 1)
    with pytest.raises(ContractError, match="samples must be >= 0, got -1"):
        run_break_bound_suite(2, -1, 1)
