"""Signed-lexicographic permutation words over [t]^r.

A length-r vector of signs turns [t]^r into a totally ordered set: flip
each coordinate marked "-" and compare tuples lexicographically.
Listing all of [t]^r in that order gives a permutation word; cycling
through a fixed family of eight sign vectors and concatenating the
resulting permutations gives long words whose most-common-subsequence
count stays provably small.  Symbols are plain ints: a tuple packs its
coordinates as base-t digits, coordinate 1 most significant, so the
order is listed digit by digit, with no sort and no decoding, and a
prefix of coordinates is the symbol shifted down by the other digits.

This module builds those objects and brute-force checks the finite
combinatorial facts the analysis leans on: agreement patterns among the
eight sign vectors, the exact LCS value t^|J| for a family of
signed-lex permutations agreeing on the coordinate set J, and the
pairwise/triple/prefix-class LCS bounds for the concatenated blocks.
The sign and block verifiers share one helper for the five pair and
triple sweeps, over lists holding one measurement per unordered index
pair (28) and triple (56) of the period; the block caps are t raised to the sign
caps, since agreeing exactly on J means a joint LCS of t^|J|.  The
period is fixed at eight, so every sweep has a module-level plan built
at import: its labels, an ``itemgetter`` that reads its values straight
out of the lists of pair and triple measurements, and, for a sweep over
distinct members, getters for the member pairs whose sign-mask XORs
drive a ``compress`` that drops instances with equal members.  A call
measures, then reads each sweep off its plan; the worst value is one
``max``, and (label, value) failures are built only when the worst value
breaks the cap (or, for the exact sweep, some value differs from it).
The prefix-class bounds need LCS lengths alone, so they count the
heights of the patience sweep that ``lcs2`` runs on permutations and
build no witness.
Every check returns a report of per-property results rather than
raising, so callers can surface which instance failed and by how much.

Agreement is read off masks: a sign vector is an int with bit c set
where coordinate c + 1 is +1, so the coordinates where two vectors
differ are the set bits of their XOR.  A pair agrees on r minus its
popcount, a triple on r minus the popcount of the OR of two such XORs,
and the last r - c coordinates are the XOR shifted down by c.  For the
period's length-8 vectors, one lookup in a table of the 256 +-1 tuples
(after a type test that passes only ints and bools) both checks a
vector and gives its mask, and a 256-entry table gives 8 minus a
popcount; any miss falls back to the general checks, which name the
fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, compress, product, repeat
from operator import itemgetter

from .errors import BudgetError, ContractError, require_int
from .lcs import _patience_sweep, lcs2, lcs3, multi_lcs
from .words import Word

SignVector = tuple[int, ...]

PERMUTATION_BUDGET = 10**6
CONSTRUCTION_BUDGET = 4 * 10**6

_BASE_SIGNS: tuple[SignVector, ...] = (
    (+1, +1, +1, +1, +1, +1, +1, +1),
    (-1, -1, -1, +1, -1, +1, -1, -1),
    (+1, +1, +1, -1, -1, -1, -1, +1),
    (-1, +1, -1, -1, +1, +1, +1, -1),
    (+1, -1, -1, +1, -1, -1, +1, +1),
    (-1, +1, +1, +1, +1, -1, -1, -1),
    (+1, -1, -1, -1, +1, +1, -1, +1),
    (-1, -1, +1, -1, -1, -1, +1, -1),
)


def base_sign_vectors() -> tuple[SignVector, ...]:
    """The eight length-8 sign vectors driving the block construction."""
    return _BASE_SIGNS


def signs_to_text(u: SignVector) -> str:
    _check_sign_vector(u)
    return "".join("+" if s > 0 else "-" for s in u)


def _check_sign_vector(u: SignVector) -> None:
    if (
        not isinstance(u, tuple)
        or not u
        or not all(map(isinstance, u, repeat(int)))
        or not all(map((1, -1).__contains__, u))
    ):
        raise ContractError("a sign vector is a nonempty tuple of ints over {+1, -1}")


def _mask(u: SignVector) -> int:
    """A checked sign vector as an int: bit c is set where coordinate c + 1 is +1."""
    return sum(1 << c for c, s in enumerate(u) if s > 0)


# every length-8 sign vector to its mask, and the agreement of two
# length-8 vectors by the XOR of their masks
_MASK_OF = {u: _mask(u) for u in product((1, -1), repeat=8)}
_AGREE = tuple(8 - x.bit_count() for x in range(256))
# the entry types a vector may have to be looked up: a float 1.0 equals,
# and hashes like, a key's entry 1
_SIGN_TYPES = frozenset((int, bool))


def _sign_tuples(vectors) -> tuple:
    """A family of sign vectors as a tuple of tuples, unchecked."""
    try:
        return tuple(map(tuple, vectors))
    except TypeError:
        raise ContractError(f"expected a family of sign vectors, got {vectors!r}") from None


def _sign_family(vectors) -> tuple[SignVector, ...]:
    """A nonempty family of sign vectors as a tuple of tuples."""
    vs = _sign_tuples(vectors)
    if not vs:
        raise ContractError("need a nonempty family of sign vectors")
    for v in vs:
        _check_sign_vector(v)
    return vs


def _period_family(vectors) -> tuple[tuple[SignVector, ...], tuple[int, ...]]:
    """A family of eight length-8 sign vectors, and their masks.

    Each vector is checked and masked by one lookup in ``_MASK_OF``,
    after one type test over all 64 entries.  If anything misses, the
    general checks run on the same tuple and raise the error naming the
    fault (an int subclass over {+1, -1} passes them, and is masked the
    long way)."""
    vs = _sign_tuples(vectors)
    masks = ()
    if len(vs) == 8 and _SIGN_TYPES.issuperset(map(type, chain.from_iterable(vs))):
        masks = tuple(map(_MASK_OF.get, vs))
    if len(masks) != 8 or None in masks:
        _sign_family(vs)
        if len(vs) != 8 or any(len(v) != 8 for v in vs):
            raise ContractError("expected eight sign vectors of length 8")
        masks = tuple(map(_mask, vs))
    return vs, masks


def build_permutation(
    u: SignVector, t: int, max_symbols: int = PERMUTATION_BUDGET
) -> Word:
    """The permutation word listing all of [t]^r in signed-lex order,
    coordinate by coordinate: each id so far is extended by the next
    coordinate's base-t digits, ascending under + and descending under -."""
    _check_sign_vector(u)
    require_int(t=t, max_symbols=max_symbols)
    if t < 2:
        raise ContractError(f"need t >= 2, got {t}")
    size = t ** len(u)
    if size > max_symbols:
        raise BudgetError(
            f"permutation over [{t}]^{len(u)} has {size} symbols, "
            f"over the budget of {max_symbols}"
        )
    order = [0]
    for sign in u:
        digits = range(t) if sign > 0 else range(t - 1, -1, -1)
        order = [i * t + d for i in order for d in digits]
    return Word(tuple(order), size)


def agreement_set(vectors) -> frozenset[int]:
    """1-based coordinates where every vector in the family agrees."""
    vs = _sign_family(vectors)
    if any(len(v) != len(vs[0]) for v in vs):
        raise ContractError("sign vectors must share one length")
    first = _mask(vs[0])
    differ = 0  # bit c set where some vector differs from the first at coordinate c + 1
    for v in vs:
        differ |= first ^ _mask(v)
    return frozenset(c + 1 for c in range(len(vs[0])) if not differ >> c & 1)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    ok: bool
    checked: bool
    worst: int | None
    failures: tuple
    note: str = ""


@dataclass(frozen=True)
class PropertyReport:
    results: tuple[PropertyResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results if r.checked)


def _sweep(name, cap, labels, values, exact=False, note="") -> PropertyResult:
    """Check a sweep's instance values, whose labels run in step with
    them: value == cap when ``exact``, else value <= cap.  The worst value
    and the first eight failures, as (label, value), are kept; failures
    are built only when the worst value breaks the cap or, for an exact
    sweep, some value differs from it."""
    worst = max(values) if values else None
    failures = ()
    if values and (worst > cap or exact and min(values) < cap):
        failed = [(label, v) for label, v in zip(labels, values) if v > cap or exact and v < cap]
        failures = tuple(failed[:8])
    return PropertyResult(name, not failures, True, worst, failures, note)


# Instance plans for the 8-periodic family: every sweep's index work,
# done once.  Positions are 1-based and periodic, family indices 0-based.
_PAIRS = tuple(combinations(range(8), 2))  # 28
_TRIPLES = tuple(combinations(range(8), 3))  # 56
_PAIR_AT = {ab: n for n, ab in enumerate(_PAIRS)}
_TRIPLE_AT = {abc: n for n, abc in enumerate(_TRIPLES)}


def _at(plan, *positions):
    """The plan index of the members at these periodic positions."""
    return plan[tuple(sorted((p - 1) % 8 for p in positions))]


def _plan(instances):
    """A sweep plan from (label, value index, member pair indices...)
    instances: the labels, a getter that reads every instance's value
    out of a list of measurements in one call, and one getter per member
    slot that reads that member pair's XOR.  Index sweeps name no member
    pairs; a distinct-member sweep keeps only the instances whose member
    pairs all differ (a nonzero XOR)."""
    labels, at, *members = zip(*instances)
    return labels, itemgetter(*at), tuple(itemgetter(*pairs) for pairs in members)


def _planned(plan, values, xors):
    """The labels and values a sweep checks, read off its plan."""
    labels, get, members = plan
    values = get(values)
    if not members or all(xors):  # no two vectors of the family are equal
        return labels, values
    keep = list(map(all, zip(*(pair_xors(xors) for pair_xors in members))))
    return tuple(compress(labels, keep)), tuple(compress(values, keep))


# adjacent pairs and consecutive triples, by start
_ADJACENT = _plan((i, _at(_PAIR_AT, i, i + 1)) for i in range(1, 9))
_CONSECUTIVE = _plan((i, _at(_TRIPLE_AT, i, i + 1, i + 2)) for i in range(1, 9))
# per triple abc, the indices of its member pairs ab, ac and bc
_TRIPLE_PAIRS = tuple(tuple(_PAIR_AT[ab] for ab in combinations(abc, 2)) for abc in _TRIPLES)
# distinct pairs and triples of the family, by family indices
_DISTINCT_PAIRS = _plan((ab, n, n) for n, ab in enumerate(_PAIRS))
_DISTINCT_TRIPLES = _plan((abc, n, *_TRIPLE_PAIRS[n]) for n, abc in enumerate(_TRIPLES))
# by (start, outsider): an adjacent pair and an outsider distinct from
# both, for every outsider index other than the two adjacent ones
_OUTSIDER = _plan(
    ((i, j), _at(_TRIPLE_AT, i, i + 1, j + 1), _at(_PAIR_AT, i, j + 1), _at(_PAIR_AT, i + 1, j + 1))
    for i in range(1, 9)
    for j in range(8)
    if j not in ((i - 1) % 8, i % 8)
)
# by (start, gap): the blocks at positions i and i + gap, gap 1..3 or
# 1..7, and the same keeping only distinct blocks
_GAP_ROWS = tuple(((i, j), _at(_PAIR_AT, i, i + j)) for i in range(1, 9) for j in range(1, 8))
_GAPS3 = _plan(row for row in _GAP_ROWS if row[0][1] <= 3)
_GAPS7 = _plan(_GAP_ROWS)
_DISTINCT_GAPS3 = _plan((*row, row[1]) for row in _GAP_ROWS if row[0][1] <= 3)
_DISTINCT_GAPS7 = _plan((*row, row[1]) for row in _GAP_ROWS)


def _family_sweeps(names, caps, xors, pairs, triples) -> list[PropertyResult]:
    """The five sweeps both verifiers share over an 8-periodic family:
    adjacent pairs, distinct pairs, consecutive triples (exact), an
    adjacent pair with an outsider, and distinct triples.

    ``pairs`` holds a symmetric measure of each unordered index pair
    (28, in ``_PAIRS`` order), and ``triples()`` returns one of each
    index triple (56, in ``_TRIPLES`` order).  Labels give a periodic
    start i 1-based and a family index 0-based; the value sweeps
    (distinct, outsider) skip instances with equal members, read off
    ``xors``, the sign-mask XOR per index pair (0 for equal vectors).
    When ``triples()`` raises BudgetError, the three triple sweeps are
    reported unchecked, with its message as the note.
    """
    results = [
        _sweep(names[0], caps[0], *_planned(_ADJACENT, pairs, xors)),
        _sweep(names[1], caps[1], *_planned(_DISTINCT_PAIRS, pairs, xors)),
    ]
    try:
        triples = triples()
    except BudgetError as exc:
        unchecked = [PropertyResult(name, True, False, None, (), str(exc)) for name in names[2:]]
        return results + unchecked
    return results + [
        _sweep(names[2], caps[2], *_planned(_CONSECUTIVE, triples, xors), exact=True),
        _sweep(names[3], caps[3], *_planned(_OUTSIDER, triples, xors)),
        _sweep(names[4], caps[4], *_planned(_DISTINCT_TRIPLES, triples, xors)),
    ]


def _pair_xors(masks) -> list[int]:
    """Per index pair, the coordinates where its two vectors differ."""
    return [masks[a] ^ masks[b] for a, b in _PAIRS]


def verify_sign_properties(vectors) -> PropertyReport:
    """Brute-force check of the eight agreement facts the analysis needs
    from a period-8 family of length-8 sign vectors.

    Index-based facts quantify over the periodic sequence, so sweeping
    one period of start indices covers every instance; value-based
    facts quantify over distinct vectors of the family.  Each count is
    read off the XOR of two masks, whose set bits are the coordinates
    where two vectors differ.
    """
    _, masks = _period_family(vectors)
    xors = _pair_xors(masks)
    results = _family_sweeps(
        (
            "adjacent-pairs-agree-le2",
            "distinct-pairs-agree-le4",
            "consecutive-triples-agree-nowhere",
            "adjacent-plus-outsider-agree-le1",
            "distinct-triples-agree-le2",
        ),
        (2, 4, 0, 1, 2),
        xors,
        [_AGREE[x] for x in xors],
        # a triple's vectors differ where those of its pairs ab or ac do
        lambda: [_AGREE[xors[ab] | xors[ac]] for ab, ac, _ in _TRIPLE_PAIRS],
    )
    # per index pair: 2 flags an equal last-2 / last-3 projection, and the
    # last five coordinates agree where the XOR shifted down by 3 is clear
    # (the table counts the 3 vacated top bits as agreements too)
    last2 = [0 if x >> 6 else 2 for x in xors]
    last3 = [0 if x >> 5 else 2 for x in xors]
    last5 = [_AGREE[x >> 3] - 3 for x in xors]
    results += [
        _sweep(
            "last2-blocks-differ-within-gap3",
            1,
            *_planned(_GAPS3, last2, xors),
            note="value 2 flags an equal last-2 projection",
        ),
        _sweep(
            "last3-blocks-differ-within-gap7",
            1,
            *_planned(_GAPS7, last3, xors),
            note="value 2 flags an equal last-3 projection",
        ),
        _sweep("last5-blocks-agree-le3-within-gap7", 3, *_planned(_GAPS7, last5, xors)),
    ]
    return PropertyReport(tuple(results))


def single_sign_mutations(vectors):
    """All 64 families obtained by flipping exactly one sign; yields
    ((vector index, coordinate), mutated family), both 0-based."""
    vs = list(_sign_family(vectors))
    for vi in range(len(vs)):
        for ci in range(len(vs[vi])):
            mutated = list(vs)
            row = list(mutated[vi])
            row[ci] = -row[ci]
            mutated[vi] = tuple(row)
            yield (vi, ci), tuple(mutated)


@dataclass(frozen=True)
class ConstructionWord:
    t: int
    block_count: int
    block_length: int
    word: Word

    def __post_init__(self) -> None:
        require_int(t=self.t, block_count=self.block_count, block_length=self.block_length)
        if not isinstance(self.word, Word):
            raise ContractError(f"word must be a Word, got {self.word!r}")
        if self.block_count < 1 or self.block_length < 1:
            raise ContractError(
                f"need block_count >= 1 and block_length >= 1, "
                f"got {self.block_count} and {self.block_length}"
            )
        if len(self.word) != self.block_count * self.block_length:
            raise ContractError(
                f"word has {len(self.word)} symbols, not block_count * block_length = "
                f"{self.block_count * self.block_length}"
            )

    @cached_property
    def block_offsets(self) -> tuple[tuple[int, ...], ...]:
        """Per block (0-based), where each symbol sits in it:
        ``block_offsets[i][s]`` is the offset of symbol s in block i+1.

        Built once per distinct block and shared by equal blocks, so a
        built word (period 8) holds at most eight.  Raises ContractError
        unless every block is a permutation of ``range(block_length)``.
        """
        L = self.block_length
        syms = self.word.symbols
        by_content: dict[tuple[int, ...], tuple[int, ...]] = {}
        out = []
        for i in range(self.block_count):
            block = syms[i * L : (i + 1) * L]
            offsets = by_content.get(block)
            if offsets is None:
                if sorted(block) != list(range(L)):
                    raise ContractError(f"block {i + 1} is not a permutation of range({L})")
                # the inverse permutation: offsets ordered by their symbol
                offsets = by_content[block] = tuple(sorted(range(L), key=block.__getitem__))
            out.append(offsets)
        return tuple(out)


def build_construction_word(t: int, blocks: int) -> ConstructionWord:
    """Concatenate `blocks` signed-lex permutations of [t]^8, cycling
    through the eight base sign vectors with period 8; the word may have
    at most ``CONSTRUCTION_BUDGET`` symbols."""
    require_int(t=t, blocks=blocks)
    if blocks < 1:
        raise ContractError(f"need at least one block, got {blocks}")
    if t < 2:
        raise ContractError(f"need t >= 2, got {t}")
    block_length = t**8
    total = blocks * block_length
    if total > CONSTRUCTION_BUDGET:
        raise BudgetError(
            f"construction word would have {total} symbols, "
            f"over the budget of {CONSTRUCTION_BUDGET} (CONSTRUCTION_BUDGET)"
        )
    perms = [build_permutation(u, t, CONSTRUCTION_BUDGET) for u in _BASE_SIGNS]
    syms: list[int] = []
    for i in range(1, blocks + 1):
        syms.extend(perms[(i - 1) % 8].symbols)
    return ConstructionWord(t, blocks, block_length, Word(tuple(syms), block_length))


@dataclass(frozen=True)
class IntermediateReport:
    t: int
    r: int
    family_size: int
    agreement: frozenset[int]
    expected: int
    computed: int

    @property
    def ok(self) -> bool:
        return self.expected == self.computed


def verify_lemma_intermediate(r: int, t: int, family) -> IntermediateReport:
    """For signed-lex permutations of [t]^r agreeing exactly on the
    coordinate set J, the joint LCS must equal t^|J|.  Computed by the
    independent product-space DP, not the permutation fast path."""
    require_int(r=r)
    if r < 1:
        raise ContractError(f"need r >= 1, got {r}")
    vs = _sign_family(family)
    if any(len(v) != r for v in vs):
        raise ContractError(f"every sign vector must have length {r}")
    unique = list(dict.fromkeys(vs))
    J = agreement_set(unique)
    perms = [build_permutation(u, t) for u in unique]
    computed = multi_lcs(perms)
    return IntermediateReport(t, r, len(unique), J, t ** len(J), computed)


def _prefix_classes(perm: Word, t: int, prefix_len: int) -> list[tuple[int, ...]]:
    """perm's symbols over [t]^r grouped by the packed value of their
    first prefix_len coordinates, one subsequence of perm per value in
    ascending order: with coordinate 1 most significant, that value is
    the symbol id shifted down by the other r - prefix_len digits."""
    shift = perm.alphabet_size // t**prefix_len
    groups: list[list[int]] = [[] for _ in range(t**prefix_len)]
    for s in perm.symbols:
        groups[s // shift].append(s)
    return list(map(tuple, groups))


def verify_permutation_properties(t: int, vectors=None) -> PropertyReport:
    """LCS bounds for the signed-lex blocks: the five family sweeps of
    ``verify_sign_properties`` with each cap c raised to t^c, then the
    fixed-prefix-class bounds.

    When ``lcs3`` refuses the blocks with a BudgetError, the three
    triple properties are all reported as unchecked, with its message
    as the note, rather than guessed.
    """
    vs, masks = _period_family(_BASE_SIGNS if vectors is None else vectors)
    perms = [build_permutation(u, t) for u in vs]
    xors = _pair_xors(masks)

    results = _family_sweeps(
        (
            "adjacent-lcs-le-t2",
            "distinct-pair-lcs-le-t4",
            "consecutive-triple-lcs-eq-1",
            "adjacent-plus-outsider-lcs-le-t",
            "distinct-triple-lcs-le-t2",
        ),
        tuple(t**c for c in (2, 4, 0, 1, 2)),
        xors,
        [lcs2(perms[a], perms[b])[0] for a, b in _PAIRS],
        lambda: [lcs3(perms[a], perms[b], perms[c])[0] for a, b, c in _TRIPLES],
    )

    def class_sweep(name, prefix_len, plan, cap):
        # each block's class symbols, built once; a pair's bound is the
        # largest class LCS, the number of patience heights, measured
        # once per distinct block pair the sweep reads
        classes = [_prefix_classes(perm, t, prefix_len) for perm in perms]
        # the pair index of each instance the sweep keeps
        labels, at = _planned(plan, range(len(_PAIRS)), xors)
        worst: dict[int, int] = {}  # per block pair index
        for p in at:
            if p not in worst:
                a, b = _PAIRS[p]
                worst[p] = max(map(len, map(_patience_sweep, classes[a], classes[b])))
        return _sweep(name, cap, labels, [worst[p] for p in at])

    results.append(class_sweep("fixed-prefix6-lcs-le-t", 6, _DISTINCT_GAPS3, t))
    results.append(class_sweep("fixed-prefix5-lcs-le-t2", 5, _DISTINCT_GAPS7, t**2))
    results.append(class_sweep("fixed-prefix3-lcs-le-t3", 3, _DISTINCT_GAPS7, t**3))
    return PropertyReport(tuple(results))
