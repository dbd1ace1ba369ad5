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
The sign and block verifiers share one sweep helper over the five
pair and triple families, which measures each unordered index pair and
triple of the period once; the block caps are t raised to the sign
caps, since agreeing exactly on J means a joint LCS of t^|J|.  The
period is fixed at eight, so the index work of every sweep (which pair
or triple each instance reads, under which label, and which pairs must
hold distinct members) is a module-level plan built at import; a call
only measures and filters.  The prefix-class bounds need LCS lengths
alone, so they count the heights of the patience sweep that ``lcs2``
runs on permutations and build no witness.
Every check returns a report of per-property results rather than
raising, so callers can surface which instance failed and by how much.

Agreement is read off masks: a sign vector is an int with bit c set
where coordinate c + 1 is +1, so the coordinates where two vectors
differ are the set bits of their XOR.  A pair agrees on r minus its
popcount, a triple on r minus the popcount of the OR of two such XORs,
and the last r - c coordinates are the XOR shifted down by c.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, repeat

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


def _sign_family(vectors) -> tuple[SignVector, ...]:
    """A nonempty family of sign vectors as a tuple of tuples."""
    try:
        vs = tuple(map(tuple, vectors))
    except TypeError:
        raise ContractError(f"expected a family of sign vectors, got {vectors!r}") from None
    if not vs:
        raise ContractError("need a nonempty family of sign vectors")
    for v in vs:
        _check_sign_vector(v)
    return vs


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


def _sweep(name, cap, instances, exact=False, note="") -> PropertyResult:
    """Check every (label, value) instance: value == cap when ``exact``,
    else value <= cap; the worst value and first eight failures are kept."""
    worst = None
    failures = []
    for label, value in instances:
        if worst is None or value > worst:
            worst = value
        if (value != cap) if exact else (value > cap):
            failures.append((label, value))
    return PropertyResult(name, not failures, True, worst, tuple(failures[:8]), note)


# Instance plans for the 8-periodic family: every sweep's index work,
# done once.  Positions are 1-based and periodic, family indices 0-based.
_PAIRS = tuple(combinations(range(8), 2))  # 28
_TRIPLES = tuple(combinations(range(8), 3))  # 56
_PAIR_AT = {ab: n for n, ab in enumerate(_PAIRS)}
_TRIPLE_AT = {abc: n for n, abc in enumerate(_TRIPLES)}


def _at(plan, *positions):
    """The plan index of the members at these periodic positions."""
    return plan[tuple(sorted((p - 1) % 8 for p in positions))]


# per triple, the indices of its three member pairs
_TRIPLE_PAIRS = tuple(tuple(_PAIR_AT[ab] for ab in combinations(abc, 2)) for abc in _TRIPLES)
# (start, pair) and (start, triple) of the adjacent and consecutive sweeps
_ADJACENT = tuple((i, _at(_PAIR_AT, i, i + 1)) for i in range(1, 9))
_CONSECUTIVE = tuple((i, _at(_TRIPLE_AT, i, i + 1, i + 2)) for i in range(1, 9))
# ((start, outsider), triple, outsider's pair with each adjacent member),
# for every outsider index other than the two adjacent ones
_OUTSIDER = tuple(
    ((i, j), _at(_TRIPLE_AT, i, i + 1, j + 1), _at(_PAIR_AT, i, j + 1), _at(_PAIR_AT, i + 1, j + 1))
    for i in range(1, 9)
    for j in range(8)
    if j not in ((i - 1) % 8, i % 8)
)
# ((start, gap), pair) for the blocks at positions i and i + gap, gap 1..7
_GAPS = tuple(((i, j), _at(_PAIR_AT, i, i + j)) for i in range(1, 9) for j in range(1, 8))


def _family_sweeps(items, names, caps, pair, triple) -> list[PropertyResult]:
    """The five sweeps both verifiers share over the 8-periodic family
    ``items``: adjacent pairs, distinct pairs, consecutive triples (exact),
    an adjacent pair with an outsider, and distinct triples.

    ``pair`` and ``triple`` are symmetric measures, taken once per
    unordered index pair (28) and index triple (56).  Labels give a
    periodic start i 1-based and a family index 0-based; the value
    sweeps (distinct, outsider) skip instances with equal members,
    read off one equality test per index pair.  When ``triple`` raises
    BudgetError, the three triple sweeps are reported unchecked, with
    its message as the note.
    """
    pairs = [pair(items[a], items[b]) for a, b in _PAIRS]
    same = [items[a] == items[b] for a, b in _PAIRS]
    results = [
        _sweep(names[0], caps[0], [(i, pairs[p]) for i, p in _ADJACENT]),
        _sweep(names[1], caps[1], [(ab, v) for ab, v, eq in zip(_PAIRS, pairs, same) if not eq]),
    ]
    try:
        triples = [triple(items[a], items[b], items[c]) for a, b, c in _TRIPLES]
    except BudgetError as exc:
        unchecked = [PropertyResult(name, True, False, None, (), str(exc)) for name in names[2:]]
        return results + unchecked
    return results + [
        _sweep(names[2], caps[2], [(i, triples[q]) for i, q in _CONSECUTIVE], exact=True),
        _sweep(
            names[3],
            caps[3],
            [(ij, triples[q]) for ij, q, p, r in _OUTSIDER if not (same[p] or same[r])],
        ),
        _sweep(
            names[4],
            caps[4],
            [
                (abc, v)
                for abc, v, (p, q, r) in zip(_TRIPLES, triples, _TRIPLE_PAIRS)
                if not (same[p] or same[q] or same[r])
            ],
        ),
    ]


def verify_sign_properties(vectors) -> PropertyReport:
    """Brute-force check of the eight agreement facts the analysis needs
    from a period-8 family of length-8 sign vectors.

    Index-based facts quantify over the periodic sequence, so sweeping
    one period of start indices covers every instance; value-based
    facts quantify over distinct vectors of the family.  Each count is
    read off the XOR of two masks, whose set bits are the coordinates
    where two vectors differ.
    """
    vs = _sign_family(vectors)
    if len(vs) != 8 or any(len(v) != 8 for v in vs):
        raise ContractError("expected eight sign vectors of length 8")
    masks = tuple(map(_mask, vs))
    results = _family_sweeps(
        masks,
        (
            "adjacent-pairs-agree-le2",
            "distinct-pairs-agree-le4",
            "consecutive-triples-agree-nowhere",
            "adjacent-plus-outsider-agree-le1",
            "distinct-triples-agree-le2",
        ),
        (2, 4, 0, 1, 2),
        lambda a, b: 8 - (a ^ b).bit_count(),
        lambda a, b, c: 8 - ((a ^ b) | (a ^ c)).bit_count(),
    )
    # where the vectors i and i + j differ, per gap instance
    xors = [masks[a] ^ masks[b] for a, b in _PAIRS]
    apart = [(ij, xors[p]) for ij, p in _GAPS]
    results += [
        _sweep(
            "last2-blocks-differ-within-gap3",
            1,
            [(ij, 0 if x >> 6 else 2) for ij, x in apart if ij[1] <= 3],
            note="value 2 flags an equal last-2 projection",
        ),
        _sweep(
            "last3-blocks-differ-within-gap7",
            1,
            [(ij, 0 if x >> 5 else 2) for ij, x in apart],
            note="value 2 flags an equal last-3 projection",
        ),
        _sweep(
            "last5-blocks-agree-le3-within-gap7",
            3,
            [(ij, 5 - (x >> 3).bit_count()) for ij, x in apart],
        ),
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
    vs = _BASE_SIGNS if vectors is None else _sign_family(vectors)
    if len(vs) != 8 or any(len(v) != 8 for v in vs):
        raise ContractError("expected eight sign vectors of length 8")
    perms = [build_permutation(u, t) for u in vs]

    results = _family_sweeps(
        perms,
        (
            "adjacent-lcs-le-t2",
            "distinct-pair-lcs-le-t4",
            "consecutive-triple-lcs-eq-1",
            "adjacent-plus-outsider-lcs-le-t",
            "distinct-triple-lcs-le-t2",
        ),
        tuple(t**c for c in (2, 4, 0, 1, 2)),
        lambda a, b: lcs2(a, b)[0],
        lambda a, b, c: lcs3(a, b, c)[0],
    )

    distinct = [perms[a] != perms[b] for a, b in _PAIRS]

    def class_sweep(name, prefix_len, max_gap, cap):
        # each block's class symbols, built once; a pair's bound is the
        # largest class LCS, the number of patience heights
        classes = [_prefix_classes(perm, t, prefix_len) for perm in perms]
        worst: dict[int, int] = {}  # per block pair index

        def worst_class(p):
            if p not in worst:
                a, b = _PAIRS[p]
                worst[p] = max(map(len, map(_patience_sweep, classes[a], classes[b])))
            return worst[p]

        return _sweep(
            name,
            cap,
            [(ij, worst_class(p)) for ij, p in _GAPS if ij[1] <= max_gap and distinct[p]],
        )

    results.append(class_sweep("fixed-prefix6-lcs-le-t", 6, 3, t))
    results.append(class_sweep("fixed-prefix5-lcs-le-t2", 5, 7, t**2))
    results.append(class_sweep("fixed-prefix3-lcs-le-t3", 3, 7, t**3))
    return PropertyReport(tuple(results))
