"""Signed-lexicographic permutation words over tuple alphabets.

A length-r vector of signs turns [t]^r into a totally ordered set: flip
each coordinate marked "-" and compare tuples lexicographically.
Listing all of [t]^r in that order gives a permutation word; cycling
through a fixed family of eight sign vectors and concatenating the
resulting permutations gives long words whose most-common-subsequence
count stays provably small.

This module builds those objects and brute-force checks the finite
combinatorial facts the analysis leans on: agreement patterns among the
eight sign vectors, the exact LCS value t^|J| for a family of
signed-lex permutations agreeing on the coordinate set J, and the
pairwise/triple/prefix-class LCS bounds for the concatenated blocks.
The sign and block verifiers share one sweep helper over the five
pair and triple families, which measures each unordered index pair and
triple of the period once; the block caps are t raised to the sign
caps, since agreeing exactly on J means a joint LCS of t^|J|.
Every check returns a report of per-property results rather than
raising, so callers can surface which instance failed and by how much.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import mul

from .errors import BudgetError, ContractError, require_int
from .lcs import lcs2, lcs3, multi_lcs
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
    if not isinstance(u, tuple) or not u or not all(map((1, -1).__contains__, u)):
        raise ContractError("a sign vector is a nonempty tuple over {+1, -1}")


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


class TupleAlphabet:
    """[t]^r packed into integer symbol ids, coordinate 1 most significant.

    id = sum (c_i - 1) * t^(r-i), so the all-plus signed-lex order of
    tuples coincides with ascending id order.
    """

    def __init__(self, t: int, r: int = 8):
        require_int(t=t, r=r)
        if t < 1 or r < 1:
            raise ContractError(f"need t >= 1 and r >= 1, got t={t}, r={r}")
        self.t = t
        self.r = r
        self.size = t**r

    def coords(self, symbol: int) -> tuple[int, ...]:
        require_int(symbol=symbol)
        if not 0 <= symbol < self.size:
            raise ContractError(f"symbol {symbol} outside [0, {self.size})")
        out = []
        for _ in range(self.r):
            symbol, digit = divmod(symbol, self.t)
            out.append(digit + 1)
        return tuple(reversed(out))


def build_permutation(
    u: SignVector, t: int, max_symbols: int = PERMUTATION_BUDGET
) -> Word:
    """The permutation word listing all of [t]^r in signed-lex order."""
    _check_sign_vector(u)
    require_int(t=t, max_symbols=max_symbols)
    if t < 2:
        raise ContractError(f"need t >= 2, got {t}")
    alphabet = TupleAlphabet(t, len(u))
    if alphabet.size > max_symbols:
        raise BudgetError(
            f"permutation over [{t}]^{len(u)} has {alphabet.size} symbols, "
            f"over the budget of {max_symbols}"
        )
    # a symbol's key is its coordinate tuple times u, coordinatewise;
    # ascending keys are the signed-lex order
    order = sorted(range(alphabet.size), key=lambda s: tuple(map(mul, u, alphabet.coords(s))))
    return Word(tuple(order), alphabet.size)


def agreement_set(vectors) -> frozenset[int]:
    """1-based coordinates where every vector in the family agrees."""
    vs = _sign_family(vectors)
    if any(len(v) != len(vs[0]) for v in vs):
        raise ContractError("sign vectors must share one length")
    return _agreement(vs)


def _agreement(vs: tuple[SignVector, ...]) -> frozenset[int]:
    return frozenset(j for j, col in enumerate(zip(*vs), 1) if col.count(col[0]) == len(vs))


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


def _family_sweeps(items, names, caps, pair, triple) -> list[PropertyResult]:
    """The five sweeps both verifiers share over the 8-periodic family
    ``items``: adjacent pairs, distinct pairs, consecutive triples (exact),
    an adjacent pair with an outsider, and distinct triples.

    ``pair`` and ``triple`` are symmetric measures, taken once per
    unordered index pair (28) and index triple (56).  Labels give a
    periodic start i 1-based and a family index 0-based; the value
    sweeps (distinct, outsider) skip instances with equal members.
    When ``triple`` raises BudgetError, the three triple sweeps are
    reported unchecked, with its message as the note.
    """

    def measured(measure, size):
        return {s: measure(*(items[x] for x in s)) for s in combinations(range(8), size)}

    def at(*positions):  # 1-based periodic positions -> sorted indices
        return tuple(sorted((p - 1) % 8 for p in positions))

    def distinct(*indices):
        return all(items[a] != items[b] for a, b in combinations(indices, 2))

    pairs = measured(pair, 2)
    results = [
        _sweep(names[0], caps[0], ((i, pairs[at(i, i + 1)]) for i in range(1, 9))),
        _sweep(names[1], caps[1], ((ab, pairs[ab]) for ab in pairs if distinct(*ab))),
    ]
    try:
        triples = measured(triple, 3)
    except BudgetError as exc:
        unchecked = [PropertyResult(name, True, False, None, (), str(exc)) for name in names[2:]]
        return results + unchecked
    return results + [
        _sweep(
            names[2], caps[2], ((i, triples[at(i, i + 1, i + 2)]) for i in range(1, 9)), exact=True
        ),
        _sweep(
            names[3],
            caps[3],
            (
                ((i, j), triples[at(i, i + 1, j + 1)])
                for i in range(1, 9)
                for j in range(8)
                if items[j] != items[(i - 1) % 8] and items[j] != items[i % 8]
            ),
        ),
        _sweep(names[4], caps[4], ((abc, triples[abc]) for abc in triples if distinct(*abc))),
    ]


def verify_sign_properties(vectors) -> PropertyReport:
    """Brute-force check of the eight agreement facts the analysis needs
    from a period-8 family of length-8 sign vectors.

    Index-based facts quantify over the periodic sequence, so sweeping
    one period of start indices covers every instance; value-based
    facts quantify over distinct vectors of the family.
    """
    vs = _sign_family(vectors)
    if len(vs) != 8 or any(len(v) != 8 for v in vs):
        raise ContractError("expected eight sign vectors of length 8")

    def agree(*family):
        return len(_agreement(family))

    def at(i):  # 1-based periodic
        return vs[(i - 1) % 8]

    results = _family_sweeps(
        vs,
        (
            "adjacent-pairs-agree-le2",
            "distinct-pairs-agree-le4",
            "consecutive-triples-agree-nowhere",
            "adjacent-plus-outsider-agree-le1",
            "distinct-triples-agree-le2",
        ),
        (2, 4, 0, 1, 2),
        agree,
        agree,
    )
    results += [
        _sweep(
            "last2-blocks-differ-within-gap3",
            1,
            (
                ((i, j), 2 if at(i)[6:] == at(i + j)[6:] else 0)
                for i in range(1, 9)
                for j in range(1, 4)
            ),
            note="value 2 flags an equal last-2 projection",
        ),
        _sweep(
            "last3-blocks-differ-within-gap7",
            1,
            (
                ((i, j), 2 if at(i)[5:] == at(i + j)[5:] else 0)
                for i in range(1, 9)
                for j in range(1, 8)
            ),
            note="value 2 flags an equal last-3 projection",
        ),
        _sweep(
            "last5-blocks-agree-le3-within-gap7",
            3,
            (((i, j), agree(at(i)[3:], at(i + j)[3:])) for i in range(1, 9) for j in range(1, 8)),
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
    r: int
    block_count: int
    block_length: int
    word: Word

    def __post_init__(self) -> None:
        require_int(t=self.t, r=self.r, block_count=self.block_count, block_length=self.block_length)
        if not isinstance(self.word, Word):
            raise ContractError(f"word must be a Word, got {self.word!r}")

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

    @property
    def alphabet(self) -> TupleAlphabet:
        return TupleAlphabet(self.t, self.r)


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
    return ConstructionWord(t, 8, blocks, block_length, Word(tuple(syms), block_length))


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
    vs = _sign_family(family)
    if any(len(v) != r for v in vs):
        raise ContractError(f"every sign vector must have length {r}")
    unique = []
    for v in vs:
        if v not in unique:
            unique.append(v)
    J = agreement_set(unique)
    perms = [build_permutation(u, t) for u in unique]
    computed = multi_lcs(perms)
    return IntermediateReport(t, r, len(unique), J, t ** len(J), computed)


def _prefix_classes(perm: Word, alphabet: TupleAlphabet, prefix_len: int) -> list[Word]:
    """perm's symbols grouped by the packed value of their first
    prefix_len coordinates, one subsequence of perm per value in
    ascending order: with coordinate 1 most significant, that value is
    the symbol id shifted down by the other r - prefix_len digits."""
    shift = alphabet.t ** (alphabet.r - prefix_len)
    groups: list[list[int]] = [[] for _ in range(alphabet.size // shift)]
    for s in perm.symbols:
        groups[s // shift].append(s)
    return [Word(tuple(g), alphabet.size) for g in groups]


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
    alphabet = TupleAlphabet(t, 8)
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

    def class_sweep(name, prefix_len, gaps, cap):
        # each block's class words, built once
        classes = [_prefix_classes(perm, alphabet, prefix_len) for perm in perms]
        worst: dict[frozenset[int], int] = {}  # per unordered block pair

        def worst_class(a, b):
            key = frozenset((a, b))
            if key not in worst:
                worst[key] = max(lcs2(x, y)[0] for x, y in zip(classes[a], classes[b]))
            return worst[key]

        return _sweep(
            name,
            cap,
            (
                ((i, j), worst_class((i - 1) % 8, (i + j - 1) % 8))
                for i in range(1, 9)
                for j in gaps
                if perms[(i - 1) % 8] != perms[(i + j - 1) % 8]
            ),
        )

    results.append(class_sweep("fixed-prefix6-lcs-le-t", 6, range(1, 4), t))
    results.append(class_sweep("fixed-prefix5-lcs-le-t2", 5, range(1, 8), t**2))
    results.append(class_sweep("fixed-prefix3-lcs-le-t3", 3, range(1, 8), t**3))
    return PropertyReport(tuple(results))
