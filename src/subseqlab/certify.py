"""Recount-verified lower bounds on a word's most-common-subsequence count.

Given any word, build an explicit pattern whose occurrence count is
provably large, then have the counting engine recount it.  A
certificate is the witness pattern, the claimed bound, the independent
recount, and the derivation steps.  The routes below only claim:
``certify_word`` picks each chunk's route by its claim, and its one
recount is of the concatenated witness.

Claims rest on three constructive facts:

- a letter that repeats inside a block embeds in at least two ways,
  and choices in disjoint blocks multiply (``repeat-letter`` +
  ``product-across-blocks``);
- a common subsequence x of two disjoint blocks embeds at least
  |x| + 1 ways, one per point where the embedding switches from the
  first block to the second (``split-pair``);
- patterns certified on disjoint stretches concatenate and their
  bounds multiply (``concat-product``, ``chunk-product``).

Permutation blocks are mined for triples with a large common support
by exact cubic search; the pairwise-LCS inequalities a triple family
yields are evaluated individually and the single best one is claimed.
The product of all of them only bounds a *power* of the target, so it
is reported in ``info``, never claimed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from math import prod

from .counting import count_occurrences
from .errors import ContractError, NotApplicable, require_int, require_word
from .lcs import is_permutation_word, lcs2
from .words import Interval, Word, concat, subword


@dataclass(frozen=True)
class BlockDecomposition:
    """Consecutive equal-length blocks covering a prefix of the word."""

    word: Word
    block_length: int
    blocks: tuple[Word, ...]
    is_permutation: tuple[bool, ...]
    remainder: int  # trailing symbols no block covers

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def permutation_indices(self) -> tuple[int, ...]:
        """1-based indices of the blocks with no repeated symbol."""
        return tuple(i + 1 for i, flag in enumerate(self.is_permutation) if flag)


def decompose(w: Word, blocks: int) -> BlockDecomposition:
    """Split the first blocks*(|w| // blocks) symbols evenly; the
    remainder is reported, not covered."""
    require_word(w=w)
    require_int(blocks=blocks)
    if blocks < 1:
        raise ContractError(f"block count must be >= 1, got {blocks}")
    if blocks > len(w):
        raise ContractError(f"cannot cut |w|={len(w)} into {blocks} blocks")
    length = len(w) // blocks
    parts = tuple(
        Word(w.symbols[i * length : (i + 1) * length], w.alphabet_size) for i in range(blocks)
    )
    flags = tuple(is_permutation_word(p) for p in parts)
    return BlockDecomposition(w, length, parts, flags, len(w) - blocks * length)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class Step:
    """One derivation move; refs are indices of earlier steps it uses,
    blocks the 1-based block indices it touches."""

    rule: str
    refs: tuple[int, ...]
    blocks: tuple[int, ...]


@dataclass(frozen=True)
class Certificate:
    witness: Word
    claimed: int
    verified: int
    steps: tuple[Step, ...]
    info: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verified >= self.claimed


Claim = tuple[Word, int, list[Step]]  # witness, claimed bound, steps: not yet recounted


def _certified(witness: Word, claimed: int, steps, host: Word, info=None) -> Certificate:
    # the recount is always the counting engine's, never local arithmetic
    verified = count_occurrences(witness, host)
    return Certificate(witness, claimed, verified, tuple(steps), info or {})


def _duplicate_letter_claim(bd: BlockDecomposition) -> Claim:
    picks = [
        (b, min(s for s, c in Counter(block.symbols).items() if c > 1))
        for b, block in enumerate(bd.blocks, start=1)
        if not bd.is_permutation[b - 1]
    ]
    if not picks:
        raise NotApplicable("every block is a permutation")
    witness = Word(tuple(letter for _, letter in picks), bd.word.alphabet_size)
    steps = [Step("repeat-letter", (), (b,)) for b, _ in picks]
    steps.append(
        Step("product-across-blocks", tuple(range(len(picks))), tuple(b for b, _ in picks))
    )
    return witness, 2 ** len(picks), steps


def duplicate_letter_certificate(bd: BlockDecomposition) -> Certificate:
    """One repeated letter per non-permutation block: each block offers
    two embeddings of its letter, and the blocks are disjoint."""
    return _certified(*_duplicate_letter_claim(bd), bd.word)


@dataclass(frozen=True)
class TripleFinding:
    """Three permutation blocks (1-based, increasing) with their common
    support size and the pairwise LCS lengths of the blocks restricted
    to that common support."""

    first: int
    middle: int
    last: int
    common_symbols: int
    lcs_first_middle: int
    lcs_first_last: int
    lcs_middle_last: int


@dataclass(frozen=True)
class TripleFamily:
    triples: tuple[TripleFinding, ...]
    requested: int

    @property
    def short(self) -> bool:
        return len(self.triples) < self.requested


def _restrict(block: Word, keep: frozenset[int]) -> Word:
    return Word(tuple(s for s in block.symbols if s in keep), block.alphabet_size)


def _triple_restrictions(bd: BlockDecomposition, i: int, j: int, l: int):
    common = (
        frozenset(bd.blocks[i - 1].symbols)
        & frozenset(bd.blocks[j - 1].symbols)
        & frozenset(bd.blocks[l - 1].symbols)
    )
    return tuple(_restrict(bd.blocks[b - 1], common) for b in (i, j, l))


def _best_triple_among(bd: BlockDecomposition, indices) -> TripleFinding:
    supports = {i: frozenset(bd.blocks[i - 1].symbols) for i in indices}
    best_count = -1
    best = None
    for i, j, l in combinations(sorted(indices), 3):
        c = len(supports[i] & supports[j] & supports[l])
        if c > best_count:
            best_count, best = c, (i, j, l)
    i, j, l = best
    ri, rj, rl = _triple_restrictions(bd, i, j, l)
    fm, _ = lcs2(ri, rj)
    fl, _ = lcs2(ri, rl)
    ml, _ = lcs2(rj, rl)
    return TripleFinding(i, j, l, best_count, fm, fl, ml)


def best_triple(bd: BlockDecomposition) -> TripleFinding:
    """Exact maximization of the common-support size over all triples
    of permutation blocks; ties go to the smallest (i, j, l)."""
    indices = bd.permutation_indices
    if len(indices) < 3:
        raise NotApplicable(
            f"need at least 3 permutation blocks, have {len(indices)}"
        )
    return _best_triple_among(bd, indices)


def disjoint_triples(bd: BlockDecomposition, count: int) -> TripleFamily:
    """Greedily extract ``count`` block-disjoint triples (fewer if the
    permutation blocks run out), returned ordered by middle index."""
    require_int(count=count)
    if count < 0:
        raise ContractError(f"triple count must be >= 0, got {count}")
    available = list(bd.permutation_indices)
    found = []
    while len(found) < count and len(available) >= 3:
        t = _best_triple_among(bd, available)
        found.append(t)
        for idx in (t.first, t.middle, t.last):
            available.remove(idx)
    found.sort(key=lambda t: t.middle)
    return TripleFamily(tuple(found), count)


def _pair_claim(bd: BlockDecomposition, i: int, j: int) -> Claim:
    length, witness = lcs2(bd.blocks[i - 1], bd.blocks[j - 1])
    return witness, length + 1, [Step("split-pair", (), (i, j))]


def lcs_pair_certificate(bd: BlockDecomposition, i: int, j: int) -> Certificate:
    """A common subsequence of blocks i < j embeds once per choice of
    the switch point from block i to block j: bound = length + 1."""
    require_int(i=i, j=j)
    if not 1 <= i < j <= bd.block_count:
        raise ContractError(
            f"need 1 <= i < j <= {bd.block_count}, got ({i}, {j})"
        )
    return _certified(*_pair_claim(bd, i, j), bd.word)


def _stored_lcs(t: TripleFinding, x: int, y: int) -> int:
    # blocks x < y of the triple (0 first, 1 middle, 2 last); x + y - 1
    # numbers the pairs (0, 1), (0, 2), (1, 2) in order
    return (t.lcs_first_middle, t.lcs_first_last, t.lcs_middle_last)[x + y - 1]


def _chained_claim(bd: BlockDecomposition, triples: tuple[TripleFinding, ...]) -> Claim:
    """Best candidate of a nonempty middle-ordered family, chosen by the
    LCS lengths its findings store; only the winner's pairs are run
    again, for their witnesses."""
    for a, b in zip(triples, triples[1:]):
        if a.middle >= b.middle:
            raise ContractError("triples must be ordered by middle block")
    # a candidate is a list of pairs (triple, x, y) with disjoint spans
    candidates = [[(triples[0], 1, 2)], [(triples[-1], 0, 1)]]
    candidates += [[(t, 0, 2)] for t in triples]
    candidates += [[(a, 0, 1), (b, 1, 2)] for a, b in zip(triples, triples[1:])]
    pairs = max(candidates, key=lambda c: prod(_stored_lcs(*pair) + 1 for pair in c))
    witness, claimed, steps = Word((), bd.word.alphabet_size), 1, []
    for t, x, y in pairs:
        blocks = (t.first, t.middle, t.last)
        if not 1 <= t.first < t.middle < t.last <= bd.block_count:
            raise ContractError(f"triple {blocks} is not increasing in 1..{bd.block_count}")
        restricted = _triple_restrictions(bd, *blocks)
        length, part = lcs2(restricted[x], restricted[y])
        if length != _stored_lcs(t, x, y):
            raise ContractError(
                f"triple {blocks} misrecords the LCS of blocks {blocks[x]}, {blocks[y]}"
            )
        witness = concat(witness, part)
        claimed *= length + 1
        steps.append(Step("split-pair", (), (blocks[x], blocks[y])))
    if len(pairs) == 2:
        steps.append(Step("concat-product", (0, 1), ()))
    return witness, claimed, steps


def chained_certificate(bd: BlockDecomposition, triples) -> Certificate:
    """Best single inequality from a middle-ordered triple family.

    Candidates: the first triple's (middle, last) pair; the last
    triple's (first, middle) pair; every triple's (first, last) pair;
    and for consecutive triples the product of the earlier (first,
    middle) pair with the later (middle, last) pair — the earlier pair
    ends before the later one starts, so their bounds multiply.  With
    no triples, the best pair of permutation blocks is claimed instead.
    """
    triples = tuple(triples)
    if not triples:
        return _certified(*_best_pair_claim(bd), bd.word)
    product = prod(t.lcs_first_middle * t.lcs_first_last * t.lcs_middle_last for t in triples)
    info = {"inequality_product": product, "inequality_count": 2 * len(triples) + 1}
    return _certified(*_chained_claim(bd, triples), bd.word, info)


def _best_pair_claim(bd: BlockDecomposition) -> Claim:
    indices = bd.permutation_indices
    if len(indices) < 2:
        raise NotApplicable("no triples and fewer than 2 permutation blocks")
    claims = (_pair_claim(bd, i, j) for i, j in combinations(indices, 2))
    return max(claims, key=lambda c: c[1])


def _letter_frequency_claim(piece: Word) -> Claim:
    counts = Counter(piece.symbols)
    top = max(counts.values())
    letter = min(s for s, c in counts.items() if c == top)
    return Word((letter,), piece.alphabet_size), top, [Step("letter-frequency", (), ())]


def _certify_chunk(piece: Word) -> Claim:
    """Best of three routes on one chunk, by claim alone (certify_word
    recounts only the final witness), ties broken in route order:
    forced repeats (blocks longer than the alphabet), permutation-block
    mining, single-letter frequency."""
    k = piece.alphabet_size
    candidates: list[Claim] = []
    b_repeat = len(piece) // (k + 1)
    if b_repeat >= 1:  # blocks longer than k: every one repeats a letter
        candidates.append(_duplicate_letter_claim(decompose(piece, b_repeat)))
    b_perm = len(piece) // k
    if b_perm >= 2:
        bd = decompose(piece, b_perm)
        perm_count = len(bd.permutation_indices)
        if perm_count >= 3:
            family = disjoint_triples(bd, perm_count // 3)
            candidates.append(_chained_claim(bd, family.triples))
        elif perm_count == 2:
            candidates.append(_best_pair_claim(bd))
    candidates.append(_letter_frequency_claim(piece))
    return max(candidates, key=lambda c: c[1])


def certify_word(w: Word, chunk: int) -> Certificate:
    """Cut w into consecutive chunks, claim a bound for each, and
    multiply: the concatenated witness embeds chunk-locally, so counts
    multiply.  Its recount against w is the only one."""
    require_word(w=w)
    require_int(chunk=chunk)
    if chunk < 1:
        raise ContractError(f"chunk length must be >= 1, got {chunk}")
    if len(w) == 0:
        return _certified(Word((), w.alphabet_size), 1, [Step("empty-word", (), ())], w)
    witness = Word((), w.alphabet_size)
    steps: list[Step] = []
    chunk_step_ends = []
    chunk_claims = []
    pos = 0
    while pos < len(w):
        end = min(pos + chunk, len(w))
        part, part_claim, part_steps = _certify_chunk(subword(w, Interval(pos, end - 1)))
        offset = len(steps)
        steps.extend(
            Step(s.rule, tuple(r + offset for r in s.refs), s.blocks) for s in part_steps
        )
        chunk_step_ends.append(len(steps) - 1)
        chunk_claims.append(part_claim)
        witness = concat(witness, part)
        pos = end
    steps.append(
        Step("chunk-product", tuple(chunk_step_ends), tuple(range(1, len(chunk_claims) + 1)))
    )
    return _certified(witness, prod(chunk_claims), steps, w, {"chunk_claims": chunk_claims})
