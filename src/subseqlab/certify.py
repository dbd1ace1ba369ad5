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

The permutation route cuts a chunk into blocks of length exactly k, so
a block with no repeated letter is a permutation of the whole alphabet
and any three such blocks share all k letters: no triple has a larger
common support than another.  The route therefore groups the
permutation blocks in order into consecutive triples, evaluates the
pairwise-LCS inequalities they yield, and claims the single best one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import prod

from .counting import count_occurrences
from .errors import ContractError, require_int, require_word
from .lcs import lcs2
from .words import Word


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


# witness symbols, claimed bound, steps: not yet recounted
Claim = tuple[tuple[int, ...], int, list[Step]]


def _certified(witness: Word, claimed: int, steps, host: Word, info=None) -> Certificate:
    # the recount is always the counting engine's, never local arithmetic
    verified = count_occurrences(witness, host)
    return Certificate(witness, claimed, verified, tuple(steps), info or {})


def _repeat_claim(piece: tuple[int, ...], blocks: int) -> Claim:
    """The least repeated letter of each block: blocks longer than the
    alphabet all repeat one, each offers two embeddings of it, and the
    blocks are disjoint."""
    length = len(piece) // blocks
    letters = tuple(
        min(s for s, c in Counter(piece[i * length : (i + 1) * length]).items() if c > 1)
        for i in range(blocks)
    )
    indices = tuple(range(1, blocks + 1))
    steps = [Step("repeat-letter", (), (b,)) for b in indices]
    steps.append(Step("product-across-blocks", tuple(range(blocks)), indices))
    return letters, 2**blocks, steps


def _permutation_claim(piece: tuple[int, ...], k: int, blocks: int) -> Claim | None:
    """Best split-pair bound among the permutation blocks of length k.

    Two permutation blocks give their one pair.  With three or more,
    consecutive triples are taken in order and the candidates are: the
    first triple's (middle, last) pair; the last triple's (first,
    middle) pair; every triple's (first, last) pair; and for
    consecutive triples the earlier (first, middle) pair with the later
    (middle, last) pair, whose spans are disjoint so bounds multiply.
    """
    perm = {}
    for b in range(blocks):
        part = piece[b * k : (b + 1) * k]
        if len(set(part)) == k:
            perm[b + 1] = Word(part, k)
    p = list(perm)
    if len(p) < 2:
        return None
    if len(p) == 2:
        candidates = [[(p[0], p[1])]]
    else:
        t = [p[i : i + 3] for i in range(0, len(p) - 2, 3)]
        candidates = [[(t[0][1], t[0][2])], [(t[-1][0], t[-1][1])]]
        candidates += [[(first, last)] for first, _, last in t]
        candidates += [[(a[0], a[1]), (b[1], b[2])] for a, b in zip(t, t[1:])]
    # candidates share pairs; each pair's lcs2 runs once
    lcs = {
        (i, j): lcs2(perm[i], perm[j])
        for i, j in dict.fromkeys(pair for c in candidates for pair in c)
    }

    def bound(c):
        return prod(lcs[pair][0] + 1 for pair in c)

    best = max(candidates, key=bound)
    witness = tuple(s for pair in best for s in lcs[pair][1].symbols)
    steps = [Step("split-pair", (), pair) for pair in best]
    if len(best) == 2:
        steps.append(Step("concat-product", (0, 1), ()))
    return witness, bound(best), steps


def _letter_frequency_claim(piece: tuple[int, ...]) -> Claim:
    counts = Counter(piece)
    top = max(counts.values())
    letter = min(s for s, c in counts.items() if c == top)
    return (letter,), top, [Step("letter-frequency", (), ())]


def _certify_chunk(piece: tuple[int, ...], k: int) -> Claim:
    """Best of three routes on one chunk, by claim alone (certify_word
    recounts only the final witness), ties broken in route order:
    forced repeats (blocks longer than the alphabet), permutation
    blocks, single-letter frequency."""
    candidates: list[Claim] = []
    b = len(piece) // (k + 1)
    if b >= 1:
        candidates.append(_repeat_claim(piece, b))
    b = len(piece) // k
    if b >= 2 and len(piece) // b == k:
        perm = _permutation_claim(piece, k, b)
        if perm is not None:
            candidates.append(perm)
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
    k = w.alphabet_size
    if len(w) == 0:
        return _certified(Word((), k), 1, [Step("empty-word", (), ())], w)
    witness: list[int] = []
    steps: list[Step] = []
    chunk_step_ends = []
    chunk_claims = []
    for pos in range(0, len(w), chunk):
        part, part_claim, part_steps = _certify_chunk(w.symbols[pos : pos + chunk], k)
        offset = len(steps)
        steps.extend(
            Step(s.rule, tuple(r + offset for r in s.refs), s.blocks) for s in part_steps
        )
        chunk_step_ends.append(len(steps) - 1)
        chunk_claims.append(part_claim)
        witness.extend(part)
    steps.append(
        Step("chunk-product", tuple(chunk_step_ends), tuple(range(1, len(chunk_claims) + 1)))
    )
    return _certified(
        Word(tuple(witness), k), prod(chunk_claims), steps, w, {"chunk_claims": chunk_claims}
    )
