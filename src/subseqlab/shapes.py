"""Per-block profiles of embeddings into block-concatenated words.

For an embedding of a pattern v into a word built from B consecutive
permutation blocks, record for each block i:

- ``entry[i]``: the first pattern index mapped at or beyond block i's
  start (1-based; m+1 when the embedding never reaches block i),
- ``reach[i]``: the largest pattern index h such that the slice
  v<entry[i]..h> fits inside block i as a subsequence,
- ``overlap[i]``: reach[i] - entry[i+1], measuring how far block i's
  fit runs past the point where the embedding enters block i+1.

Every block is a permutation, so a pattern slice fits inside it exactly
when the slice's offsets in the block strictly increase.  Profiles and
their checks read those offsets from ``ConstructionWord.block_offsets``,
so reach[i] costs O(reach[i] - entry[i] + 1).

Classifying each overlap into six bands (thresholds 1, 10t, 10t^2,
10t^3, 10t^4 for alphabet [t]^8) gives the embedding's *shape*.  The
checkers in this module test, on enumerated embeddings, the structural
facts that make shapes countable: monotonicity and range invariants of
the profile, forced calm spells after large overlaps, the bound on
how many next-entry values one band admits, the prefix-break-count
bound for block subsequences, and the greedy segment decomposition of
shapes.  Checkers report violations instead of raising, so sweeps can
aggregate.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field

from .construction import (
    ConstructionWord,
    TupleAlphabet,
    base_sign_vectors,
    build_construction_word,
    build_permutation,
)
from .counting import EmbeddingMap, enumerate_embeddings, validate_embedding
from .errors import ContractError
from .words import Word

SHAPE_CLASSES = (0, 1, 2, 3, 4, 8)

# claims about windows s_i..s_{i+8} are only asserted this far from the end
STANDING_MARGIN = 8


@dataclass(frozen=True)
class EmbeddingProfile:
    """entry/reach are 1-based pattern indices per block; overlap[i] =
    reach[i] - entry[i+1] (0-based storage, block i at index i-1)."""

    pattern_length: int
    block_count: int
    entry: tuple[int, ...]
    reach: tuple[int, ...]
    overlap: tuple[int, ...]


def _fit_end(syms, j: int, offsets: tuple[int, ...]) -> int:
    """First index >= j at which syms[j:] stops fitting in the block
    whose symbol -> offset index is ``offsets``.  A block is a
    permutation, so a slice fits in it exactly when its symbols' offsets
    strictly increase; a symbol outside the block ends the fit."""
    size = len(offsets)
    n = len(syms)
    prev = -1
    while j < n:
        s = syms[j]
        if s >= size or offsets[s] <= prev:
            break
        prev = offsets[s]
        j += 1
    return j


def embedding_profile(v: Word, f: EmbeddingMap, cw: ConstructionWord) -> EmbeddingProfile:
    """Exact profile of one embedding; rejects maps that do not embed v."""
    validate_embedding(v, cw.word, f)
    m = len(v)
    B = cw.block_count
    L = cw.block_length
    pos = f.positions
    entry = tuple(bisect_left(pos, i * L) + 1 for i in range(B))
    vsyms = v.symbols
    reach = tuple(
        _fit_end(vsyms, entry[i] - 1, offsets) for i, offsets in enumerate(cw.block_offsets)
    )
    overlap = tuple(reach[i] - entry[i + 1] for i in range(B - 1))
    return EmbeddingProfile(m, B, entry, reach, overlap)


def check_profile_invariants(
    v: Word, profile: EmbeddingProfile, cw: ConstructionWord, maximality: bool = False
) -> list[dict]:
    """Re-derive the profile's promises from the definitions.

    Always checks: entry is monotone, reach >= entry-1, overlap >= -1,
    overlap[i] = reach[i] - entry[i+1], and each v<entry..reach> slice
    fits in its block (its offsets in the block strictly increase).
    With ``maximality`` also checks reach cannot be extended by one.
    Raises ContractError when the profile's block count or tuple
    lengths do not match ``cw``.
    """
    B = profile.block_count
    m = profile.pattern_length
    ent, rea, ove = profile.entry, profile.reach, profile.overlap
    if B != cw.block_count or (len(ent), len(rea), len(ove)) != (B, B, B - 1):
        raise ContractError(
            f"profile of {B} blocks with {len(ent)}/{len(rea)}/{len(ove)} "
            f"entry/reach/overlap values does not fit a {cw.block_count}-block word"
        )
    violations = []
    for i in range(B - 1):
        if ent[i] > ent[i + 1]:
            violations.append({"kind": "entry-monotone", "block": i + 1})
        if ove[i] != rea[i] - ent[i + 1]:
            violations.append({"kind": "overlap-definition", "block": i + 1})
        if ove[i] < -1:
            violations.append({"kind": "overlap-floor", "block": i + 1})
    vsyms = v.symbols
    for i, offsets in enumerate(cw.block_offsets):
        if rea[i] < ent[i] - 1:
            violations.append({"kind": "reach-floor", "block": i + 1})
        lo, hi = ent[i] - 1, rea[i] - 1  # 0-based inclusive pattern slice
        piece = vsyms[lo : hi + 1]
        if _fit_end(piece, 0, offsets) < len(piece):
            violations.append({"kind": "block-fit", "block": i + 1})
        if maximality and rea[i] < m:
            extended = vsyms[lo : hi + 2]
            if _fit_end(extended, 0, offsets) == len(extended):
                violations.append({"kind": "reach-maximality", "block": i + 1})
    return violations


def classify_overlap(d: int, t: int) -> int:
    if d >= 10 * t**4:
        return 8
    if d >= 10 * t**3:
        return 4
    if d >= 10 * t**2:
        return 3
    if d >= 10 * t:
        return 2
    if d >= 1:
        return 1
    return 0


def shape_of(profile: EmbeddingProfile, t: int) -> tuple[int, ...]:
    return tuple(classify_overlap(d, t) for d in profile.overlap)


def _check_shape(s) -> tuple[int, ...]:
    out = tuple(s)
    bad = [x for x in out if x not in SHAPE_CLASSES]
    if bad:
        raise ContractError(f"shape entries must be in {SHAPE_CLASSES}, got {bad[:3]}")
    return out


def claim_window_indices(s) -> range:
    """1-based start indices far enough from the end for the claims
    about the window s_i..s_{i+8} (empty when the shape is short)."""
    return range(1, len(s) - STANDING_MARGIN + 1)


def check_after_jump_decay(s) -> list[dict]:
    """After an entry in {3,4,8}, the next entries must die down: 0
    immediately; or 1 then 0; or 2 then 0 then five entries in {0,1}."""
    s = _check_shape(s)
    out = []
    for i in claim_window_indices(s):
        if s[i - 1] not in (3, 4, 8):
            continue
        nxt = s[i]
        ok = (
            nxt == 0
            or (nxt == 1 and s[i + 1] == 0)
            or (
                nxt == 2
                and s[i + 1] == 0
                and all(s[i + j - 1] in (0, 1) for j in range(3, 8))
            )
        )
        if not ok:
            out.append({"claim": "after-jump-decay", "index": i, "window": s[i - 1 : i + 8]})
    return out


def check_no_double_big(s) -> list[dict]:
    """No second 8 within seven entries of an 8."""
    s = _check_shape(s)
    out = []
    for i in claim_window_indices(s):
        if s[i - 1] == 8 and any(s[i + j - 1] == 8 for j in range(1, 8)):
            out.append({"claim": "no-double-big", "index": i, "window": s[i - 1 : i + 8]})
    return out


def check_medium_then_calm(s) -> list[dict]:
    """Within seven entries of an 8, any entry in {2,3,4} is followed
    by an entry in {0,1}."""
    s = _check_shape(s)
    out = []
    for i in claim_window_indices(s):
        if s[i - 1] != 8:
            continue
        for j in range(1, 7):
            if s[i + j - 1] in (2, 3, 4) and s[i + j] not in (0, 1):
                out.append(
                    {
                        "claim": "medium-then-calm",
                        "index": i,
                        "offset": j,
                        "window": s[i - 1 : i + 8],
                    }
                )
    return out


def check_calm_by_period_end(s) -> list[dict]:
    """Seven entries after an 8, the value is back in {0,1,2}."""
    s = _check_shape(s)
    out = []
    for i in claim_window_indices(s):
        if s[i - 1] == 8 and s[i + 6] not in (0, 1, 2):
            out.append(
                {"claim": "calm-by-period-end", "index": i, "window": s[i - 1 : i + 8]}
            )
    return out


def check_single_medium_after_big(s) -> list[dict]:
    """Within seven entries of an 8, at most one entry lies in {3,4}."""
    s = _check_shape(s)
    out = []
    for i in claim_window_indices(s):
        if s[i - 1] != 8:
            continue
        mediums = sum(1 for j in range(1, 8) if s[i + j - 1] in (3, 4))
        if mediums > 1:
            out.append(
                {"claim": "single-medium-after-big", "index": i, "window": s[i - 1 : i + 8]}
            )
    return out


def check_big_interval_containment(profile: EmbeddingProfile, t: int) -> list[dict]:
    """After an overlap in the top band, the next seven blocks' pattern
    intervals stay inside the big block's own interval."""
    s = shape_of(profile, t)
    ent, rea = profile.entry, profile.reach
    out = []
    for i in claim_window_indices(s):
        if s[i - 1] != 8:
            continue
        for j in range(1, 8):
            if ent[i + j - 1] < ent[i - 1] or rea[i + j - 1] > rea[i - 1]:
                out.append(
                    {"claim": "big-interval-containment", "index": i, "offset": j}
                )
    return out


ALL_SHAPE_CLAIMS = (
    check_after_jump_decay,
    check_no_double_big,
    check_medium_then_calm,
    check_calm_by_period_end,
    check_single_medium_after_big,
)


# ---------------------------------------------------------------------------
# prefix-break counts


def _check_alphabet(b: Word, alphabet: TupleAlphabet) -> None:
    if b.alphabet_size != alphabet.size:
        raise ContractError("word alphabet does not match the tuple alphabet")


def break_counts(b: Word, alphabet: TupleAlphabet) -> list[int]:
    """The x-prefix break count of b for every x in 1..r: the number of
    adjacent positions z, z+1 whose first-x-coordinate projections
    differ.  One pass: an adjacent pair breaks projection x exactly when
    its first differing coordinate is <= x."""
    _check_alphabet(b, alphabet)
    t, r = alphabet.t, alphabet.r
    per_first_diff = [0] * (r + 1)
    syms = b.symbols
    for z in range(len(syms) - 1):
        a, c = syms[z], syms[z + 1]
        if a == c:
            continue
        # first differing coordinate = r - (number of trailing base-t
        # digits after the highest differing digit)
        diff_at = r
        aa, cc = a, c
        while aa // t != cc // t:
            aa //= t
            cc //= t
            diff_at -= 1
        per_first_diff[diff_at] += 1
    counts = []
    acc = 0
    for x in range(1, r + 1):
        acc += per_first_diff[x]
        counts.append(acc)
    return counts


def check_break_bound(b: Word, t: int, alphabet: TupleAlphabet) -> list[dict]:
    """For b a subsequence of a single signed-lex block, the number of
    x-prefix breaks can be at most t^x."""
    out = []
    for x, count in enumerate(break_counts(b, alphabet), start=1):
        if count > t**x:
            out.append({"claim": "break-bound", "x": x, "count": count, "cap": t**x})
    return out


# ---------------------------------------------------------------------------
# shape decomposition


@dataclass(frozen=True)
class ShapeSegment:
    start: int  # 1-based index into the shape
    symbols: tuple[int, ...]
    rule: str


@dataclass(frozen=True)
class ShapeDecomposition:
    segments: tuple[ShapeSegment, ...]
    tail_start: int  # 1-based index of the first uncovered entry
    failure: dict | None

    @property
    def ok(self) -> bool:
        return self.failure is None


_SPECIAL_TAILS = {(3, 1), (4, 1)}


def decompose_shape(s) -> ShapeDecomposition:
    """Greedy left-to-right segmentation by the five fixed rules.

    Decomposition continues while the matched rule's span (and the
    lookahead it needs) fits in what remains, so the uncovered tail is
    always at most eight entries.  A window whose lookahead exists but
    matches no rule is reported as a failure — it signals a shape the
    claim suite says cannot occur.
    """
    s = _check_shape(s)
    n = len(s)
    segments = []
    i = 1
    while i <= n:
        a = s[i - 1]
        remaining = n - i + 1
        if a in (0, 1, 2):
            width, rule = 1, "singleton-012"
        elif a in (3, 4):
            if remaining < 2:
                break  # cannot see the partner entry; leave as tail
            if s[i] == 0:
                width, rule = 2, "pair-34-0"
            elif s[i] in (1, 2):
                width, rule = 3, "triple-34-12"
            else:
                return ShapeDecomposition(
                    tuple(segments),
                    i,
                    {"index": i, "entry": a, "next": s[i], "window": s[i - 1 : i + 8]},
                )
        else:  # a == 8
            if remaining < 8:
                break  # cannot see the discriminating tail; leave as tail
            if (s[i + 5], s[i + 6]) in _SPECIAL_TAILS:
                width, rule = 9, "nine-8-special"
            else:
                width, rule = 8, "eight-8"
        if width > remaining:
            break
        segments.append(ShapeSegment(i, s[i - 1 : i - 1 + width], rule))
        i += width
    return ShapeDecomposition(tuple(segments), i, None)


# ---------------------------------------------------------------------------
# sampling suites


@dataclass
class ShapeSuiteReport:
    t: int
    block_count: int
    seed: int
    patterns_checked: int = 0
    embeddings_checked: int = 0
    distinct_shapes: int = 0
    shapes: tuple = ()
    violations: dict[str, list] = field(default_factory=dict)

    def add(self, category: str, items: list) -> None:
        if items:
            self.violations.setdefault(category, []).extend(items)

    @property
    def total_violations(self) -> int:
        return sum(len(v) for v in self.violations.values())

    @property
    def ok(self) -> bool:
        return self.total_violations == 0


def sample_pattern(rng: random.Random, cw: ConstructionWord, density: float) -> Word:
    """Random subsequence of the host word (never empty), so at least
    one embedding is guaranteed to exist."""
    syms = cw.word.symbols
    kept = tuple(s for s in syms if rng.random() < density)
    if not kept:
        kept = (syms[rng.randrange(len(syms))],)
    return Word(kept, cw.word.alphabet_size)


_DENSITY_PALETTE = (0.003, 0.01, 0.03, 0.08, 0.2)


def run_claim_suite(
    t: int,
    blocks: int,
    patterns: int,
    seed: int,
    embed_cap: int = 150,
) -> ShapeSuiteReport:
    """Sample random patterns from a construction word, enumerate up to
    embed_cap embeddings each, and test every profile/shape claim on
    every embedding; reach maximality is spot-checked on each pattern's
    first embedding.  Deterministic for a fixed seed."""
    cw = build_construction_word(t, blocks)
    alphabet = cw.alphabet
    rng = random.Random(seed)
    report = ShapeSuiteReport(t, blocks, seed)
    shapes_seen = set()
    for sample_index in range(patterns):
        v = sample_pattern(rng, cw, rng.choice(_DENSITY_PALETTE))
        enum = enumerate_embeddings(v, cw.word, cap=embed_cap)
        report.patterns_checked += 1
        entries_seen: dict[tuple[int, ...], int] = {}
        next_entry_choices: dict[tuple[int, int, int], set[int]] = {}
        break_items: dict[tuple[int, int], list[dict]] = {}
        for e_index, f in enumerate(enum):
            report.embeddings_checked += 1
            profile = embedding_profile(v, f, cw)
            report.add(
                "profile-invariant",
                [
                    dict(item, sample=sample_index, embedding=e_index)
                    for item in check_profile_invariants(
                        v, profile, cw, maximality=e_index == 0
                    )
                ],
            )
            s = shape_of(profile, t)
            shapes_seen.add(s)
            for checker in ALL_SHAPE_CLAIMS:
                report.add(
                    checker.__name__.removeprefix("check_").replace("_", "-"),
                    [dict(item, sample=sample_index, embedding=e_index) for item in checker(s)],
                )
            report.add(
                "big-interval-containment",
                [
                    dict(item, sample=sample_index, embedding=e_index)
                    for item in check_big_interval_containment(profile, t)
                ],
            )
            # per-block slices of the pattern live inside single blocks,
            # so the prefix-break bound applies to each of them; a slice
            # is checked once per sample, its items repeated per block
            for i in range(cw.block_count):
                lo, hi = profile.entry[i] - 1, profile.reach[i]
                items = break_items.get((lo, hi))
                if items is None:
                    piece = Word(v.symbols[lo:hi], v.alphabet_size)
                    items = break_items[lo, hi] = check_break_bound(piece, t, alphabet)
                report.add(
                    "break-bound",
                    [
                        dict(item, sample=sample_index, embedding=e_index, block=i + 1)
                        for item in items
                    ],
                )
            # the full entry sequence must identify the embedding
            key = profile.entry
            if key in entries_seen:
                report.add(
                    "determination",
                    [
                        {
                            "sample": sample_index,
                            "embedding": e_index,
                            "duplicate_of": entries_seen[key],
                            "entries": key,
                        }
                    ],
                )
            else:
                entries_seen[key] = e_index
            # band bound on next-entry counts, and the zero-band pinch
            for i in range(cw.block_count - 1):
                x = s[i]
                if x == 0:
                    if profile.overlap[i] not in (-1, 0):
                        report.add(
                            "band-zero-pinch",
                            [
                                {
                                    "sample": sample_index,
                                    "embedding": e_index,
                                    "block": i + 1,
                                    "overlap": profile.overlap[i],
                                }
                            ],
                        )
                else:
                    next_entry_choices.setdefault(
                        (i + 1, profile.entry[i], x), set()
                    ).add(profile.entry[i + 1])
            dec = decompose_shape(s)
            if not dec.ok:
                report.add(
                    "decomposition",
                    [dict(dec.failure, sample=sample_index, embedding=e_index)],
                )
            elif len(s) - dec.tail_start + 1 > 8:
                report.add(
                    "decomposition",
                    [{"sample": sample_index, "embedding": e_index, "tail": dec.tail_start}],
                )
        for (block, entry_value, x), nxt in next_entry_choices.items():
            if len(nxt) > 10 * t**x:
                report.add(
                    "band-next-entry-count",
                    [
                        {
                            "sample": sample_index,
                            "block": block,
                            "entry": entry_value,
                            "band": x,
                            "choices": len(nxt),
                            "cap": 10 * t**x,
                        }
                    ],
                )
    report.distinct_shapes = len(shapes_seen)
    report.shapes = tuple(sorted(shapes_seen))
    return report


def run_break_bound_suite(t: int, samples: int, seed: int) -> ShapeSuiteReport:
    """Random subsequences of single signed-lex blocks against the
    prefix-break cap, all projection lengths."""
    alphabet = TupleAlphabet(t, 8)
    perms = [build_permutation(u, t) for u in base_sign_vectors()]
    rng = random.Random(seed)
    report = ShapeSuiteReport(t, 1, seed)
    for n in range(samples):
        perm = perms[rng.randrange(8)]
        density = rng.choice((0.02, 0.1, 0.3, 0.7))
        kept = tuple(s for s in perm.symbols if rng.random() < density)
        b = Word(kept, perm.alphabet_size)
        report.patterns_checked += 1
        report.add(
            "break-bound",
            [dict(item, sample=n) for item in check_break_bound(b, t, alphabet)],
        )
    return report
