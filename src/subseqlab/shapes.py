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
when the slice's offsets in the block strictly increase.  A
``ReachTable`` reads those offsets from ``ConstructionWord.block_offsets``
and computes where a slice from a given start stops fitting a given
block, in O(reach - start + 1), once per (block, start) pair.  Profiles
take reach from it and their checks test block fit and reach
maximality against it; the embeddings of one pattern share one table.

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
from operator import sub

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


class ReachTable(dict):
    """Where slices of one pattern stop fitting the blocks of one
    construction word: ``table[i, j]`` is the first index >= j at which
    v[j:] stops fitting block i (0-based), computed on first read.

    A block is a permutation, so a slice fits in it exactly when its
    symbols' offsets strictly increase; a symbol outside the block ends
    the fit.  Both reach and every block-fit verdict read this table,
    and the embeddings of one pattern share their (block, entry) pairs,
    so one table per pattern computes each of them once.
    """

    def __init__(self, v: Word, cw: ConstructionWord):
        super().__init__()
        self.symbols = v.symbols
        self.offsets = cw.block_offsets

    def __missing__(self, key: tuple[int, int]) -> int:
        i, j = key
        offsets = self.offsets[i]
        syms = self.symbols
        size = len(offsets)
        n = len(syms)
        end = j
        prev = -1
        while end < n:
            s = syms[end]
            if s >= size or offsets[s] <= prev:
                break
            prev = offsets[s]
            end += 1
        self[key] = end
        return end


def _table_of(v: Word, cw: ConstructionWord, reach: ReachTable | None) -> ReachTable:
    if reach is None:
        return ReachTable(v, cw)
    if (
        not isinstance(reach, ReachTable)
        or reach.symbols is not v.symbols
        or reach.offsets is not cw.block_offsets
    ):
        raise ContractError("reach must be a ReachTable of this pattern and word")
    return reach


def embedding_profile(
    v: Word, f: EmbeddingMap, cw: ConstructionWord, reach: ReachTable | None = None
) -> EmbeddingProfile:
    """Exact profile of one embedding; rejects maps that do not embed v.
    Embeddings of one pattern can share ``reach``, a ReachTable of v and
    cw, instead of each recomputing it."""
    validate_embedding(v, cw.word, f)
    reach = _table_of(v, cw, reach)
    B = cw.block_count
    L = cw.block_length
    pos = f.positions
    entry = tuple(bisect_left(pos, i * L) + 1 for i in range(B))
    rea = tuple(reach[i, e - 1] for i, e in enumerate(entry))
    return EmbeddingProfile(len(v), B, entry, rea, tuple(map(sub, rea, entry[1:])))


def check_profile_invariants(
    v: Word,
    profile: EmbeddingProfile,
    cw: ConstructionWord,
    maximality: bool = False,
    reach: ReachTable | None = None,
) -> list[dict]:
    """Re-derive the profile's promises from the definitions.

    Always checks: entry is monotone, reach >= entry-1, overlap >= -1,
    overlap[i] = reach[i] - entry[i+1], and each v<entry..reach> slice
    fits in its block (its offsets in the block strictly increase).
    With ``maximality`` also checks reach cannot be extended by one.
    Both fit checks read ``reach``, a ReachTable of v and cw (a fresh one
    when omitted).  Raises ContractError when the profile's block count
    or tuple lengths do not match ``cw``.
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
    reach = _table_of(v, cw, reach)
    n = len(v)
    for i in range(B):
        e, r = ent[i], rea[i]
        if r < e - 1:
            violations.append({"kind": "reach-floor", "block": i + 1})
        # the slice v[e-1 : r] fits block i when the table's fit from its
        # start runs to its stop; with maximality v[e-1 : r+1] must not
        start, stop, _ = slice(e - 1, r).indices(n)
        end = reach[i, start]
        if end < stop:
            violations.append({"kind": "block-fit", "block": i + 1})
        if maximality and r < m and end >= slice(e - 1, r + 1).indices(n)[1]:
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


def check_big_interval_containment(profile: EmbeddingProfile, s) -> list[dict]:
    """After an overlap in the top band of the profile's shape s, the
    next seven blocks' pattern intervals stay inside the big block's own
    interval."""
    s = _check_shape(s)
    ent, rea = profile.entry, profile.reach
    if len(s) >= min(len(ent), len(rea)):
        raise ContractError(f"a shape of {len(s)} entries does not fit this profile")
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


class _ShapeVerdict:
    """The claims on one shape alone, made once per distinct shape:
    the category and items of each ALL_SHAPE_CLAIMS checker that flags
    it, and the shape's decomposition."""

    __slots__ = ("shape", "claims", "decomposition")

    def __init__(self, s: tuple[int, ...]):
        self.shape = s
        claims = (
            (checker.__name__.removeprefix("check_").replace("_", "-"), checker(s))
            for checker in ALL_SHAPE_CLAIMS
        )
        self.claims = tuple((category, items) for category, items in claims if items)
        self.decomposition = decompose_shape(s)


class _SampledPattern:
    """One sampled pattern of the claim suite: its reach table, and
    what its per-pattern claims collect over its embeddings."""

    def __init__(self, v: Word, cw: ConstructionWord, add):
        self.v = v
        self.cw = cw
        self.alphabet = cw.alphabet
        self.reach = ReachTable(v, cw)
        self.add = add  # ShapeSuiteReport.add
        self.entries_seen: dict[tuple[int, ...], int] = {}
        self.next_entry_choices: dict[tuple[int, int, int], set[int]] = {}
        self.break_items: dict[tuple[int, int], list[dict]] = {}


def _tagged(items: list[dict], tag: dict) -> list[dict]:
    return [dict(item, **tag) for item in items]


def _profile_invariant(p: _SampledPattern, tag, profile, verdict) -> None:
    # reach maximality is spot-checked on each pattern's first embedding
    maximal = tag["embedding"] == 0
    items = check_profile_invariants(p.v, profile, p.cw, maximality=maximal, reach=p.reach)
    p.add("profile-invariant", _tagged(items, tag))


def _shape_claims(p: _SampledPattern, tag, profile, verdict) -> None:
    for category, items in verdict.claims:
        p.add(category, _tagged(items, tag))


def _big_interval_containment(p: _SampledPattern, tag, profile, verdict) -> None:
    if 8 in verdict.shape:  # the claim starts only at a top-band overlap
        items = check_big_interval_containment(profile, verdict.shape)
        p.add("big-interval-containment", _tagged(items, tag))


def _break_bound(p: _SampledPattern, tag, profile, verdict) -> None:
    # per-block slices of the pattern live inside single blocks, so the
    # prefix-break bound applies to each of them; a slice is checked
    # once per pattern, its items repeated per block
    v = p.v
    for i, key in enumerate(zip(profile.entry, profile.reach)):
        items = p.break_items.get(key)
        if items is None:
            piece = Word(v.symbols[key[0] - 1 : key[1]], v.alphabet_size)
            items = p.break_items[key] = check_break_bound(piece, p.cw.t, p.alphabet)
        if items:
            p.add("break-bound", [dict(item, **tag, block=i + 1) for item in items])


def _determination(p: _SampledPattern, tag, profile, verdict) -> None:
    # the full entry sequence must identify the embedding
    first = p.entries_seen.setdefault(profile.entry, tag["embedding"])
    if first != tag["embedding"]:
        p.add("determination", [{**tag, "duplicate_of": first, "entries": profile.entry}])


def _band_zero_pinch(p: _SampledPattern, tag, profile, verdict) -> None:
    # the zero band pinches the overlap to -1 or 0; the other bands
    # collect next-entry choices for the per-pattern band bound
    ent, ove = profile.entry, profile.overlap
    for i, x in enumerate(verdict.shape):
        if x:
            p.next_entry_choices.setdefault((i + 1, ent[i], x), set()).add(ent[i + 1])
        elif ove[i] not in (-1, 0):
            p.add("band-zero-pinch", [{**tag, "block": i + 1, "overlap": ove[i]}])


def _decomposition(p: _SampledPattern, tag, profile, verdict) -> None:
    dec = verdict.decomposition
    if not dec.ok:
        p.add("decomposition", [dict(dec.failure, **tag)])
    elif len(verdict.shape) - dec.tail_start + 1 > 8:
        p.add("decomposition", [{**tag, "tail": dec.tail_start}])


# the claim suite's per-embedding claims, in report order
_EMBEDDING_CLAIMS = (
    _profile_invariant,
    _shape_claims,
    _big_interval_containment,
    _break_bound,
    _determination,
    _band_zero_pinch,
    _decomposition,
)


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
    first embedding.  Each pattern's embeddings share one reach table,
    and the claims on a shape alone are made once per distinct shape,
    their items repeated for each embedding of that shape.
    Deterministic for a fixed seed."""
    cw = build_construction_word(t, blocks)
    rng = random.Random(seed)
    report = ShapeSuiteReport(t, blocks, seed)
    verdicts: dict[tuple[int, ...], _ShapeVerdict] = {}
    for sample_index in range(patterns):
        v = sample_pattern(rng, cw, rng.choice(_DENSITY_PALETTE))
        enum = enumerate_embeddings(v, cw.word, cap=embed_cap)
        report.patterns_checked += 1
        p = _SampledPattern(v, cw, report.add)
        for e_index, f in enumerate(enum):
            report.embeddings_checked += 1
            tag = {"sample": sample_index, "embedding": e_index}
            profile = embedding_profile(v, f, cw, reach=p.reach)
            s = shape_of(profile, t)
            verdict = verdicts.get(s)
            if verdict is None:
                verdict = verdicts[s] = _ShapeVerdict(s)
            for claim in _EMBEDDING_CLAIMS:
                claim(p, tag, profile, verdict)
        for (block, entry_value, x), nxt in p.next_entry_choices.items():
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
    report.distinct_shapes = len(verdicts)
    report.shapes = tuple(sorted(verdicts))
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
