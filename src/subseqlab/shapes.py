"""Per-block profiles of embeddings into block-concatenated words.

For an embedding of a pattern v into a word built from B consecutive
permutation blocks, given as its tuple of positions, record for each
block i:

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

``embedding_profile``, ``shape_of`` and ``check_profile_invariants``
check their arguments and then run one internal route per embedding:
entries by bisecting the positions at the block starts, reach read off
the table, bands by bisecting each overlap among the band thresholds,
and the per-block invariant loop.

The claim suite runs one loop per sampled pattern over its embeddings
and checks every claim inline.  Each pattern's first embedding goes
through the public entries, and its blocks are also scanned greedily,
so a wrong table cannot vouch for itself; every other embedding is
validated and then takes the internal route directly, and gets an
``EmbeddingProfile`` only when a top-band overlap needs the containment
check.  Two caches spare repeated work: the claims on a shape alone and
its decomposition are made once per distinct shape, and the break bound
of a block slice once per pattern and (entry, reach); their items are
repeated for each embedding.

Classifying each overlap into six bands (thresholds 1, 10t, 10t^2,
10t^3, 10t^4 for alphabet [t]^8, t >= 2) gives the embedding's *shape*.  The
checkers in this module test, on enumerated embeddings, the structural
facts that make shapes countable: monotonicity and range invariants of
the profile, forced calm spells after large overlaps, the bound on
how many next-entry values one band admits, the prefix-break-count
bound for block subsequences, and the greedy segment decomposition of
shapes; break counts read r off the alphabet size t^r.  Checkers
report violations instead of raising, so sweeps can aggregate.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from operator import sub

from .construction import (
    ConstructionWord,
    base_sign_vectors,
    build_construction_word,
    build_permutation,
)
from .counting import enumerate_embeddings, validate_embedding
from .errors import ContractError, require_int, require_word
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
        require_word(v=v)
        _require("cw", cw, ConstructionWord)
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


def _require(name: str, value, kind: type) -> None:
    if not isinstance(value, kind):
        raise ContractError(f"{name} must be a {kind.__name__}, got {value!r}")


def embedding_profile(
    v: Word, positions: tuple[int, ...], cw: ConstructionWord, reach: ReachTable | None = None
) -> EmbeddingProfile:
    """Exact profile of one embedding, given as its positions in cw's
    word; rejects positions that do not embed v.  Embeddings of one
    pattern can share ``reach``, a ReachTable of v and cw, instead of
    each recomputing it."""
    _require("cw", cw, ConstructionWord)
    validate_embedding(v, cw.word, positions)
    reach = _table_of(v, cw, reach)
    B, L = cw.block_count, cw.block_length
    return EmbeddingProfile(len(v), B, *_profile(positions, range(0, B * L, L), reach))


def _profile(
    positions: tuple[int, ...], block_starts: range, reach: ReachTable
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(entry, reach, overlap) of a valid embedding, block i starting at
    block_starts[i] in the word: the route of embedding_profile."""
    starts = tuple(map(bisect_left, repeat(positions, len(block_starts)), block_starts))
    rea = tuple(map(reach.__getitem__, zip(range(len(starts)), starts)))
    entry = tuple([j + 1 for j in starts])
    return entry, rea, tuple(map(sub, rea, entry[1:]))


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
    require_word(v=v)
    _require("profile", profile, EmbeddingProfile)
    _require("cw", cw, ConstructionWord)
    try:
        B = profile.block_count
        ent, rea, ove = profile.entry, profile.reach, profile.overlap
        if B != cw.block_count or (len(ent), len(rea), len(ove)) != (B, B, B - 1):
            raise ContractError(
                f"profile of {B} blocks with {len(ent)}/{len(rea)}/{len(ove)} "
                f"entry/reach/overlap values does not fit a {cw.block_count}-block word"
            )
        reach = _table_of(v, cw, reach)
        return _invariants(profile.pattern_length, ent, rea, ove, reach, maximality)
    except TypeError:
        raise ContractError(f"profile entries must be ints, got {profile!r}") from None


def _invariants(
    m: int,
    ent: tuple[int, ...],
    rea: tuple[int, ...],
    ove: tuple[int, ...],
    reach: ReachTable,
    maximality: bool,
) -> list[dict]:
    """The items of check_profile_invariants on a profile of pattern
    length m whose tuples fit the word: its route."""
    violations = []
    for i in range(len(ove)):
        if ent[i] > ent[i + 1]:
            violations.append({"kind": "entry-monotone", "block": i + 1})
        if ove[i] != rea[i] - ent[i + 1]:
            violations.append({"kind": "overlap-definition", "block": i + 1})
        if ove[i] < -1:
            violations.append({"kind": "overlap-floor", "block": i + 1})
    n = len(reach.symbols)
    for i in range(len(ent)):
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


def _band_thresholds(t: int) -> tuple[int, ...]:
    """Where the bands 1, 2, 3, 4 and 8 of alphabet [t]^8 start: 1, 10t,
    10t^2, 10t^3 and 10t^4, increasing for t >= 2 only."""
    require_int(t=t)
    if t < 2:
        raise ContractError(f"need t >= 2 for the overlap bands, got {t}")
    return (1, 10 * t, 10 * t**2, 10 * t**3, 10 * t**4)


def _bands(overlap, thresholds: tuple[int, ...]) -> tuple[int, ...]:
    """The band of each overlap: the route of classify_overlap and shape_of."""
    return tuple(map(SHAPE_CLASSES.__getitem__, map(bisect_right, repeat(thresholds), overlap)))


def classify_overlap(d: int, t: int) -> int:
    """The band of overlap d for alphabet [t]^8, t >= 2: 0 below 1, then
    1, 2, 3, 4 and 8 from 1, 10t, 10t^2, 10t^3 and 10t^4 on."""
    thresholds = _band_thresholds(t)
    try:
        return _bands((d,), thresholds)[0]
    except TypeError:
        raise ContractError(f"overlap must be an int, got {d!r}") from None


def shape_of(profile: EmbeddingProfile, t: int) -> tuple[int, ...]:
    _require("profile", profile, EmbeddingProfile)
    thresholds = _band_thresholds(t)
    try:
        return _bands(profile.overlap, thresholds)
    except TypeError:
        raise ContractError(f"overlap must be a tuple of ints, got {profile.overlap!r}") from None


def _check_shape(s) -> tuple[int, ...]:
    try:
        out = tuple(s)
    except TypeError:
        raise ContractError(f"a shape is a sequence of band values, got {s!r}") from None
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
    _require("profile", profile, EmbeddingProfile)
    s = _check_shape(s)
    try:
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
    except TypeError:
        raise ContractError(f"profile entries must be ints, got {profile!r}") from None


ALL_SHAPE_CLAIMS = (
    check_after_jump_decay,
    check_no_double_big,
    check_medium_then_calm,
    check_calm_by_period_end,
    check_single_medium_after_big,
)


# ---------------------------------------------------------------------------
# prefix-break counts


def break_counts(b: Word, t: int) -> list[int]:
    """The x-prefix break count of b for every x in 1..r, where b's
    alphabet is [t]^r: the number of adjacent pairs whose first x
    coordinates differ.  One pass: a pair that agrees once k base-t
    digits are dropped first differs at coordinate r + 1 - k."""
    require_word(b=b)
    require_int(t=t)
    r = 1
    while 2 <= t and t**r < b.alphabet_size:
        r += 1
    if t < 2 or t**r != b.alphabet_size:
        raise ContractError(
            f"need t >= 2 and an alphabet of size t^r, r >= 1; got t={t}, size {b.alphabet_size}"
        )
    first_diffs = [0] * (r + 2)  # index r + 1: an equal pair
    for a, c in zip(b.symbols, b.symbols[1:]):
        x = r + 1
        while a != c:
            a //= t
            c //= t
            x -= 1
        first_diffs[x] += 1
    return list(accumulate(first_diffs[1 : r + 1]))


def check_break_bound(b: Word, t: int) -> list[dict]:
    """For b a subsequence of a single signed-lex block of [t]^r, the
    number of x-prefix breaks can be at most t^x."""
    out = []
    for x, count in enumerate(break_counts(b, t), start=1):
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
    shapes: tuple = ()
    violations: dict[str, list] = field(default_factory=dict)

    def add(self, category: str, items: list) -> None:
        if items:
            self.violations.setdefault(category, []).extend(items)

    @property
    def distinct_shapes(self) -> int:
        return len(self.shapes)

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
    draw = rng.random
    kept = tuple([s for s in syms if draw() < density])
    if not kept:
        kept = (syms[rng.randrange(len(syms))],)
    return Word(kept, cw.word.alphabet_size)


_DENSITY_PALETTE = (0.003, 0.01, 0.03, 0.08, 0.2)


def _shape_verdict(s: tuple[int, ...]) -> tuple:
    """What the suite checks on one shape alone: the category and items
    of each ALL_SHAPE_CLAIMS checker that flags it; its decomposition if
    that fails or leaves a tail over eight entries, else None; the
    (index, band) of each nonzero entry; and the indices of the zeros."""
    claims = (
        (checker.__name__.removeprefix("check_").replace("_", "-"), checker(s))
        for checker in ALL_SHAPE_CLAIMS
    )
    dec = decompose_shape(s)
    return (
        tuple((category, items) for category, items in claims if items),
        dec if not dec.ok or len(s) - dec.tail_start + 1 > 8 else None,
        tuple((i, x) for i, x in enumerate(s) if x),
        tuple(i for i, x in enumerate(s) if not x),
    )


def _scan_reach(v: Word, profile: EmbeddingProfile, cw: ConstructionWord) -> list[dict]:
    """Block fit and reach maximality of a profile checked by a greedy
    scan of each block's symbols, a route that reads no ReachTable."""
    syms = v.symbols
    L = cw.block_length
    out = []
    for i, (e, r) in enumerate(zip(profile.entry, profile.reach)):
        block = iter(cw.word.symbols[i * L : (i + 1) * L])
        # each `in` consumes the block up to its match: a greedy fit
        if not all(s in block for s in syms[e - 1 : r]):
            out.append({"kind": "block-fit", "block": i + 1})
        elif r < len(syms) and syms[r] in block:
            out.append({"kind": "reach-maximality", "block": i + 1})
    return out


def run_claim_suite(
    t: int,
    blocks: int,
    patterns: int,
    seed: int,
    embed_cap: int = 150,
) -> ShapeSuiteReport:
    """Sample random patterns from a construction word, enumerate up to
    embed_cap embeddings each, and test every profile/shape claim on
    every embedding, in one loop per pattern over its embeddings.

    The first embedding of each pattern goes through the public
    ``embedding_profile``, ``shape_of`` and ``check_profile_invariants``;
    the others are checked by ``validate_embedding`` and then take the
    same internal route without the argument checks.  Each embedding's
    items are tagged with its sample and embedding index and reported in
    this order: profile invariants (reach maximality spot-checked on the
    pattern's first embedding, whose block fits are also scanned without
    the table), the claims on the shape alone, big-interval
    containment, the break bound per block, determination by the entry
    sequence, the band-zero pinch, and the decomposition.  After its
    embeddings a pattern adds the band next-entry counts.  Each
    pattern's embeddings share one reach table.  Two caches repeat items
    instead of recomputing them: the claims on a shape alone and its
    decomposition, once per distinct shape; and the break bound of a
    block slice, once per pattern and (entry, reach).  Deterministic for
    a fixed seed."""
    require_int(patterns=patterns, seed=seed)
    if patterns < 0:
        raise ContractError(f"patterns must be >= 0, got {patterns}")
    cw = build_construction_word(t, blocks)
    rng = random.Random(seed)
    report = ShapeSuiteReport(t, blocks, seed)
    add = report.add
    thresholds = _band_thresholds(t)
    B, L = cw.block_count, cw.block_length
    block_starts = range(0, B * L, L)
    verdicts: dict[tuple[int, ...], tuple] = {}
    for sample in range(patterns):
        v = sample_pattern(rng, cw, rng.choice(_DENSITY_PALETTE))
        enum = enumerate_embeddings(v, cw.word, cap=embed_cap)
        report.patterns_checked += 1
        report.embeddings_checked += len(enum)
        m = len(v)
        reach = ReachTable(v, cw)
        break_items: dict[tuple[int, int], list[dict]] = {}
        entries_seen: dict[tuple[int, ...], int] = {}
        next_entries: dict[tuple[int, int, int], set[int]] = {}
        for e, positions in enumerate(enum):
            tag = {"sample": sample, "embedding": e}
            if e == 0:
                # the public entries, with reach maximality spot-checked
                # and the blocks also scanned without the table, as the
                # table checks read what the reach came from
                profile = embedding_profile(v, positions, cw, reach=reach)
                ent, rea, ove = profile.entry, profile.reach, profile.overlap
                s = shape_of(profile, t)
                items = check_profile_invariants(v, profile, cw, maximality=True, reach=reach)
                items += _scan_reach(v, profile, cw)
            else:
                validate_embedding(v, cw.word, positions)
                ent, rea, ove = _profile(positions, block_starts, reach)
                s = _bands(ove, thresholds)
                items = _invariants(m, ent, rea, ove, reach, False)
            if s not in verdicts:
                verdicts[s] = _shape_verdict(s)
            claims, dec, bands, zeros = verdicts[s]
            if items:
                add("profile-invariant", [dict(item, **tag) for item in items])
            for category, items in claims:
                add(category, [dict(item, **tag) for item in items])
            if 8 in s:  # the containment claim starts only at a top-band overlap
                if e:
                    profile = EmbeddingProfile(m, B, ent, rea, ove)
                items = check_big_interval_containment(profile, s)
                add("big-interval-containment", [dict(item, **tag) for item in items])
            # per-block slices of the pattern live inside single blocks, so
            # the prefix-break bound applies to each of them
            for i, key in enumerate(zip(ent, rea)):
                items = break_items.get(key)
                if items is None:
                    piece = Word(v.symbols[key[0] - 1 : key[1]], v.alphabet_size)
                    items = break_items[key] = check_break_bound(piece, t)
                if items:
                    add("break-bound", [dict(item, **tag, block=i + 1) for item in items])
            # the full entry sequence must identify the embedding
            first = entries_seen.setdefault(ent, e)
            if first != e:
                add("determination", [{**tag, "duplicate_of": first, "entries": ent}])
            # the zero band pinches the overlap to -1 or 0; the other bands
            # collect next-entry choices for the per-pattern band bound
            for i in zeros:
                if ove[i] not in (-1, 0):
                    add("band-zero-pinch", [{**tag, "block": i + 1, "overlap": ove[i]}])
            for i, x in bands:
                next_entries.setdefault((i + 1, ent[i], x), set()).add(ent[i + 1])
            if dec is not None:
                if not dec.ok:
                    add("decomposition", [dict(dec.failure, **tag)])
                else:
                    add("decomposition", [{**tag, "tail": dec.tail_start}])
        for (block, entry, x), choices in next_entries.items():
            cap = 10 * t**x
            if len(choices) > cap:
                item = {"sample": sample, "block": block, "entry": entry, "band": x}
                add("band-next-entry-count", [{**item, "choices": len(choices), "cap": cap}])
    report.shapes = tuple(sorted(verdicts))
    return report


def run_break_bound_suite(t: int, samples: int, seed: int) -> ShapeSuiteReport:
    """Random subsequences of single signed-lex blocks against the
    prefix-break cap, all projection lengths."""
    require_int(samples=samples, seed=seed)
    if samples < 0:
        raise ContractError(f"samples must be >= 0, got {samples}")
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
            [dict(item, sample=n) for item in check_break_bound(b, t)],
        )
    return report
