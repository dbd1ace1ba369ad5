"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive and self-contained: counting by
enumerating position combinations, maximising by sweeping every
pattern or every position subset, orbits by applying every group
element.  None of it shares code with the package, so agreement is
evidence, not tautology.  The two exceptions drive package code
without its caches or plans, so they test the caching and ordering, not
the code they call: ``claim_suite`` runs the public shape checkers, and
``block_sweep_instances`` measures blocks with ``lcs2`` and ``lcs3``.
"""

import random
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, combinations, compress, permutations, product, repeat
from math import comb
from operator import ge, mul


def count_by_combinations(v_syms, w_syms):
    m = len(v_syms)
    return sum(
        1
        for pos in combinations(range(len(w_syms)), m)
        if all(w_syms[p] == v_syms[i] for i, p in enumerate(pos))
    )


def count_by_plain_dp(v_syms, w_syms):
    m = len(v_syms)
    c = [1] + [0] * m
    for s in w_syms:
        for j in range(m, 0, -1):
            if v_syms[j - 1] == s:
                c[j] += c[j - 1]
    return c[m]


def brute_most_common(w_syms, k):
    """(max count, witness) over every pattern length; witness is the
    lexicographically smallest maximiser under tuple comparison.

    Counts every pattern at once by spelling out each of the 2^n
    position subsets of w (the empty subset spells the empty pattern);
    a pattern over range(k) that no subset spells occurs 0 times and
    never beats the empty pattern's 1.
    """
    n = len(w_syms)
    counts = Counter(
        tuple(w_syms[i] for i in range(n) if mask >> i & 1) for mask in range(1 << n)
    )
    best = max(counts.values())
    return best, min(v for v, c in counts.items() if c == best)


def brute_most_common_of_length(w_syms, k, length):
    best, witness = -1, None
    for v in product(range(k), repeat=length):
        c = count_by_plain_dp(v, w_syms)
        if c > best:
            best, witness = c, v
    return best, witness


def brute_profile(w_syms, k):
    return [
        brute_most_common_of_length(w_syms, k, length)[0]
        for length in range(len(w_syms) + 1)
    ]


def brute_max_over_patterns(w_syms, k):
    """Plain M(w) without any witness bookkeeping (for speed).

    Grows patterns one symbol at a time and keeps only those that
    occur: no extension of a pattern that does not occur can occur.
    """
    best = 1
    level = [()]
    while level:
        grown = []
        for v in level:
            for s in range(k):
                u = (*v, s)
                c = count_by_plain_dp(u, w_syms)
                if c:
                    grown.append(u)
                    best = max(best, c)
        level = grown
    return best


# ---------------------------------------------------------------------------
# the recursive branch-and-bound that the package's explicit-stack kernel
# replaced: same bounds and dominance, every root symbol tried, the running
# maximum started at 1 or at the floor


def extend_counts(c, syms, base, symbol):
    """The prefix-count state after appending symbol to the pattern;
    c[d] refers to the boundary after syms[base + d - 1]."""
    out = [0] * len(c)
    acc = 0
    for d in range(1, len(c)):
        if syms[base + d - 1] == symbol:
            acc += c[d - 1]
        out[d] = acc
    return out


def dominated(stored, cand):
    """Whether some stored state is pointwise >= cand."""
    last = cand[-1]
    for s in stored:
        if s[-1] < last:
            continue
        if all(a >= b for a, b in zip(s, cand)):
            return True
    return False


def branch_and_bound(syms, k, start, capacities, abort_at=None, floor=None):
    """(value, witness, aborted) of the most frequent pattern in
    syms[start:], one recursion level per pattern symbol.  The witness
    is the DFS-first pattern of count value, the lex-min one, if value
    is above the start (the floor, or 1 without one), else (); None if
    the search aborted."""
    length = len(syms) - start
    caps = capacities[start:]
    best = 1 if floor is None else floor
    best_witness = ()
    by_depth = [[] for _ in range(length + 1)]
    prefix = []
    aborted = False

    def rec(c, depth):
        nonlocal best, best_witness, aborted
        for symbol in range(k):
            nc = extend_counts(c, syms, start, symbol)
            v = nc[-1]
            if v > best:
                best = v
                best_witness = (*prefix, symbol)
                if abort_at is not None and v >= abort_at:
                    aborted = True
                    return
            bound = sum((nc[d] - nc[d - 1]) * caps[d] for d in range(1, length + 1))
            if bound <= best:
                continue
            store = by_depth[depth + 1]
            if dominated(store, nc):
                continue
            if len(store) < 512:
                store.append(nc)
            prefix.append(symbol)
            rec(nc, depth + 1)
            prefix.pop()
            if aborted:
                return

    if length > 0:
        rec([1] * (length + 1), 0)
    if aborted:
        return best, None, True
    return best, best_witness, False


def suffix_capacities(syms, k):
    """capacities[j] = M(syms[j:]), right to left, each floored at the next."""
    capacities = [1] * (len(syms) + 1)
    for start in range(len(syms) - 1, 0, -1):
        capacities[start] = branch_and_bound(
            syms, k, start, capacities, floor=capacities[start + 1]
        )[0]
    return capacities


def search_most_common(syms, k):
    """The most-common search over the recursive kernel: (value, witness,
    False)."""
    if not syms:
        return 1, (), False
    return branch_and_bound(syms, k, 0, suffix_capacities(syms, k))


# ---------------------------------------------------------------------------
# the one-length search that the package's all-lengths kernel replaced


def fixed_length_search(syms, k, length):
    """(count, witness) of the most frequent length-length pattern by the
    one-length explicit-stack search the package's all-lengths kernel
    replaced: the binomial bound of the symbols still to place, and
    dominance with the final count compared first."""
    n = len(syms)
    if length == 0:
        return 1, ()
    if length > n:
        return 0, (0,) * length
    before = [[] for _ in range(k)]
    for b, s in enumerate(syms):
        before[s].append(b)
    rank = [[0, *accumulate(map(s.__eq__, syms))] for s in range(k)]
    tails = [[n - 1 - b for b in bs] for bs in before]  # symbols after each boundary
    best = 0
    best_path = [1] * length  # nxt at the best count, (0,) * length until one is found
    by_depth = [[] for _ in range(length)]
    # explicit-stack DFS (states[d] is set before it is read)
    states = [[1] * (n + 1)] * length
    nxt = [0] * length
    depth = 0
    while depth >= 0:
        s = nxt[depth]
        if s == k:
            depth -= 1
            continue
        nxt[depth] = s + 1
        c = states[depth]
        remaining = length - depth - 1
        if remaining == 0:
            v = sum(map(c.__getitem__, before[s]))
            if v > best:
                best = v
                best_path = nxt[:]
            continue
        vals = list(map(c.__getitem__, before[s]))
        # binomial capacity: a pattern of r symbols fits into a window of
        # length L at most C(L, r) ways; zero values are skipped, since
        # C(L, r) of a long window costs more than the rest of the step
        live = compress(tails[s], vals)
        if sum(map(mul, filter(None, vals), map(comb, live, repeat(remaining)))) <= best:
            continue
        nc = list(map([0, *accumulate(vals)].__getitem__, rank[s]))
        v = nc[-1]
        store = by_depth[depth]
        for t in store:
            if t[-1] >= v and all(map(ge, t, nc)):
                break
        else:
            if len(store) < 512:
                store.append(nc)
            depth += 1
            states[depth] = nc
            nxt[depth] = 0
    return best, tuple(t - 1 for t in best_path)


def orbit_of(syms, k):
    """All words reachable by relabelling symbols and/or reversing."""
    out = set()
    for perm in permutations(range(k)):
        fwd = tuple(perm[s] for s in syms)
        out.add(fwd)
        out.add(fwd[::-1])
    return out


def canonical_representatives(k, n):
    """Yield one word per relabel+reverse orbit, in lexicographic order.

    Words are produced in first-occurrence form (each new symbol is the
    smallest unused id) by recursion over positions, and kept only when
    not lexicographically beaten by the first-occurrence form of their
    reversal.
    """

    def form(syms):
        seen = {}
        return tuple(seen.setdefault(s, len(seen)) for s in syms)

    prefix = [0] * n

    def rec(i, used):
        if i == n:
            w = tuple(prefix)
            if form(w[::-1]) >= w:
                yield w
            return
        for s in range(min(used + 1, k)):
            prefix[i] = s
            yield from rec(i + 1, max(used, s + 1))

    yield from rec(0, 0)


def _capped(maps, cap):
    """(maps, truncated) as enumerate_embeddings reports them under cap."""
    if cap is not None and len(maps) > cap:
        return maps[:cap], True
    return maps, False


def embeddings_by_combinations(v_syms, w_syms, cap=None):
    """(maps, truncated) of the embeddings of v into w in lexicographic
    order: every position combination, which ``combinations`` yields in
    that order, kept when it spells v."""
    maps = [
        pos
        for pos in combinations(range(len(w_syms)), len(v_syms))
        if all(w_syms[p] == s for p, s in zip(pos, v_syms))
    ]
    return _capped(maps, cap)


def embeddings_by_scanning(v_syms, w_syms, cap=None):
    """(maps, truncated) of the embeddings of v into w in lexicographic
    order, for hosts too long for ``embeddings_by_combinations``: a
    depth-first walk that tries each index's positions one by one, up to
    the latest one from which the rest of v still fits, and stops one map
    past the cap."""
    m, n = len(v_syms), len(w_syms)
    if m == 0:
        return _capped([()], cap)
    latest = [n] * (m + 1)
    for i in range(m - 1, -1, -1):
        p = latest[i + 1] - 1
        while p >= 0 and w_syms[p] != v_syms[i]:
            p -= 1
        if p < 0:
            return [], False
        latest[i] = p
    maps = []
    # stack[i]: the next position to try for index i
    stack, cur = [0], []
    while stack and (cap is None or len(maps) <= cap):
        i = len(stack) - 1
        p = stack[i]
        while p <= latest[i] and w_syms[p] != v_syms[i]:
            p += 1
        if p > latest[i]:
            stack.pop()
            if cur:
                cur.pop()
            continue
        stack[i] = p + 1
        if i + 1 == m:
            maps.append((*cur, p))
        else:
            cur.append(p)
            stack.append(p + 1)
    return _capped(maps, cap)


def subsequence_by_two_pointer(v_syms, w_syms):
    i = 0
    for s in w_syms:
        if i < len(v_syms) and v_syms[i] == s:
            i += 1
    return i == len(v_syms)


def brute_lcs(all_syms):
    """(length, lex-min witness) common to every word, by enumerating
    every subsequence of the first word.  Exponential; keep |first| small."""
    base = all_syms[0]
    n = len(base)
    best_len, best = 0, ()
    for mask in range(1 << n):
        cand = tuple(base[i] for i in range(n) if mask >> i & 1)
        if len(cand) < best_len:
            continue
        if all(subsequence_by_two_pointer(cand, s) for s in all_syms[1:]):
            if len(cand) > best_len or (len(cand) == best_len and cand < best):
                best_len, best = len(cand), cand
    return best_len, best


def lis_by_patience(values):
    """Classic patience-sorting LIS length over distinct integers."""
    from bisect import bisect_left

    piles = []
    for v in values:
        t = bisect_left(piles, v)
        if t == len(piles):
            piles.append(v)
        else:
            piles[t] = v
    return len(piles)


def profile_by_definitions(v_syms, positions, w_syms, block_count, block_length):
    """(entries, reaches, overlaps) straight from the definitions.

    entry_i: first pattern index landing at or after block i's start
    (block_count-past-the-end convention when none does).  reach_i:
    largest j such that the pattern slice entry_i..j embeds in block i
    alone, found by testing every candidate.  overlap_i: reach_i minus
    entry_{i+1}.
    """
    m = len(v_syms)
    entries, reaches = [], []
    for i in range(1, block_count + 1):
        start = (i - 1) * block_length
        g = m + 1
        for j in range(1, m + 1):
            if positions[j - 1] >= start:
                g = j
                break
        block = w_syms[start : start + block_length]
        h = g - 1
        for cand in range(g - 1, m + 1):
            if subsequence_by_two_pointer(v_syms[g - 1 : cand], block):
                h = cand
        entries.append(g)
        reaches.append(h)
    overlaps = [reaches[i] - entries[i + 1] for i in range(block_count - 1)]
    return tuple(entries), tuple(reaches), tuple(overlaps)


def _block_fit_end(syms, j, offsets):
    """First index >= j at which syms[j:] stops fitting the block whose
    symbol -> offset map is ``offsets``: offsets must strictly increase,
    and a symbol outside the block ends the fit."""
    prev = -1
    while j < len(syms):
        s = syms[j]
        if s not in offsets or offsets[s] <= prev:
            break
        prev = offsets[s]
        j += 1
    return j


def block_offset_maps(w_syms, block_count, block_length):
    """Per block, its symbol -> offset map."""
    return [
        {s: k for k, s in enumerate(w_syms[i * block_length : (i + 1) * block_length])}
        for i in range(block_count)
    ]


def profile_one_embedding(v_syms, positions, offset_maps, block_length):
    """(entries, reaches, overlaps) of one embedding into the blocks
    with ``block_offset_maps`` offset_maps, each block's reach scanned
    afresh from its entry: the per-embedding profile route that the
    shared reach table replaced."""
    B = len(offset_maps)
    entry = tuple(bisect_left(positions, i * block_length) + 1 for i in range(B))
    reach = tuple(
        _block_fit_end(v_syms, entry[i] - 1, offsets) for i, offsets in enumerate(offset_maps)
    )
    overlap = tuple(reach[i] - entry[i + 1] for i in range(B - 1))
    return entry, reach, overlap


def profile_invariants_one_embedding(v_syms, profile, offset_maps, maximality=False):
    """Violations of one profile (an object with pattern_length,
    block_count, entry, reach, overlap), each block's slice copied and
    fitted afresh: the per-embedding invariant check that the shared
    reach table replaced.  Raises ValueError where the package raises
    ContractError: the profile's block count or tuple lengths do not
    match the word's."""
    B = profile.block_count
    m = profile.pattern_length
    ent, rea, ove = profile.entry, profile.reach, profile.overlap
    if B != len(offset_maps) or (len(ent), len(rea), len(ove)) != (B, B, B - 1):
        raise ValueError("profile does not fit the word")
    violations = []
    for i in range(B - 1):
        if ent[i] > ent[i + 1]:
            violations.append({"kind": "entry-monotone", "block": i + 1})
        if ove[i] != rea[i] - ent[i + 1]:
            violations.append({"kind": "overlap-definition", "block": i + 1})
        if ove[i] < -1:
            violations.append({"kind": "overlap-floor", "block": i + 1})
    for i, offsets in enumerate(offset_maps):
        if rea[i] < ent[i] - 1:
            violations.append({"kind": "reach-floor", "block": i + 1})
        lo, hi = ent[i] - 1, rea[i] - 1  # 0-based inclusive pattern slice
        piece = v_syms[lo : hi + 1]
        if _block_fit_end(piece, 0, offsets) < len(piece):
            violations.append({"kind": "block-fit", "block": i + 1})
        if maximality and rea[i] < m:
            extended = v_syms[lo : hi + 2]
            if _block_fit_end(extended, 0, offsets) == len(extended):
                violations.append({"kind": "reach-maximality", "block": i + 1})
    return violations


def claim_suite(shapes, t, blocks, patterns, seed, embed_cap=150):
    """What ``shapes.run_claim_suite`` reports, computed with no cache.

    The patterns are drawn as the suite draws them.  Every public
    checker of the ``shapes`` module (looked up at call time) runs
    afresh on every embedding, each profile with a fresh ReachTable, and
    the first embedding's blocks are fitted by two pointers.  Returns
    (embeddings checked, the sorted distinct shapes, the violations by
    category in report order)."""
    cw = shapes.build_construction_word(t, blocks)
    w, L = cw.word.symbols, cw.block_length
    rng = random.Random(seed)
    embeddings, seen, found = 0, set(), {}

    def add(category, items):
        if items:
            found.setdefault(category, []).extend(items)

    for sample in range(patterns):
        v = shapes.sample_pattern(rng, cw, rng.choice(shapes._DENSITY_PALETTE))
        syms = v.symbols
        entries_seen, next_entries = {}, {}
        for e, positions in enumerate(shapes.enumerate_embeddings(v, cw.word, cap=embed_cap).maps):
            embeddings += 1
            tag = {"sample": sample, "embedding": e}
            profile = shapes.embedding_profile(v, positions, cw)
            ent, rea, ove = profile.entry, profile.reach, profile.overlap
            s = shapes.shape_of(profile, t)
            seen.add(s)
            items = shapes.check_profile_invariants(v, profile, cw, maximality=e == 0)
            for i, (a, b) in enumerate(zip(ent, rea) if e == 0 else ()):
                block = w[i * L : (i + 1) * L]
                if not subsequence_by_two_pointer(syms[a - 1 : b], block):
                    items.append({"kind": "block-fit", "block": i + 1})
                elif b < len(syms) and subsequence_by_two_pointer(syms[a - 1 : b + 1], block):
                    items.append({"kind": "reach-maximality", "block": i + 1})
            add("profile-invariant", [{**item, **tag} for item in items])
            for checker in shapes.ALL_SHAPE_CLAIMS:
                category = checker.__name__.removeprefix("check_").replace("_", "-")
                add(category, [{**item, **tag} for item in checker(s)])
            items = shapes.check_big_interval_containment(profile, s)
            add("big-interval-containment", [{**item, **tag} for item in items])
            for i, (a, b) in enumerate(zip(ent, rea)):
                items = shapes.check_break_bound(shapes.Word(syms[a - 1 : b], v.alphabet_size), t)
                add("break-bound", [{**item, **tag, "block": i + 1} for item in items])
            first = entries_seen.setdefault(ent, e)
            if first != e:
                add("determination", [{**tag, "duplicate_of": first, "entries": ent}])
            for i, x in enumerate(s):
                if x:
                    next_entries.setdefault((i + 1, ent[i], x), set()).add(ent[i + 1])
                elif ove[i] not in (-1, 0):
                    add("band-zero-pinch", [{**tag, "block": i + 1, "overlap": ove[i]}])
            dec = shapes.decompose_shape(s)
            if dec.failure is not None:
                add("decomposition", [{**dec.failure, **tag}])
            elif len(s) - dec.tail_start + 1 > 8:
                add("decomposition", [{**tag, "tail": dec.tail_start}])
        for (block, entry, x), choices in next_entries.items():
            if len(choices) > 10 * t**x:
                item = {"sample": sample, "block": block, "entry": entry, "band": x}
                add("band-next-entry-count", [{**item, "choices": len(choices), "cap": 10 * t**x}])
    return embeddings, tuple(sorted(seen)), found


def coords(symbol, t, r):
    """The 1-based coordinates of a symbol of [t]^r, whose id is
    sum (c_i - 1) * t^(r-i): coordinate 1 most significant."""
    out = []
    for _ in range(r):
        symbol, digit = divmod(symbol, t)
        out.append(digit + 1)
    return tuple(reversed(out))


def signed_lex_by_sort(u, t):
    """Every symbol of [t]^len(u), sorted by its coordinate tuple times
    u coordinatewise: the signed-lex order of the sign vector u."""
    r = len(u)
    return tuple(sorted(range(t**r), key=lambda s: tuple(map(mul, u, coords(s, t, r)))))


def agreement_by_columns(vectors):
    """1-based coordinates where every sign vector of the family agrees,
    read off the family's columns: a column counts when all its entries
    equal its first."""
    return frozenset(
        j for j, col in enumerate(zip(*vectors), 1) if col.count(col[0]) == len(vectors)
    )


def block_sweep_instances(lcs, vectors, t):
    """Every (label, value) each sweep of the block verifier should see,
    by name, straight from the definitions: blocks listed by
    ``signed_lex_by_sort``, instances enumerated per sweep, each pair or
    triple measured by ``lcs.lcs2(...)[0]`` / ``lcs.lcs3(...)[0]`` on
    ``lcs.Word`` words, and a prefix-class bound the largest ``lcs2``
    over the two blocks' class words, grouped by coordinate prefix.
    Equal measurements are shared by member words, not by index."""
    r, size = 8, t**8
    perms = [lcs.Word(signed_lex_by_sort(u, t), size) for u in vectors]
    prefix = {s: coords(s, t, r) for s in range(size)}
    memo, bounds = {}, {}

    def measure(*ws):
        if ws not in memo:
            memo[ws] = (lcs.lcs2 if len(ws) == 2 else lcs.lcs3)(*ws)[0]
        return memo[ws]

    def at(i):  # 1-based periodic
        return perms[(i - 1) % 8]

    def distinct(indices):
        return len({perms[x] for x in indices}) == len(indices)

    def classes(perm, x):
        groups = {}
        for s in perm.symbols:
            groups.setdefault(prefix[s][:x], []).append(s)
        return [lcs.Word(tuple(groups[key]), size) for key in sorted(groups)]

    def class_bound(a, b, x):
        key = frozenset((a, b)), x
        if key not in bounds:
            bounds[key] = max(map(measure, classes(a, x), classes(b, x)))
        return bounds[key]

    def class_sweep(x, max_gap):
        return [
            ((i, j), class_bound(at(i), at(i + j), x))
            for i in range(1, 9)
            for j in range(1, max_gap + 1)
            if at(i) != at(i + j)
        ]

    return {
        "adjacent-lcs-le-t2": [(i, measure(at(i), at(i + 1))) for i in range(1, 9)],
        "distinct-pair-lcs-le-t4": [
            (ab, measure(*(perms[x] for x in ab)))
            for ab in combinations(range(8), 2)
            if distinct(ab)
        ],
        "consecutive-triple-lcs-eq-1": [
            (i, measure(at(i), at(i + 1), at(i + 2))) for i in range(1, 9)
        ],
        "adjacent-plus-outsider-lcs-le-t": [
            ((i, j), measure(at(i), at(i + 1), perms[j]))
            for i in range(1, 9)
            for j in range(8)
            if perms[j] != at(i) and perms[j] != at(i + 1)
        ],
        "distinct-triple-lcs-le-t2": [
            (abc, measure(*(perms[x] for x in abc)))
            for abc in combinations(range(8), 3)
            if distinct(abc)
        ],
        "fixed-prefix6-lcs-le-t": class_sweep(6, 3),
        "fixed-prefix5-lcs-le-t2": class_sweep(5, 7),
        "fixed-prefix3-lcs-le-t3": class_sweep(3, 7),
    }


def e_set(syms, t, r, x):
    """1-based positions z where the first-x-coordinate projection of a
    word over [t]^r changes between z and z+1."""
    return frozenset(
        z + 1
        for z in range(len(syms) - 1)
        if coords(syms[z], t, r)[:x] != coords(syms[z + 1], t, r)[:x]
    )


def quadratic_chain_lcs(all_syms):
    """(length, lex-min witness) common to permutation words, by comparing
    every pair of common-symbol points (positions in each word).

    Heights are longest chains starting at each point, filled right to
    left over the points sorted by first position; the witness takes, at
    each remaining height, the smallest symbol above the previous pick.
    """
    common = set(all_syms[0]).intersection(*all_syms[1:])
    if not common:
        return 0, ()
    positions = [{c: p for p, c in enumerate(s)} for s in all_syms]
    pts = sorted((tuple(pos[c] for pos in positions), c) for c in common)
    m = len(pts)
    heights = [1] * m
    for a in range(m - 1, -1, -1):
        pa = pts[a][0]
        for b in range(a + 1, m):
            pb = pts[b][0]
            if heights[b] >= heights[a] and all(x > y for x, y in zip(pb, pa)):
                heights[a] = heights[b] + 1
    best = max(heights)
    out = []
    cur = None
    for r in range(best, 0, -1):
        pick = None
        for (pa, sym), h in zip(pts, heights):
            if h != r or (cur is not None and not all(x > y for x, y in zip(pa, cur))):
                continue
            if pick is None or sym < pick[1]:
                pick = (pa, sym)
        cur = pick[0]
        out.append(pick[1])
    return best, tuple(out)


def lex_min_lcs_witness(seqs, suffix_lcs):
    """Lexicographically smallest longest common subsequence of ``seqs``
    given a full suffix-LCS table ``suffix_lcs(*starts)``: at each step,
    the smallest symbol whose earliest occurrences after the current
    starts still allow a full-length completion."""
    from bisect import bisect_left

    occs = []
    for s in seqs:
        occ = {}
        for p, c in enumerate(s):
            occ.setdefault(c, []).append(p)
        occs.append(occ)
    shared = sorted(set(occs[0]).intersection(*occs[1:]))
    out = []
    starts = [0] * len(seqs)
    r = suffix_lcs(*starts)
    while r > 0:
        for sym in shared:
            nxt = []
            for occ, start in zip(occs, starts):
                ps = occ[sym]
                t = bisect_left(ps, start)
                if t == len(ps):
                    break
                nxt.append(ps[t] + 1)
            else:
                if 1 + suffix_lcs(*nxt) == r:
                    out.append(sym)
                    starts = nxt
                    r -= 1
                    break
    return tuple(out)


def suffix_lcs_table(s1, s2):
    """The quadratic table L[i][j] = LCS(s1[i:], s2[j:]), one Python step
    per cell."""
    n1, n2 = len(s1), len(s2)
    L = [[0] * (n2 + 1) for _ in range(n1 + 1)]
    for i in range(n1 - 1, -1, -1):
        row, below = L[i], L[i + 1]
        c1 = s1[i]
        for j in range(n2 - 1, -1, -1):
            if c1 == s2[j]:
                row[j] = below[j + 1] + 1
            else:
                a, b = below[j], row[j + 1]
                row[j] = a if a >= b else b
    return L


def dp_lcs2(s1, s2):
    """(length, lex-min witness) of two words by the quadratic table of
    suffix LCS lengths."""
    L = suffix_lcs_table(s1, s2)
    witness = lex_min_lcs_witness((s1, s2), lambda i, j: L[i][j])
    return L[0][0], witness


def dp_lcs3(s1, s2, s3):
    """(length, lex-min witness) of three words by the cubic table of
    suffix LCS lengths, one Python step per cell."""
    n1, n2, n3 = len(s1), len(s2), len(s3)
    d2, d3 = n2 + 1, n3 + 1
    L = [0] * ((n1 + 1) * d2 * d3)
    for i in range(n1 - 1, -1, -1):
        c1 = s1[i]
        for j in range(n2 - 1, -1, -1):
            match2 = c1 == s2[j]
            base = (i * d2 + j) * d3
            base_i = ((i + 1) * d2 + j) * d3
            base_j = (i * d2 + j + 1) * d3
            base_ij = ((i + 1) * d2 + j + 1) * d3
            for l in range(n3 - 1, -1, -1):
                best = L[base_i + l]
                b = L[base_j + l]
                if b > best:
                    best = b
                b = L[base + l + 1]
                if b > best:
                    best = b
                if match2 and c1 == s3[l]:
                    b = 1 + L[base_ij + l + 1]
                    if b > best:
                        best = b
                L[base + l] = best
    witness = lex_min_lcs_witness((s1, s2, s3), lambda i, j, l: L[(i * d2 + j) * d3 + l])
    return L[0], witness


def bit_lcs_length(a, b):
    """LCS length by the bit-parallel row recurrence (Allison-Dix, Hyyro):
    bit i of V stands for a[i], b is read left to right, and the length
    is the number of zero bits left in the low |a| bits."""
    match = {}
    for i, s in enumerate(a):
        match[s] = match.get(s, 0) | (1 << i)
    full = v = (1 << len(a)) - 1
    for s in b:
        u = v & match.get(s, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - bin(v).count("1")
