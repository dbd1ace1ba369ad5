"""The three benchmark workloads: inputs from a seed, requests, checks.

A workload pass is a list of requests built from the seed and the pass
index (that is the set-up) and run, in order, by one closed-loop client:
each call starts only after the previous one returned.  Every pass runs
in a fresh process, so nothing one pass computed can be reused by the
next, and query-mix passes get fresh inputs each time.  Every request
calls the public API of ``subseqlab`` through its module attribute at
call time (for example ``counting.count_occurrences``), so the tracer's
wrappers see the calls.  Checks run outside the timed region and use
references written here, not the library, wherever a cheap one exists.

Why these workloads (also in README.md):

* ``extremal-table`` -- exhaustive extremal tables.  Almost all time is
  the early-abort branch-and-bound over orbit representatives; no LCS,
  construction or shape code runs, so it is the control for LCS work.
* ``query-mix`` -- a seeded stream of small independent requests over
  ``counting``, ``lcs`` and ``certify``: full witness searches, DP LCS
  routes and long shared hosts, i.e. the same layers used differently.
* ``block-verify`` -- the t=2 block-word property battery.  Time goes
  to permutation LCS routes, construction, shapes and embedding
  enumeration; almost no branch-and-bound, so it is the control for
  search work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# Values recorded from exhaustive runs of the package (registry off).
EXTREMAL_EXPECTED = {
    2: (1, 1, 2, 2, 3, 5, 6, 9, 16, 22, 33, 52, 72, 108),
    3: (1, 1, 1, 2, 2, 2, 3, 5),
    4: (1, 1, 1, 1, 2, 2),
}
# run_claim_suite(2, 12, 20, 7) and certify_word(16-block t=2 word, 1024)
CLAIM_SUITE = dict(t=2, blocks=12, patterns=20, seed=7)
CLAIM_EXPECTED = dict(patterns_checked=20, embeddings_checked=1408, distinct_shapes=32)
BLOCK_CERT_EXPECTED = dict(claimed=83521, verified=239337728)
BREAK_SAMPLES = 400

QUERY_REQUESTS = 1200
# share of the query stream per request kind (sums to 1)
QUERY_MIX = {
    "count_occurrences": 0.34,
    "max_occurrences": 0.08,
    "occurrence_profile": 0.08,
    "lcs2_dp": 0.13,
    "lcs2_perm": 0.13,
    "lcs3": 0.10,
    "certify_word": 0.14,
}
HOST_POOL = 6


@dataclass
class Request:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]


# ---------------------------------------------------------------------------
# references, independent of the package


def plain_count(v, w) -> int:
    """Occurrences of v in w as a subsequence: the textbook prefix DP,
    visiting for each letter of w only the pattern positions it matches."""
    c = [1] + [0] * len(v)
    positions: dict[int, list[int]] = {}
    for j in range(len(v), 0, -1):
        positions.setdefault(v[j - 1], []).append(j)
    for s in w:
        for j in positions.get(s, ()):
            c[j] += c[j - 1]
    return c[-1]


def is_subseq(v, w) -> bool:
    it = iter(w)
    return all(s in it for s in v)


def bit_lcs_length(a, b) -> int:
    """LCS length of two sequences by the bit-parallel recurrence
    V <- (V + U) | (V - U), U = V & match(c) (Hyyro 2004); the LCS is
    the number of zero bits left in the low |a| bits of V."""
    match: dict[int, int] = {}
    for i, s in enumerate(a):
        match[s] = match.get(s, 0) | (1 << i)
    full = (1 << len(a)) - 1
    v = full
    for s in b:
        u = v & match.get(s, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - bin(v).count("1")


def plain_lcs3_length(a, b, c) -> int:
    """LCS length of three sequences by the textbook cubic DP."""
    nb, nc = len(b), len(c)
    prev = [[0] * (nc + 1) for _ in range(nb + 1)]
    for x in a:
        cur = [[0] * (nc + 1) for _ in range(nb + 1)]
        for j in range(1, nb + 1):
            y = b[j - 1]
            row, up, back = cur[j], cur[j - 1], prev[j]
            for l in range(1, nc + 1):
                if x == y == c[l - 1]:
                    row[l] = prev[j - 1][l - 1] + 1
                else:
                    row[l] = max(back[l], up[l], row[l - 1])
        prev = cur
    return prev[nb][nc]


def perm_lcs_length(a, b) -> int:
    """LCS of two permutations of one set = longest increasing run of
    b-positions read in a-order (patience sorting)."""
    from bisect import bisect_left

    pos = {s: i for i, s in enumerate(b)}
    tails: list[int] = []
    for s in a:
        p = pos[s]
        i = bisect_left(tails, p)
        if i == len(tails):
            tails.append(p)
        else:
            tails[i] = p
    return len(tails)


# ---------------------------------------------------------------------------
# extremal-table


def extremal_table_requests(rng: random.Random) -> list[Request]:
    from subseqlab import counting, extremal

    def check(k, n_max):
        def ok(records) -> bool:
            values = tuple(r.value for r in records)
            if values != EXTREMAL_EXPECTED[k][:n_max]:
                return False
            for n, r in enumerate(records, start=1):
                w = r.minimizer
                if r.method != "exhaustive" or len(w) != n or w.alphabet_size != k:
                    return False
                if counting.max_occurrences(w)[0] != r.value:
                    return False
            return True

        return ok

    # the search space is fixed by (k, n); the seed only orders the tables
    tables = [(2, 14), (3, 8), (4, 6)]
    rng.shuffle(tables)
    return [
        Request(
            "extremal_table",
            lambda k=k, n=n: extremal.extremal_table(k, n, use_registry=False),
            check(k, n),
        )
        for k, n in tables
    ]


# ---------------------------------------------------------------------------
# block-verify


def block_verify_requests(rng: random.Random) -> list[Request]:
    from subseqlab import certify, construction, shapes

    base = construction.base_sign_vectors()
    families = [(True, base)] + [(False, fam) for _, fam in construction.single_sign_mutations(base)]
    break_seed = rng.randrange(2**31)
    built: list = []  # the certify request reuses this pass's construction word

    def build():
        built[:] = [construction.build_construction_word(2, 16)]
        return built[0]

    def build_ok(cw) -> bool:
        syms = cw.word.symbols
        blocks = [syms[i : i + 256] for i in range(0, len(syms), 256)]
        return (
            cw.block_count == 16
            and len(blocks) == 16
            and all(sorted(b) == list(range(256)) for b in blocks)
            and all(blocks[i] == blocks[i + 8] for i in range(8))
            and len(set(blocks[:8])) == 8
        )

    def perm_ok(report) -> bool:
        return report.ok and all(r.checked for r in report.results)

    def claim_ok(report) -> bool:
        return report.ok and all(getattr(report, k) == v for k, v in CLAIM_EXPECTED.items())

    def cert_ok(cert) -> bool:
        return cert.ok and all(getattr(cert, k) == v for k, v in BLOCK_CERT_EXPECTED.items())

    requests = [
        # the base family passes every property; each single-sign mutation breaks one
        Request(
            "verify_sign_properties",
            lambda fam=fam: construction.verify_sign_properties(fam),
            lambda report, want=is_base: report.ok == want,
        )
        for is_base, fam in families
    ]
    requests += [
        Request(
            "verify_permutation_properties",
            lambda: construction.verify_permutation_properties(2),
            perm_ok,
        ),
        Request(
            "run_claim_suite",
            lambda: shapes.run_claim_suite(
                CLAIM_SUITE["t"], CLAIM_SUITE["blocks"], CLAIM_SUITE["patterns"], CLAIM_SUITE["seed"]
            ),
            claim_ok,
        ),
        Request(
            "run_break_bound_suite",
            lambda: shapes.run_break_bound_suite(2, BREAK_SAMPLES, break_seed),
            lambda report: report.ok and report.patterns_checked == BREAK_SAMPLES,
        ),
        Request(
            "certify_block_word",
            lambda: certify.certify_word(built[0].word, 1024),
            cert_ok,
        ),
    ]
    # seeded order, so the many short sign checks are spread over the pass
    # instead of sampling one moment of it; the word is built first
    rng.shuffle(requests)
    return [Request("build_construction_word", build, build_ok)] + requests


# ---------------------------------------------------------------------------
# query-mix


def _spread(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """``count`` sizes covering lo..hi evenly, in seeded order.

    Stratified rather than independent draws, so each stream has the
    same size profile and only word contents differ between seeds.
    """
    sizes = [lo + (i * (hi - lo + 1)) // count for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def query_mix_requests(rng: random.Random, total: int = QUERY_REQUESTS) -> list[Request]:
    from subseqlab import certify, counting, lcs
    from subseqlab.words import Word

    def rand_word(k: int, n: int) -> Word:
        return Word(tuple(rng.randrange(k) for _ in range(n)), k)

    def rand_perm(n: int) -> Word:
        syms = list(range(n))
        rng.shuffle(syms)
        return Word(tuple(syms), n)

    counts = {kind: round(share * total) for kind, share in QUERY_MIX.items()}
    counts["count_occurrences"] += total - sum(counts.values())
    hosts = [rand_word((2, 4)[i % 2], n) for i, n in enumerate(_spread(rng, HOST_POOL, 500, 3000))]
    requests: list[Request] = []

    for n in _spread(rng, counts["count_occurrences"], 3, 12):
        host = rng.choice(hosts)
        v = rand_word(host.alphabet_size, n)
        requests.append(
            Request(
                "count_occurrences",
                lambda v=v, host=host: counting.count_occurrences(v, host),
                lambda got, v=v, host=host: got == plain_count(v.symbols, host.symbols),
            )
        )

    def most_common_ok(w):
        top_letter = max(w.symbols.count(s) for s in set(w.symbols))

        def ok(got) -> bool:
            value, witness = got
            return value >= top_letter and plain_count(witness.symbols, w.symbols) == value

        return ok

    for i, n in enumerate(_spread(rng, counts["max_occurrences"], 12, 26)):
        w = rand_word(2 + i % 2, n)
        requests.append(
            Request("max_occurrences", lambda w=w: counting.max_occurrences(w), most_common_ok(w))
        )

    def profile_ok(w):
        def ok(got) -> bool:
            return len(got) == len(w) + 1 and all(
                len(witness) == length and plain_count(witness.symbols, w.symbols) == value
                for length, (value, witness) in enumerate(got)
            )

        return ok

    for n in _spread(rng, counts["occurrence_profile"], 8, 15):
        w = rand_word(2, n)
        requests.append(
            Request("occurrence_profile", lambda w=w: counting.occurrence_profile(w), profile_ok(w))
        )

    def lcs_ok(ws, reference):
        def ok(got) -> bool:
            length, witness = got
            return (
                len(witness) == length
                and all(is_subseq(witness.symbols, w.symbols) for w in ws)
                and length == reference(*(w.symbols for w in ws))
            )

        return ok

    for i, n in enumerate(_spread(rng, counts["lcs2_dp"], 40, 150)):
        k = (2, 4, 8)[i % 3]
        a, b = rand_word(k, n), rand_word(k, rng.randint(40, 150))
        requests.append(
            Request("lcs2_dp", lambda a=a, b=b: lcs.lcs2(a, b), lcs_ok((a, b), bit_lcs_length))
        )
    for n in _spread(rng, counts["lcs2_perm"], 50, 400):
        a, b = rand_perm(n), rand_perm(n)
        requests.append(
            Request("lcs2_perm", lambda a=a, b=b: lcs.lcs2(a, b), lcs_ok((a, b), perm_lcs_length))
        )
    for i, n in enumerate(_spread(rng, counts["lcs3"], 10, 30)):
        k = (2, 3, 4)[i % 3]
        ws = (rand_word(k, n), rand_word(k, rng.randint(10, 30)), rand_word(k, rng.randint(10, 30)))
        requests.append(
            Request("lcs3", lambda ws=ws: lcs.lcs3(*ws), lcs_ok(ws, plain_lcs3_length))
        )
    for i, n in enumerate(_spread(rng, counts["certify_word"], 1, 400)):
        w = rand_word((4, 6)[i % 2], n)
        chunk = (16, 32, 64)[i % 3]
        requests.append(
            Request(
                "certify_word",
                lambda w=w, chunk=chunk: certify.certify_word(w, chunk),
                lambda cert, w=w: cert.ok
                and plain_count(cert.witness.symbols, w.symbols) == cert.verified,
            )
        )

    rng.shuffle(requests)
    return requests


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    """The generator for one pass; string seeds hash the same in every process."""
    return random.Random(f"{workload}/{seed}/{index}")


WORKLOADS = {
    "extremal-table": extremal_table_requests,
    "query-mix": query_mix_requests,
    "block-verify": block_verify_requests,
}
