"""Command-line frontend: one ``subseqlab`` command per capability.

Artifacts are deterministic for a fixed (flags, seed): no timestamps,
dict keys in fixed order, sets sorted before emission.  Wall time goes
to stderr only, so repeated runs produce byte-identical files.  Exit
status: 0 success, 1 a checked property failed on some instance, 2
usage error (including budget refusals).

Count-like results are emitted as decimal strings in JSON — they grow
past every float; structural numbers (sizes, indices, seeds) stay
plain integers.

Each command imports the engines it runs inside its handler, so
``subseqlab count`` loads no LCS, construction, shape or certificate
code; ``verify-all`` runs, and so loads, all of them.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from itertools import combinations, permutations, product

from . import __version__
from .errors import BudgetError, ContractError
from .words import Word, from_ids, load_words, to_text, word

SCHEMA_VERSION = 1
EXIT_OK, EXIT_VIOLATION, EXIT_USAGE = 0, 1, 2


@dataclass
class RunConfig:
    budgets: dict
    seed: int | None
    out: str | None
    format: str

    def __post_init__(self) -> None:
        for name, value in self.budgets.items():
            if isinstance(value, int) and value <= 0:
                raise ContractError(f"budget {name} must be positive, got {value}")


def _metadata(cfg: RunConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "seed": cfg.seed,
        "budgets": cfg.budgets,
    }


def _write(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(cfg: RunConfig, payload: dict) -> None:
    _write(cfg, json.dumps(payload, indent=2) + "\n")


def _csv_text(header: tuple[str, ...], rows: list[dict]) -> str:
    """The header's fields of each row as CSV.  A witness over an
    alphabet above 26 holds commas, so fields are quoted where needed;
    None is an empty field."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([r[key] for key in header] for r in rows)
    return buf.getvalue()


def _shared_alphabet(texts: list[str], k: int | None) -> list[Word]:
    """Parse words onto one alphabet: the declared k, or the smallest
    alphabet every word fits in."""
    drafts = [word(t, alphabet_size=k) for t in texts]
    if k is None:
        k = max(d.alphabet_size for d in drafts)
        drafts = [Word(d.symbols, k) for d in drafts]
    return drafts


# ---------------------------------------------------------------------------
# subcommands


def _cmd_count(args) -> int:
    from .counting import count_occurrences

    cfg = RunConfig({}, None, args.out, args.format)
    v, w = _shared_alphabet([args.v, args.w], args.k)
    value = count_occurrences(v, w)
    if cfg.format == "json":
        _write_json(cfg, {"count": str(value), "meta": _metadata(cfg)})
    else:
        _write(cfg, f"{value}\n")
    return EXIT_OK


def _cmd_most_common(args) -> int:
    from .counting import max_occurrences, max_occurrences_of_length

    cfg = RunConfig({}, None, args.out, args.format)
    (w,) = _shared_alphabet([args.w], args.k)
    if args.length is None:
        value, witness = max_occurrences(w)
    else:
        value, witness = max_occurrences_of_length(w, args.length)
    payload = {
        "value": str(value),
        "witness": to_text(witness),
        "length": args.length,
        "meta": _metadata(cfg),
    }
    if cfg.format == "text":
        _write(cfg, f"{value} {to_text(witness)}\n")
    else:
        _write_json(cfg, payload)
    return EXIT_OK


def _cmd_profile(args) -> int:
    from .counting import occurrence_profile

    cfg = RunConfig({}, None, args.out, args.format)
    (w,) = _shared_alphabet([args.w], args.k)
    rows = [
        {"length": length, "value": str(value), "witness": to_text(witness)}
        for length, (value, witness) in enumerate(occurrence_profile(w))
    ]
    if cfg.format == "csv":
        _write(cfg, _csv_text(("length", "value", "witness"), rows))
    else:
        _write_json(cfg, {"word": to_text(w), "rows": rows, "meta": _metadata(cfg)})
    return EXIT_OK


def _cmd_table(args) -> int:
    from .extremal import extremal_table

    cfg = RunConfig({"n_max": args.n_max}, None, args.out, args.format)
    records = extremal_table(args.k, args.n_max)
    rows = [
        {
            "n": r.n,
            "value": str(r.value),
            "witness": to_text(r.minimizer) if r.minimizer else None,
            "method": r.method,
        }
        for r in records
    ]
    csv_text = _csv_text(("n", "value", "witness", "method"), rows)
    if cfg.format == "csv":
        _write(cfg, csv_text)
    else:
        _write_json(cfg, {"k": args.k, "rows": rows, "meta": _metadata(cfg)})
        if cfg.out:  # mirror the table for spreadsheet use
            root, _ = os.path.splitext(cfg.out)
            with open(root + ".csv", "w") as fh:
                fh.write(csv_text)
    return EXIT_OK


def _cmd_mu(args) -> int:
    from .extremal import extremal_value, mu_window

    cfg = RunConfig({"places": args.places}, None, args.out, args.format)
    record = extremal_value(args.k, args.n)
    window = mu_window(record, places=args.places)
    payload = {
        "k": args.k,
        "n": args.n,
        "table_value": str(record.value),
        "lower": {
            "base": str(window.lower[0]),
            "root": window.lower[1],
            "decimal": window.lower_decimal,
        },
        "upper": {
            "base": str(window.upper[0]),
            "root": window.upper[1],
            "decimal": window.upper_decimal,
        },
        "places": window.places,
        "meta": _metadata(cfg),
    }
    _write_json(cfg, payload)
    return EXIT_OK


def _cmd_lcs(args) -> int:
    from .lcs import is_permutation_word, lcs2, lcs3, multi_lcs, permutation_chain_lcs

    cfg = RunConfig({}, None, args.out, args.format)
    words = load_words(args.inputs)
    if not words:
        raise ContractError(f"{args.inputs}: no words to compare")
    pairwise = [[None] * len(words) for _ in words]
    for i, a in enumerate(words):
        pairwise[i][i] = str(len(a))
        for j in range(i + 1, len(words)):
            length, wit = lcs2(a, words[j])
            pairwise[i][j] = pairwise[j][i] = str(length)
    witness = None
    if len(words) == 1:
        overall = len(words[0])
        witness = to_text(words[0])
    elif len(words) == 2:  # the pairwise loop's only pair
        overall = length
        witness = to_text(wit)
    elif len(words) == 3:
        overall, wit = lcs3(words[0], words[1], words[2])
        witness = to_text(wit)
    elif all(is_permutation_word(w) for w in words):
        overall, _ = permutation_chain_lcs(words)
    else:
        overall = multi_lcs(words)
    payload = {
        "words": len(words),
        "lengths": str(overall),
        "pairwise": pairwise,
        "witness": witness,
        "meta": _metadata(cfg),
    }
    _write_json(cfg, payload)
    return EXIT_OK


def _cmd_construct(args) -> int:
    from .construction import build_construction_word

    cfg = RunConfig({"blocks": args.blocks}, None, args.out, args.format)
    cw = build_construction_word(args.t, args.blocks)
    content = f"alphabet k={cw.word.alphabet_size}\n{to_text(cw.word)}\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(content)
        summary = {
            "t": cw.t,
            "blocks": cw.block_count,
            "block_length": cw.block_length,
            "length": len(cw.word),
            "alphabet": cw.word.alphabet_size,
            "path": args.out,
            "meta": _metadata(cfg),
        }
        sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    else:
        sys.stdout.write(content)
    return EXIT_OK


def _intermediate_sweep(t: int, max_r: int) -> dict:
    """Exhaustive product-of-common-prefix check over every nonempty
    family of sign vectors of length r <= max_r."""
    from .construction import signs_to_text, verify_lemma_intermediate

    checked, failures = 0, []
    for r in range(1, max_r + 1):
        vectors = list(product((1, -1), repeat=r))
        for size in range(1, len(vectors) + 1):
            for family in combinations(vectors, size):
                report = verify_lemma_intermediate(r, t, list(family))
                checked += 1
                if not report.ok:
                    failures.append(
                        {"r": r, "family": [signs_to_text(u) for u in family]}
                    )
    return {
        "name": f"common-subsequence-family-exhaustive-r{max_r}-t{t}",
        "ok": not failures,
        "checked": checked,
        "failures": failures[:5],
    }


def _cmd_verify_construction(args) -> int:
    from .construction import base_sign_vectors, verify_permutation_properties, verify_sign_properties

    cfg = RunConfig({"t": args.t}, None, args.out, args.format)
    if args.level == "lemma":
        if args.t > 4:
            raise ContractError("lemma sweep is budgeted to t <= 4")
        checks = [_intermediate_sweep(args.t, max_r=2)]
    else:
        if args.level == "signs":
            report = verify_sign_properties(base_sign_vectors())
        else:  # permutations
            report = verify_permutation_properties(args.t)
        checks = [
            {
                "name": res.name,
                "ok": res.ok,
                "checked": res.checked,
                "worst": res.worst,
                "note": res.note,
            }
            for res in report.results
        ]
    ok = all(c["ok"] or c.get("checked") == 0 for c in checks)
    _write_json(
        cfg,
        {"level": args.level, "t": args.t, "ok": ok, "checks": checks, "meta": _metadata(cfg)},
    )
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_shape(args) -> int:
    from .shapes import run_claim_suite

    cfg = RunConfig(
        {"samples": args.samples, "embed_cap": args.embed_cap}, args.seed, args.out, args.format
    )
    report = run_claim_suite(
        args.t, args.blocks, args.samples, args.seed, embed_cap=args.embed_cap
    )
    payload = {
        "t": report.t,
        "blocks": report.block_count,
        "patterns_checked": report.patterns_checked,
        "embeddings_checked": report.embeddings_checked,
        "distinct_shapes": report.distinct_shapes,
        "ok": report.ok,
        "violations": {
            name: len(items) for name, items in sorted(report.violations.items())
        },
        "meta": _metadata(cfg),
    }
    _write_json(cfg, payload)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_certify(args) -> int:
    from .certify import certify_word

    cfg = RunConfig({"chunk": args.chunk}, None, args.out, args.format)
    words = load_words(args.input)
    if len(words) != 1:
        raise ContractError(f"{args.input}: expected exactly one word, found {len(words)}")
    cert = certify_word(words[0], args.chunk)
    payload = {
        "witness": to_text(cert.witness),
        "claimed": str(cert.claimed),
        "verified": str(cert.verified),
        "steps": [
            {"rule": s.rule, "refs": list(s.refs), "blocks": list(s.blocks)}
            for s in cert.steps
        ],
        "info": {key: _jsonable(value) for key, value in sorted(cert.info.items())},
        "ok": cert.ok,
        "meta": _metadata(cfg),
    }
    _write_json(cfg, payload)
    return EXIT_OK if cert.ok else EXIT_VIOLATION


def _jsonable(value):
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(x) for x in value]
    return value


# ---------------------------------------------------------------------------
# verify-all


def _va_intro_count() -> tuple[bool, str]:
    from .counting import count_occurrences

    got = count_occurrences(word("abra"), word("abracadabra"))
    return got == 9, f"count=9, got {got}"


def _va_dp_vs_enumeration(rng: random.Random, trials: int) -> tuple[bool, str]:
    from .counting import count_occurrences, enumerate_embeddings

    for _ in range(trials):
        k = rng.randrange(1, 4)
        w = from_ids((rng.randrange(k) for _ in range(rng.randrange(0, 9))), alphabet_size=k)
        v = from_ids((rng.randrange(k) for _ in range(rng.randrange(0, 5))), alphabet_size=k)
        if count_occurrences(v, w) != len(enumerate_embeddings(v, w).maps):
            return False, f"mismatch on v={to_text(v)} w={to_text(w)}"
    return True, f"{trials} random pairs"


def _va_extremal_consistency(n_max: int) -> tuple[bool, str]:
    from .extremal import best_window, cross_compare, extremal_table

    records = [r for r in extremal_table(2, n_max) if r.n >= 3]
    for a in records:
        for b in records:
            if cross_compare(a.value, a.n, b.n * b.value, b.n) > 0:
                return False, f"lower({a.n}) > upper({b.n})"
    window = best_window(records)
    base_l, root_l = window.lower
    if base_l * 10 ** (4 * root_l) > 15547**root_l:
        return False, "window lower exceeds the proven upper bound"
    base_u, root_u = window.upper
    if base_u * 2**root_u < 3**root_u:
        return False, "window upper below the proven lower bound"
    return True, f"n <= {n_max}, window [{window.lower_decimal}, {window.upper_decimal}]"


def _va_submult_instance() -> tuple[bool, str]:
    from .extremal import check_submultiplicativity

    report = check_submultiplicativity(2, 2, 3)
    return report.holds, f"{report.lhs} <= {report.rhs}"


def _va_signs() -> tuple[bool, str]:
    from .construction import base_sign_vectors, verify_sign_properties

    report = verify_sign_properties(base_sign_vectors())
    return report.ok, "8 base vectors, 8 properties"


def _va_sign_mutations() -> tuple[bool, str]:
    from .construction import base_sign_vectors, single_sign_mutations, verify_sign_properties

    unbroken = [
        f"v{vi}c{ci}"
        for (vi, ci), family in single_sign_mutations(base_sign_vectors())
        if verify_sign_properties(family).ok
    ]
    return not unbroken, f"64 mutations, unbroken: {unbroken or 'none'}"


def _va_lemma(t_max: int) -> tuple[bool, str]:
    for t in range(2, t_max + 1):
        result = _intermediate_sweep(t, max_r=2)
        if not result["ok"]:
            return False, f"failure at t={t}"
    return True, f"r <= 2, t <= {t_max}, exhaustive"


def _va_triple_floor(rng: random.Random, trials: int) -> tuple[bool, str]:
    from .lcs import check_triple_product

    base = list(range(4))
    for p1 in permutations(base):
        for p2 in permutations(base):
            for p3 in permutations(base):
                report = check_triple_product(
                    from_ids(p1, 4), from_ids(p2, 4), from_ids(p3, 4)
                )
                if not report.holds:
                    return False, f"violated at {p1} {p2} {p3}"
    wide = list(range(9))
    for _ in range(trials):
        ps = []
        for _ in range(3):
            q = wide[:]
            rng.shuffle(q)
            ps.append(from_ids(q, 9))
        if not check_triple_product(*ps).holds:
            return False, "violated on a random 9-symbol triple"
    return True, f"exhaustive 4-symbol triples + {trials} random 9-symbol"


def _va_block_properties(t: int) -> tuple[bool, str]:
    from .construction import verify_permutation_properties

    report = verify_permutation_properties(t)
    return report.ok, f"t={t}"


def _va_shapes(seed: int, blocks: int, patterns: int) -> tuple[bool, str]:
    from .shapes import run_claim_suite

    report = run_claim_suite(2, blocks, patterns, seed)
    ok = report.ok
    return ok, f"{report.embeddings_checked} embeddings, {report.distinct_shapes} shapes"


def _va_break_bound(seed: int, samples: int) -> tuple[bool, str]:
    from .shapes import run_break_bound_suite

    report = run_break_bound_suite(2, samples, seed)
    return report.ok, f"{samples} block subsequences"


def _va_certify(rng: random.Random, trials: int) -> tuple[bool, str]:
    from .certify import certify_word

    for trial in range(trials):
        k = rng.choice((4, 6))
        n = rng.randrange(1, 120)
        w = from_ids((rng.randrange(k) for _ in range(n)), alphabet_size=k)
        cert = certify_word(w, chunk=rng.choice((16, 32)))
        if not cert.ok:
            return False, f"unsound certificate on trial {trial}"
    return True, f"{trials} random words"


def _va_registry() -> tuple[bool, str]:
    from .extremal import known_record, mu_window

    record = known_record(2, 40)
    if record is None or record.value != 5500610:
        return False, "M reference record missing or wrong"
    if record.method != "verified-external":
        return False, "reference record not flagged verified-external"
    window = mu_window(record)
    ok = window.lower_decimal == "1.474" and window.upper_decimal == "1.617"
    return ok, f"window [{window.lower_decimal}, {window.upper_decimal}]"


def _cmd_verify_all(args) -> int:
    quick = args.quick
    seed = args.seed
    rng = random.Random(seed)
    n_max = 8 if quick else 10
    checks = [
        ("intro-count-example", _va_intro_count),
        ("dp-vs-enumeration", lambda: _va_dp_vs_enumeration(rng, 200 if quick else 500)),
        ("extremal-cross-consistency", lambda: _va_extremal_consistency(n_max)),
        ("submultiplicativity-instance", _va_submult_instance),
        ("sign-properties", _va_signs),
        ("sign-mutation-tripwire", _va_sign_mutations),
        ("common-subsequence-families", lambda: _va_lemma(2 if quick else 3)),
        ("triple-product-floor", lambda: _va_triple_floor(rng, 200 if quick else 2000)),
        ("block-pair-triple-bounds", lambda: _va_block_properties(2)),
        ("shape-claims", lambda: _va_shapes(seed, 10 if quick else 12, 6 if quick else 20)),
        ("prefix-break-bound", lambda: _va_break_bound(seed, 100 if quick else 400)),
        ("certificate-soundness", lambda: _va_certify(rng, 20 if quick else 60)),
        ("registry-window", _va_registry),
    ]
    failures = 0
    for name, run in checks:
        ok, detail = run()
        failures += 0 if ok else 1
        sys.stdout.write(f"{'PASS' if ok else 'FAIL'} {name}: {detail}\n")
    sys.stdout.write(f"{len(checks) - failures}/{len(checks)} checks passed\n")
    return EXIT_OK if failures == 0 else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser, formats=("json", "csv", "text"), default="json"):
    p.add_argument("--out", help="write the artifact here instead of stdout")
    p.add_argument("--format", choices=formats, default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subseqlab",
        description="Exact subsequence-occurrence computations on words.",
    )
    parser.add_argument("--version", action="version", version=f"subseqlab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("count", help="occurrences of a pattern in a word")
    p.add_argument("--v", required=True, help="pattern")
    p.add_argument("--w", required=True, help="host word")
    p.add_argument("--k", type=int, help="alphabet size (inferred when omitted)")
    _add_common(p, formats=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("most-common", help="most frequent subsequence of a word")
    p.add_argument("--w", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--length", type=int, help="restrict patterns to this length")
    _add_common(p, formats=("json", "text"))
    p.set_defaults(handler=_cmd_most_common)

    p = sub.add_parser("profile", help="per-length maxima table for a word")
    p.add_argument("--w", required=True)
    p.add_argument("--k", type=int)
    _add_common(p, formats=("json", "csv"))
    p.set_defaults(handler=_cmd_profile)

    p = sub.add_parser("table", help="extremal values for all n up to a bound")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    _add_common(p, formats=("json", "csv"))
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("mu", help="growth-constant window from one table value")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--places", type=int, default=3)
    _add_common(p, formats=("json",))
    p.set_defaults(handler=_cmd_mu)

    p = sub.add_parser("lcs", help="longest common subsequence of the words in a file")
    p.add_argument("--inputs", required=True, help="word file (one word per line)")
    _add_common(p, formats=("json",))
    p.set_defaults(handler=_cmd_lcs)

    p = sub.add_parser("construct", help="build a signed-lexicographic block word")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--blocks", type=int, required=True)
    _add_common(p, formats=("json",))
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("verify-construction", help="check the block word's properties")
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--level", choices=("signs", "lemma", "permutations"), required=True)
    _add_common(p, formats=("json",))
    p.set_defaults(handler=_cmd_verify_construction)

    p = sub.add_parser("shape", help="sampled shape-claim suite on a block word")
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--blocks", type=int, default=12)
    p.add_argument("--samples", type=int, default=100, help="patterns to sample")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--embed-cap", type=int, default=150)
    _add_common(p, formats=("json",))
    p.set_defaults(handler=_cmd_shape)

    p = sub.add_parser("certify", help="recount-verified lower bound for a word")
    p.add_argument("--input", required=True, help="word file with exactly one word")
    p.add_argument("--chunk", type=int, default=64)
    _add_common(p, formats=("json",))
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("verify-all", help="run every property suite")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--seed", type=int, default=20260814)
    p.set_defaults(handler=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.handler(args)
    except (ContractError, BudgetError, OSError) as exc:
        sys.stderr.write(f"subseqlab {args.subcommand}: {exc}\n")
        return EXIT_USAGE
    finally:
        sys.stderr.write(f"wall_time_s={time.perf_counter() - start:.3f}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
