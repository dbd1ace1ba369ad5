"""Which subseqlab call points are traced, and the per-layer metrics.

Layers are the package's modules: words, counting, extremal, lcs,
construction, shapes and certify (``cli`` only parses arguments and
formats JSON, so no workload times it).  Each span name below is
``<module>.<function>`` of the function's home module and lists every
module binding through which the workloads reach it.  The expected
effect of each metric on the end-to-end metrics is in README.md.
"""

from __future__ import annotations

from tracer import Target, Tracer

PACKAGE = "subseqlab"

# span name -> modules whose binding of the function is wrapped
SPANS = {
    "counting.search": ("counting._search_most_common", "extremal._search_most_common"),
    "counting.count_occurrences": ("counting.count_occurrences", "certify.count_occurrences"),
    "counting.enumerate_embeddings": ("counting.enumerate_embeddings", "shapes.enumerate_embeddings"),
    "counting.max_occurrences_of_length": ("counting.max_occurrences_of_length",),
    "extremal.extremal_value": ("extremal.extremal_value",),
    "lcs.lcs2": ("lcs.lcs2", "construction.lcs2", "certify.lcs2"),
    "lcs.lcs3": ("lcs.lcs3", "construction.lcs3"),
    "lcs.multi_lcs": ("lcs.multi_lcs", "construction.multi_lcs"),
    "lcs.permutation_chain_lcs": ("lcs.permutation_chain_lcs",),
    "construction.build_permutation": ("construction.build_permutation", "shapes.build_permutation"),
    "construction.build_construction_word": (
        "construction.build_construction_word",
        "shapes.build_construction_word",
    ),
    "construction.verify_sign_properties": ("construction.verify_sign_properties",),
    "construction.verify_permutation_properties": ("construction.verify_permutation_properties",),
    "shapes.run_claim_suite": ("shapes.run_claim_suite",),
    "shapes.run_break_bound_suite": ("shapes.run_break_bound_suite",),
    "shapes.embedding_profile": ("shapes.embedding_profile",),
    "certify.certify_word": ("certify.certify_word",),
}

# request kinds of all workloads; each request is a client span
CLIENT_KINDS = (
    "extremal_table",
    "build_construction_word",
    "verify_sign_properties",
    "verify_permutation_properties",
    "run_claim_suite",
    "run_break_bound_suite",
    "certify_block_word",
    "count_occurrences",
    "max_occurrences",
    "occurrence_profile",
    "lcs2_dp",
    "lcs2_perm",
    "lcs3",
    "certify_word",
)


def _is_perm(w) -> bool:
    return len(set(w.symbols)) == len(w.symbols)


def _aborted(tracer, args, result):
    tracer.counters["counting.search.aborted"] += result[2]


def _rep_scanned(tracer, args, result):
    tracer.counters["extremal.reps_scanned"] += 1
    _aborted(tracer, args, result)


def _maps(tracer, args, result):
    tracer.counters["counting.enumerate_embeddings.maps"] += len(result)


def _perm_route(name):
    def observe(tracer, args, result):
        tracer.counters[name + ".perm"] += all(_is_perm(w) for w in args)

    return observe


OBSERVERS = {
    "counting._search_most_common": _aborted,
    "extremal._search_most_common": _rep_scanned,
    "counting.enumerate_embeddings": _maps,
    "shapes.enumerate_embeddings": _maps,
}


def targets() -> list[Target]:
    out = [Target("words", "Word.__post_init__", "words.Word", span=False)]
    for name, bindings in SPANS.items():
        for binding in bindings:
            module, attr = binding.split(".", 1)
            observe = OBSERVERS.get(binding)
            if name in ("lcs.lcs2", "lcs.lcs3"):
                observe = _perm_route(name)
            out.append(Target(module, attr, name, observe))
    return out


def metric_names() -> list[str]:
    names = ["words.Word.count"]
    for span in SPANS:
        names += [f"{span}.calls", f"{span}.busy_s", f"{span}.self_s"]
    names += [
        "counting.search.abort_ratio",
        "counting.enumerate_embeddings.maps",
        "extremal.reps_scanned",
        "lcs.lcs2.perm_share",
        "lcs.lcs3.perm_share",
        "certify.recount_share",
    ]
    for kind in CLIENT_KINDS:
        names += [f"client.{kind}.calls", f"client.{kind}.busy_s"]
    names += ["client.loop_s", "trace.overhead_s"]
    return names


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(("_ratio", "_share")) else "count"


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, traced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (without trace.overhead_s)."""
    summary = tracer.summary()
    counters = tracer.counters
    out: dict[str, float] = {"words.Word.count": counters["words.Word.count"]}
    for span in SPANS:
        agg = summary.get(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for key, value in agg.items():
            out[f"{span}.{key}"] = value
    out["counting.search.abort_ratio"] = _share(
        counters["counting.search.aborted"], out["counting.search.calls"]
    )
    out["counting.enumerate_embeddings.maps"] = counters["counting.enumerate_embeddings.maps"]
    out["extremal.reps_scanned"] = counters["extremal.reps_scanned"]
    for span in ("lcs.lcs2", "lcs.lcs3"):
        out[f"{span}.perm_share"] = _share(counters[span + ".perm"], out[f"{span}.calls"])
    out["certify.recount_share"] = _share(
        tracer.busy_within("counting.count_occurrences", "certify.certify_word"),
        out["certify.certify_word.busy_s"],
    )
    requests_busy = 0.0
    for kind in CLIENT_KINDS:
        agg = summary.get(f"client.{kind}", {"calls": 0, "busy_s": 0.0})
        out[f"client.{kind}.calls"] = agg["calls"]
        out[f"client.{kind}.busy_s"] = agg["busy_s"]
        requests_busy += agg["busy_s"]
    out["client.loop_s"] = traced_wall_s - requests_busy
    return out
