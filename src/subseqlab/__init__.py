"""Exact computation for subsequence-occurrence statistics of words.

Counting and enumeration of pattern occurrences, exhaustive extremal
tables with growth-constant windows, LCS tools with permutation fast
paths, signed-lexicographic block constructions with their property
checkers, embedding shape analysis, and recount-verified lower-bound
certificates.  All arithmetic is exact (Python integers); floats never
carry results.

``import subseqlab`` loads none of the engine modules.  Each exported
name is looked up in ``_EXPORTS`` on first access and imported from its
module then (PEP 562), so a caller that asks for an extremal table
loads ``errors``, ``words``, ``counting`` and ``extremal`` only.
``from subseqlab import X`` and ``subseqlab.X`` work as for any module.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the module of the package that defines it
_EXPORTS = {
    "Certificate": "certify",
    "certify_word": "certify",
    "ConstructionWord": "construction",
    "agreement_set": "construction",
    "base_sign_vectors": "construction",
    "build_construction_word": "construction",
    "build_permutation": "construction",
    "signs_to_text": "construction",
    "single_sign_mutations": "construction",
    "verify_lemma_intermediate": "construction",
    "verify_permutation_properties": "construction",
    "verify_sign_properties": "construction",
    "count_occurrences": "counting",
    "enumerate_embeddings": "counting",
    "max_occurrences": "counting",
    "max_occurrences_of_length": "counting",
    "occurrence_profile": "counting",
    "sum_over_lengths": "counting",
    "validate_embedding": "counting",
    "BudgetError": "errors",
    "ContractError": "errors",
    "ExtremalRecord": "extremal",
    "MuWindow": "extremal",
    "best_window": "extremal",
    "check_submultiplicativity": "extremal",
    "cross_compare": "extremal",
    "extremal_table": "extremal",
    "extremal_value": "extremal",
    "iroot": "extremal",
    "known_record": "extremal",
    "mu_upper_from_profile": "extremal",
    "mu_window": "extremal",
    "root_decimal": "extremal",
    "check_triple_product": "lcs",
    "is_permutation_word": "lcs",
    "lcs2": "lcs",
    "lcs3": "lcs",
    "multi_lcs": "lcs",
    "permutation_chain_lcs": "lcs",
    "ShapeSuiteReport": "shapes",
    "decompose_shape": "shapes",
    "embedding_profile": "shapes",
    "run_break_bound_suite": "shapes",
    "run_claim_suite": "shapes",
    "shape_of": "shapes",
    "Word": "words",
    "from_ids": "words",
    "load_words": "words",
    "power": "words",
    "to_text": "words",
    "word": "words",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import the module behind an exported name and keep the name here,
    so later lookups do not come back through this hook."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
