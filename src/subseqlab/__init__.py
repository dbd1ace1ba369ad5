"""Exact computation for subsequence-occurrence statistics of words.

Counting and enumeration of pattern occurrences, exhaustive extremal
tables with growth-constant windows, LCS tools with permutation fast
paths, signed-lexicographic block constructions with their property
checkers, embedding shape analysis, and recount-verified lower-bound
certificates.  All arithmetic is exact (Python integers); floats never
carry results.
"""

from .certify import Certificate, certify_word
from .construction import (
    ConstructionWord,
    agreement_set,
    base_sign_vectors,
    build_construction_word,
    build_permutation,
    signs_to_text,
    single_sign_mutations,
    verify_lemma_intermediate,
    verify_permutation_properties,
    verify_sign_properties,
)
from .counting import (
    count_occurrences,
    enumerate_embeddings,
    max_occurrences,
    max_occurrences_of_length,
    occurrence_profile,
    sum_over_lengths,
    validate_embedding,
)
from .errors import BudgetError, ContractError
from .extremal import (
    ExtremalRecord,
    MuWindow,
    best_window,
    check_submultiplicativity,
    cross_compare,
    extremal_table,
    extremal_value,
    iroot,
    known_record,
    mu_upper_from_profile,
    mu_window,
    root_decimal,
)
from .lcs import (
    check_triple_product,
    is_permutation_word,
    lcs2,
    lcs3,
    multi_lcs,
    permutation_chain_lcs,
)
from .shapes import (
    ShapeSuiteReport,
    decompose_shape,
    embedding_profile,
    run_break_bound_suite,
    run_claim_suite,
    shape_of,
)
from .words import Word, from_ids, load_words, power, to_text, word

__version__ = "0.1.0"
