"""Quick tour of the exact counting layer.

Everything here is plain integer arithmetic: no floats, no estimates.
Run it:

    python demos/counting_tour.py
"""

from subseqlab import (
    count_occurrences,
    enumerate_embeddings,
    max_occurrences,
    occurrence_profile,
)
from subseqlab.words import to_text, word


def main():
    v, w = word("abra"), word("abracadabra")
    print(f"{to_text(v)!r} sits inside {to_text(w)!r} in", count_occurrences(v, w), "ways")

    # the same number by brute enumeration -- the two routes never disagree
    maps = enumerate_embeddings(v, w).maps
    print("enumeration finds", len(maps), "index tuples, first three:")
    for positions in maps[:3]:
        print("   ", positions)

    # which pattern is the most frequent one overall?
    target = word("abbaab")
    best, witness = max_occurrences(target)
    print(f"\nmost frequent subsequence of {to_text(target)!r}: "
          f"{to_text(witness)!r} with {best} occurrences")

    # per-length profile: the maximum over patterns of each length.
    # length 0 is the empty pattern, which occurs exactly once.
    print(f"\nprofile of {to_text(target)!r}")
    for length, (value, pattern) in enumerate(occurrence_profile(target)):
        bar = "#" * value
        print(f"  len {length}: {value:3d}  {to_text(pattern):8s} {bar}")


if __name__ == "__main__":
    main()
