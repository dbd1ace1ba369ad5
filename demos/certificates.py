"""Certified lower bounds on the top occurrence count of a word.

certify_word() chops the word into chunks, proves a small bound for
each chunk by one of three routes (repeated letters, common
subsequences of permutation blocks, or plain letter frequency),
multiplies the bounds together, and then -- the important part --
re-counts the produced witness pattern from scratch with the exact
counting engine.  A certificate is only reported sound if the recount
is >= the claim.  The claim is never trusted on its own arithmetic.
"""

import random

from subseqlab import build_construction_word, certify_word, count_occurrences
from subseqlab.words import from_ids, power, to_text, word


def show(cert, label):
    print(f"{label}")
    print(f"  claimed  {cert.claimed}")
    print(f"  verified {cert.verified}  (recount of witness {to_text(cert.witness)!r})")
    for step in cert.steps[-4:]:
        print(f"    .. {step.rule}  blocks={list(step.blocks) or '-'}")
    print("  sound" if cert.ok else "  UNSOUND")


def main():
    # a word with visible structure: the same 6 letters four times over
    u = word("abcdef")
    w = power(u, 4)
    cert = certify_word(w, chunk=12)
    show(cert, f"w = ({to_text(u)})^4, chunks of 12")

    # sanity: the certificate is a lower bound, not the optimum
    print("  exact count of the witness:", count_occurrences(cert.witness, w))

    rng = random.Random(7)
    w = from_ids((rng.randrange(4) for _ in range(240)), 4)
    cert = certify_word(w, chunk=48)
    show(cert, "\n240 random symbols over 4 letters, chunks of 48")

    # the structured block word gives the certifier something to chew on:
    # each 1024-symbol chunk is four permutation blocks of length 256, so
    # the permutation route claims a split-pair bound per chunk
    cw = build_construction_word(2, 16)
    cert = certify_word(cw.word, chunk=1024)
    show(cert, f"\nblock word, {len(cw.word)} symbols, chunks of 1024")


if __name__ == "__main__":
    main()
