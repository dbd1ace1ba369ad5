import random

import pytest
from hypothesis import given, strategies as st

from subseqlab.errors import ContractError, WordRangeError
from subseqlab.words import (
    CanonicalKey,
    Interval,
    Word,
    canonical_key,
    concat,
    dump_words,
    from_ids,
    is_subsequence,
    load_words,
    normalize,
    power,
    relabel,
    reverse,
    subword,
    to_text,
    word,
)

from oracles import orbit_of


def test_parse_letters():
    w = word("abca")
    assert w.symbols == (0, 1, 2, 0)
    assert w.alphabet_size == 3
    assert to_text(w) == "abca"


def test_parse_csv_and_large_alphabet_rendering():
    w = word("3,1,4", alphabet_size=30)
    assert w.symbols == (3, 1, 4)
    assert to_text(w) == "3,1,4"
    small = Word((3, 1, 4), 5)
    assert to_text(small) == "dbe"


def test_parse_empty():
    w = word("")
    assert len(w) == 0
    assert w.alphabet_size == 1


def test_unparsable_ids_name_the_token():
    for text, token in (("1,x", "'x'"), ("1,,2", "''"), ("0,1.5", "'1.5'")):
        with pytest.raises(ContractError, match=token):
            word(text)


def test_symbol_out_of_range_rejected():
    with pytest.raises(ContractError):
        Word((0, 3), 3)
    with pytest.raises(ContractError):
        Word((0,), 0)
    # the offending symbol is named, wherever it sits
    deep = [s % 5 for s in range(20000)]
    deep[17321] = 5
    with pytest.raises(ContractError, match="symbol 5 out of range for alphabet of size 5"):
        Word(tuple(deep), 5)
    with pytest.raises(ContractError, match="symbol -1 out of range"):
        Word((2, 0, -1, 4), 5)
    assert Word((), 1).symbols == ()
    # symbols must be ints: floats (NaN slips past min/max), strings, None
    for bad in (1.5, float("nan"), "a", None):
        with pytest.raises(ContractError, match="is not an int"):
            Word((0, bad, 2), 3)
    # any int the range check accepts stays legal, however wide
    assert Word((0, 2**70), 2**71).symbols == (0, 2**70)


def test_alphabet_size_must_be_an_int():
    for bad in (2.5, 2.0, "a", None, float("nan")):
        with pytest.raises(ContractError, match="alphabet_size must be an int"):
            Word((0, 1, 1), bad)
        with pytest.raises(ContractError, match="alphabet_size must be an int"):
            Word((), bad)


def test_subword_examples():
    w = word("abracadabra")
    assert to_text(subword(w, Interval(0, 3))) == "abra"
    assert len(subword(w, Interval(2, 1))) == 0
    assert to_text(subword(w, Interval(4, 6))) == "cad"


def test_subword_range_errors():
    w = word("abc")
    with pytest.raises(WordRangeError):
        subword(w, Interval(-1, 1))
    with pytest.raises(WordRangeError):
        subword(w, Interval(1, 3))
    with pytest.raises(ContractError):
        Interval(3, 1)


def test_concat_and_power():
    a, b = word("ab"), word("ba")
    assert to_text(concat(a, b)) == "abba"
    assert to_text(power(a, 3)) == "ababab"
    assert len(power(a, 0)) == 0
    with pytest.raises(ContractError):
        concat(word("ab"), word("abc"))
    with pytest.raises(ContractError):
        power(a, -1)


def test_normalize_first_occurrence_form():
    assert normalize(word("bab")).symbols == (0, 1, 0)
    assert normalize(word("cab")).symbols == (0, 1, 2)
    assert normalize(word("")).symbols == ()


def test_relabel_requires_bijection():
    w = word("aab")
    assert relabel(w, (1, 0)).symbols == (1, 1, 0)
    with pytest.raises(ContractError):
        relabel(w, (0, 0))


def test_canonical_key_examples():
    assert canonical_key(word("abab")) == canonical_key(word("baba"))
    assert canonical_key(word("aab")) == canonical_key(word("bba"))
    assert canonical_key(word("aab")) == canonical_key(word("baa"))
    assert canonical_key(word("aab")).symbols == (0, 0, 1)


def test_canonical_key_flag_excluded_from_equality():
    k1 = CanonicalKey((0, 0, 1), 2, from_reversed=False)
    k2 = CanonicalKey((0, 0, 1), 2, from_reversed=True)
    assert k1 == k2
    assert hash(k1) == hash(k2)


def test_key_equality_matches_orbit_membership():
    rng = random.Random(7)
    for _ in range(300):
        k = rng.choice([2, 3])
        n = rng.randrange(0, 8)
        w1 = tuple(rng.randrange(k) for _ in range(n))
        w2 = tuple(rng.randrange(k) for _ in range(n))
        same_key = canonical_key(Word(w1, k)) == canonical_key(Word(w2, k))
        assert same_key == (w2 in orbit_of(w1, k))


def test_orbit_partition_exhaustive_binary():
    # orbit sizes divide 2 * k! = 4 and the orbits tile the cube
    from itertools import product as iproduct

    for n in range(0, 11):
        sizes: dict[tuple, int] = {}
        for syms in iproduct(range(2), repeat=n):
            key = canonical_key(Word(syms, 2))
            sizes[key.symbols] = sizes.get(key.symbols, 0) + 1
        assert sum(sizes.values()) == 2**n
        assert all(4 % s == 0 for s in sizes.values())


@given(st.lists(st.integers(0, 3), max_size=12))
def test_key_invariant_under_reverse_and_relabel(ids):
    w = from_ids(ids, alphabet_size=4)
    assert canonical_key(reverse(w)) == canonical_key(w)
    assert canonical_key(relabel(w, (2, 0, 3, 1))) == canonical_key(w)


@given(st.integers(1, 40), st.data())
def test_text_round_trip(k, data):
    ids = data.draw(st.lists(st.integers(0, k - 1), max_size=15))
    w = from_ids(ids, alphabet_size=k)
    assert word(to_text(w), alphabet_size=k) == w


def test_word_file_round_trip(tmp_path):
    ws = [word("ab"), word("ba"), word("", alphabet_size=2)]
    path = tmp_path / "pair.words"
    dump_words(ws, path)
    text = path.read_text()
    assert text.splitlines()[0] == "alphabet k=2"
    assert load_words(path) == ws


def test_word_file_round_trip_large_alphabet(tmp_path):
    ws = [Word((29, 0, 17), 30), Word((), 30)]
    path = tmp_path / "big.words"
    dump_words(ws, path)
    assert load_words(path) == ws


def test_word_file_header_required(tmp_path):
    path = tmp_path / "broken.words"
    path.write_text("ab\nba\n")
    with pytest.raises(ContractError):
        load_words(path)


def test_word_file_bad_header_or_encoding(tmp_path):
    path = tmp_path / "broken.words"
    path.write_text("alphabet k=x\nab\n")
    with pytest.raises(ContractError, match="'x'"):
        load_words(path)
    path.write_bytes(b"alphabet k=2\n\xff\xfe\n")
    with pytest.raises(ContractError, match="not a text file"):
        load_words(path)


def test_word_file_mixed_alphabets_rejected(tmp_path):
    with pytest.raises(ContractError):
        dump_words([word("ab"), word("abc")], tmp_path / "x.words")


def test_is_subsequence():
    assert is_subsequence(word("ab"), word("axxb", alphabet_size=24))
    assert not is_subsequence(word("ba"), word("ab"))
    assert is_subsequence(word(""), word("ab"))
