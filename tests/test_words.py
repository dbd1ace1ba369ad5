import pytest
from hypothesis import example, given, settings, strategies as st

from subseqlab.errors import ContractError
from subseqlab.words import Word, from_ids, load_words, power, to_text, word

from contract_inputs import DOCUMENTED_ERRORS, JUNK, NOT_A_WORD, int_or_junk


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


def test_concat_and_power():
    a = word("ab")
    assert to_text(power(a, 3)) == "ababab"
    assert power(a, 2) == Word(a.symbols + a.symbols, 2)
    assert len(power(a, 0)) == 0
    with pytest.raises(ContractError):
        power(a, -1)


@given(st.integers(1, 40), st.data())
def test_text_round_trip(k, data):
    ids = data.draw(st.lists(st.integers(0, k - 1), max_size=15))
    w = from_ids(ids, alphabet_size=k)
    assert word(to_text(w), alphabet_size=k) == w


def test_word_file_round_trip(tmp_path):
    ws = [word("ab"), word("ba"), word("", alphabet_size=2)]
    path = tmp_path / "pair.words"
    path.write_text("alphabet k=2\n" + "".join(to_text(w) + "\n" for w in ws))
    assert load_words(path) == ws


def test_word_file_round_trip_large_alphabet(tmp_path):
    ws = [Word((29, 0, 17), 30), Word((), 30)]
    path = tmp_path / "big.words"
    path.write_text("alphabet k=30\n" + "".join(to_text(w) + "\n" for w in ws))
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
    # one alphabet per file: a word outside the header's alphabet is refused
    path = tmp_path / "x.words"
    path.write_text("alphabet k=2\nab\nabc\n")
    with pytest.raises(ContractError, match="out of range"):
        load_words(path)


# ---------------------------------------------------------------------------
# contracts


def test_non_int_arguments_are_contract_errors():
    w = word("ab")
    for call in (
        lambda: from_ids([0, 1.5], 3),  # not truncated to ab
        lambda: from_ids(["x"]),
        lambda: from_ids([None]),
        lambda: from_ids(5),
        lambda: power(w, 1.5),
        lambda: power(w, "2"),
        lambda: word(5),
    ):
        with pytest.raises(ContractError):
            call()


def test_non_word_arguments_are_contract_errors(tmp_path):
    for call in (
        lambda: to_text(5),
        lambda: power((0, 1), 2),
        lambda: load_words(5),
    ):
        with pytest.raises(ContractError, match="must be a"):
            call()
    # a path that names no readable file: a missing one or a directory
    for path in (tmp_path / "missing.words", tmp_path):
        with pytest.raises(ContractError, match="cannot read") as exc:
            load_words(path)
        assert str(path) in str(exc.value)


@given(
    text=st.one_of(st.text("ab,0 x", max_size=6), JUNK),
    ids=st.one_of(st.lists(int_or_junk(-1, 4), max_size=5), JUNK),
    alphabet_size=st.one_of(st.none(), int_or_junk(-1, 6)),
    syms=st.lists(st.integers(0, 2), max_size=5),
    m=int_or_junk(-2, 3),
    junk=NOT_A_WORD,
)
@example(text=5, ids=["x"], alphabet_size=None, syms=[0, 1], m="2", junk="ab")
@settings(max_examples=300, deadline=None)
def test_words_api_raises_only_documented_errors(text, ids, alphabet_size, syms, m, junk):
    w = Word(tuple(syms), 3)
    calls = [
        lambda: word(text, alphabet_size),
        lambda: from_ids(ids, alphabet_size),
        lambda: power(w, m),
        lambda: to_text(w),
        lambda: power(junk, m),
        lambda: to_text(junk),
    ]
    for call in calls:
        try:
            call()
        except DOCUMENTED_ERRORS:
            pass
