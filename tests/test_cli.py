"""Frontend tests: run main() in-process and inspect artifacts."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import subseqlab
import subseqlab.lcs as lcs_module
from subseqlab.cli import EXIT_OK, EXIT_USAGE, RunConfig, main
from subseqlab.construction import build_construction_word
from subseqlab.errors import ContractError
from subseqlab.words import Word, load_words, to_text

from oracles import quadratic_chain_lcs


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def no_floats(node):
    if isinstance(node, float):
        return False
    if isinstance(node, dict):
        return all(no_floats(v) for v in node.values())
    if isinstance(node, list):
        return all(no_floats(v) for v in node)
    return True


# ---------------------------------------------------------------------------
# count


def test_count_intro_example_text(capsys):
    code, out, err = run(["count", "--v", "abra", "--w", "abracadabra"], capsys)
    assert code == EXIT_OK
    assert out == "9\n"
    assert "wall_time_s=" in err


def test_count_json_decimal_string(capsys):
    code, out, _ = run(
        ["count", "--v", "abra", "--w", "abracadabra", "--format", "json"], capsys
    )
    payload = json.loads(out)
    assert payload["count"] == "9"
    assert payload["meta"]["schema_version"] == 1
    assert no_floats(payload)


def test_count_explicit_alphabet(capsys):
    code, out, _ = run(["count", "--v", "ab", "--w", "aabb", "--k", "5"], capsys)
    assert code == EXIT_OK and out == "4\n"


def test_count_bad_alphabet_usage_error(capsys):
    code, _, err = run(["count", "--v", "a", "--w", "aa", "--k", "0"], capsys)
    assert code == EXIT_USAGE
    assert "count:" in err


@pytest.mark.parametrize(
    "argv, header, line",
    [
        (["count", "--v", "1,x", "--w", "1,2"], None, None),
        (["count", "--v", "1,,2", "--w", "1,2"], None, None),
        (["certify", "--input"], "alphabet k=x", "ab"),
        (["certify", "--input"], "alphabet k=3", "1,x"),
    ],
)
def test_malformed_words_exit_2_without_traceback(tmp_path, argv, header, line):
    # a separate interpreter, so an escaping exception would show as a traceback
    if header is not None:
        path = tmp_path / "bad.words"
        path.write_text(f"{header}\n{line}\n")
        argv = argv + [str(path)]
    env = dict(os.environ, PYTHONPATH=str(Path(subseqlab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "subseqlab.cli", *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert "not an integer" in proc.stderr


def test_count_loads_only_the_counting_engine():
    # each command imports its own engines: a count in a fresh
    # interpreter loads no LCS, construction, shape or certificate code
    probe = (
        "import sys\n"
        "from subseqlab.cli import main\n"
        "code = main(['count', '--v', 'ab', '--w', 'aabb'])\n"
        "print(code, *sorted(m for m in sys.modules if m.startswith('subseqlab.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(subseqlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    *_, last = proc.stdout.splitlines()
    assert last.split() == [
        "0",
        "subseqlab.cli",
        "subseqlab.counting",
        "subseqlab.errors",
        "subseqlab.words",
    ]


# ---------------------------------------------------------------------------
# argparse-level usage errors


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["count", "--v", "a", "--w", "aa", "--frobnicate"])
    assert exc.value.code == 2


def test_shape_requires_seed():
    with pytest.raises(SystemExit) as exc:
        main(["shape", "--t", "2", "--blocks", "10", "--samples", "2"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# most-common / profile


def test_most_common(capsys):
    code, out, _ = run(["most-common", "--w", "abbaab"], capsys)
    payload = json.loads(out)
    assert (payload["value"], payload["witness"]) == ("5", "ab")


def test_most_common_fixed_length(capsys):
    code, out, _ = run(["most-common", "--w", "abbaab", "--length", "3"], capsys)
    payload = json.loads(out)
    assert payload["length"] == 3
    assert (payload["value"], payload["witness"]) == ("4", "aba")  # lex-least witness


def test_profile_csv(capsys):
    code, out, _ = run(["profile", "--w", "abab", "--format", "csv"], capsys)
    lines = out.strip().split("\n")
    assert lines[0] == "length,value,witness"
    values = [int(line.split(",")[1]) for line in lines[1:]]
    assert values == [1, 2, 3, 1, 1]


def test_profile_json(capsys):
    code, out, _ = run(["profile", "--w", "abab"], capsys)
    payload = json.loads(out)
    assert [r["value"] for r in payload["rows"]] == ["1", "2", "3", "1", "1"]
    assert no_floats(payload)


def test_most_common_and_profile_on_a_huge_alphabet(capsys):
    code, out, _ = run(["most-common", "--w", "abab", "--k", "100000000"], capsys)
    assert code == EXIT_OK
    assert (json.loads(out)["value"], json.loads(out)["witness"]) == ("3", "0,1")
    code, out, _ = run(["profile", "--w", "abab", "--k", "100000000", "--format", "csv"], capsys)
    assert code == EXIT_OK
    assert out == 'length,value,witness\n0,1,\n1,2,0\n2,3,"0,1"\n3,1,"0,0,1"\n4,1,"0,1,0,1"\n'
    rows = list(csv.reader(io.StringIO(out)))
    assert all(len(row) == 3 for row in rows)
    assert rows[4] == ["3", "1", "0,0,1"]


def test_most_common_length_over_budget_exits_2(capsys):
    code, out, err = run(["most-common", "--w", "ab", "--length", str(2**63)], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert "over the budget of 1000000 symbols" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# table / mu


def test_table_json_and_csv_mirror(tmp_path, capsys):
    out_path = tmp_path / "table.json"
    code, _, _ = run(
        ["table", "--k", "2", "--n-max", "6", "--out", str(out_path)], capsys
    )
    assert code == EXIT_OK
    payload = json.loads(out_path.read_text())
    assert payload["k"] == 2
    assert [r["value"] for r in payload["rows"]] == ["1", "1", "2", "2", "3", "5"]
    assert all(r["method"] == "exhaustive" for r in payload["rows"])
    mirror = (tmp_path / "table.csv").read_text().strip().split("\n")
    assert mirror[0] == "n,value,witness,method"
    assert len(mirror) == 7


# sha256 of the table artifact and its CSV mirror, recorded with the scan
# that cut a subtree only once a node reached the best count itself; the
# product cuts since then must leave every byte in place
_TABLE_DIGESTS = {
    (2, 14): (
        "a09679a89e041e53ac44ee7e032327e8873adf5677f7e6bb78be9202f4d19133",
        "22d0781a39a8501a34807b512ab27f82a341d64228124edc5183d13fdb1409e5",
    ),
    (3, 8): (
        "cd5e4598c289a9e9c5c834ed7a3381ed539ec00ebc7139717db223589ec8ac2f",
        "52e65430a1fea065786aee931399dce852c1d24f166cd0e63fd31b8c03159d70",
    ),
    (4, 6): (
        "e18ed24e9d93eab9077c093a04d439c6dad93d75b1b1c51241190619dae37825",
        "79351b3ecf5d25ac940ec46731f0de20800ed8adc30efd1d2ee80df9293e44f7",
    ),
}


def test_table_of_a_wide_alphabet_runs_on_the_default_budget(capsys):
    # every k >= 5 has a default budget (n <= 13), so no flag is needed
    code, out, _ = run(["table", "--k", "5", "--n-max", "3"], capsys)
    assert code == EXIT_OK
    assert [r["value"] for r in json.loads(out)["rows"]] == ["1", "1", "1"]


def test_table_artifacts_pinned(tmp_path, capsys):
    for (k, n_max), (json_digest, csv_digest) in _TABLE_DIGESTS.items():
        out_path = tmp_path / f"table{k}.json"
        argv = ["table", "--k", str(k), "--n-max", str(n_max), "--out", str(out_path)]
        assert main(argv) == EXIT_OK
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == json_digest, (k, n_max)
        csv_bytes = out_path.with_suffix(".csv").read_bytes()
        assert hashlib.sha256(csv_bytes).hexdigest() == csv_digest, (k, n_max)
    capsys.readouterr()


def test_mu_window_schema(capsys):
    code, out, _ = run(["mu", "--k", "2", "--n", "14"], capsys)
    payload = json.loads(out)
    assert payload["table_value"] == "108"
    assert payload["lower"] == {"base": "108", "root": 14, "decimal": "1.397"}
    assert payload["upper"]["base"] == "1512"
    assert no_floats(payload)


def test_mu_needs_n_at_least_3(capsys):
    code, _, err = run(["mu", "--k", "2", "--n", "2"], capsys)
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# lcs


def test_lcs_three_words(tmp_path, capsys):
    path = tmp_path / "three.words"
    path.write_text("alphabet k=4\nabcd\nacbd\nabdc\n")
    code, out, _ = run(["lcs", "--inputs", str(path)], capsys)
    payload = json.loads(out)
    assert payload["lengths"] == "3"
    assert payload["pairwise"][0][1] == "3"
    assert payload["witness"] is not None
    assert len(payload["witness"]) == 3


def test_lcs_two_words_computes_their_lcs_once(tmp_path, capsys, monkeypatch):
    # the pairwise loop's witness is the overall one
    calls = []
    real = lcs_module.lcs2
    monkeypatch.setattr(lcs_module, "lcs2", lambda a, b: calls.append(1) or real(a, b))
    path = tmp_path / "two.words"
    path.write_text("alphabet k=26\nabracadabra\nbarbarossa\n")
    code, out, _ = run(["lcs", "--inputs", str(path)], capsys)
    payload = json.loads(out)
    assert code == EXIT_OK and len(calls) == 1
    assert (payload["lengths"], payload["witness"]) == ("5", "abara")
    assert payload["pairwise"] == [["11", "5"], ["5", "10"]]


def test_lcs_five_words_no_witness(tmp_path, capsys):
    path = tmp_path / "five.words"
    path.write_text("alphabet k=3\nabc\nacb\nbac\nbca\ncab\n")
    code, out, _ = run(["lcs", "--inputs", str(path)], capsys)
    payload = json.loads(out)
    assert payload["witness"] is None
    assert payload["lengths"] == "1"


@pytest.mark.parametrize("blocks", [4, 8])
def test_lcs_many_permutation_blocks(tmp_path, capsys, blocks):
    # the product-space DP would need 257^blocks states; the chain kernel
    # answers permutation inputs of any number of words
    cw = build_construction_word(2, blocks)
    L = cw.block_length
    ws = [Word(cw.word.symbols[i * L : (i + 1) * L], L) for i in range(blocks)]
    path = tmp_path / "blocks.words"
    path.write_text(
        f"alphabet k={cw.word.alphabet_size}\n" + "".join(to_text(w) + "\n" for w in ws)
    )
    code, out, _ = run(["lcs", "--inputs", str(path)], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["words"] == blocks
    assert payload["witness"] is None
    expected = quadratic_chain_lcs([w.symbols for w in ws])[0]
    assert payload["lengths"] == str(expected) == "1"


@pytest.mark.parametrize("text", ["abcd\nacbd\nabdc\n", "abcd\nacbd\nabdc\ndcba\n"])
def test_lcs_over_chain_budget_exits_2(tmp_path, capsys, monkeypatch, text):
    # three and four permutation words go to the chain kernel, whose
    # budget refusal is a usage error, not a traceback
    monkeypatch.setattr(lcs_module, "CHAIN_MASK_BIT_BUDGET", 15)
    path = tmp_path / "perms.words"
    path.write_text("alphabet k=4\n" + text)
    code, out, err = run(["lcs", "--inputs", str(path)], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert "16 mask bits for 4 common symbols, over the budget of 15" in err
    assert "Traceback" not in err


def test_lcs_missing_file(capsys):
    code, _, err = run(["lcs", "--inputs", "/nonexistent.words"], capsys)
    assert code == EXIT_USAGE
    assert "/nonexistent.words" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# construct / certify


def test_construct_writes_loadable_words_file(tmp_path, capsys):
    path = tmp_path / "w.words"
    code, out, _ = run(
        ["construct", "--t", "2", "--blocks", "4", "--out", str(path)], capsys
    )
    assert code == EXIT_OK
    words = load_words(str(path))
    assert len(words) == 1
    assert len(words[0]) == 1024
    summary = json.loads(out)
    assert summary["block_length"] == 256


def test_certify_schema_and_soundness(tmp_path, capsys):
    path = tmp_path / "w.words"
    path.write_text("alphabet k=2\n" + "abba" * 20 + "\n")
    out_path = tmp_path / "cert.json"
    code, _, _ = run(
        ["certify", "--input", str(path), "--chunk", "16", "--out", str(out_path)],
        capsys,
    )
    assert code == EXIT_OK
    cert = json.loads(out_path.read_text())
    assert set(cert) >= {"witness", "claimed", "verified", "steps", "ok"}
    assert int(cert["verified"]) >= int(cert["claimed"]) > 1
    for step in cert["steps"]:
        assert set(step) == {"rule", "refs", "blocks"}
        assert all(isinstance(r, int) for r in step["refs"])
    assert cert["ok"] is True
    assert no_floats(cert)


def test_certify_rejects_multi_word_file(tmp_path, capsys):
    path = tmp_path / "two.words"
    path.write_text("alphabet k=2\nab\nba\n")
    code, _, _ = run(["certify", "--input", str(path)], capsys)
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# verify-construction / shape / verify-all


def test_verify_construction_signs(capsys):
    code, out, _ = run(["verify-construction", "--t", "2", "--level", "signs"], capsys)
    payload = json.loads(out)
    assert code == EXIT_OK and payload["ok"] is True
    assert len(payload["checks"]) == 8


def test_verify_construction_lemma(capsys):
    code, out, _ = run(["verify-construction", "--t", "2", "--level", "lemma"], capsys)
    payload = json.loads(out)
    assert code == EXIT_OK and payload["ok"] is True
    assert payload["checks"][0]["checked"] == 18  # 3 families at r=1, 15 at r=2


def test_verify_construction_lemma_budget(capsys):
    code, _, _ = run(["verify-construction", "--t", "9", "--level", "lemma"], capsys)
    assert code == EXIT_USAGE


def test_shape_suite_runs_clean(capsys):
    code, out, _ = run(
        ["shape", "--t", "2", "--blocks", "10", "--samples", "4", "--seed", "11"],
        capsys,
    )
    payload = json.loads(out)
    assert code == EXIT_OK and payload["ok"] is True
    assert payload["embeddings_checked"] > 0
    assert payload["meta"]["seed"] == 11


def test_artifacts_byte_identical_for_same_seed(tmp_path, capsys):
    args = ["shape", "--t", "2", "--blocks", "10", "--samples", "4", "--seed", "99"]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(first)]) == EXIT_OK
    assert main(args + ["--out", str(second)]) == EXIT_OK
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_verify_all_quick_green(capsys):
    code, out, _ = run(["verify-all", "--quick"], capsys)
    assert code == EXIT_OK
    lines = [line for line in out.strip().split("\n") if line]
    assert lines[-1].endswith("checks passed")
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert sum(1 for line in lines if line.startswith("PASS")) == 13


# ---------------------------------------------------------------------------
# config contract


def test_runconfig_rejects_nonpositive_budget():
    with pytest.raises(ContractError):
        RunConfig({"n_max": 0}, None, None, "json")


def test_wall_time_never_in_artifact(tmp_path, capsys):
    out_path = tmp_path / "mu.json"
    main(["mu", "--k", "2", "--n", "5", "--out", str(out_path)])
    capsys.readouterr()
    assert "wall_time" not in out_path.read_text()


# ---------------------------------------------------------------------------
# exit codes on random argument lists


_NUMBER = st.one_of(
    st.integers(-2, 7).map(str),
    st.sampled_from(["", "x", "1.5", "nan", "-", "007", "1e3", "\u0663"]),
)
_SMALL = st.one_of(st.integers(-1, 3).map(str), st.sampled_from(["", "x", "2.0"]))
_TEXT = st.text("abz,019- ", max_size=8)
# a words file as bytes, or a path that is missing or is a directory
_WORDS_FILE = st.one_of(
    st.tuples(_NUMBER, st.lists(_TEXT, max_size=4)).map(
        lambda kw: "\n".join([f"alphabet k={kw[0]}", *kw[1]]).encode()
    ),
    st.text(max_size=20).map(str.encode),
    st.binary(max_size=20),
    st.sampled_from(["{tmp}/missing.words", "{tmp}"]),
)


def _formats(*valid):
    return st.sampled_from([*valid, "xml"])


# per subcommand, every option with a strategy for its value (None: a flag);
# sizes stay small so that every valid call finishes quickly
_OPTIONS = {
    "count": {"--v": _TEXT, "--w": _TEXT, "--k": _NUMBER, "--format": _formats("text", "json")},
    "most-common": {
        "--w": _TEXT,
        "--k": _NUMBER,
        "--length": _NUMBER,
        "--format": _formats("json", "text"),
    },
    "profile": {"--w": _TEXT, "--k": _NUMBER, "--format": _formats("json", "csv")},
    "table": {"--k": _NUMBER, "--n-max": _NUMBER, "--format": _formats("json", "csv")},
    "mu": {
        "--k": _NUMBER,
        "--n": _NUMBER,
        "--places": st.one_of(_NUMBER, st.sampled_from(["1000", "1001", "99999"])),
        "--format": _formats("json"),
    },
    "lcs": {"--inputs": _WORDS_FILE},
    "construct": {"--t": _SMALL, "--blocks": _SMALL},
    "verify-construction": {  # permutations at t=3 take seconds
        "--t": st.sampled_from(["-1", "0", "1", "2", "x"]),
        "--level": st.sampled_from(["signs", "lemma", "permutations", "all"]),
    },
    "shape": {
        "--t": _SMALL,
        "--blocks": _SMALL,
        "--samples": _SMALL,
        "--seed": _NUMBER,
        "--embed-cap": _SMALL,
    },
    "certify": {"--input": _WORDS_FILE, "--chunk": _NUMBER},
    # a valid verify-all run takes about a second; its seed is always bad
    "verify-all": {"--quick": None, "--seed": st.sampled_from(["", "x", "1.5"])},
}


@st.composite
def _argument_lists(draw):
    """A subcommand with each of its options present nine times in ten;
    bytes stand for a words file, "{tmp}" for a temporary directory."""
    sub = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [sub]
    for option, values in _OPTIONS[sub].items():
        if draw(st.integers(0, 9)):
            argv.append(option)
            if values is not None:
                argv.append(draw(values))
    if sub not in ("verify-construction", "verify-all") and draw(st.booleans()):
        argv += ["--out", draw(st.sampled_from(["{tmp}/out.json", "{tmp}"]))]
    if not draw(st.integers(0, 9)):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "x", "-k"])))
    return argv


@given(_argument_lists())
@example(["mu", "--k", "2", "--n", "5", "--places", "99999"])
@settings(max_examples=250, deadline=None)
def test_cli_exit_codes_on_random_arguments(argv):
    with tempfile.TemporaryDirectory() as tmp:
        args = []
        for i, token in enumerate(argv):
            if isinstance(token, bytes):
                path = os.path.join(tmp, f"{i}.words")
                Path(path).write_bytes(token)
                token = path
            args.append(token.replace("{tmp}", tmp))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(args)
            except SystemExit as exc:  # argparse: usage error or --help
                code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
