"""Words over a finite alphabet: the ground type for everything else.

A word is an immutable sequence of symbol ids drawn from ``range(k)``
for a declared alphabet size ``k``.  Small alphabets (k <= 26) render
as lowercase letters, larger ones as comma-separated decimal ids, and
both encodings round-trip through the one-word-per-line file format
with an ``alphabet k=<int>`` header that ``load_words`` reads.

Besides parsing and rendering, the module repeats a word: ``power``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

from .errors import ContractError, require_int, require_int_tuple, require_word

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Word:
    """An immutable word; ``symbols`` are ints in ``range(alphabet_size)``."""

    symbols: tuple[int, ...]
    alphabet_size: int

    def __post_init__(self) -> None:
        if not isinstance(self.alphabet_size, int) or self.alphabet_size < 1:
            raise ContractError(f"alphabet_size must be an int >= 1, got {self.alphabet_size!r}")
        if self.symbols:
            if not all(map(isinstance, self.symbols, repeat(int))):
                bad = next(s for s in self.symbols if not isinstance(s, int))
                raise ContractError(f"symbol {bad!r} is not an int")
            lo, hi = min(self.symbols), max(self.symbols)
            if lo < 0 or hi >= self.alphabet_size:
                raise ContractError(
                    f"symbol {lo if lo < 0 else hi} out of range "
                    f"for alphabet of size {self.alphabet_size}"
                )

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __getitem__(self, i: int) -> int:
        return self.symbols[i]

    def __str__(self) -> str:
        return to_text(self)


def word(text: str, alphabet_size: int | None = None) -> Word:
    """Parse a word from text.

    Lowercase letters map to ids a=0 .. z=25; any digit in the input
    switches to comma-separated decimal parsing.  When ``alphabet_size``
    is omitted it is inferred as one past the largest symbol used.
    """
    if not isinstance(text, str):
        raise ContractError(f"word text must be a str, got {text!r}")
    text = text.strip()
    if text == "":
        syms: tuple[int, ...] = ()
    elif any(c.isdigit() for c in text):
        syms = tuple(_parse_int(p, "symbol id") for p in text.split(","))
    else:
        for c in text:
            if c not in _LETTERS:
                raise ContractError(f"cannot parse symbol {c!r}")
        syms = tuple(_LETTERS.index(c) for c in text)
    if alphabet_size is None:
        alphabet_size = max(syms, default=0) + 1
    return Word(syms, alphabet_size)


def _parse_int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ContractError(f"{what} {token!r} is not an integer") from None


def from_ids(ids, alphabet_size: int | None = None) -> Word:
    """A word from an iterable of int symbol ids; ``alphabet_size`` is
    inferred as in ``word`` when omitted."""
    try:
        syms = tuple(ids)
    except TypeError:
        raise ContractError(f"ids must be an iterable of ints, got {ids!r}") from None
    require_int_tuple(ids=syms)
    if alphabet_size is None:
        alphabet_size = max(syms, default=0) + 1
    return Word(syms, alphabet_size)


def to_text(w: Word) -> str:
    """Render a word: letters when the alphabet allows, else decimal CSV."""
    require_word(w=w)
    if w.alphabet_size <= 26:
        return "".join(_LETTERS[s] for s in w.symbols)
    return ",".join(str(s) for s in w.symbols)


def power(w: Word, m: int) -> Word:
    """m-fold repetition of w; m = 0 gives the empty word."""
    require_word(w=w)
    require_int(m=m)
    if m < 0:
        raise ContractError(f"power exponent must be >= 0, got {m}")
    return Word(w.symbols * m, w.alphabet_size)


# ---------------------------------------------------------------------------
# word files: one word per line under an "alphabet k=<int>" header


def load_words(path: str | Path) -> list[Word]:
    if not isinstance(path, (str, os.PathLike)):
        raise ContractError(f"path must be a str or a path, got {path!r}")
    try:
        raw = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ContractError(f"{path}: not a text file ({exc.reason})") from None
    except OSError as exc:
        raise ContractError(f"{path}: cannot read ({exc.strerror or exc})") from None
    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # trailing newline, not an empty word
    if not lines or not lines[0].startswith("alphabet k="):
        raise ContractError(f"{path}: missing 'alphabet k=<int>' header")
    k = _parse_int(lines[0].split("=", 1)[1], f"{path}: alphabet size")
    return [word(line, alphabet_size=k) for line in lines[1:]]
