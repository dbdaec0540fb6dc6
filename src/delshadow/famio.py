"""The family text format.

UTF-8 text; '#' lines are comments; the first data line is `n k`; every later
data line is one sequence as n space-separated integers in [0, k].  Blank lines
are skipped, except under an `0 k` header, where a blank line after the header
is the empty sequence (), the only member of length 0.  Files are written
sorted in the <= order so output is bit-exact reproducible.
"""
from __future__ import annotations

from .seqcore import Family

# Entries lie in [0, k]; sharing the text of those below 256 spares a long
# member one new str per entry, and a table from that text to the entry parses
# a line of canonical tokens with no int() per token.
_ENTRY_TEXT = tuple(map(str, range(256)))


class FamilyFormatError(ValueError):
    """Malformed family file; the message carries the offending line number."""


def read_family(stream) -> Family:
    header = None
    members = []
    n = k = 0
    entry = {}  # canonical text -> entry, for the entries 0 .. min(k, 255)
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if line.startswith("#") or not line and (header is None or n):
            continue  # past an `0 k` header, a blank line is the member ()
        tokens = line.split()
        if len(tokens) == n:
            try:
                members.append(tuple(map(entry.__getitem__, tokens)))
                continue
            except KeyError:
                pass  # another spelling, or no header yet: checked one token at a time
        try:
            values = [int(tok) for tok in tokens]
        except ValueError:
            raise FamilyFormatError(f"line {lineno}: non-integer token in {line!r}")
        if header is None:
            if len(values) != 2:
                raise FamilyFormatError(f"line {lineno}: header must be `n k`, got {line!r}")
            n, k = values
            if n < 0 or k < 1:
                raise FamilyFormatError(f"line {lineno}: need n >= 0 and k >= 1, got n={n} k={k}")
            header = (n, k)
            entry = {text: e for e, text in enumerate(_ENTRY_TEXT[:k + 1])}
            continue
        if len(values) != n:
            raise FamilyFormatError(
                f"line {lineno}: expected {n} entries, got {len(values)}"
            )
        for e in values:
            if not (0 <= e <= k):
                raise FamilyFormatError(f"line {lineno}: entry {e} not in [0, {k}]")
        members.append(tuple(values))
    if header is None:
        raise FamilyFormatError("missing `n k` header line")
    return Family(n, k, frozenset(members))


def write_family(a: Family, stream) -> None:
    members = list(a)  # Family iterates in <= order; sort before writing anything
    stream.write(f"{a.n} {a.k}\n")
    for x in members:
        stream.write(format_sequence(x) + "\n")


def format_sequence(x) -> str:
    return " ".join([_ENTRY_TEXT[e] if e < 256 else str(e) for e in x])
