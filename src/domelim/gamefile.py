"""Line-oriented game file format.

    players <n>
    labels <i>: <name> <name> ...      (one line per player, i is 1-based)
    payoffs
    <n rationals per line, one line per joint strategy, odometer order>

'#' starts a comment to end of line; blank lines are ignored.  Rationals
are `p` or `p/q` with q > 0 after the sign; serialization is canonical
(reduced, denominator omitted when 1), so parse(write(g)) == g bit-exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import GameParseError
from .game import Game

_RATIONAL_RE = re.compile(r"^-?[0-9]+(/[0-9]+)?$")


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _int(digits: str, line: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's limit on digits to convert
        raise GameParseError(line, f"number of {len(digits)} digits is too long")


def parse_rational(token: str, line: int) -> Fraction:
    if not isinstance(token, str) or not _RATIONAL_RE.match(token):
        raise GameParseError(line, f"bad rational {token!r}")
    if "/" in token:
        num, den = token.split("/")
        if _int(den, line) == 0:
            raise GameParseError(line, f"zero denominator in {token!r}")
        return Fraction(_int(num, line), int(den))
    return Fraction(_int(token, line))


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((lineno, body))
    return out


def parse_game(text: str) -> Game:
    lines = _content_lines(text)
    pos = 0

    def need(what: str) -> tuple[int, str]:
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1][0] if lines else 1
            raise GameParseError(last, f"unexpected end of file, expected {what}")
        item = lines[pos]
        pos += 1
        return item

    lineno, header = need("'players <n>'")
    m = re.fullmatch(r"players\s+(\d+)", header)
    if not m:
        raise GameParseError(lineno, f"expected 'players <n>', got {header!r}")
    n = _int(m.group(1), lineno)
    if n < 2:
        raise GameParseError(lineno, f"at least 2 players required, got {n}")

    labels: list[tuple[str, ...]] = []
    for i in range(1, n + 1):
        lineno, line = need(f"'labels {i}: ...'")
        m = re.fullmatch(rf"labels\s+{i}\s*:\s*(.+)", line)
        if not m:
            raise GameParseError(lineno, f"expected 'labels {i}: <names>', got {line!r}")
        names = tuple(m.group(1).split())
        if len(set(names)) != len(names):
            raise GameParseError(lineno, f"duplicate labels for player {i}")
        labels.append(names)

    lineno, line = need("'payoffs'")
    if line != "payoffs":
        raise GameParseError(lineno, f"expected 'payoffs', got {line!r}")

    joints = 1
    for names in labels:
        joints *= len(names)
    rows = []
    for _ in range(joints):
        lineno, line = need("a payoff line")
        tokens = line.split()
        if len(tokens) != n:
            raise GameParseError(
                lineno, f"payoff line has {len(tokens)} entries, expected {n}"
            )
        rows.append(tuple(parse_rational(t, lineno) for t in tokens))
    if pos < len(lines):
        raise GameParseError(lines[pos][0], f"trailing garbage {lines[pos][1]!r}")
    return Game.from_table(labels, rows)


def write_game(g: Game) -> str:
    out = [f"players {g.n}"]
    for i, names in enumerate(g.labels, start=1):
        out.append(f"labels {i}: " + " ".join(names))
    out.append("payoffs")
    for k in range(g.num_joints):
        row = g.payoffs[k * g.n : (k + 1) * g.n]
        out.append(" ".join(format_rational(x) for x in row))
    return "\n".join(out) + "\n"
