"""Game file grammar: parsing, canonical serialization, diagnostics."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from domelim.errors import DomelimError, GameParseError
from domelim.gamefile import format_rational, parse_game, parse_rational, write_game
from domelim.generate import random_game

from fixtures import G_ONE, G_PD
from oracles import payoff

G_PD_TEXT = """\
players 2
labels 1: C D
labels 2: C D
payoffs
2 2
0 3
3 0
1 1
"""


class TestParse:
    def test_pd_document(self):
        g = parse_game(G_PD_TEXT)
        assert g == G_PD
        assert payoff(g, 0, (0, 0)) == 2

    def test_minimal_game(self):
        text = "players 2\nlabels 1: A\nlabels 2: X\npayoffs\n0 0\n"
        assert parse_game(text) == G_ONE

    def test_rational_syntax(self):
        text = "players 2\nlabels 1: A\nlabels 2: X\npayoffs\n1/2 -3\n"
        g = parse_game(text)
        assert payoff(g, 0, (0, 0)) == F(1, 2)
        assert payoff(g, 1, (0, 0)) == -3

    def test_comments_and_blank_lines(self):
        text = "# a game\n\nplayers 2 # two\nlabels 1: A\nlabels 2: X\n\npayoffs\n0 0\n"
        assert parse_game(text) == G_ONE

    @pytest.mark.parametrize(
        "text,line",
        [
            ("gamers 2\n", 1),
            ("players 1\nlabels 1: A\n", 1),
            ("players 2\nlabels 1: A A\nlabels 2: X\npayoffs\n0 0\n", 2),
            ("players 2\nlabels 1: A\nlabels 2: X\npayoffs\n0 0\n0 0\n", 6),
            ("players 2\nlabels 1: A\nlabels 2: X\npayoffs\n0 0 0\n", 5),
            ("players 2\nlabels 1: A\nlabels 2: X\npayoffs\n1/0 0\n", 5),
            ("players 2\nlabels 1: A\nlabels 2: X\npayoffs\n0 x\n", 5),
            ("players 2\nlabels 1: A\nlabels 2: X\npayoffs\n", 4),
        ],
    )
    def test_diagnostics_carry_line_numbers(self, text, line):
        with pytest.raises(GameParseError) as err:
            parse_game(text)
        assert err.value.line == line


    def test_overlong_numbers_rejected(self):
        # Past the interpreter's limit on digits `int` converts.
        digits = "7" * 5000
        for text, line in [
            (f"players {digits}\n", 1),
            (f"players 2\nlabels 1: A\nlabels 2: X\npayoffs\n{digits} 0\n", 5),
            (f"players 2\nlabels 1: A\nlabels 2: X\npayoffs\n0 1/{digits}\n", 5),
        ]:
            with pytest.raises(GameParseError) as err:
                parse_game(text)
            assert err.value.line == line


class TestWrite:
    def test_pd_canonical(self):
        assert write_game(G_PD) == G_PD_TEXT

    def test_one_line_count(self):
        assert len(write_game(G_ONE).strip().split("\n")) == 5

    def test_rationals_canonicalized(self):
        text = "players 2\nlabels 1: A\nlabels 2: X\npayoffs\n2/4 -6/4\n"
        assert "1/2 -3/2" in write_game(parse_game(text))

    def test_round_trip_random_games(self):
        rng = random.Random(70)
        for k in range(100):
            g = random_game(rng, 3 if k % 5 == 0 else 2)
            assert parse_game(write_game(g)) == g

    @given(st.integers(-10**12, 10**12), st.integers(1, 10**12))
    def test_rational_round_trip(self, num, den):
        x = F(num, den)
        assert parse_rational(format_rational(x), 0) == x


EDITS = st.lists(
    st.tuples(
        st.integers(0, len(G_PD_TEXT)),
        st.integers(0, 3),
        st.text(alphabet="0123456789-/ :#\nplayersbofD", max_size=4),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(EDITS, st.text(max_size=40))
def test_random_text_ends_in_a_domain_error(edits, noise):
    """Edited game files and random text parse or raise a DomelimError."""
    text = G_PD_TEXT
    for at, cut, insert in edits:
        text = text[:at] + insert + text[at + cut :]
    for candidate in (text, noise, text + noise):
        try:
            parse_game(candidate)
        except DomelimError:
            pass
