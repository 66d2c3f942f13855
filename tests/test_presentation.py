import time

import numpy as np
import pytest

from noncent import core, families, presentation
from noncent.presentation import (CosetLimitExceeded, ParseError,
                                  UndeclaredGenerator, enumerate_presentation, parse)


class TestParse:
    def test_single_relator(self):
        p = parse("< a | a^4 >")
        assert p.generators == ("a",)
        assert p.relators == (((0, 4),),)

    def test_d8_presentation(self):
        p = parse("< a,b | a^4, b^2, b*a*b^-1 = a^-1 >")
        assert len(p.relators) == 3
        # equation stored as lhs * rhs^-1 and freely reduced
        assert p.relators[2] == ((1, 1), (0, 1), (1, -1), (0, 1))

    def test_undeclared_generator(self):
        with pytest.raises(UndeclaredGenerator) as exc:
            parse("< a,b | a^4, b^2, b*a*c >")
        assert exc.value.name == "c"

    def test_space_separated_generators(self):
        assert parse("< a b | a^2, b^2 >").generators == ("a", "b")

    def test_parentheses_and_one(self):
        p = parse("< a,b | (a*b)^2, 1 >")
        assert p.relators[0] == ((0, 1), (1, 1), (0, 1), (1, 1))
        assert p.relators[1] == ()

    def test_negative_exponent(self):
        p = parse("< a | a^-3 >")
        assert p.relators[0] == ((0, -3),)

    def test_free_reduction(self):
        p = parse("< a,b | a*b*b^-1*a >")
        assert p.relators[0] == ((0, 2),)

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse("< a | a^b >")
        assert exc.value.line == 1
        assert exc.value.column == 9

    @pytest.mark.parametrize("text, line, column", [
        ("< a | a^2", 1, 10),
        ("< a | a^2\n", 2, 1),
        ("< a | a^2\n\n", 3, 1),
        ("< a |\n a^2 ,\n", 3, 1),
        ("< a |\n a^2", 2, 5),
        ("< a |\r a^2 ,", 1, 13),
        ("", 1, 1),
    ])
    def test_end_of_input_position(self, text, line, column):
        # the position just past the last character, which starts a new
        # line after a trailing newline
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.line, exc.value.column) == (line, column)

    def test_missing_close(self):
        with pytest.raises(ParseError):
            parse("< a | a^2")

    def test_duplicate_generator(self):
        with pytest.raises(ParseError):
            parse("< a, a | a^2 >")

    def test_str_roundtrip(self):
        text = "< a, b | a^4, b^2, b*a*b^-1*a >"
        p = parse(text)
        assert parse(str(p)) == p

    def test_free_reduction_cancels_whole_runs(self):
        assert parse("< a, b | a^2*a^-2*b >").relators == (((1, 1),),)

    @pytest.mark.parametrize("text, line, column", [
        ("< a |\x0c a^b", 1, 10),
        ("< a |\r a^b", 1, 10),
        ("< a,\x85b | a^2 >\u2028\x0bx", 1, 17),
        ("< a |\r\n a^b", 2, 4),
    ])
    def test_lines_break_at_newline_only(self, text, line, column):
        # "\r", form feed and the other str.splitlines() breaks are
        # whitespace within a line, as they are at the end of input
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.line, exc.value.column) == (line, column)


class TestEnumerate:
    def test_c5(self):
        g = enumerate_presentation(parse("< a | a^5 >"))
        assert g.order == 5 and g.is_abelian

    def test_m16_center(self):
        g = enumerate_presentation(parse("< a,b | a^8, b^2, b*a*b = a^5 >"))
        assert g.order == 16
        assert g.center().size == 4

    def test_infinite_group_detected(self):
        with pytest.raises(CosetLimitExceeded):
            enumerate_presentation(parse("< a,b | a^2 >"), max_cosets=1000)

    def test_trivial_quotient(self):
        g = enumerate_presentation(parse("< a | a^3, a^2 >"))
        assert g.order == 1

    def test_identity_first_and_validated(self):
        g = enumerate_presentation(parse("< a,b | a^4, b^2, b*a*b^-1 = a^-1 >"))
        assert (np.asarray(g.table)[0] == np.arange(8)).all()

    def test_deterministic(self):
        text = "< a,b | a^4, a^2 = b^2, b*a*b^-1 = a^-1 >"
        g1 = enumerate_presentation(parse(text))
        g2 = enumerate_presentation(parse(text))
        assert (np.asarray(g1.table) == np.asarray(g2.table)).all()
        assert g1.labels == g2.labels

    def test_env_var_cap(self, monkeypatch):
        monkeypatch.setenv("NONCENT_MAX_COSETS", "2")
        with pytest.raises(CosetLimitExceeded):
            enumerate_presentation(parse("< a | a^50 >"))

    def test_coincidence_collapse(self):
        # relators force a = b and the whole group down to C2
        g = enumerate_presentation(parse("< a,b | a*b^-1, a^2 >"))
        assert g.order == 2


class TestLongPowerRelators:
    """A power relator is walked once around each closed loop of cosets, not
    once at every coset on it, so < a | a^k > costs about k letter steps."""

    def test_past_table_budget_promptly(self):
        start = time.perf_counter()
        with pytest.raises(core.TooLarge):
            enumerate_presentation(parse("< a | a^8000 >"))
        assert time.perf_counter() - start < 1

    def test_enumerates_promptly(self):
        start = time.perf_counter()
        g = enumerate_presentation(parse("< a | a^4000 >"))
        assert time.perf_counter() - start < 1
        assert g.order == 4000 and g.labels[:3] == ("e", "a", "a^-1")

    def test_huge_power_collapses_to_trivial(self):
        # a^2 and a^1000001 leave a = 1; the cap is hit once before a^2 is read
        g = enumerate_presentation(parse("< a | a^1000001, a^2 >"))
        assert g.order == 1 and g.labels == ("e",)

    def test_short_relator_scanned_first(self, monkeypatch):
        # a^2 closes coset 0 before a^1000001 is walked, so the cap is never hit
        def no_lookahead(ct):
            raise AssertionError("lookahead entered")

        monkeypatch.setattr(presentation, "_lookahead", no_lookahead)
        g = enumerate_presentation(parse("< a | a^1000001, a^2 >"))
        assert g.order == 1 and g.labels == ("e",)


FAMILY_PRESENTATIONS = [
    ("< a | a^6 >", families.cyclic, (6,)),
    ("< a,b | a^5, b^2, b*a*b = a^-1 >", families.dihedral, (5,)),
    ("< a,b | a^8, b^2, b*a*b = a^-1 >", families.dihedral, (8,)),
    ("< a,b | a^8, a^4 = b^2, b*a*b^-1 = a^-1 >", families.generalized_quaternion, (16,)),
    ("< a,b | a^16, a^8 = b^2, b*a*b^-1 = a^-1 >", families.generalized_quaternion, (32,)),
    ("< a,b | a^8, b^2, b*a*b = a^5 >", families.modular_M, (16,)),
    ("< a,b | a^16, b^2, b*a*b = a^9 >", families.modular_M, (32,)),
    ("< a,b | a^32, b^2, b*a*b = a^17 >", families.modular_M, (64,)),
]


@pytest.mark.parametrize("text,ctor,args", FAMILY_PRESENTATIONS)
def test_presentation_matches_family(text, ctor, args):
    """Coset enumeration agrees with the direct table constructions."""
    enumerated = enumerate_presentation(parse(text))
    direct = ctor(*args)
    assert enumerated.order == direct.order
    assert core.is_isomorphic(enumerated, direct)
