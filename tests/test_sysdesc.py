from __future__ import annotations

import json
import logging
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from efcert.algebra import Poly, RatFunc
from efcert.efunction import augment_exp, catalog, extract_params
from efcert.errors import AllComponentsZero, EfcertError, InputError
from efcert.sysdesc import (catalog_file, emit_system, frac_str, parse_ratfunc,
                            parse_rational, parse_system, poly_str,
                            ratfunc_str, resolve_system_path, system_from_dict)


class TestExpressionParser:
    @pytest.mark.parametrize("text", [
        "0", "1", "-1", "z", "3/7", "1/2*z^2 - z + 3", "(-1)/(z)",
        "(z - 1/2)/(z)", "(z^2 + 1)/(z^3 - 2*z)", "2*z*(z+1)", "-(z-1)^2",
    ])
    def test_round_trip(self, text):
        f = parse_ratfunc(text)
        assert parse_ratfunc(ratfunc_str(f)) == f

    def test_values(self):
        f = parse_ratfunc("(z^2 - 1)/(z + 1)")
        assert f.is_polynomial() and f.to_poly() == Poly([-1, 1])
        assert parse_ratfunc("1/2*z")(F(4)) == F(2)
        assert parse_ratfunc("2^3")(F(0)) == 8
        assert parse_ratfunc("(z+1)^5").to_poly() == Poly([1, 5, 10, 10, 5, 1])
        assert parse_ratfunc("(1/z)^3") == RatFunc(Poly([1]), Poly([0, 0, 0, 1]))
        assert parse_ratfunc("z^256").to_poly() == Poly([0] * 256 + [1])
        assert parse_ratfunc("z^100*z^156").to_poly() == Poly([0] * 256 + [1])
        assert parse_ratfunc("z^200/z^56") == parse_ratfunc("z^144")
        assert parse_ratfunc("(" * 64 + "z" + ")" * 64) == parse_ratfunc("z")

    @pytest.mark.parametrize("text, column, message", [
        ("(z+1", 5, "expected ')'"),
        ("z^x", 3, "expected an integer"),
        ("z x", 3, "unexpected 'x'"),
        ("2*x", 3, "unexpected 'x'"),
    ])
    def test_syntax_errors_name_the_column(self, text, column, message):
        with pytest.raises(InputError) as exc:
            parse_ratfunc(text)
        assert str(exc.value) == (f"expression {text!r}, column {column}: "
                                  f"{message}")

    def test_errors_have_positions(self):
        with pytest.raises(InputError, match="column"):
            parse_ratfunc("z + ")
        with pytest.raises(InputError, match="column"):
            parse_ratfunc("z @ 1")
        with pytest.raises(InputError):
            parse_ratfunc("1/(z - z)")

    @pytest.mark.parametrize("text, column", [
        ("z + " + "1" * 5000, 5),
        ("(1+z)^3000", 7),
        ("((1+z)^40)^40", 12),
        ("((((2^64)^64)^64)^64)^64", 11),
        ("z^400", 3),
        ("(" * 300 + "z" + ")" * 300, 65),
    ], ids=["literal", "power", "nested_power", "constant_power", "z400",
            "nested_parens"])
    def test_oversized_input_rejected(self, text, column):
        with pytest.raises(InputError, match=f"column {column}: "):
            parse_ratfunc(text)

    @pytest.mark.parametrize("text, column, what", [
        ("(1+z)^256*(1+z)^256*(1+z)^256*(1+z)^256", 10, "product"),
        ("*".join(["(1+z)^256"] * 8), 10, "product"),
        ("z^200 * z^57", 7, "product"),
        ("1 + z^2*z^200/z^55", 14, "quotient"),
        ("2^2000*2^2000*2^100", 14, "product"),
        ("2^2000*2^2000/3^70", 14, "quotient"),
    ], ids=["four_powers", "eight_powers", "degree", "quotient_degree",
            "bits", "quotient_bits"])
    def test_oversized_product_rejected(self, text, column, what):
        # predicted from the factors: degrees add, coefficient bits add
        with pytest.raises(InputError,
                           match=f"column {column}: {what} too large"):
            parse_ratfunc(text)

    def test_sum_of_high_order_poles_within_budget(self):
        # a sum brings its terms to the lcm of their denominators without a
        # Euclid of the degree-255 cross products (about 8 s when it had one)
        t0 = time.perf_counter()
        f = parse_ratfunc("1/(z+1)^128+1/(z+2)^127")
        assert time.perf_counter() - t0 < 4.0
        assert (f.num.degree, f.denom.degree) == (128, 255)
        assert f(F(0)) == 1 + F(1, 2 ** 127)

    def test_coprime_poles_skip_euclid(self):
        # the denominators are coprime, which a gcd modulo one prime shows
        # without a Euclid over Q: 0.12 s here (0.24 s beside a busy core),
        # against 1.2 s when every sum ran the Euclid
        t0 = time.perf_counter()
        f = parse_ratfunc("1/(z+1)^86+1/(z+2)^85+1/(z+3)^85")
        assert time.perf_counter() - t0 < 0.75
        assert f.denom.degree == 256
        assert f(F(0)) == 1 + F(1, 2 ** 85) + F(1, 3 ** 85)

    @pytest.mark.parametrize("text, column", [
        ("1/(z+1)^128+1/(z+2)^128+1/(z+3)^128", 24),
        ("1/(z+1)^128-1/(z+2)^128-1/(z+3)^128-1/(z+4)^128", 24),
        ("z^200 + 1/z^57", 7),
    ], ids=["three_poles", "four_poles", "degree"])
    def test_oversized_sum_rejected_fast(self, text, column):
        # predicted before adding: degree of (ad + cb)/(bd) for a/b + c/d.
        # The three poles took 13.8 s to add without the prediction.
        t0 = time.perf_counter()
        with pytest.raises(InputError,
                           match=f"column {column}: sum too large"):
            parse_ratfunc(text)
        assert time.perf_counter() - t0 < 2.0

    @pytest.mark.parametrize("text", [
        "1/(z+1)^86+1/(z+2)^85+1/(z+3)^85",
        "+".join(f"1/(z+{i})^32" for i in range(1, 9)),
        "z^256 - z^255/(1+z)^0",
    ], ids=["three_poles", "eight_poles", "polynomial"])
    def test_sums_at_the_degree_budget_parse(self, text):
        t0 = time.perf_counter()
        f = parse_ratfunc(text)
        assert time.perf_counter() - t0 < 8.0
        assert max(f.num.degree, f.denom.degree) == 256

    def test_poly_printer(self):
        assert poly_str(Poly([])) == "0"
        assert poly_str(Poly([-2, 1])) == "z - 2"
        assert poly_str(Poly([0, F(1, 2), 0, -3])) == "-3*z^3 + 1/2*z"


class TestSystemFiles:
    @pytest.mark.parametrize("name", ["bessel_j0", "exp_pair",
                                      "kummer_1_3_1_2"])
    def test_round_trip_field_for_field(self, name):
        path = catalog_file(name)
        sys1 = parse_system(path)
        text = emit_system(sys1)
        sys2 = system_from_dict(json.loads(text))
        assert sys1 == sys2
        assert emit_system(sys2) == text          # byte-stable reserialization

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.data())
    def test_generated_round_trip(self, data):
        # Polynomial entries of A and one seed per component, so the seed
        # probe accepts every generated system; one whose seeds are all zero
        # is refused.
        m = data.draw(st.integers(1, 3))
        fracs = st.builds(F, st.integers(-20, 20), st.integers(1, 9))
        entries = [[data.draw(st.lists(fracs, max_size=3)) for _ in range(m)]
                   for _ in range(m)]
        seeds = [data.draw(fracs) for _ in range(m)]
        doc = {"m": m,
               "A": [[" + ".join([f"({c})*z^{k}" for k, c in enumerate(e)]
                                 or ["0"]) for e in row] for row in entries],
               "seeds": [[str(c)] for c in seeds]}
        if data.draw(st.booleans()):
            t = data.draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3)
                          .filter(any))
            doc["T"] = " + ".join(f"({c})*z^{k}" for k, c in enumerate(t))
        if data.draw(st.booleans()):
            doc["labels"] = data.draw(st.lists(
                st.text("abJ0'()*_", max_size=6), min_size=m, max_size=m))
        if data.draw(st.booleans()):
            at_least_one = st.builds(lambda x: 1 + abs(x), fracs)
            doc["growth"] = {"C": str(data.draw(at_least_one)),
                             "D": str(data.draw(at_least_one)),
                             "provenance": data.draw(st.sampled_from(
                                 ["catalog", "user-supplied"]))}
        if data.draw(st.booleans()):
            doc["exponent_bound"] = data.draw(st.dictionaries(
                st.sampled_from(["global", "infinity", "0", "1/2", "-3"]),
                st.builds(abs, fracs).map(str), min_size=1))

        if not any(seeds):
            with pytest.raises(AllComponentsZero, match="field 'seeds'"):
                system_from_dict(json.loads(json.dumps(doc)))
            return
        sys1 = system_from_dict(json.loads(json.dumps(doc)))
        assert sys1.A == tuple(tuple(RatFunc(Poly(e)) for e in row)
                               for row in entries)
        assert sys1.seeds == tuple((c,) for c in seeds)
        text = emit_system(sys1)
        sys2 = system_from_dict(json.loads(text))
        for field in ("m", "A", "T", "TA", "seeds", "labels", "growth",
                      "exponent_bound", "clear_factor"):
            assert getattr(sys2, field) == getattr(sys1, field), field
        assert emit_system(sys2) == text

    def test_shipped_bessel_matches_catalog(self):
        shipped = parse_system(catalog_file("bessel_j0"))
        built, _ = catalog("bessel_j0")
        assert shipped == built
        params = extract_params(shipped)
        assert (params.p, params.q, params.E) == (0, 1, F(1))

    @pytest.mark.parametrize("name", ["kummer_1_3_1_2", "exp_pair"])
    def test_shipped_file_matches_catalog(self, name):
        # growth included: kummer's shipped D is kummer_growth_certificate's
        built = {"kummer_1_3_1_2": lambda: catalog("1f1", a=F(1, 3),
                                                   b=F(1, 2))[0],
                 "exp_pair": lambda: augment_exp(catalog("exp", beta=1)[0],
                                                 2)}[name]()
        assert parse_system(catalog_file(name)) == built

    def test_T_auto_rescaled_with_warning(self, caplog):
        doc = json.loads(catalog_file("kummer_1_3_1_2").read_text())
        doc["T"] = "z"                      # does not clear A integrally
        with caplog.at_level(logging.WARNING, logger="efcert.sysdesc"):
            sys = system_from_dict(doc)
        assert sys.T == Poly([0, 6])
        assert any("rescaled" in rec.message for rec in caplog.records)

    def test_malformed_rational_rejected(self):
        doc = {"m": 1, "A": [["1"]], "seeds": [["1/0"]]}
        with pytest.raises(InputError, match="seeds"):
            system_from_dict(doc)

    def test_shape_errors(self):
        with pytest.raises(InputError, match="'A'"):
            system_from_dict({"m": 2, "A": [["1"]], "seeds": [["1"], ["1"]]})
        with pytest.raises(InputError, match="seeds"):
            system_from_dict({"m": 1, "A": [["1"]], "seeds": []})

    ONE = {"m": 1, "A": [["1"]], "seeds": [["1"]]}

    @pytest.mark.parametrize("doc, message", [
        ([1], "top level must be a JSON object"),
        ({**ONE, "m": 0, "A": [], "seeds": []},
         "field 'm': missing or not a positive integer"),
        ({**ONE, "labels": "f"}, "field 'labels': must be a list of 1 strings"),
        ({**ONE, "growth": "1"},
         "field 'growth': must be an object with C, D, provenance"),
        ({**ONE, "growth": {"C": "1"}}, "field 'growth': 'D'"),
        ({**ONE, "growth": {"C": "1/2", "D": "1"}},
         "field 'growth': growth certificate requires C >= 1 and D >= 1"),
        ({**ONE, "T": "1/z"}, "field 'T': must be a nonzero polynomial"),
        ({**ONE, "T": "0"}, "field 'T': must be a nonzero polynomial"),
        ({**ONE, "A": [["1/(z-1)"]], "T": "z"},
         "field 'T': candidate polynomial does not clear A"),
        ({**ONE, "exponent_bound": {"global": "x"}},
         "field 'exponent_bound': malformed rational 'x': Invalid literal "
         "for Fraction: 'x'"),
        ({**ONE, "exponent_bound": "-1"},
         "field 'exponent_bound': bound at 'global' must be >= 0"),
        ({**ONE, "exponent_bound": {"irrationals": "1"}},
         "field 'exponent_bound': exponent_bound key 'irrationals' is neither "
         "a rational point nor one of global, infinity, irrational"),
        ({"m": 2, "A": [["0", "1"], ["-1", "-1/z"]], "seeds": [["1"], ["1"]]},
         "field 'seeds': recurrence at order 0, component 2 (seeds violate "
         "the system)"),
        ({**ONE, "A": [["2/z"]], "seeds": [["0"]]},
         "field 'seeds': coefficient of z^2 in component 1 is not pinned; "
         "supply more seed terms"),
        ({**ONE, "seeds": [["0", "0/3"]]},
         "field 'seeds': every seed is zero, so every component vanishes "
         "identically; vanishing order undefined"),
        ({**ONE, "labels": [[1]]},
         "field 'labels': must be a list of 1 strings"),
    ], ids=["top_level", "m_zero", "labels", "growth_type", "growth_key",
            "growth_value", "T_rational", "T_zero", "T_not_clearing",
            "bound_value", "bound_negative", "bound_key",
            "seeds_contradicted", "seeds_free", "seeds_zero",
            "labels_not_strings"])
    def test_errors_name_file_and_field(self, doc, message):
        with pytest.raises(EfcertError) as exc:
            system_from_dict(doc, "F.json")
        assert str(exc.value) == f"F.json: {message}"

    def test_integer_literal_past_int_digits_rejected(self, tmp_path):
        # json.loads raises a plain ValueError for a literal of more than
        # 4,300 digits
        doc = json.loads(catalog_file("bessel_j0").read_text())
        doc["seeds"][0] = [0]
        p = tmp_path / "big_seed.json"
        p.write_text(json.dumps(doc).replace("[0]", "[" + "1" * 5000 + "]"),
                     encoding="utf-8")
        with pytest.raises(InputError, match="big_seed.json"):
            parse_system(p)

    def test_infinite_m_rejected(self, tmp_path):
        p = tmp_path / "inf_m.json"
        p.write_text('{"m": 1e400, "A": [["1"]], "seeds": [["1"]]}',
                     encoding="utf-8")
        with pytest.raises(InputError, match="'m'"):
            parse_system(p)

    @pytest.mark.parametrize("m", [1.5, 1.0, True, "1", None])
    def test_non_integer_m_rejected(self, m):
        # int() read 1.5 as 1; None stands for a missing m
        doc = {"m": m, "A": [["1"]], "seeds": [["1"]]}
        if m is None:
            del doc["m"]
        with pytest.raises(InputError, match="'m'"):
            system_from_dict(doc)

    @pytest.mark.parametrize("field", ["seeds", "growth", "exponent_bound"])
    def test_large_exponent_notation_rejected(self, field):
        # Fraction evaluates the power of ten first: 1e999999999 would be an
        # integer of about 415 MB
        doc = {"m": 1, "A": [["1"]], "seeds": [["1"]],
               "growth": {"C": "1", "D": "1"}, "exponent_bound": "1"}
        doc[field] = {"seeds": [["1e1001"]],
                      "growth": {"C": "1", "D": "1e-1001"},
                      "exponent_bound": "1E+1_001"}[field]
        with pytest.raises(InputError, match="exponent of more than 1000"):
            system_from_dict(doc)

    def test_exponent_notation_up_to_the_limit(self):
        assert parse_rational("1e1000") == 10 ** 1000
        assert parse_rational(" 25E-0_1000 ") == F(25, 10 ** 1000)
        assert parse_rational("2.5e3") == 2500
        for text in ("1e1001", "1e-1001", "1e" + "9" * 5000):
            with pytest.raises(InputError, match="exponent"):
                parse_rational(text)

    def test_syntax_error_position(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{\n  \"m\": 1,\n}", encoding="utf-8")
        with pytest.raises(InputError, match="line 3"):
            parse_system(p)

    def test_resolver(self, tmp_path):
        assert resolve_system_path("bessel_j0").name == "bessel_j0.json"
        assert resolve_system_path("bessel_j0.json").name == "bessel_j0.json"
        real = tmp_path / "x.json"
        real.write_text("{}", encoding="utf-8")
        assert resolve_system_path(str(real)) == real
        with pytest.raises(InputError):
            resolve_system_path("no_such_system")

    def test_frac_str(self):
        assert frac_str(F(3)) == "3"
        assert frac_str(F(-1, 2)) == "-1/2"
