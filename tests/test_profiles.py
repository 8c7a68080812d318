import json
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from attacksim.actions import Action, ActionDatabase
from attacksim.errors import ValidationFailure
from attacksim.profiles import (
    AttackerProfile,
    ProfilePmf,
    ProfileSchema,
    PropertySchema,
    load_profiles,
    match_unordered,
    pmf_probabilities,
    profile_set_from_dict,
    sample_profile,
    scale_bounded,
    scale_ordered_set,
    scale_profile,
    scale_unbounded,
    validate_profile,
)


class TestScaleBounded:
    @pytest.mark.parametrize("eps,lo,hi,expected", [
        (5, 0, 10, 0.5),
        (0, 0, 10, 0.0),
        (10, 0, 10, 1.0),
        (7, 2, 12, 0.5),
    ])
    def test_linear_map(self, eps, lo, hi, expected):
        assert scale_bounded(eps, lo, hi) == expected

    def test_out_of_bounds_names_property(self):
        with pytest.raises(ValueError, match="Knowledge"):
            scale_bounded(11, 0, 10, name="Knowledge")

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError, match="lower bound"):
            scale_bounded(1, 5, 5)

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_output_in_unit_interval(self, a, b, c):
        lo, hi = min(a, b), max(a, b)
        assume(hi - lo > 1e-9)
        eps = lo + (hi - lo) * min(1.0, max(0.0, abs(c) % 1.0))
        assert 0.0 <= scale_bounded(eps, lo, hi) <= 1.0

    @given(st.floats(0.001, 0.999), st.floats(0.001, 0.999))
    def test_strictly_monotone(self, x, y):
        assume(abs(x - y) > 1e-12)
        lo, hi = -3.0, 7.0
        a, b = sorted((lo + x * (hi - lo), lo + y * (hi - lo)))
        assume(a < b)
        assert scale_bounded(a, lo, hi) < scale_bounded(b, lo, hi)


class TestScaleUnbounded:
    def test_interior_value(self):
        assert scale_unbounded(3, [1, 3, 5]) == 0.5

    def test_degenerate_population_maps_to_midpoint(self):
        assert scale_unbounded(1, [1, 1, 1]) == 0.5

    def test_maximum_maps_to_one(self):
        assert scale_unbounded(9, [1, 5, 9]) == 1.0

    def test_outside_population_clamps(self):
        assert scale_unbounded(100, [1, 5, 9]) == 1.0
        assert scale_unbounded(-100, [1, 5, 9]) == 0.0

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError, match="population"):
            scale_unbounded(1, [])

    @settings(max_examples=200)
    @given(
        st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=8),
        st.floats(-1e4, 1e4),
        st.floats(0.1, 1000.0),
        st.floats(-1e4, 1e4),
    )
    def test_affine_invariance(self, pop, eps, a, b):
        assume(max(pop) - min(pop) > 1e-3)
        before = scale_unbounded(eps, pop)
        after = scale_unbounded(a * eps + b, [a * x + b for x in pop])
        assert after == pytest.approx(before, abs=1e-9)


class TestScaleOrderedSet:
    @pytest.mark.parametrize("label,values,expected", [
        ("Low", ["Low", "Medium", "High"], 0.0),
        ("Medium", ["Low", "Medium", "High"], 0.5),
        ("High", ["Low", "Medium", "High"], 1.0),
        ("only", ["only"], 0.5),
    ])
    def test_linear_index_map(self, label, values, expected):
        assert scale_ordered_set(label, values) == expected

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown label"):
            scale_ordered_set("Extreme", ["Low", "High"])


class TestMatchUnordered:
    def test_match_is_one(self):
        assert match_unordered("Direct", "Direct") == 1.0

    def test_mismatch_is_zero(self):
        assert match_unordered("Direct", "Offsite") == 0.0

    def test_symmetric(self):
        labels = ["Direct", "Wireless", "Offsite"]
        for a in labels:
            for b in labels:
                assert match_unordered(a, b) == match_unordered(b, a)

    def test_unknown_label_rejected_when_values_given(self):
        with pytest.raises(ValueError, match="unknown label"):
            match_unordered("Direct", "Nope", allowed_values=["Direct"])


class TestPmf:
    def _pmf(self, likelihoods):
        return ProfilePmf(tuple(
            (AttackerProfile(name=f"P{i}", values={}), l)
            for i, l in enumerate(likelihoods)))

    def test_uniform(self):
        assert pmf_probabilities(self._pmf([1, 1, 1, 1])) == [0.25] * 4

    def test_normalized_passthrough(self):
        assert pmf_probabilities(self._pmf([0.2, 0.8])) == [0.2, 0.8]

    def test_mass_on_one_profile(self):
        assert pmf_probabilities(self._pmf([0, 1])) == [0.0, 1.0]

    @pytest.mark.parametrize("likelihoods, expected", [
        ([0.1, 0.2, 0.3],
         [0.16666666666666666, 0.3333333333333333, 0.4999999999999999]),
        ([0.7, 0.1, 0.1, 0.1],
         [0.7000000000000001, 0.10000000000000002, 0.10000000000000002,
          0.10000000000000002]),
    ])
    def test_total_is_summed_in_order(self, likelihoods, expected):
        # The total is 0.0 + l0 + l1 + ..., rounded after each addition.
        # A compensated sum (builtin sum on floats from Python 3.12) gives
        # 0.6 and 1.0 here, which would move a seeded profile draw.
        assert pmf_probabilities(self._pmf(likelihoods)) == expected

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            pmf_probabilities(self._pmf([0.0, 0.0]))

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
           st.floats(0.01, 100.0))
    def test_scale_invariant_and_normalized(self, likelihoods, c):
        assume(sum(likelihoods) > 1e-6)
        base = pmf_probabilities(self._pmf(likelihoods))
        scaled = pmf_probabilities(self._pmf([l * c for l in likelihoods]))
        assert abs(sum(base) - 1.0) < 1e-9
        for x, y in zip(base, scaled):
            assert x == pytest.approx(y, abs=1e-12)

    def test_degenerate_pmf_always_returns_its_profile(self):
        pmf = self._pmf([0.0, 1.0, 0.0])
        rng = Random(5)
        assert all(sample_profile(pmf, rng).name == "P1" for _ in range(50))

    def test_sampling_deterministic_for_fixed_seed(self):
        pmf = self._pmf([0.3, 0.5, 0.2])
        rng1, rng2 = Random(11), Random(11)
        s1 = [sample_profile(pmf, rng1).name for _ in range(200)]
        s2 = [sample_profile(pmf, rng2).name for _ in range(200)]
        assert s1 == s2

    def test_sampling_converges_to_probabilities(self):
        pmf = self._pmf([0.5, 0.3, 0.2])
        rng = Random(123)
        counts = {"P0": 0, "P1": 0, "P2": 0}
        n = 100_000
        for _ in range(n):
            counts[sample_profile(pmf, rng).name] += 1
        exact = dict(zip(counts, pmf_probabilities(pmf)))
        l1 = sum(abs(counts[k] / n - exact[k]) for k in counts)
        assert l1 < 0.02


def _schema():
    return ProfileSchema([
        PropertySchema("Access", "unordered-set",
                       allowed_values=("Direct", "Offsite")),
        PropertySchema("Knowledge", "bounded-range", lower=0, upper=10),
        PropertySchema("Finances", "unbounded-range"),
        PropertySchema("Tools", "ordered-set",
                       allowed_values=("Low", "Medium", "High")),
    ])


class TestScaleProfile:
    def test_schema_order_and_kinds(self):
        scaled = scale_profile(
            _schema(),
            {"Access": "Direct", "Knowledge": 5, "Finances": 3,
             "Tools": "Medium"},
            {"Finances": [1, 3, 5]},
        )
        assert scaled == ("Direct", 0.5, 0.5, 0.5)

    def test_attacker_value_extends_population(self):
        scaled = scale_profile(
            _schema(),
            {"Access": "Direct", "Knowledge": 5, "Finances": 9,
             "Tools": "Low"},
            {"Finances": [1, 5, 9]},
        )
        assert scaled[2] == 1.0

    @settings(max_examples=100)
    @given(seed=st.integers(0, 100_000))
    def test_every_numeric_slot_in_unit_interval(self, seed):
        from genrand import random_schema, random_value
        rng = Random(seed)
        schema = random_schema(rng)
        values = {p.name: random_value(rng, p) for p in schema}
        pops = {p.name: [rng.uniform(-50, 50) for _ in range(3)]
                for p in schema if p.kind == "unbounded-range"}
        scaled = scale_profile(schema, values, pops)
        for v in scaled:
            if not isinstance(v, str):
                assert 0.0 <= v <= 1.0


class TestSchemaValidation:
    def test_zero_criticality_rejected(self):
        prop = PropertySchema("x", "bounded-range", lower=0, upper=1,
                              criticality=0.0)
        assert any("criticality" in v for v in prop.validate())

    def test_bounded_needs_ordered_bounds(self):
        prop = PropertySchema("x", "bounded-range", lower=5, upper=5)
        assert any("lower" in v for v in prop.validate())

    def test_set_kind_needs_values(self):
        prop = PropertySchema("x", "ordered-set")
        assert any("allowed_values" in v for v in prop.validate())

    def test_duplicate_values_rejected(self):
        prop = PropertySchema("x", "unordered-set",
                              allowed_values=("a", "a"))
        assert any("duplicate" in v for v in prop.validate())

    def test_profile_coverage_exact(self):
        schema = _schema()
        values = {"Access": "Direct", "Knowledge": 5, "Finances": 1,
                  "Tools": "Low", "Extra": 1}
        errs = validate_profile(schema, values)
        assert any("Extra" in e for e in errs)
        del values["Extra"], values["Tools"]
        errs = validate_profile(schema, values)
        assert any("Tools" in e for e in errs)


class TestProfileOwner:
    """`validate_profile` names its owner in every problem. An owner
    without args is used as it is; one with args is formatted once, and
    only when there is a problem."""

    # Finances missing, Extra unknown, Access not a label, Knowledge out
    # of bounds, Tools an unknown label
    BAD = {"Access": 3, "Knowledge": 11, "Tools": "Top", "Extra": 1}
    GOOD = {"Access": "Direct", "Knowledge": 5, "Finances": 1,
            "Tools": "Low"}

    def test_owner_without_args_keeps_its_braces(self):
        errs = validate_profile(_schema(), self.BAD, "profile 'x{0}y'")
        assert len(errs) == 5
        assert all(e.startswith("profile 'x{0}y': ") for e in errs)

    def test_profiles_document_name_keeps_its_braces(self):
        doc = {"schema": [{"name": "x", "kind": "bounded-range",
                           "lower": 0, "upper": 1}],
               "profiles": [{"name": "x{0}y", "values": {"x": 2, "z": 0}}]}
        with pytest.raises(ValidationFailure) as exc:
            profile_set_from_dict(doc)
        assert exc.value.errors == [
            "profile 'x{0}y': unknown property 'z'",
            "profile 'x{0}y': property 'x' value 2.0 outside bounds "
            "[0.0, 1.0]"]

    def test_attacker_profile_name_keeps_its_braces(self):
        schema = ProfileSchema([PropertySchema("Finances", "unbounded-range")])
        db = ActionDatabase([Action("a", profile={"Finances": 0.0}),
                             Action("b", profile={"Finances": 1.7e308})],
                            schema)
        for values, problem in (
                ({"Finances": "lots"}, "property 'Finances' needs a number"),
                ({"Finances": -1.7e308},
                 "max - min of property 'Finances' over the action values "
                 "and this profile's value must be finite")):
            with pytest.raises(ValidationFailure) as exc:
                db.attacker_ranges(AttackerProfile("x{0}y", values))
            assert exc.value.errors == [f"attacker profile 'x{{0}}y': "
                                        f"{problem}"]

    def test_owner_with_args_is_formatted_only_on_a_problem(self):
        calls = []

        class Owner(str):
            def format(self, *args):
                calls.append(args)
                return super().format(*args)

        owner = Owner("action {!r}")
        assert validate_profile(_schema(), self.GOOD, owner, "A") == []
        assert calls == []
        errs = validate_profile(_schema(), self.BAD, owner, "A")
        assert calls == [("A",)]
        assert errs == validate_profile(_schema(), self.BAD, "action 'A'")
        assert len(errs) == 5 and all(e.startswith("action 'A': ")
                                      for e in errs)


class TestProfilesDocument:
    def test_fixture_loads(self, cstr_paths):
        ps = load_profiles(cstr_paths["profiles"])
        assert len(ps.schema) == 6
        assert set(ps.profiles) == {
            "Basic User", "Insider", "Hacktivist", "Terrorist",
            "Cybercriminal", "Nation State"}
        assert ps.pmf is not None and len(ps.pmf.entries) == 6

    def test_pmf_referencing_unknown_profile_rejected(self):
        doc = {
            "schema": [{"name": "x", "kind": "bounded-range",
                        "lower": 0, "upper": 1}],
            "profiles": [{"name": "A", "values": {"x": 0.5}}],
            "pmf": [{"profile": "Missing", "likelihood": 1.0}],
        }
        with pytest.raises(ValidationFailure, match="Missing"):
            profile_set_from_dict(doc)

    def test_profile_not_covering_schema_rejected(self):
        doc = {
            "schema": [{"name": "x", "kind": "bounded-range",
                        "lower": 0, "upper": 1}],
            "profiles": [{"name": "A", "values": {}}],
        }
        with pytest.raises(ValidationFailure, match="missing property"):
            profile_set_from_dict(doc)

    def test_parse_error_reported_with_path(self, tmp_path):
        bad = tmp_path / "p.json"
        bad.write_text("{nope")
        with pytest.raises(ValidationFailure, match="cannot parse"):
            load_profiles(bad)
