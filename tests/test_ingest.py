import json
from pathlib import Path

import pytest

from attacksim.actions import action_db_from_dict
from attacksim.errors import ValidationFailure
from attacksim.ingest import (
    actions_fragment_to_dict,
    dedupe_skeletons,
    import_capec,
    import_cve_feed,
    merge_annotations,
    skeletons_from_dict,
    skeletons_to_dict,
)
from attacksim.profiles import ProfileSchema, PropertySchema

DATA = Path(__file__).parent / "data"

ANNOTATION_SCHEMA = ProfileSchema([
    PropertySchema("Access", "unordered-set",
                   allowed_values=("Direct", "Offsite")),
    PropertySchema("Knowledge", "bounded-range", lower=0, upper=10),
])


def annotation(access="Direct", knowledge=5, **extra):
    return dict({"profile": {"Access": access, "Knowledge": knowledge},
                 "channels": ["net"]}, **extra)


class TestImportCapec:
    def test_one_skeleton_per_pattern(self):
        skeletons = import_capec(DATA / "capec_sample.xml")
        assert [sk.id for sk in skeletons] == ["CAPEC-457", "CAPEC-94",
                                               "CAPEC-125"]

    def test_related_weaknesses_in_references(self):
        skeletons = {sk.id: sk for sk in import_capec(DATA / "capec_sample.xml")}
        refs = skeletons["CAPEC-94"].references
        assert "CWE-300" in refs and "CWE-290" in refs

    def test_description_extracted(self):
        skeletons = {sk.id: sk for sk in import_capec(DATA / "capec_sample.xml")}
        assert "removable memory" in skeletons["CAPEC-457"].description

    def test_provenance_is_total(self):
        for sk in import_capec(DATA / "capec_sample.xml"):
            assert sk.provenance
            assert sk.provenance[0].source.endswith("capec_sample.xml")
            assert "Attack_Pattern" in sk.provenance[0].record

    def test_empty_catalog_is_empty_list(self, tmp_path):
        path = tmp_path / "empty.xml"
        path.write_text('<Attack_Pattern_Catalog '
                        'xmlns="http://capec.mitre.org/capec-3">'
                        '<Attack_Patterns/></Attack_Pattern_Catalog>')
        assert import_capec(path) == []

    def test_malformed_xml_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.xml"
        path.write_text("<Attack_Pattern_Catalog><unclosed>")
        with pytest.raises(ValidationFailure, match="cannot parse"):
            import_capec(path)

    def test_unknown_namespace_warns_but_extracts(self, tmp_path):
        path = tmp_path / "odd.xml"
        path.write_text('<Attack_Pattern_Catalog '
                        'xmlns="http://capec.mitre.org/capec-99">'
                        '<Attack_Patterns>'
                        '<Attack_Pattern ID="1" Name="x"/>'
                        '</Attack_Patterns></Attack_Pattern_Catalog>')
        with pytest.warns(UserWarning, match="namespace"):
            skeletons = import_capec(path)
        assert [sk.id for sk in skeletons] == ["CAPEC-1"]

    def test_import_is_pure(self):
        first = import_capec(DATA / "capec_sample.xml")
        second = import_capec(DATA / "capec_sample.xml")
        assert first == second


class TestImportCveFeed:
    def test_cpe_strings_become_criteria(self):
        skeletons = {sk.id: sk
                     for sk in import_cve_feed(DATA / "nvd_sample.json")}
        crit = skeletons["CVE-2031-10001"].suggested_criteria
        assert crit["vendor"] == ("acmecontrols",)
        assert crit["product"] == ("rio_firmware",)

    def test_cve_without_cpe_still_emitted(self):
        skeletons = {sk.id: sk
                     for sk in import_cve_feed(DATA / "nvd_sample.json")}
        assert skeletons["CVE-2031-10002"].suggested_criteria == {}

    def test_nested_configuration_nodes_walked(self):
        skeletons = {sk.id: sk
                     for sk in import_cve_feed(DATA / "nvd_sample.json")}
        assert skeletons["CVE-2031-10003"].suggested_criteria["vendor"] == \
            ("plantsoft",)

    def test_cwe_carried_into_references(self):
        skeletons = {sk.id: sk
                     for sk in import_cve_feed(DATA / "nvd_sample.json")}
        assert "CWE-400" in skeletons["CVE-2031-10001"].references

    def test_duplicates_across_files_merge_with_provenance(self):
        merged = dedupe_skeletons(
            import_cve_feed(DATA / "nvd_sample.json")
            + import_cve_feed(DATA / "nvd_sample_dup.json"))
        by_id = {sk.id: sk for sk in merged}
        assert len([s for s in merged if s.id == "CVE-2031-10001"]) == 1
        sources = {p.source for p in by_id["CVE-2031-10001"].provenance}
        assert len(sources) == 2

    def test_unrecognized_layout_rejected(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text('{"items": []}')
        with pytest.raises(ValidationFailure, match="not a recognized"):
            import_cve_feed(path)


class TestMergeAnnotations:
    def test_partial_annotation_reports_remainder(self):
        skeletons = import_capec(DATA / "capec_sample.xml")
        actions, unannotated = merge_annotations(
            skeletons, {"CAPEC-457": annotation()}, ANNOTATION_SCHEMA)
        assert [a.id for a in actions] == ["CAPEC-457"]
        assert unannotated == ["CAPEC-125", "CAPEC-94"]

    def test_out_of_range_value_names_property(self):
        skeletons = import_capec(DATA / "capec_sample.xml")
        with pytest.raises(ValidationFailure, match="Knowledge"):
            merge_annotations(
                skeletons, {"CAPEC-457": annotation(knowledge=99)},
                ANNOTATION_SCHEMA)

    def test_string_channels_rejected(self):
        skeletons = import_capec(DATA / "capec_sample.xml")
        with pytest.raises(ValidationFailure,
                           match="channels must be a list of strings"):
            merge_annotations(
                skeletons, {"CAPEC-457": annotation(channels="usb")},
                ANNOTATION_SCHEMA)

    def test_unknown_skeleton_id_rejected(self):
        skeletons = import_capec(DATA / "capec_sample.xml")
        with pytest.raises(ValidationFailure, match="CAPEC-999"):
            merge_annotations(skeletons, {"CAPEC-999": annotation()},
                              ANNOTATION_SCHEMA)

    def test_fully_annotated_set_round_trips_into_database(self):
        skeletons = (import_capec(DATA / "capec_sample.xml")
                     + import_cve_feed(DATA / "nvd_sample.json"))
        annotations = {sk.id: annotation() for sk in skeletons}
        actions, unannotated = merge_annotations(skeletons, annotations,
                                                 ANNOTATION_SCHEMA)
        assert unannotated == []
        doc = actions_fragment_to_dict(actions)
        db = action_db_from_dict(doc, ANNOTATION_SCHEMA)
        assert len(db) == len(skeletons)

    def test_suggested_criteria_used_when_not_overridden(self):
        skeletons = import_cve_feed(DATA / "nvd_sample.json")
        actions, _ = merge_annotations(
            skeletons, {"CVE-2031-10001": annotation()}, ANNOTATION_SCHEMA)
        req = actions[0].target_criteria.requirements
        assert req["vendor"] == frozenset({"acmecontrols"})

    def test_annotation_can_override_criteria(self):
        skeletons = import_cve_feed(DATA / "nvd_sample.json")
        actions, _ = merge_annotations(
            skeletons,
            {"CVE-2031-10001": annotation(
                target_criteria={"role": ["controller"]})},
            ANNOTATION_SCHEMA)
        assert actions[0].target_criteria.requirements == {
            "role": frozenset({"controller"})}


class TestSkeletonSerialization:
    def test_round_trip(self):
        skeletons = (import_capec(DATA / "capec_sample.xml")
                     + import_cve_feed(DATA / "nvd_sample.json"))
        doc = skeletons_to_dict(skeletons)
        assert skeletons_from_dict(json.loads(json.dumps(doc))) == skeletons

    def test_profile_explicitly_unannotated(self):
        doc = skeletons_to_dict(import_capec(DATA / "capec_sample.xml"))
        for sd in doc["skeletons"]:
            assert sd["profile"] is None
            assert sd["annotated"] is False
