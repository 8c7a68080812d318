import json
from pathlib import Path

import pytest

from attacksim.actions import action_db_from_dict
from attacksim.cli import main
from attacksim.errors import ValidationFailure
from attacksim.ingest import (
    actions_fragment_to_dict,
    dedupe_skeletons,
    import_capec,
    import_cve_feed,
    merge_annotations,
    skeletons_to_dict,
)
from attacksim.profiles import ProfileSchema, PropertySchema

DATA = Path(__file__).parent / "data"

ANNOTATION_SCHEMA = ProfileSchema([
    PropertySchema("Access", "unordered-set",
                   allowed_values=("Direct", "Offsite")),
    PropertySchema("Knowledge", "bounded-range", lower=0, upper=10),
])


# NVD feeds with a value of the wrong type, and the collected message
WRONG_SHAPE_FEEDS = [
    pytest.param(5, "CVE feed must be a JSON object", id="document-int"),
    pytest.param("CVE_Items", "CVE feed must be a JSON object",
                 id="document-string"),
    pytest.param({"CVE_Items": [1]}, "CVE_Items #0 must be an object",
                 id="item-int"),
    pytest.param({"CVE_Items": [{"cve": {"CVE_data_meta": {"ID": 5}},
                                 "description": {"description_data": [
                                     {"lang": "en", "value": ["x"]}]}}]},
                 "CVE_Items #0: ID must be a string", id="id-int"),
    pytest.param({"CVE_Items": [{"cve": {
                     "CVE_data_meta": {"ID": "CVE-1"},
                     "description": {"description_data": [
                         {"lang": "en", "value": ["x"]}]}}}]},
                 "CVE_Items #0: description value must be a string",
                 id="description-list"),
    pytest.param({"CVE_Items": [{"cve": {
                     "CVE_data_meta": {"ID": "CVE-1"},
                     "problemtype": {"problemtype_data": [
                         {"description": [{"value": 400}]}]}}}]},
                 "CVE_Items #0: CWE value must be a string", id="cwe-int"),
    pytest.param({"CVE_Items": [{"cve": {"CVE_data_meta": {"ID": "CVE-1"}},
                                 "configurations": {"nodes": [
                                     {"cpe_match": [{"cpe23Uri": 5}]}]}}]},
                 "CVE_Items #0: cpe23Uri must be a string", id="cpe-int"),
    pytest.param({"vulnerabilities": [{"cve": {"id": "CVE-1",
                                               "descriptions": [1]}}]},
                 "vulnerabilities #0: descriptions #0 must be an object",
                 id="2.0-description-int"),
    pytest.param({"vulnerabilities": [{"cve": {
                     "id": "CVE-1", "weaknesses": [
                         {"description": [{"value": 787}]}]}}]},
                 "vulnerabilities #0: CWE value must be a string",
                 id="2.0-cwe-int"),
    pytest.param({"vulnerabilities": [{"cve": {
                     "id": "CVE-1", "configurations": [{"nodes": [
                         {"cpeMatch": [{"criteria": ["cpe"]}]}]}]}}]},
                 "vulnerabilities #0: criteria must be a string",
                 id="2.0-cpe-list"),
]

# a CPE string with a vendor but no product field
SHORT_CPE = "cpe:2.3:o:acmecontrols"


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

    def test_pattern_without_id_skipped(self, tmp_path):
        path = tmp_path / "noid.xml"
        path.write_text('<Attack_Pattern_Catalog '
                        'xmlns="http://capec.mitre.org/capec-3">'
                        '<Attack_Patterns>'
                        '<Attack_Pattern Name="anonymous"/>'
                        '<Attack_Pattern ID="" Name="empty"/>'
                        '<Attack_Pattern ID="1" Name="x"/>'
                        '<Attack_Pattern ID="  " Name="blank"/>'
                        '<Attack_Pattern ID="" Name="empty again"/>'
                        '</Attack_Patterns></Attack_Pattern_Catalog>')
        assert [sk.id for sk in import_capec(path)] == ["CAPEC-1"]

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

    def test_nvd_2_0_feed_extracted(self):
        skeletons = import_cve_feed(DATA / "nvd2_sample.json")
        assert [sk.id for sk in skeletons] == ["CVE-2031-20001",
                                               "CVE-2031-20002"]
        first, second = skeletons
        assert first.description == ("A buffer overflow in the controller "
                                     "web server lets a remote attacker run "
                                     "code.")
        assert first.references == (
            "CVE-2031-20001", "CWE-787",
            "cpe:2.3:o:acmecontrols:rio_firmware:*:*:*:*:*:*:*:*",
            "cpe:2.3:h:acmecontrols:rio_100:-:*:*:*:*:*:*:*",
            "cpe:2.3:a:plantsoft:historian:2.1:*:*:*:*:*:*:*")
        assert first.suggested_criteria == {
            "vendor": ("acmecontrols", "plantsoft"),
            "product": ("rio_firmware", "rio_100", "historian")}
        assert second.references == ("CVE-2031-20002",)
        assert second.suggested_criteria == {}

    @pytest.mark.parametrize("feed", [
        pytest.param({"CVE_Items": [{"cve": {"CVE_data_meta": {
                         "ID": "CVE-1"}}, "configurations": {"nodes": [
                         {"cpe_match": [{"cpe23Uri": SHORT_CPE}]}]}}]},
                     id="1.1"),
        pytest.param({"vulnerabilities": [{"cve": {
                         "id": "CVE-1", "configurations": [{"nodes": [
                             {"cpeMatch": [{"criteria": SHORT_CPE}]}]}]}}]},
                     id="2.0"),
    ])
    def test_cpe_of_fewer_than_five_fields_adds_no_criteria(self, tmp_path,
                                                            feed):
        path = tmp_path / "feed.json"
        path.write_text(json.dumps(feed))
        [skeleton] = import_cve_feed(path)
        assert skeleton.suggested_criteria == {}
        assert skeleton.references == ("CVE-1", SHORT_CPE)

    @pytest.mark.parametrize("uri, criteria", [
        pytest.param(r"cpe:2.3:a:microsoft:visual_c\+\+:2019:*:*:*:*:*:*:*",
                     {"vendor": ("microsoft",), "product": ("visual_c++",)},
                     id="quoted-plus"),
        pytest.param(r"cpe:2.3:a:foo\:bar:baz:1.0:*:*:*:*:*:*:*",
                     {"vendor": ("foo:bar",), "product": ("baz",)},
                     id="quoted-colon"),
        pytest.param(r"cpe:2.3:a:a\\:prod:*:*:*:*:*:*:*:*",
                     {"vendor": ("a\\",), "product": ("prod",)},
                     id="quoted-backslash"),
        pytest.param(r"cpe:2.3:a:\-:*:*:*:*:*:*:*:*:*",
                     {"vendor": ("-",)}, id="quoted-hyphen-is-a-value"),
    ])
    def test_cpe_quoting_backslashes_dropped(self, tmp_path, uri, criteria):
        """A backslash quotes the next character of a CPE 2.3 formatted
        string (NISTIR 7695 6.2): a quoted colon does not end a field, the
        logical values ANY and NA are read before unquoting, and the
        suggestion is the unquoted value. The reference keeps the raw
        string."""
        path = tmp_path / "feed.json"
        path.write_text(json.dumps({"CVE_Items": [{
            "cve": {"CVE_data_meta": {"ID": "CVE-1"}},
            "configurations": {"nodes": [
                {"cpe_match": [{"cpe23Uri": uri}]}]}}]}))
        [skeleton] = import_cve_feed(path)
        assert skeleton.suggested_criteria == criteria
        assert skeleton.references == ("CVE-1", uri)

    def test_nvd_2_0_item_without_id_skipped(self, tmp_path):
        path = tmp_path / "feed.json"
        path.write_text(json.dumps({"vulnerabilities": [
            {"cve": {"descriptions": [{"lang": "en", "value": "x"}]}},
            {"cve": {"id": "CVE-1"}}]}))
        assert [sk.id for sk in import_cve_feed(path)] == ["CVE-1"]

    @pytest.mark.parametrize("feed, message", WRONG_SHAPE_FEEDS)
    def test_wrong_shape_feed_exits_one(self, tmp_path, capsys, feed,
                                        message):
        path = tmp_path / "feed.json"
        path.write_text(json.dumps(feed))
        assert main(["ingest", "--cve", str(path),
                     "--out", str(tmp_path / "out.json")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

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

    @pytest.mark.parametrize("ann, match", [
        pytest.param(annotation(knowledge=[5]),
                     "action 'CAPEC-457': property 'Knowledge' must be a "
                     "finite", id="knowledge-list"),
        pytest.param(annotation(success_probability="x"),
                     "action 'CAPEC-457': success_probability must be a "
                     "finite", id="success-probability-string"),
    ])
    def test_non_numeric_value_rejected(self, ann, match):
        skeletons = import_capec(DATA / "capec_sample.xml")
        with pytest.raises(ValidationFailure, match=match):
            merge_annotations(skeletons, {"CAPEC-457": ann},
                              ANNOTATION_SCHEMA)

    @pytest.mark.parametrize("annotations, message", [
        pytest.param(["CAPEC-457"], "annotations must be an object",
                     id="annotations-list"),
        pytest.param({"CAPEC-457": None},
                     "annotation 'CAPEC-457' must be an object",
                     id="annotation-null"),
        pytest.param({"CAPEC-457": annotation(severity=3)},
                     "action 'CAPEC-457' has unknown keys: severity",
                     id="unknown-key"),
        pytest.param({"CAPEC-457": annotation(references=["CWE-1"])},
                     "annotation 'CAPEC-457' sets 'references', which comes "
                     "from the catalog", id="references"),
        pytest.param({"CAPEC-457": annotation(id="CAPEC-1")},
                     "annotation 'CAPEC-457' sets 'id', which comes from the "
                     "catalog", id="id"),
    ])
    def test_malformed_annotation_rejected(self, annotations, message):
        skeletons = import_capec(DATA / "capec_sample.xml")
        with pytest.raises(ValidationFailure) as exc:
            merge_annotations(skeletons, annotations, ANNOTATION_SCHEMA)
        assert message in exc.value.errors

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

    def test_one_merge_shares_equal_values(self):
        skeletons = (import_capec(DATA / "capec_sample.xml")
                     + import_cve_feed(DATA / "nvd_sample.json"))
        annotations = {sk.id: annotation() for sk in skeletons}
        first, _ = merge_annotations(skeletons, annotations,
                                     ANNOTATION_SCHEMA)
        second, _ = merge_annotations(skeletons, annotations,
                                      ANNOTATION_SCHEMA)
        assert len(first) > 2
        assert len({id(a.channels) for a in first}) == 1
        assert first[0].channels is not second[0].channels

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
    def test_profile_explicitly_unannotated(self):
        doc = skeletons_to_dict(import_capec(DATA / "capec_sample.xml"))
        for sd in doc["skeletons"]:
            assert sd["profile"] is None
            assert sd["annotated"] is False
