"""Compile offline vulnerability-catalog exports (CAPEC XML, NVD CVE JSON)
into action skeletons for manual profile annotation.

Profiles are deliberately never inferred from catalog data: a skeleton
carries identity, description, references, and CPE-derived target-criteria
suggestions, and becomes a loadable action only after an annotator supplies
the profile and channels.
"""

from __future__ import annotations

import re
import warnings
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from attacksim.actions import (
    Action,
    ActionDatabase,
    action_from_dict,
    action_to_dict,
)
from attacksim.errors import ValidationFailure, container, read_json, string
from attacksim.profiles import ProfileSchema

CAPEC_NS = "http://capec.mitre.org/capec-3"


@dataclass(frozen=True, slots=True)
class Provenance:
    source: str
    record: str


@dataclass(frozen=True, slots=True)
class ActionSkeleton:
    """An unannotated action candidate extracted from a catalog record.

    The profile is explicitly absent; merge_annotations turns a skeleton
    plus its annotation into a full action.
    """

    id: str
    name: str = ""
    description: str = ""
    references: tuple[str, ...] = ()
    suggested_criteria: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    provenance: tuple[Provenance, ...] = ()


def _element_text(elem) -> str:
    if elem is None:
        return ""
    return " ".join("".join(elem.itertext()).split())


def import_capec(path: str | Path) -> list[ActionSkeleton]:
    """One skeleton per attack pattern in a CAPEC catalog export.

    Related CWE ids are carried into the references. A pattern whose ID
    is missing, empty or blank is skipped. An unexpected schema namespace
    downgrades to a warning and best-effort extraction.
    """
    path = str(path)
    try:
        tree = ET.parse(path)
    except ET.ParseError as exc:
        raise ValidationFailure(f"cannot parse CAPEC XML {path}: {exc}") from exc
    root = tree.getroot()
    ns = root.tag[1:].split("}")[0] if root.tag.startswith("{") else ""
    if ns != CAPEC_NS:
        warnings.warn(f"{path}: unexpected CAPEC namespace {ns!r}; "
                      "attempting best-effort extraction")
    q = (lambda tag: f"{{{ns}}}{tag}") if ns else (lambda tag: tag)
    skeletons: list[ActionSkeleton] = []
    for pattern in root.iter(q("Attack_Pattern")):
        pid = pattern.get("ID")
        if not pid or pid.isspace():
            continue
        capec_id = f"CAPEC-{pid}"
        refs = [capec_id]
        for weakness in pattern.iter(q("Related_Weakness")):
            cwe = weakness.get("CWE_ID")
            if cwe:
                refs.append(f"CWE-{cwe}")
        skeletons.append(ActionSkeleton(
            id=capec_id,
            name=pattern.get("Name", ""),
            description=_element_text(pattern.find(q("Description"))),
            references=tuple(dict.fromkeys(refs)),
            provenance=(Provenance(source=path,
                                   record=f"Attack_Pattern ID={pid}"),),
        ))
    return skeletons


# the first five fields of a CPE 2.3 formatted string,
# cpe:2.3:part:vendor:product:version:..., whose second field must be 2.3:
# a CPE 2.2 URI (cpe:/a:vendor:product) or another version is not read
# by these rules; a backslash quotes the next
# character (NISTIR 7695 6.2), so only an unquoted colon ends a field; a
# backslash that ends the string quotes nothing and is kept
_CPE_FIELD = r"((?:[^\\:]|\\(?:.|\Z))*)"
_CPE_HEAD = re.compile(
    rf"cpe:2\.3:{_CPE_FIELD}:{_CPE_FIELD}:{_CPE_FIELD}(?::|\Z)", re.S)
_CPE_QUOTE = re.compile(r"\\(.)", re.S)
_CPE_WILDCARD = re.compile(r"[*?]")


def _cpe_vendor_product(cpe_uri: str
                        ) -> tuple[str | None, str | None] | None:
    """The vendor and product of a CPE 2.3 formatted string, each with its
    quoting backslashes dropped, or None for the logical value NA (`-`)
    or a value holding an unquoted `*` or `?` (NISTIR 7695 6.2: ANY, or a
    wildcard no criteria can express), both read from the raw field. None
    for a string that is not a CPE 2.3 formatted string of at least five
    fields, such as a CPE 2.2 URI."""
    head = _CPE_HEAD.match(cpe_uri)
    if head is None:
        return None
    return tuple(
        None if raw == "-" or _CPE_WILDCARD.search(_CPE_QUOTE.sub("", raw))
        else _CPE_QUOTE.sub(r"\1", raw)
        for raw in head.group(2, 3))


def _object(obj: dict, key: str, owner: str, errors: list[str]) -> dict:
    """`obj[key]` as an object (empty when absent); another type is
    collected as an error and read as empty."""
    return container(obj.get(key, {}), dict, f"{owner}: {key}", errors)


def _objects(obj: dict, key: str, owner: str, errors: list[str]) -> list[dict]:
    """The list `obj[key]` (empty when absent), each entry an object.

    A value or entry of another type is collected as an error and read as
    empty.
    """
    label = f"{owner}: {key}" if owner else key
    return [container(x, dict, f"{label} #{i}", errors)
            for i, x in enumerate(container(obj.get(key, []), list, label,
                                            errors))]


def _walk_cpe_nodes(nodes: list[dict], match_key: str, uri_key: str,
                    owner: str, errors: list[str]) -> list[str]:
    """The `uri_key` strings of each node's `match_key` entries, children
    included: cpe_match/cpe23Uri in a 1.1 feed, cpeMatch/criteria in 2.0."""
    uris: list[str] = []
    for node in nodes:
        for match in _objects(node, match_key, owner, errors):
            uri = string(match.get(uri_key, ""), f"{owner}: {uri_key}",
                         errors)
            if uri:
                uris.append(uri)
        uris.extend(_walk_cpe_nodes(_objects(node, "children", owner, errors),
                                    match_key, uri_key, owner, errors))
    return uris


def _cwe_ids(groups: list[dict], owner: str, errors: list[str]) -> list[str]:
    """The `CWE-` values in the description lists of the problem-type
    (1.1) or weakness (2.0) entries."""
    cwes = []
    for group in groups:
        for desc in _objects(group, "description", owner, errors):
            value = string(desc.get("value", ""), f"{owner}: CWE value",
                           errors)
            if value.startswith("CWE-"):
                cwes.append(value)
    return cwes


def _english(descriptions: list[dict], owner: str, errors: list[str]) -> str:
    for dd in descriptions:
        if dd.get("lang") == "en":
            return string(dd.get("value", ""), f"{owner}: description value",
                          errors)
    return ""


def _skeleton_from_cve(cve_id: str, description: str, cwe_ids: list[str],
                       cpe_uris: list[str], source: str) -> ActionSkeleton:
    criteria: dict[str, tuple[str, ...]] = {}
    vendors, products = [], []
    for uri in cpe_uris:
        vp = _cpe_vendor_product(uri)
        if vp is None:
            continue
        vendor, product = vp
        if vendor is not None and vendor not in vendors:
            vendors.append(vendor)
        if product is not None and product not in products:
            products.append(product)
    if vendors:
        criteria["vendor"] = tuple(vendors)
    if products:
        criteria["product"] = tuple(products)
    refs = [cve_id] + cwe_ids + cpe_uris
    return ActionSkeleton(
        id=cve_id,
        name=cve_id,
        description=description,
        references=tuple(dict.fromkeys(refs)),
        suggested_criteria=criteria,
        provenance=(Provenance(source=source, record=cve_id),),
    )


def import_cve_feed(path: str | Path) -> list[ActionSkeleton]:
    """One skeleton per CVE in an NVD JSON feed.

    Understands the classic 1.1 feed layout (CVE_Items) and the 2.0 API
    layout (vulnerabilities), reading the same fields from both. CPE
    applicability strings become vendor/product target-criteria
    suggestions; duplicate ids within the feed merge, keeping every
    provenance record. Every field read of the wrong type (an item that is
    not an object, an id, description, CWE or CPE that is not a string) is
    collected, and any raises.
    """
    path = str(path)
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ValidationFailure(f"{path}: CVE feed must be a JSON object")
    errors: list[str] = []
    skeletons: list[ActionSkeleton] = []
    if "CVE_Items" in doc:
        for i, item in enumerate(_objects(doc, "CVE_Items", "", errors)):
            owner = f"CVE_Items #{i}"
            cve = _object(item, "cve", owner, errors)
            meta = _object(cve, "CVE_data_meta", owner, errors)
            cve_id = string(meta.get("ID", ""), f"{owner}: ID", errors)
            if not cve_id:
                continue
            description = _english(_objects(
                _object(cve, "description", owner, errors),
                "description_data", owner, errors), owner, errors)
            cwes = _cwe_ids(_objects(
                _object(cve, "problemtype", owner, errors),
                "problemtype_data", owner, errors), owner, errors)
            uris = _walk_cpe_nodes(_objects(
                _object(item, "configurations", owner, errors),
                "nodes", owner, errors), "cpe_match", "cpe23Uri", owner, errors)
            skeletons.append(_skeleton_from_cve(cve_id, description, cwes,
                                                uris, path))
    elif "vulnerabilities" in doc:
        for i, item in enumerate(_objects(doc, "vulnerabilities", "",
                                          errors)):
            owner = f"vulnerabilities #{i}"
            cve = _object(item, "cve", owner, errors)
            cve_id = string(cve.get("id", ""), f"{owner}: id", errors)
            if not cve_id:
                continue
            description = _english(
                _objects(cve, "descriptions", owner, errors), owner, errors)
            cwes = _cwe_ids(_objects(cve, "weaknesses", owner, errors),
                            owner, errors)
            uris = _walk_cpe_nodes(
                [node for conf in _objects(cve, "configurations", owner,
                                           errors)
                 for node in _objects(conf, "nodes", owner, errors)],
                "cpeMatch", "criteria", owner, errors)
            skeletons.append(_skeleton_from_cve(cve_id, description, cwes,
                                                uris, path))
    else:
        raise ValidationFailure(
            f"{path}: not a recognized NVD CVE feed (no CVE_Items)")
    if errors:
        raise ValidationFailure(f"invalid CVE feed {path}", errors)
    return dedupe_skeletons(skeletons)


def dedupe_skeletons(skeletons: Iterable[ActionSkeleton]) -> list[ActionSkeleton]:
    """Merge skeletons sharing an id; provenance accumulates in order."""
    merged: dict[str, ActionSkeleton] = {}
    for sk in skeletons:
        prev = merged.get(sk.id)
        if prev is None:
            merged[sk.id] = sk
        else:
            merged[sk.id] = ActionSkeleton(
                id=prev.id,
                name=prev.name or sk.name,
                description=prev.description or sk.description,
                references=tuple(dict.fromkeys(prev.references + sk.references)),
                suggested_criteria=prev.suggested_criteria or sk.suggested_criteria,
                provenance=prev.provenance + sk.provenance,
            )
    return list(merged.values())


def skeletons_to_dict(skeletons: Iterable[ActionSkeleton]) -> dict:
    return {
        "skeletons": [
            {
                "id": sk.id,
                "name": sk.name,
                "description": sk.description,
                "references": list(sk.references),
                "suggested_criteria": {k: list(v)
                                       for k, v in sk.suggested_criteria.items()},
                "profile": None,
                "annotated": False,
                "provenance": [{"source": p.source, "record": p.record}
                               for p in sk.provenance],
            }
            for sk in skeletons
        ]
    }


def merge_annotations(skeletons: Iterable[ActionSkeleton],
                      annotations: Mapping[str, dict],
                      schema: ProfileSchema,
                      ) -> tuple[list[Action], list[str]]:
    """Join annotator-supplied annotations onto skeletons.

    An annotation is an action document without `id` and `references`,
    which come from the catalog; its name, description and target criteria
    default to the skeleton's. The action loader parses it
    (`actions.action_from_dict`), so the same keys, types and messages
    apply. Returns the fully validated actions plus the ids of skeletons
    left unannotated (reported, never emitted). Raises on annotations that
    are not objects, set `id` or `references`, reference unknown skeletons
    or fail database validation.
    """
    errors: list[str] = []
    annotations = container(annotations, dict, "annotations", errors)
    by_id = {sk.id: sk for sk in skeletons}
    errors += [f"annotation references unknown skeleton {aid!r}"
               for aid in sorted(set(annotations) - set(by_id))]
    actions: list[Action] = []
    shared: dict = {}  # values shared within this merge (action_from_dict)
    for i, sk in enumerate(by_id.values()):
        if sk.id not in annotations:
            continue
        ann = annotations[sk.id]
        if not isinstance(ann, dict):
            errors.append(f"annotation {sk.id!r} must be an object")
            continue
        for key in sorted({"id", "references"} & set(ann)):
            errors.append(f"annotation {sk.id!r} sets {key!r}, which comes "
                          "from the catalog")
        actions.append(action_from_dict({
            "name": sk.name,
            "description": sk.description,
            "target_criteria": {k: list(v)
                                for k, v in sk.suggested_criteria.items()},
            **ann,
            "id": sk.id,
            "references": list(sk.references),
        }, errors, i, shared))
    if actions:
        errors.extend(ActionDatabase(actions, schema).validate())
    if errors:
        raise ValidationFailure("cannot merge annotations", errors)
    unannotated = sorted(set(by_id) - set(annotations))
    return actions, unannotated


def actions_fragment_to_dict(actions: Iterable[Action]) -> dict:
    """Action-database file fragment, loadable by the action loader."""
    return {"actions": [action_to_dict(a) for a in actions]}
