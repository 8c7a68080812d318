"""Compile offline vulnerability-catalog exports (CAPEC XML, NVD CVE JSON)
into action skeletons for manual profile annotation.

Profiles are deliberately never inferred from catalog data: a skeleton
carries identity, description, references, and CPE-derived target-criteria
suggestions, and becomes a loadable action only after an annotator supplies
the profile and channels.
"""

from __future__ import annotations

import json
import warnings
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from attacksim.actions import Action, ActionDatabase, TargetCriteria, action_to_dict
from attacksim.errors import ValidationFailure, number, string_list
from attacksim.profiles import ProfileSchema

CAPEC_NS = "http://capec.mitre.org/capec-3"


@dataclass(frozen=True, slots=True)
class Provenance:
    source: str
    record: str


@dataclass(frozen=True, slots=True)
class ActionSkeleton:
    """An unannotated action candidate extracted from a catalog record.

    The profile is explicitly absent (annotated is always False for a
    skeleton); merge_annotations turns it into a full action.
    """

    id: str
    name: str = ""
    description: str = ""
    references: tuple[str, ...] = ()
    suggested_criteria: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    provenance: tuple[Provenance, ...] = ()

    @property
    def annotated(self) -> bool:
        return False


def _element_text(elem) -> str:
    if elem is None:
        return ""
    return " ".join("".join(elem.itertext()).split())


def import_capec(path: str | Path) -> list[ActionSkeleton]:
    """One skeleton per attack pattern in a CAPEC catalog export.

    Related CWE ids are carried into the references. An unexpected schema
    namespace downgrades to a warning and best-effort extraction.
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
        if pid is None:
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


def _cpe_vendor_product(cpe_uri: str) -> tuple[str, str] | None:
    # cpe:2.3:part:vendor:product:version:...
    parts = cpe_uri.split(":")
    if len(parts) < 5 or parts[0] != "cpe":
        return None
    return parts[3], parts[4]


def _walk_cpe_nodes(nodes: Iterable[dict]) -> list[str]:
    uris: list[str] = []
    for node in nodes:
        for match in node.get("cpe_match", []):
            uri = match.get("cpe23Uri")
            if uri:
                uris.append(uri)
        uris.extend(_walk_cpe_nodes(node.get("children", [])))
    return uris


def _skeleton_from_cve(cve_id: str, description: str, cwe_ids: list[str],
                       cpe_uris: list[str], source: str) -> ActionSkeleton:
    criteria: dict[str, tuple[str, ...]] = {}
    vendors, products = [], []
    for uri in cpe_uris:
        vp = _cpe_vendor_product(uri)
        if vp is None:
            continue
        vendor, product = vp
        if vendor not in ("*", "-") and vendor not in vendors:
            vendors.append(vendor)
        if product not in ("*", "-") and product not in products:
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

    Understands the classic 1.1 feed layout (CVE_Items) and, best-effort,
    the 2.0 API layout (vulnerabilities). CPE applicability strings become
    vendor/product target-criteria suggestions; duplicate ids within the
    feed merge, keeping every provenance record.
    """
    path = str(path)
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationFailure(f"cannot parse CVE feed {path}: {exc}") from exc
    skeletons: list[ActionSkeleton] = []
    if "CVE_Items" in doc:
        for item in doc["CVE_Items"]:
            cve = item.get("cve", {})
            cve_id = cve.get("CVE_data_meta", {}).get("ID")
            if not cve_id:
                continue
            description = ""
            for dd in cve.get("description", {}).get("description_data", []):
                if dd.get("lang") == "en":
                    description = dd.get("value", "")
                    break
            cwes = [
                desc.get("value")
                for pt in cve.get("problemtype", {}).get("problemtype_data", [])
                for desc in pt.get("description", [])
                if desc.get("value", "").startswith("CWE-")
            ]
            uris = _walk_cpe_nodes(item.get("configurations", {}).get("nodes", []))
            skeletons.append(_skeleton_from_cve(cve_id, description, cwes,
                                                uris, path))
    elif "vulnerabilities" in doc:
        warnings.warn(f"{path}: NVD 2.0 layout detected; best-effort extraction")
        for item in doc["vulnerabilities"]:
            cve = item.get("cve", {})
            cve_id = cve.get("id")
            if not cve_id:
                continue
            description = ""
            for dd in cve.get("descriptions", []):
                if dd.get("lang") == "en":
                    description = dd.get("value", "")
                    break
            uris = [
                match.get("criteria")
                for conf in cve.get("configurations", [])
                for node in conf.get("nodes", [])
                for match in node.get("cpeMatch", [])
                if match.get("criteria")
            ]
            skeletons.append(_skeleton_from_cve(cve_id, description, [],
                                                uris, path))
    else:
        raise ValidationFailure(
            f"{path}: not a recognized NVD CVE feed (no CVE_Items)")
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


def skeletons_from_dict(doc: dict) -> list[ActionSkeleton]:
    out = []
    for sd in doc.get("skeletons", []):
        out.append(ActionSkeleton(
            id=str(sd["id"]),
            name=str(sd.get("name", "")),
            description=str(sd.get("description", "")),
            references=tuple(str(r) for r in sd.get("references", [])),
            suggested_criteria={str(k): tuple(str(x) for x in v)
                                for k, v in sd.get("suggested_criteria", {}).items()},
            provenance=tuple(Provenance(str(p.get("source", "")),
                                        str(p.get("record", "")))
                             for p in sd.get("provenance", [])),
        ))
    return out


def merge_annotations(skeletons: Iterable[ActionSkeleton],
                      annotations: Mapping[str, dict],
                      schema: ProfileSchema,
                      ) -> tuple[list[Action], list[str]]:
    """Join annotator-supplied profiles onto skeletons.

    Returns the fully validated actions plus the ids of skeletons left
    unannotated (reported, never emitted). Raises on annotations that
    reference unknown skeletons or fail database validation.
    """
    by_id = {sk.id: sk for sk in skeletons}
    errors = [f"annotation references unknown skeleton {aid!r}"
              for aid in sorted(set(annotations) - set(by_id))]
    actions: list[Action] = []
    for sk in by_id.values():
        ann = annotations.get(sk.id)
        if ann is None:
            continue
        criteria_raw = ann.get("target_criteria",
                               {k: list(v) for k, v in sk.suggested_criteria.items()})
        criteria = TargetCriteria({
            str(k): frozenset(str(x) for x in (v if isinstance(v, list) else [v]))
            for k, v in criteria_raw.items()
        })
        profile = {str(k): (v if isinstance(v, str) else number(
                       v, 0.0, errors, "annotation {!r}: property {!r}",
                       sk.id, k))
                   for k, v in ann.get("profile", {}).items()}
        actions.append(Action(
            id=sk.id,
            name=str(ann.get("name", sk.name)),
            description=str(ann.get("description", sk.description)),
            references=sk.references,
            profile=profile,
            target_criteria=criteria,
            channels=frozenset(string_list(
                ann.get("channels", []), f"annotation {sk.id!r}: channels",
                errors)),
            prerequisites=frozenset(string_list(
                ann.get("prerequisites", []),
                f"annotation {sk.id!r}: prerequisites", errors)),
            success_probability=number(
                ann.get("success_probability", 1.0), 1.0, errors,
                "annotation {!r}: success_probability", sk.id),
            effect=str(ann.get("effect", "compromise")),
        ))
    if actions:
        errors.extend(ActionDatabase(actions, schema).validate())
    if errors:
        raise ValidationFailure("cannot merge annotations", errors)
    unannotated = sorted(set(by_id) - set(annotations))
    return actions, unannotated


def actions_fragment_to_dict(actions: Iterable[Action]) -> dict:
    """Action-database file fragment, loadable by the action loader."""
    return {"actions": [action_to_dict(a) for a in actions]}
