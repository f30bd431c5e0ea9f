"""On-disk JSON documents for truncated structures.

One JSON object per structure: levels as sizes (optionally with labels),
face and degeneracy tables as nested index arrays, and optional blocks
for the paracyclic translations, the transposition actions, a counit
span, and a level-2 commutativity involution.  Serialization is canonical
(sorted keys, fixed indentation) so that parse ∘ serialize is the
identity byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .simplicial import TruncSimplicialSet, make_simplicial
from .spans import FinMap, FinSet, Span, StructuralError, UNIT, constant_map

if TYPE_CHECKING:  # loaded only when a document carries the block
    from .gammaset import GammaData
    from .paracyclic import ParacyclicData

SCHEMA_VERSION = 1


class DocumentError(ValueError):
    """Raised on malformed or inconsistent structure documents."""


@dataclass
class StructureDocument:
    simplicial: TruncSimplicialSet
    paracyclic: Optional[ParacyclicData] = None
    gamma: Optional[GammaData] = None
    counit: Optional[Span] = None
    commutative: Optional[FinMap] = None  # the level-2 involution


def document_to_dict(doc: StructureDocument) -> dict:
    X = doc.simplicial
    out: dict = {
        "schema_version": SCHEMA_VERSION,
        "truncation": X.N,
        "levels": [
            {"size": l.size, "labels": list(l.labels)} if l.labels is not None else l.size
            for l in X.levels
        ],
        "face": [[list(d.table) for d in X.face[n]] for n in range(1, X.N + 1)],
        "degen": [[list(s.table) for s in X.degen[n]] for n in range(X.N)],
    }
    if doc.paracyclic is not None:
        out["paracyclic"] = {"tau": [list(t.table) for t in doc.paracyclic.tau]}
    if doc.gamma is not None:
        out["gamma"] = {
            "theta": [
                [list(t.table) for t in doc.gamma.theta_tables[n]]
                for n in range(2, X.N + 1)
            ]
        }
    if doc.counit is not None:
        out["counit"] = {
            "apex_size": doc.counit.apex.size,
            "left": list(doc.counit.left.table),
            "right": "point",
        }
    if doc.commutative is not None:
        out["commutative"] = {"theta2": list(doc.commutative.table)}
    return out


def _is_index(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _parse_level(entry) -> FinSet:
    if _is_index(entry):
        return FinSet(entry)
    if isinstance(entry, dict) and _is_index(entry.get("size")):
        labels = entry.get("labels")
        if labels is None:
            return FinSet(entry["size"])
        if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
            raise DocumentError(f"level labels must be a list of strings, not {labels!r}")
        return FinSet(entry["size"], tuple(labels))
    raise DocumentError(f"bad level entry {entry!r}")


def _parse_table(entry, dom: FinSet, cod: FinSet, what: str) -> FinMap:
    if not isinstance(entry, list):
        raise DocumentError(f"{what}: table must be a list, not {type(entry).__name__}")
    if len(entry) != dom.size:
        raise DocumentError(f"{what}: table length {len(entry)} differs from domain {dom.size}")
    # `type` is exact, so a bool is refused although it is an int; FinMap
    # checks the range
    try:
        if set(map(type, entry)) <= {int}:
            return FinMap(dom, cod, tuple(entry))
    except StructuralError:
        pass
    raise DocumentError(f"{what}: entry not an integer index below {cod.size}")


def document_from_dict(data: dict) -> StructureDocument:
    if not isinstance(data, dict):
        raise DocumentError("document must be a JSON object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema_version {data.get('schema_version')!r}")
    try:
        return _document_from_dict(data)
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise DocumentError(f"missing or malformed field: {exc}") from exc
    except StructuralError as exc:
        raise DocumentError(str(exc)) from exc


def _block(data: dict, name: str, *needs: str) -> Optional[dict]:
    """The `name` block, or None when absent: a JSON object with every key in `needs`."""
    if name not in data:
        return None
    block = data[name]
    if not isinstance(block, dict):
        raise DocumentError(f"{name} block must be a JSON object, not {type(block).__name__}")
    for key in needs:
        if key not in block:
            raise DocumentError(f"{name} block needs {key}")
    return block


def _document_from_dict(data: dict) -> StructureDocument:
    N = data["truncation"]
    levels = [_parse_level(l) for l in data["levels"]]
    if len(levels) != N + 1:
        raise DocumentError("declared truncation differs from the level count")
    face = [()]
    for n in range(1, N + 1):
        row = data["face"][n - 1]
        if len(row) != n + 1:
            raise DocumentError(f"need {n + 1} face maps at level {n}")
        face.append(tuple(
            _parse_table(row[i], levels[n], levels[n - 1], f"face d_{i}^{n}")
            for i in range(n + 1)
        ))
    degen = []
    for n in range(N):
        row = data["degen"][n]
        if len(row) != n + 1:
            raise DocumentError(f"need {n + 1} degeneracy maps at level {n}")
        degen.append(tuple(
            _parse_table(row[i], levels[n], levels[n + 1], f"degeneracy s_{i}^{n}")
            for i in range(n + 1)
        ))
    degen.append(())
    X = make_simplicial(levels, face, degen)

    paracyclic = None
    if (block := _block(data, "paracyclic")) is not None:
        from .paracyclic import ParacyclicData

        taus = block.get("tau")
        if not isinstance(taus, list) or len(taus) != N + 1:
            raise DocumentError("paracyclic block needs one tau table per level")
        paracyclic = ParacyclicData(X, tuple(
            _parse_table(taus[n], levels[n], levels[n], f"tau^{n}") for n in range(N + 1)
        ))
    gamma = None
    if (block := _block(data, "gamma")) is not None:
        from .gammaset import GammaData

        thetas = block.get("theta")
        if not isinstance(thetas, list) or len(thetas) != max(0, N - 1):
            raise DocumentError("gamma block needs theta tables for levels 2..N")
        tables: list[tuple[FinMap, ...]] = [(), ()]
        for n in range(2, N + 1):
            row = thetas[n - 2]
            if len(row) != n - 1:
                raise DocumentError(f"need {n - 1} transpositions at level {n}")
            tables.append(tuple(
                _parse_table(row[i - 1], levels[n], levels[n], f"theta_{i}^{n}")
                for i in range(1, n)
            ))
        gamma = GammaData(X, tuple(tables))
    counit = None
    if (block := _block(data, "counit", "apex_size", "left")) is not None:
        if block.get("right") != "point":
            raise DocumentError("counit right leg must be the point")
        if not _is_index(block["apex_size"]):
            raise DocumentError("counit apex_size must be an integer")
        apex = FinSet(block["apex_size"])
        left = _parse_table(block["left"], apex, levels[1], "counit left leg")
        counit = Span(levels[1], UNIT, apex, left, constant_map(apex, UNIT))
    commutative = None
    if (block := _block(data, "commutative", "theta2")) is not None:
        commutative = _parse_table(block["theta2"], levels[2], levels[2], "commutative theta2")
    return StructureDocument(X, paracyclic, gamma, counit, commutative)


def _canonical(value, indent: str) -> str:
    """`value` as `json.dumps(value, indent=2, sort_keys=True)` writes it
    at nesting `indent`; a flat list of integers is joined in one call
    instead of going through the encoder entry by entry."""
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict) and value:
        body = sep.join(f"{json.dumps(k)}: {_canonical(value[k], inner)}" for k in sorted(value))
        return "{\n" + inner + body + "\n" + indent + "}"
    if isinstance(value, list) and value:
        if set(map(type, value)) <= {int}:
            body = sep.join(map(str, value))
        else:
            body = sep.join(_canonical(v, inner) for v in value)
        return "[\n" + inner + body + "\n" + indent + "]"
    return json.dumps(value)


def dumps_document(doc: StructureDocument) -> str:
    """The canonical text of a document: byte for byte what
    `json.dumps(document_to_dict(doc), indent=2, sort_keys=True) + "\\n"`
    gives."""
    return _canonical(document_to_dict(doc), "") + "\n"


def loads_document(text: str) -> StructureDocument:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return document_from_dict(data)


def save_document(doc: StructureDocument, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_document(doc))


def load_document(path) -> StructureDocument:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DocumentError(f"document is not UTF-8 text: {exc}") from exc
    return loads_document(text)
