"""One JSON form for every record: its dataclass fields.

A record is a dataclass that subclasses :class:`JsonRecord`.  Its dict form
maps each field name, in field order, to the field's value:

* a field annotated as a tuple or list is written as a list, and one
  annotated as a dict or ``Mapping`` as a dict (one-level copies);
* a field named in ``nested`` holds another record, ``None``, or a list or
  tuple of records, each written with its own ``to_dict``;
* a field whose metadata is :data:`NOT_JSON` is left out.

``from_dict`` inverts that: nested fields are rebuilt with their record's
``from_dict``, and tuple fields come back as tuples.  ``to_json`` dumps the
dict with sorted keys.  A class works out its field plan once, on first use.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from types import EllipsisType
from typing import Any, Callable, ClassVar, Mapping, NamedTuple, TypeVar

R = TypeVar("R", bound="JsonRecord")

Codec = Callable[[Any], Any]

#: ``dataclasses.field(metadata=NOT_JSON)`` leaves a field out of the JSON form.
NOT_JSON: Mapping[str, bool] = {"json": False}


class JsonRecord:
    """Base of a dataclass whose JSON form is its fields."""

    #: Set by ``@dataclass`` on every subclass.
    __dataclass_fields__: ClassVar[dict[str, dataclasses.Field[Any]]]

    #: Field name -> record class whose ``from_dict`` rebuilds the field.
    nested: ClassVar[Mapping[str, type[JsonRecord]]] = {}
    #: Indent of :meth:`to_json` when the caller passes none (``None`` ==
    #: one line).
    json_indent: ClassVar[int | None] = 2

    def to_dict(self) -> dict[str, Any]:
        plan = _plan(type(self))
        data = {name: getattr(self, name) for name in plan.names}
        for name, encode in plan.encoders:
            data[name] = encode(data[name])
        return data

    @classmethod
    def from_dict(cls: type[R], data: Mapping[str, Any]) -> R:
        decoders = _plan(cls).decoders
        if not decoders:
            return cls(**data)
        payload = dict(data)
        for name, decode in decoders:
            if name in payload:
                payload[name] = decode(payload[name])
        return cls(**payload)

    def to_json(self, indent: int | None | EllipsisType = ...) -> str:
        spacing = self.json_indent if isinstance(indent, EllipsisType) else indent
        return json.dumps(self.to_dict(), indent=spacing, sort_keys=True)

    @classmethod
    def from_json(cls: type[R], text: str) -> R:
        return cls.from_dict(json.loads(text))

    def with_overrides(self: R, **changes: Any) -> R:
        """A copy of the record with the given fields replaced."""
        return dataclasses.replace(self, **changes)


class _Plan(NamedTuple):
    names: tuple[str, ...]
    encoders: tuple[tuple[str, Codec], ...]
    decoders: tuple[tuple[str, Codec], ...]


@functools.cache
def _plan(cls: type[JsonRecord]) -> _Plan:
    names: list[str] = []
    encoders: list[tuple[str, Codec]] = []
    decoders: list[tuple[str, Codec]] = []
    for f in dataclasses.fields(cls):
        if not f.metadata.get("json", True):
            continue
        names.append(f.name)
        container = _container(f.type)
        kind = cls.nested.get(f.name)
        if kind is not None:
            encode, decode = _record_codecs(kind.from_dict, container)
            encoders.append((f.name, encode))
            decoders.append((f.name, decode))
        elif container == "dict":
            encoders.append((f.name, dict))
        elif container is not None:
            encoders.append((f.name, list))
            if container == "tuple":
                decoders.append((f.name, tuple))
    return _Plan(tuple(names), tuple(encoders), tuple(decoders))


def _container(annotation: object) -> str | None:
    """``"tuple"``, ``"list"`` or ``"dict"`` for a field annotated as one."""
    head = str(annotation).strip("'\"").split("[", 1)[0]
    if head in ("tuple", "list"):
        return head
    return "dict" if head in ("dict", "Mapping") else None


def _encode_record(value: JsonRecord | None) -> dict[str, Any] | None:
    return None if value is None else value.to_dict()


def _encode_records(values: Any) -> list[dict[str, Any]]:
    return [value.to_dict() for value in values]


def _record_codecs(from_dict: Codec, container: str | None) -> tuple[Codec, Codec]:
    """The encoder and decoder of a field that holds records."""
    if container == "tuple":
        return _encode_records, lambda items: tuple(from_dict(item) for item in items)
    if container == "list":
        return _encode_records, lambda items: [from_dict(item) for item in items]
    return _encode_record, lambda value: None if value is None else from_dict(value)
