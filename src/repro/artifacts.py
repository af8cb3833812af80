"""Versioned on-disk artifacts: atomic writes and schema-checked JSONL files.

Every file the package rewrites whole goes through :func:`write_text_atomic`,
so readers see the old file or the new one, never a torn one.  Trace files
and run ledgers share one container format, a :class:`JsonlFormat`.
Standard library only, so every layer can import it at module level.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, TypeVar

T = TypeVar("T")


class ArtifactSchemaError(ValueError):
    """An artifact file is foreign, truncated, or from another schema version."""


def write_text_atomic(path: str | os.PathLike[str], text: str) -> None:
    """Replace *path* via a unique ``.tmp-*`` file; on failure *path* is untouched."""
    path = Path(path)
    handle = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", dir=path.parent, prefix=".tmp-", suffix=path.suffix, delete=False
    )
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except FileNotFoundError:
            pass  # a concurrent ResultCache.clear() reaped it; keep the original error
        raise


@dataclass(frozen=True, slots=True)
class JsonlFormat:
    """A header line ``{"kind", "schema", "meta"}``, then one JSON record per line.

    *kind* marks the format so other JSON is never misread, *noun* names it in
    messages, and *torn* (``{error}`` is the cause) reports an unreadable line.
    """

    kind: str
    schema: int
    noun: str
    error: type[ArtifactSchemaError]
    torn: str

    def header(self, meta: Mapping[str, Any] | None = None) -> dict[str, Any]:
        return {"kind": self.kind, "schema": self.schema, "meta": dict(meta) if meta else {}}

    def read(self, path: str | Path, parse: Callable[[Any], T]) -> tuple[dict[str, Any], list[T]]:
        """``(header_meta, [parse(record) for each line])``; raises :attr:`error`
        for an empty or foreign file, another schema, or an unreadable line."""
        path = Path(path)
        with path.open("r", encoding="utf-8") as handle:
            first = handle.readline()
            if not first.strip():
                raise self.error(f"{path} is empty; not a {self.noun} file")
            try:
                header = json.loads(first)
            except ValueError as error:
                raise self.error(f"{path} has no JSON header line: {error}") from error
            if not isinstance(header, dict) or header.get("kind") != self.kind:
                raise self.error(f"{path} is not a {self.kind} file")
            schema = header.get("schema")
            if schema != self.schema:
                raise self.error(
                    f"{path} was written under {self.noun} schema {schema!r}, but this "
                    f"build reads schema {self.schema}; regenerate the {self.noun}"
                )
            records = []
            for line_number, line in enumerate(handle, start=2):
                if not line.strip():
                    continue
                try:
                    records.append(parse(json.loads(line)))
                except ArtifactSchemaError as error:
                    raise self.error(f"{path}:{line_number}: {error}") from error
                except (ValueError, KeyError, TypeError) as error:
                    torn = self.torn.format(error=error)
                    raise self.error(f"{path}:{line_number}: {torn}") from error
        meta = header.get("meta", {})
        return (dict(meta) if isinstance(meta, dict) else {}), records
