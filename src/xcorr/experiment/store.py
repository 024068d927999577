"""Append-only on-disk store for experiment artifacts.

Layout: one directory per scenario (named by the hash of its canonical
config JSON), one JSON-lines file per record kind inside it::

    <root>/<hash>/trials.jsonl        placement, observations, truth
    <root>/<hash>/predictions.jsonl   per-algorithm verdicts
    <root>/<hash>/reports.jsonl       pooled reports

Appending never rewrites existing lines, so a store can accumulate
reruns; the hash key guarantees records from different configs never
mix.  Records are plain dicts — the caller decides the schema (a trial
record comes from ``SimulatedTrial.to_record``), the store only promises
ordered, line-delimited canonical JSON.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Mapping

from ..errors import ConfigError


def canonical_json(doc) -> str:
    """The one encoding that is hashed, stored and compared byte for
    byte: sorted keys, no whitespace."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def scenario_hash(config: Mapping) -> str:
    """16-hex-digit key derived from the canonical config JSON.  Equal
    configs always collide; differing ones practically never do."""
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()[:16]


class CorrelationStore:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, key: str, kind: str) -> Path:
        return self.root / key / f"{kind}.jsonl"

    def append(self, key: str, kind: str, *records: Mapping) -> None:
        """Append ``records`` in order, one line each, through one open;
        the key's directory is made by the first append that needs it."""
        path = self.path(key, kind)
        text = "".join(canonical_json(record) + "\n" for record in records)
        try:
            fh = path.open("a", encoding="utf-8")
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            fh = path.open("a", encoding="utf-8")
        with fh:
            fh.write(text)

    def read(self, key: str, kind: str) -> list[dict]:
        """All records of one kind, oldest first; empty list when none.
        Raises :class:`ConfigError` naming the file and line when a line
        is not JSON or nests deeper than the decoder's recursion limit."""
        path = self.path(key, kind)
        if not path.exists():
            return []
        records = []
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: line {number}: not valid JSON: {exc}") from exc
            except RecursionError as exc:
                raise ConfigError(
                    f"{path}: line {number}: JSON nested too deeply to decode"
                ) from exc
        return records

    def keys(self) -> list[str]:
        return sorted(p.name for p in self.root.iterdir() if p.is_dir())

    def kinds(self, key: str) -> list[str]:
        d = self.root / key
        if not d.is_dir():
            return []
        return sorted(p.stem for p in d.glob("*.jsonl"))
