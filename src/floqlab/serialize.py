"""Deterministic CSV/JSON output.

Every file embeds the run's config hash and a format version.  The writers
take the config itself and hash it, so a file's hash cannot drift from the
config it was written under; JSON files also carry the config under
"config".  JSON files keep hash and version in a "meta" object (together
with the only timestamp written anywhere); CSV files start with a single
`#`-comment line, so identical config and seed reproduce byte-identical
CSVs.  The hashed config holds every option of the command with the value
it took, defaults included, so moving a default moves the hash.  Both
writers create the file's directory.
"""

import csv
import hashlib
import json
from datetime import datetime, timezone
from pathlib import Path

FORMAT_VERSION = 1


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_hash(config: dict) -> str:
    """Stable short hash identifying the semantic run configuration."""
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()[:16]


def _target(path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def write_csv(path, columns, rows, config: dict) -> None:
    with _target(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(f"# format={FORMAT_VERSION} config_hash={config_hash(config)}\n")
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _cell(value):
    return repr(value) if isinstance(value, float) else value


def write_json(path, payload: dict, config: dict) -> None:
    doc = {
        "meta": {
            "format": FORMAT_VERSION,
            "config_hash": config_hash(config),
            "created": datetime.now(timezone.utc).isoformat(),
        },
        "config": config,
    }
    doc.update(payload)
    with _target(path).open("w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
