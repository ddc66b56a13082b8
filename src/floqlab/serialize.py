"""Deterministic CSV/JSON output.

Every file embeds the run's config hash and a format version.  JSON files
carry them in a "meta" object (together with the only timestamp written
anywhere); CSV files start with a single `#`-comment line, so identical
config and seed reproduce byte-identical CSVs.  The hashed config holds
every option of the command with the value it took, defaults included, so
moving a default moves the hash.
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


def write_csv(path, columns, rows, cfg_hash: str) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(f"# format={FORMAT_VERSION} config_hash={cfg_hash}\n")
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _cell(value):
    return repr(value) if isinstance(value, float) else value


def write_json(path, payload: dict, cfg_hash: str) -> None:
    path = Path(path)
    doc = {
        "meta": {
            "format": FORMAT_VERSION,
            "config_hash": cfg_hash,
            "created": datetime.now(timezone.utc).isoformat(),
        }
    }
    doc.update(payload)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
