"""docs/observability.md documents the store schema the code writes."""

import re
from pathlib import Path

from repro.store.store import SCHEMA_VERSION

DOC = Path(__file__).resolve().parents[2] / "docs" / "observability.md"


def test_schema_heading_names_current_version():
    text = DOC.read_text(encoding="utf-8")
    versions = re.findall(r"^### Schema \(version (\d+)\)$", text, re.M)
    assert versions == [str(SCHEMA_VERSION)]
    for column in ("stratum", "skipped", "sampling_seed"):
        assert column in text
