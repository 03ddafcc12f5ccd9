"""Findings are pinned independently of term ids.

``tests/test_preprocess_pinned.py`` pins term ids, manager sizes and SAT
searches, so a change that only stops interning throwaway terms moves
it even when every verdict stays put.  This test pins what a user sees
instead: a digest of each run's ``analysis_payload(...)["findings"]``
(verdicts, source and sink statements, witnesses) plus every report's
``decided_by``, for ``fusion``, ``fusion-unopt`` and ``pinpoint`` on the
four subjects of ``test_preprocess_pinned.py`` (Pinpoint extracts no
witnesses).  A preprocessing rewrite that keeps the same eliminations
in the same order must leave it unchanged.

A drift here is a behaviour change, never noise.  To print fresh values
(only if the change of findings is intended), run::

    PYTHONPATH=src python tests/test_findings_golden.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.bench.subjects import materialize
from repro.engine import AnalysisSession, EngineSettings
from repro.engine.core import analysis_payload

CHECKERS = ("null-deref", "cwe-23", "cwe-402", "div-zero")
ENGINES = ("fusion", "fusion-unopt", "pinpoint")
SUBJECTS = ("vortex", "twolf", "ffmpeg", "v8")


def findings_digest(subject: str, engine: str) -> str:
    """Digest of the findings and ``decided_by`` of one session running
    every checker in order, as ``repro analyze`` does with its
    defaults."""
    digest = hashlib.sha256()
    session = AnalysisSession(materialize(subject).source,
                              settings=EngineSettings(engine=engine))
    for checker in CHECKERS:
        result = session.analyze(checker)
        payload = analysis_payload(result, engine=engine, checker=checker,
                                   subject=subject)
        decided = [report.decided_by.value for report in result.reports]
        digest.update(json.dumps([payload["findings"], decided],
                                 sort_keys=True).encode())
    return digest.hexdigest()[:16]


PINNED = {
    ("vortex", "fusion"): "626b45cd035e957a",
    ("vortex", "fusion-unopt"): "f40b682231c13d01",
    ("vortex", "pinpoint"): "9ebfe845d48ad1f0",
    ("twolf", "fusion"): "29ae8765274e8c13",
    ("twolf", "fusion-unopt"): "0028d4b0b70a4faa",
    ("twolf", "pinpoint"): "8b58dd1d203ad93a",
    ("ffmpeg", "fusion"): "5baeddf950d9e9ae",
    ("ffmpeg", "fusion-unopt"): "79d92b7a20aad6bf",
    ("ffmpeg", "pinpoint"): "d6d5af7c8f9a405f",
    ("v8", "fusion"): "f7e9bddb08f5af3d",
    ("v8", "fusion-unopt"): "c92f1cdc4742884c",
    ("v8", "pinpoint"): "011d6d4580737455",
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("subject", SUBJECTS)
def test_findings_are_pinned(subject, engine):
    assert findings_digest(subject, engine) == PINNED[subject, engine]


if __name__ == "__main__":
    for name in SUBJECTS:
        for engine in ENGINES:
            print(f"    ({name!r}, {engine!r}): "
                  f"{findings_digest(name, engine)!r},")
