"""The lowered IR and the PDG of every registry subject are pinned.

The frontend's records and builders are tuned for speed (slotted
dataclasses, shared constants, one token list, a direct PDG link); none
of that may change a statement, a type or an edge.  Per subject this
test digests:

* ``ir_pretty.format_program`` of the lowered program;
* every statement's result type, in program order;
* the PDG that ``prepare_pdg`` builds: each vertex's function and
  control parent, and every pred and succ list in order (source,
  destination, kind, call site).

A drift here is a frontend behaviour change, never noise.  To print
fresh values (only if the change is intended), run::

    PYTHONPATH=src python tests/test_ir_golden.py
"""

from __future__ import annotations

import hashlib

import pytest

from ir_pretty import format_program
from repro.bench.subjects import SUBJECTS, materialize
from repro.fusion import prepare_pdg


def ir_digest(name: str) -> str:
    program = materialize(name).program
    pdg = prepare_pdg(program)
    digest = hashlib.sha256(format_program(program).encode())
    for function in program.functions.values():
        digest.update(" ".join(stmt.result.type.value
                               for stmt in function.statements()).encode())
    for vertex in pdg.vertices:
        parent = pdg.control_parent(vertex)
        digest.update(repr((
            vertex.index, vertex.function,
            None if parent is None else parent.index,
            [(e.src.index, e.dst.index, e.kind.value, e.callsite)
             for e in pdg.data_preds(vertex)],
            [(e.src.index, e.dst.index, e.kind.value, e.callsite)
             for e in pdg.data_succs(vertex)])).encode())
    return digest.hexdigest()[:16]


PINNED = {
    "mcf": "1199eac409e09e6e",
    "bzip2": "f4ea717bedd1847e",
    "gzip": "cf60f74d59bac215",
    "parser": "4ff1f352a83e9f62",
    "vpr": "5e1aea1e3f3870e5",
    "crafty": "056d0219fb3ea895",
    "twolf": "4ecdcc7123e419fa",
    "eon": "8797c74ff887664d",
    "gap": "e4e44f208a671ba5",
    "vortex": "3c8cdbb4bdce9f64",
    "perlbmk": "73d97d9ac5fe3458",
    "gcc": "9b7ffff0f9045129",
    "ffmpeg": "349953858962b3ae",
    "v8": "a7740f2e87cd2294",
    "mysql": "2f32d52f737ba190",
    "wine": "7e6ce6398acb5b5f",
}


@pytest.mark.parametrize("name", [subject.name for subject in SUBJECTS])
def test_ir_and_pdg_match_the_pinned_digest(name):
    assert ir_digest(name) == PINNED[name]


if __name__ == "__main__":
    for subject in SUBJECTS:
        print(f'    "{subject.name}": "{ir_digest(subject.name)}",')
