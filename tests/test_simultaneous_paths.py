"""Example 3.2: simultaneous feasibility of several dependence paths.

The paper's taint example needs TWO paths — the password into ``c`` and
the address into ``d`` — to be feasible at once: the analysis solves
``phi_pi1 /\\ phi_pi2``.  These tests exercise that conjunction: paths
that are individually feasible but guarded by contradictory conditions
must be rejected jointly.
"""

from repro.checkers import cwe402_checker
from repro.fusion import FusionEngine, prepare_pdg
from repro.lang import compile_source
from repro.pdg import compute_slice
from repro.sparse import FrameTable, collect_candidates

#: Both flows must reach send() for the leak to happen; the guards on the
#: two flows contradict (a > 50 vs a < 10), so the joint check fails even
#: though each path alone is feasible.
CONTRADICTORY = """
fun f(a) {
  pw = getpass();
  ip = getpass();
  c = 0;
  d = 0;
  if (a > 50) { c = pw; }
  if (a < 10) { d = ip; }
  sendmsg(c, d);
  return 0;
}
"""

COMPATIBLE = """
fun f(a) {
  pw = getpass();
  ip = getpass();
  c = 0;
  d = 0;
  if (a > 50) { c = pw; }
  if (a > 60) { d = ip; }
  sendmsg(c, d);
  return 0;
}
"""


def check_simultaneous(engine, paths):
    """Decide whether several dependence paths are feasible at once.
    The paths must come from one shared :class:`FrameTable`, so frame
    ids are unique across them."""
    return engine.solver.solve(list(paths), compute_slice(engine.pdg, paths))


def joint_paths(src):
    pdg = prepare_pdg(compile_source(src))
    frames = FrameTable()
    candidates = collect_candidates(pdg, cwe402_checker(), frames=frames)
    # One flow per source, both ending at the same sink call.
    sinks = {c.sink.index for c in candidates}
    assert len(sinks) == 1
    assert len({c.source.index for c in candidates}) == 2
    return pdg, [c.path for c in candidates]


class TestSimultaneousFeasibility:
    def test_individually_feasible(self):
        pdg, paths = joint_paths(CONTRADICTORY)
        engine = FusionEngine(pdg)
        for path in paths:
            assert check_simultaneous(engine, [path]).is_sat

    def test_contradictory_guards_jointly_infeasible(self):
        pdg, paths = joint_paths(CONTRADICTORY)
        engine = FusionEngine(pdg)
        assert check_simultaneous(engine, paths).is_unsat

    def test_compatible_guards_jointly_feasible(self):
        pdg, paths = joint_paths(COMPATIBLE)
        engine = FusionEngine(pdg)
        assert check_simultaneous(engine, paths).is_sat

    def test_shared_frame_table_keeps_ids_unique(self):
        pdg, paths = joint_paths(COMPATIBLE)
        fids = set()
        for path in paths:
            for frame in path.frames():
                fids.add(frame.fid)
        # Same function, same root key -> the root frame is shared, which
        # is exactly what makes the conjunction talk about one instance.
        assert len(fids) == 1
