"""The loop-heavy subject family: programs dominated by ``while`` loops.

The bench gate's loop cells pin graph sizes and verdicts on this family
(``tests/test_bench_gate.py``), and ``tests/test_loops_differential.py``
draws its corpus from :func:`loop_heavy_source`.
"""

from __future__ import annotations

import random


#: (name, seed) pairs fed to :func:`loop_heavy_source`.
LOOP_HEAVY_FAMILY: tuple[tuple[str, int], ...] = (
    ("loops-a", 7002),
    ("loops-b", 7003),
    ("loops-c", 7018),
)


def loop_heavy_source(seed: int, *, functions: int = 4) -> str:
    """A seeded loop-heavy program (surface source text).

    Every function is dominated by ``while`` loops with *concrete* trip
    counts exceeding the default unroll bound, mixed with free-bound
    loops and fully-constant accumulations.  Each function also carries
    an infeasible guarded division arm (solver-prunable), one feasible
    null dereference, and one ground-truth division by zero, so the
    null-deref and div-zero checkers both have real work on unrolled
    loops.

    Returns source text rather than a compiled program so callers
    (tests/test_bench_gate.py, tests/test_loops_differential.py) can
    compile the same subject under several unroll bounds.
    """
    rng = random.Random(seed)
    lines: list[str] = []
    for index in range(functions):
        lines.append(f"fun loopfn_{index}(k, m) {{")
        lines.append("  p = null;")
        lines.append("  acc = k;")
        for loop in range(rng.randint(4, 5)):
            iv = f"i{loop}"
            trip = rng.randint(3, 9)
            step = rng.randint(1, 2)
            lines.append(f"  {iv} = 0;")
            kind = rng.random()
            if kind < 0.3:
                # Fully-constant accumulation.
                cv = f"c{loop}"
                lines.append(f"  {cv} = 0;")
                lines.append(f"  while ({iv} < {trip}) {{")
                lines.append(f"    {cv} = {cv} + {rng.randint(1, 4)};")
                lines.append(f"    {iv} = {iv} + 1;")
                lines.append("  }")
                lines.append(f"  acc = acc + {cv};")
            elif kind < 0.6:
                # Idempotent body: the accumulator is re-seeded at the
                # loop head, so every iteration computes the same terms.
                wv = f"w{loop}"
                lines.append(f"  while ({iv} < {trip}) {{")
                lines.append(f"    {wv} = k;")
                lines.append(f"    {wv} = {wv} + m;")
                lines.append(f"    {wv} = {wv} + {rng.randint(1, 9)};")
                lines.append(f"    {wv} = {wv} + k;")
                lines.append(f"    {iv} = {iv} + 1;")
                lines.append("  }")
                lines.append(f"  acc = acc + {iv};")
            elif kind < 0.85:
                # Concrete trip count, loop-carried symbolic
                # accumulation.
                lines.append(f"  while ({iv} < {trip}) {{")
                lines.append("    acc = acc + m;")
                lines.append(f"    acc = acc + {rng.randint(1, 9)};")
                lines.append("    acc = acc + k;")
                lines.append(f"    {iv} = {iv} + {step};")
                lines.append("  }")
            else:
                # Free bound: every unrolled level's guard is symbolic.
                lines.append(f"  while ({iv} < m) {{")
                lines.append("    acc = acc + 1;")
                lines.append(f"    {iv} = {iv} + {step};")
                lines.append("  }")
        # A division behind a guard the solver refutes.
        lines.append("  if (acc > 100 && acc < 50) {")
        lines.append("    bad = k / m;")
        lines.append("  }")
        # A feasible null dereference.
        lines.append(f"  if (k > {rng.randint(40, 80)}) {{")
        lines.append("    deref(p);")
        lines.append("  }")
        # A ground-truth division by zero.
        lines.append("  z = 0;")
        lines.append("  r = acc / z;")
        lines.append("  return r + acc;")
        lines.append("}")
        lines.append("")
    return "\n".join(lines)
