"""Synthetic subject generator with ground-truth bug labels.

The paper evaluates on SPEC CINT2000 and four MLOC open-source projects.
Pure-Python analysis cannot chew through real MLOC, so the benchmarks run
on seeded synthetic programs that preserve the *shape* that drives the
paper's results:

* a layered call DAG (utilities at the bottom, entry points at the top)
  whose fan-out makes eager condition cloning grow geometrically with call
  depth — the Table 1 cost model;
* a mix of affine/constant/havoc/opaque utility returns, so quick paths
  resolve most call bindings but not all;
* branches whose conditions chain through call results, so path conditions
  really do reach across functions (the Figure 1 pattern);
* injected bugs with known labels: ``path_feasible`` (should a
  path-sensitive analyzer report it?) and ``real`` (is it a true positive
  for a human?), which lets the harness compute the Table 5 TP/FP columns
  for every engine.

Everything is generated as *surface source text* and pushed through the
full front end, so the benchmarks exercise the same pipeline as user code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.lang.ir import Program
from repro.lang.lowering import LoweringConfig, compile_source


@dataclass
class SubjectSpec:
    """Generator knobs for one synthetic subject."""

    name: str
    seed: int
    num_functions: int = 20
    layers: int = 4
    avg_stmts: int = 10
    call_fanout: int = 2          # calls per function into the layer below
    branch_density: float = 0.3   # probability of emitting an if block
    loop_density: float = 0.1
    #: Injected bugs per checker: (path-feasible real, path-feasible
    #: non-real, path-infeasible) counts.
    null_bugs: tuple[int, int, int] = (2, 1, 1)
    taint23_bugs: tuple[int, int, int] = (0, 0, 0)
    taint402_bugs: tuple[int, int, int] = (0, 0, 0)
    width: int = 8
    loop_unroll: int = 2


@dataclass(frozen=True)
class GroundTruthBug:
    """One injected bug and its labels."""

    checker: str          # "null-deref" / "cwe-23" / "cwe-402"
    source_function: str  # the function containing the source statement
    path_feasible: bool   # should a path-sensitive analyzer report it?
    real: bool            # is it a true positive for a human auditor?

    @property
    def key(self) -> tuple[str, str]:
        return (self.checker, self.source_function)


@dataclass
class GeneratedSubject:
    name: str
    spec: SubjectSpec
    source: str
    program: Program
    ground_truth: list[GroundTruthBug] = field(default_factory=list)

    @property
    def loc(self) -> int:
        return sum(1 for line in self.source.splitlines() if line.strip())

    def truth_for(self, checker: str) -> list[GroundTruthBug]:
        return [b for b in self.ground_truth if b.checker == checker]


#: Guard templates with known feasibility.  {v} is a free parameter of the
#: bug wrapper; {c}/{d} are results of calls into the subject's call DAG,
#: which is what makes the guard's path condition reach across functions
#: (the Figure 1 pattern) and gives the engines real work per query.
#: Constants stay within 0..120 so 8-bit signed semantics are intuitive.
_FEASIBLE_GUARDS = (
    "{v} > 50",
    "{v} > 10 && {v} < 90",
    "{c} < {d} || {v} > 50",      # satisfiable via the free {v} disjunct
    "{c} < {d} || {v} < 100",
)
_INFEASIBLE_GUARDS = (
    "{v} > 100 && {v} < 50",
    "{v} * 2 == 7",        # an odd target for an even value: UNSAT mod 2^w
    "{c} < {d} && {d} < {c}",     # antisymmetry through the call chains
    "{c} < {d} && {v} > 100 && {v} < 50",
)


class SubjectGenerator:
    """Deterministic generator for one :class:`SubjectSpec`."""

    def __init__(self, spec: SubjectSpec) -> None:
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.lines: list[str] = []
        self.ground_truth: list[GroundTruthBug] = []
        self._source_counter = 0

    # ------------------------------------------------------------------ #
    # Top level
    # ------------------------------------------------------------------ #

    def generate(self) -> GeneratedSubject:
        spec = self.spec
        layer_names = self._layer_names()

        # Bottom-up so callees exist before callers reference them.
        for layer in range(spec.layers - 1, -1, -1):
            callees = layer_names[layer + 1] if layer + 1 < spec.layers \
                else []
            for name in layer_names[layer]:
                self._emit_function(name, callees)

        self._inject_bugs(layer_names[0])

        source = "\n".join(self.lines)
        program = compile_source(source, LoweringConfig(
            loop_unroll=spec.loop_unroll, width=spec.width))
        return GeneratedSubject(spec.name, spec, source, program,
                                self.ground_truth)

    def _layer_names(self) -> list[list[str]]:
        spec = self.spec
        names: list[list[str]] = []
        remaining = spec.num_functions
        for layer in range(spec.layers):
            share = max(1, remaining // (spec.layers - layer))
            names.append([f"fn_l{layer}_{i}" for i in range(share)])
            remaining -= share
        return names

    # ------------------------------------------------------------------ #
    # Function bodies
    # ------------------------------------------------------------------ #

    def _emit_function(self, name: str, callees: list[str]) -> None:
        """One function of the layered DAG.

        Non-leaf functions *chain* ``call_fanout`` calls into the layer
        below — each call feeds the next (``r2 = child(r1, b)``) and the
        chain's tail feeds the return value.  This is the paper's cost
        driver: every call on the chain sits on the sliced return-value
        cone, so an eager expander clones ``fanout`` callees per level
        (geometric in depth) while quick-path summaries compose the chain
        as a single affine relation.  A small fraction of functions return
        opaque values so delayed cloning still happens sometimes.
        """
        rng = self.rng
        spec = self.spec
        self.lines.append(f"fun {name}(a, b) {{")
        locals_: list[str] = ["a", "b"]
        counter = 0

        def fresh() -> str:
            nonlocal counter
            counter += 1
            return f"v{counter}"

        def int_expr() -> str:
            base = rng.choice(locals_)
            kind = rng.random()
            if kind < 0.35:
                return f"{base} + {rng.randint(1, 30)}"
            if kind < 0.55:
                return f"{base} * {rng.choice([2, 3, 4])}"
            if kind < 0.7:
                other = rng.choice(locals_)
                return f"{base} + {other}"
            if kind < 0.8:
                return f"{base} << {rng.randint(1, 3)}"
            return str(rng.randint(0, 100))

        # Filler statements: arithmetic, library calls, branches, loops.
        body_budget = max(3, int(rng.gauss(spec.avg_stmts,
                                           spec.avg_stmts / 4)))
        for _ in range(body_budget):
            roll = rng.random()
            if roll < 0.12:
                v = fresh()
                arg = rng.choice(locals_)
                self.lines.append(f"  {v} = lib_{rng.randint(0, 5)}({arg});")
                locals_.append(v)
            elif roll < 0.12 + spec.branch_density:
                cond = f"{rng.choice(locals_)} {rng.choice(['<', '>'])} " \
                       f"{rng.randint(0, 110)}"
                v = fresh()
                self.lines.append(f"  {v} = {rng.choice(locals_)};")
                self.lines.append(f"  if ({cond}) {{")
                self.lines.append(f"    {v}x = {int_expr()};")
                self.lines.append(f"    {v} = {v}x + 1;")
                self.lines.append("  }")
                locals_.append(v)
            elif roll < 0.12 + spec.branch_density + spec.loop_density:
                v = fresh()
                self.lines.append(f"  {v} = 0;")
                bound = rng.choice(locals_)
                self.lines.append(f"  while ({v} < {bound}) {{")
                self.lines.append(f"    {v} = {v} + {rng.randint(1, 4)};")
                self.lines.append("  }")
                locals_.append(v)
            else:
                v = fresh()
                self.lines.append(f"  {v} = {int_expr()};")
                locals_.append(v)

        # The call chain feeding the return value.
        chain_tail: Optional[str] = None
        if callees:
            prev = "a"
            for _ in range(spec.call_fanout):
                callee = rng.choice(callees)
                v = fresh()
                self.lines.append(f"  {v} = {callee}({prev}, b);")
                locals_.append(v)
                prev = v
            chain_tail = prev

        self.lines.append(
            f"  return {self._return_expr(locals_, chain_tail)};")
        self.lines.append("}")
        self.lines.append("")

    def _return_expr(self, locals_: list[str],
                     chain_tail: Optional[str]) -> str:
        """Return shapes: mostly an affine transform of the call chain
        (quick-path friendly), with constant / havoc / opaque minorities."""
        rng = self.rng
        roll = rng.random()
        if chain_tail is not None:
            if roll < 0.75:
                scale = rng.choice([1, 2, 3])
                offset = rng.randint(0, 20)
                return f"{chain_tail} * {scale} + {offset}"
            if roll < 0.9:
                return f"{chain_tail} * {rng.choice(locals_)}"  # opaque
            return chain_tail
        # Leaf layer: affine in a / constant / havoc / opaque.
        if roll < 0.5:
            return f"a * {rng.choice([1, 2, 3])} + {rng.randint(0, 20)}"
        if roll < 0.65:
            return str(rng.randint(0, 60))
        if roll < 0.85:
            return rng.choice(locals_)
        return f"{rng.choice(locals_)} * {rng.choice(locals_)}"

    # ------------------------------------------------------------------ #
    # Bug injection
    # ------------------------------------------------------------------ #

    def _inject_bugs(self, top_layer: list[str]) -> None:
        spec = self.spec
        plans = [
            ("null-deref", spec.null_bugs, self._emit_null_bug),
            ("cwe-23", spec.taint23_bugs, self._emit_taint_bug(
                "gets", "fopen")),
            ("cwe-402", spec.taint402_bugs, self._emit_taint_bug(
                "getpass", "send")),
        ]
        for checker, (real, unreal, infeasible), emit in plans:
            for _ in range(real):
                emit(checker, top_layer, path_feasible=True, real=True)
            for _ in range(unreal):
                emit(checker, top_layer, path_feasible=True, real=False)
            for _ in range(infeasible):
                emit(checker, top_layer, path_feasible=False, real=False)

    def _bug_function_name(self, checker: str) -> str:
        self._source_counter += 1
        tag = checker.replace("-", "_")
        return f"bug_{tag}_{self._source_counter}"

    def _guard_prelude(self, feasible: bool,
                       top_layer: list[str]) -> tuple[list[str], str]:
        """Pick a guard template; when it references call results, emit the
        two calls into the subject's call DAG that feed it."""
        rng = self.rng
        pool = _FEASIBLE_GUARDS if feasible else _INFEASIBLE_GUARDS
        template = rng.choice(pool)
        prelude: list[str] = []
        if "{c}" in template and top_layer:
            callee_c = rng.choice(top_layer)
            callee_d = rng.choice(top_layer)
            prelude.append(f"  c = {callee_c}(k, m);")
            prelude.append(f"  d = {callee_d}(m, k);")
        elif "{c}" in template:
            # No call DAG available (degenerate spec): fall back to params.
            template = template.replace("{c}", "k").replace("{d}", "m")
        guard = template.format(v="k", c="c", d="d")
        return prelude, guard

    def _emit_null_bug(self, checker: str, top_layer: list[str],
                       path_feasible: bool, real: bool) -> None:
        """A dedicated entry function: null source (sometimes behind a
        callee), a guard with known feasibility, a deref sink."""
        name = self._bug_function_name(checker)
        rng = self.rng
        cross_function = rng.random() < 0.5
        source_function = name
        if cross_function:
            maker = f"{name}_maker"
            self.lines.append(f"fun {maker}() {{")
            self.lines.append("  p = null;")
            self.lines.append("  return p;")
            self.lines.append("}")
            source_function = maker
            source_stmt = f"  p = {maker}();"
        else:
            source_stmt = "  p = null;"
        prelude, guard = self._guard_prelude(path_feasible, top_layer)
        self.lines.append(f"fun {name}(k, m) {{")
        self.lines.append(source_stmt)
        self.lines.extend(prelude)
        self.lines.append(f"  if ({guard}) {{")
        self.lines.append("    deref(p);")
        self.lines.append("  }")
        self.lines.append("  return 0;")
        self.lines.append("}")
        self.lines.append("")
        self.ground_truth.append(
            GroundTruthBug(checker, source_function, path_feasible, real))

    def _emit_taint_bug(self, source_call: str, sink_call: str):
        def emit(checker: str, top_layer: list[str], path_feasible: bool,
                 real: bool) -> None:
            name = self._bug_function_name(checker)
            prelude, guard = self._guard_prelude(path_feasible, top_layer)
            transform = self.rng.random() < 0.5
            self.lines.append(f"fun {name}(k, m) {{")
            self.lines.append(f"  t = {source_call}();")
            self.lines.extend(prelude)
            sink_var = "t"
            if transform:
                self.lines.append("  t2 = t + 1;")
                sink_var = "t2"
            self.lines.append(f"  if ({guard}) {{")
            self.lines.append(f"    {sink_call}({sink_var});")
            self.lines.append("  }")
            self.lines.append("  return 0;")
            self.lines.append("}")
            self.lines.append("")
            self.ground_truth.append(
                GroundTruthBug(checker, name, path_feasible, real))

        return emit


def generate_subject(spec: SubjectSpec) -> GeneratedSubject:
    """Generate one subject deterministically from its spec."""
    return SubjectGenerator(spec).generate()

