"""The four workloads.  Each is a closed loop with one caller and no threads.

A workload runs in passes.  Every pass makes its inputs from the seed
and the pass number, times each operation on its own, and then checks
every answer against the oracles (outside the timed region).  The run
loop calls passes until the run's time is up.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import traceback
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

from trisect import (
    ExponentCoreMismatchError,
    Genus2Diagram,
    InvalidDiagramError,
    apply_sigma2,
    canonical_form,
    classify,
    intersection_invariant,
    orbit,
    six_tuple,
    sl2_complete,
    surgery_project,
    theorem_hypotheses,
    validate_genus2,
    validate_torus,
)
from trisect.cli import DocumentError, main, parse_document
from trisect.lattice import SymplecticReduction

import corpus
import oracles
from checkout import FIXTURES, ROOT, child_env

STD_A1 = (1, 0, 0, 0)
# What the pipeline may raise to refuse an invalid document, at any stage.
REFUSALS = (DocumentError, InvalidDiagramError, ExponentCoreMismatchError)


@dataclass
class Pass:
    """Per-operation wall times in seconds, and the operations that failed.

    scale turns the pass's times into times at the nominal host speed; the
    run loop sets it from the host probes on either side of the pass.
    """

    times: array = field(default_factory=lambda: array("d"))
    failed: int = 0
    errors: list = field(default_factory=list)
    scale: float = 1.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


class Workload:
    """Defaults: every pass ends a round, and a run may stop after any pass."""

    round_passes = 1

    def __init__(self, seed: int):
        self.seed = seed

    def at_boundary(self) -> bool:
        return True


def _unexpected(p: Pass) -> None:
    p.fail("unexpected exception: " + traceback.format_exc(limit=3).strip().splitlines()[-1])


def _torus_answers(t, op, tr) -> oracles.Answers:
    """check-theorem plus classify on a valid torus diagram, one span per call."""
    six = tr.call("vertical.six_tuple", op, six_tuple, t)
    match = tr.call("vertical.classify", op, classify, six)
    tr.count("vertical.classify.match", match is not None)
    hyp = tr.call("diagram.theorem_hypotheses", op, theorem_hypotheses, t)
    t1 = tr.call("moves.apply_sigma2", op, apply_sigma2, t)
    t2 = tr.call("moves.apply_sigma2", op, apply_sigma2, t1)
    inv = tuple(
        tr.call("diagram.intersection_invariant", op, intersection_invariant, x) for x in (t, t1, t2)
    )
    return oracles.Answers(six, match, hyp, inv)


def _project(g, op, tr):
    if tr.traced:
        # Probe: the reduction surgery_project builds, on the same a1.
        tr.call("lattice.symplectic_reduce", op, SymplecticReduction, g.a1)
        tr.count("diagram.surgery_project.std_a1", g.a1 == STD_A1)
    return tr.call("diagram.surgery_project", op, surgery_project, g)


class BatchMixed(Workload):
    """parse -> validate -> surgery_project (genus-2) -> check-theorem and classify."""

    name = "batch-mixed"
    op = "document"
    PASS_DOCS = 100

    def describe(self) -> dict:
        return {
            "docs_per_pass": self.PASS_DOCS,
            "invalid_share": corpus.INVALID_SHARE,
            "genus2_share": corpus.GENUS2_SHARE,
        }

    def inputs(self, index: int) -> list:
        rng = random.Random(f"{self.name}/{self.seed}/{index}")
        return [corpus.batch_doc(rng) for _ in range(self.PASS_DOCS)]

    @staticmethod
    def process(text, op, tr):
        """One document: (parsed, torus, answers); answers is None if it was refused."""
        d = t = None
        try:
            d = tr.call("cli.parse_document", op, parse_document, json.loads(text))
            if isinstance(d, Genus2Diagram):
                if tr.call("diagram.validate_genus2", op, validate_genus2, d):
                    tr.reject("diagram.validate_genus2")
                    return d, None, None
                t = _project(d, op, tr)
            else:
                if tr.call("diagram.validate_torus", op, validate_torus, d):
                    tr.reject("diagram.validate_torus")
                    return d, None, None
                t = d
            return d, t, _torus_answers(t, op, tr)
        except REFUSALS:
            return d, t, None

    def run_pass(self, index: int, tr) -> Pass:
        docs = self.inputs(index)
        p = Pass()
        results = []
        base = index * self.PASS_DOCS
        for i, doc in enumerate(docs):
            t0 = perf_counter()
            try:
                results.append(self.process(doc.text, base + i, tr))
            except Exception:
                results.append(None)
                _unexpected(p)
            p.times.append(perf_counter() - t0)
        for doc, result in zip(docs, results):
            if result is not None:
                why = oracles.check_document(doc, *result)
                if why:
                    p.fail(why)
        return p


class Census(Workload):
    """Canonicalise every diagram of the box, deduplicate, answer each unique form.

    One round enumerates the whole box in a seeded order; a pass is one
    chunk of a round, so that host probes come often.  The tallies are
    checked when a round ends, and a run ends only between rounds.
    """

    name = "census"
    op = "raw diagram"
    RADIUS = 3
    CHUNK = 1024

    def __init__(self, seed: int):
        super().__init__(seed)
        self.box = corpus.CensusBox(self.RADIUS)
        self.round_passes = -(-self.box.size // self.CHUNK)
        self.order: list = []
        self.seen: dict = {}
        self.done = 0

    def describe(self) -> dict:
        return {"radius": self.RADIUS, "raw_per_round": self.box.size, "raw_per_pass": self.CHUNK}

    def at_boundary(self) -> bool:
        return self.done == len(self.order)

    def run_pass(self, index: int, tr) -> Pass:
        if self.at_boundary():
            self.order = list(range(self.box.size))
            random.Random(f"{self.name}/{self.seed}/{index}").shuffle(self.order)
            self.seen, self.done = {}, 0
        chunk = self.order[self.done : self.done + self.CHUNK]
        self.done += len(chunk)
        seen = self.seen
        p = Pass()
        for op in chunk:
            d = self.box.diagram(op)
            t0 = perf_counter()
            try:
                if tr.traced:
                    # Probe: the completion canonical_form starts from, same a2.
                    tr.call("lattice.sl2_complete", op, sl2_complete, d.a2)
                c = tr.call("moves.canonical_form", op, canonical_form, d)[0]
                if c not in seen:
                    tr.count("moves.canonical_form.unique")
                    seen[c] = _torus_answers(c, op, tr)
            except Exception:
                _unexpected(p)
            p.times.append(perf_counter() - t0)
        if self.at_boundary():
            why = oracles.check_census(self.RADIUS, self.tally())
            if why:
                # A wrong tally makes the whole round's answer wrong.
                p.errors.append(why)
                p.failed += len(self.order)
        return p

    def tally(self) -> oracles.CensusTally:
        found = self.seen.values()
        families = Counter(a.family.family for a in found if a.family is not None)
        return oracles.CensusTally(
            raw=len(self.order),
            canonical=len(found),
            families=dict(sorted(families.items())),
            unmatched=sum(a.family is None for a in found),
            ties=sum(a.hypotheses.all_hold and len(set(a.invariants)) < 3 for a in found),
        )


class OrbitWalk(Workload):
    """orbit at a fixed depth: genus-2 lifts with sigma1, torus diagrams without."""

    name = "orbit-walk"
    op = "orbit"
    DEPTH = 3
    PASS_ITEMS = 100

    def describe(self) -> dict:
        return {"orbits_per_pass": self.PASS_ITEMS, "depth": self.DEPTH, "genus2_share": 0.5}

    def run_pass(self, index: int, tr) -> Pass:
        rng = random.Random(f"{self.name}/{self.seed}/{index}")
        items = [corpus.orbit_item(rng, genus2=i % 2 == 0) for i in range(self.PASS_ITEMS)]
        p = Pass()
        graphs = []
        base = index * self.PASS_ITEMS
        for i, item in enumerate(items):
            op = base + i
            t0 = perf_counter()
            try:
                if item.lift is not None:
                    t = _project(item.lift, op, tr)
                    g = tr.call("moves.orbit", op, orbit, t, self.DEPTH, include_sigma1=True, lift=item.lift)
                else:
                    g = tr.call("moves.orbit", op, orbit, item.diagram, self.DEPTH)
                tr.count("moves.orbit.nodes", len(g.nodes))
                graphs.append(g)
            except Exception:
                graphs.append(None)
                _unexpected(p)
            p.times.append(perf_counter() - t0)
        for item, g in zip(items, graphs):
            if g is not None:
                why = oracles.check_orbit(item.diagram, g)
                if why:
                    p.fail(why)
        return p


VERBS = ("validate", "invariant", "move", "six-tuple", "classify", "check-theorem", "orbit", "lens")


def cli_calls() -> list[tuple[str, Path | None, tuple]]:
    """(verb, fixture path, extra arguments) for every call on the fixtures."""
    valid = sorted(FIXTURES.glob("*.json"))
    invalid = sorted((FIXTURES / "invalid").glob("*.json"))
    calls = []
    for path in valid + invalid:
        genus2 = path in valid and json.loads(path.read_text(encoding="utf-8"))["model"] == "genus2"
        calls += [
            ("validate", path, ()),
            ("invariant", path, ()),
            ("move", path, ("--word", "D1,D2" if genus2 else "D2,D2',D2")),
            ("six-tuple", path, ()),
            ("classify", path, ()),
            ("check-theorem", path, ()),
            ("orbit", path, ("--depth", "2")),
        ]
    calls += [
        ("move", valid[0], ("--word", "D1")),
        ("classify", valid[0], ("--oriented",)),
        ("orbit", valid[0], ("--depth", "2", "--format", "dot")),
    ]
    for pq in (("5", "1", "5", "4"), ("7", "2", "7", "3"), ("9", "4", "9", "7", "--oriented"), ("4", "2", "5", "1")):
        calls.append(("lens", None, pq))
    return calls


def cli_argv(verb, path, extra, as_json) -> list[str]:
    return [verb] + ([str(path)] if path else []) + list(extra) + (["--json"] if as_json else [])


def run_main(argv) -> tuple[int, str]:
    """main(argv) in-process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


class CliSingle(Workload):
    """One `python -m trisect.cli` subprocess at a time, on the checked-in fixtures."""

    name = "cli-single"
    op = "CLI call"
    PASS_CALLS = 1

    def __init__(self, seed: int):
        super().__init__(seed)
        self.env = child_env()
        self.specs = []
        for verb, path, extra in cli_calls():
            for as_json in (False, True):
                argv = cli_argv(verb, path, extra, as_json)
                code, answer = oracles.cli_library(verb, path, extra)
                _, stdout = run_main(argv)
                self.specs.append((argv, oracles.CliExpectation(verb, as_json, code, answer, stdout)))
        self.stream: list[int] = []

    def describe(self) -> dict:
        return {
            "calls_per_permutation": len(self.specs),
            "calls_per_pass": self.PASS_CALLS,
            "bytecode": "PYTHONPYCACHEPREFIX under perfbench/, warmed before timing",
        }

    def command(self, argv) -> list[str]:
        return [sys.executable, "-m", "trisect.cli", *argv]

    def warm(self) -> None:
        """Compile the bytecode cache: one untimed call of every verb."""
        done = set()
        for argv, want in self.specs:
            if want.verb not in done:
                done.add(want.verb)
                subprocess.run(self.command(argv), env=self.env, cwd=ROOT, capture_output=True, check=False)

    def _next(self, call_index: int) -> int:
        # The seed permutes the call order; permutations are concatenated.
        while len(self.stream) <= call_index:
            order = list(range(len(self.specs)))
            random.Random(f"{self.name}/{self.seed}/{len(self.stream)}").shuffle(order)
            self.stream += order
        return self.stream[call_index]

    def run_pass(self, index: int, tr) -> Pass:
        p = Pass()
        for j in range(self.PASS_CALLS):
            op = index * self.PASS_CALLS + j
            argv, want = self.specs[self._next(op)]
            t0 = perf_counter_ns()
            proc = subprocess.run(
                self.command(argv), env=self.env, cwd=ROOT, capture_output=True, text=True, check=False
            )
            t1 = perf_counter_ns()
            p.times.append((t1 - t0) / 1e9)
            if tr.traced:
                tr.span(f"cli.call.{want.verb}", op, t0, t1)
            why = oracles.check_cli(want, proc.returncode, proc.stdout)
            if why:
                p.fail(why)
        return p

    def trace_in_process(self, tr, rounds=3) -> None:
        """cli.main.<verb> spans: main(argv) in-process, output captured."""
        op = 0
        for _ in range(rounds):
            for argv, want in self.specs:
                tr.call(f"cli.main.{want.verb}", op, run_main, argv)
                op += 1


WORKLOADS = {w.name: w for w in (CliSingle, BatchMixed, Census, OrbitWalk)}
