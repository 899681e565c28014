"""Each oracle passes a right answer and catches a corrupted one.

    python -m pytest perfbench -q
"""

import dataclasses
import json
import random

import checkout

checkout.import_trisect()

import corpus  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, Untraced  # noqa: E402
from trisect import LensSpace, case_diagram, embed_torus, orbit, surgery_project  # noqa: E402
from workloads import BatchMixed, Census, CliSingle, VERBS, run_main  # noqa: E402


def _docs(kind, n=40, seed=7):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        doc = corpus.batch_doc(rng)
        if doc.kind == kind:
            out.append(doc)
    return out


def test_batch_oracle_accepts_every_generated_document():
    rng = random.Random(3)
    for _ in range(300):
        doc = corpus.batch_doc(rng)
        assert oracles.check_document(doc, *BatchMixed.process(doc.text, 0, Untraced())) is None


def test_batch_oracle_catches_corrupted_answers():
    for doc in _docs("genus2") + _docs("torus"):
        parsed, torus, got = BatchMixed.process(doc.text, 0, Untraced())
        assert oracles.check_document(doc, parsed, torus, got) is None
        flipped = tuple((a, b, c + 1) for a, b, c in got.invariants)
        assert oracles.check_document(doc, parsed, torus, dataclasses.replace(got, invariants=flipped))
        wrong_six = dataclasses.replace(got.six, cb=LensSpace(7, 2))
        assert oracles.check_document(doc, parsed, torus, dataclasses.replace(got, six=wrong_six))
        assert oracles.check_document(doc, parsed, None, None)


def test_batch_oracle_catches_wrong_family_and_projection():
    doc = _docs("genus2", n=1)[0]
    parsed, torus, got = BatchMixed.process(doc.text, 0, Untraced())
    family = None if got.family is not None else oracles.answers(case_diagram(3)).family
    assert oracles.check_document(doc, parsed, torus, dataclasses.replace(got, family=family))
    other = surgery_project(embed_torus(case_diagram(3)))
    assert oracles.check_document(doc, parsed, other, got)


def test_batch_oracle_catches_answered_invalid_documents():
    tr = Tracer()
    for doc in _docs("invalid", n=60):
        result = BatchMixed.process(doc.text, 0, tr)
        assert result[2] is None
        assert oracles.check_document(doc, *result) is None
        answered = oracles.answers(case_diagram(3))
        assert oracles.check_document(doc, result[0], case_diagram(3), answered)
    # Each refusing layer is counted, including the projection's refusals
    # of documents that validate_genus2 accepts.
    assert set(tr.raised) == {
        "cli.parse_document",
        "diagram.validate_torus",
        "diagram.validate_genus2",
        "diagram.surgery_project",
    }


def test_orbit_oracle_catches_extra_missing_and_wrong_nodes():
    rng = random.Random(5)
    for _ in range(30):
        item = corpus.orbit_item(rng, genus2=True)
        g = orbit(surgery_project(item.lift), 3, include_sigma1=True, lift=item.lift)
        assert oracles.check_orbit(item.diagram, g) is None
        nodes = g.nodes
        assert oracles.check_orbit(item.diagram, dataclasses.replace(g, nodes=nodes + nodes[:1]))
        if len(nodes) == 3:
            assert oracles.check_orbit(item.diagram, dataclasses.replace(g, nodes=nodes[:2]))
            assert oracles.check_orbit(item.diagram, dataclasses.replace(g, nodes=nodes[:1]))
        stranger = orbit(case_diagram(3), 3).nodes[0]
        assert oracles.check_orbit(item.diagram, dataclasses.replace(g, nodes=(stranger,) + nodes[1:]))


def test_census_oracle_catches_every_wrong_count():
    want = oracles.CENSUS[3]
    assert oracles.check_census(3, want) is None
    for field in ("raw", "canonical", "unmatched", "ties"):
        wrong = dataclasses.replace(want, **{field: getattr(want, field) + 1})
        assert oracles.check_census(3, wrong)
    assert oracles.check_census(3, dataclasses.replace(want, families={**want.families, 4: 15}))
    assert oracles.check_census(4, want)


def test_census_tally_does_not_depend_on_order():
    tallies = []
    for seed in (1, 2):
        census = Census(seed)
        census.box = corpus.CensusBox(2)
        census.CHUNK = 1000
        index = 0
        census.run_pass(index, Untraced())
        while not census.at_boundary():
            index += 1
            census.run_pass(index, Untraced())
        tallies.append(census.tally())
    assert tallies[0] == tallies[1]
    assert tallies[0].raw == corpus.CensusBox(2).size


def test_cli_oracle_catches_wrong_code_output_and_answer():
    path = checkout.FIXTURES / "family3.json"
    for verb, extra in (("classify", ()), ("check-theorem", ()), ("orbit", ("--depth", "2")), ("invariant", ())):
        argv = [verb, str(path), *extra, "--json"]
        code, answer = oracles.cli_library(verb, path, extra)
        _, out = run_main(argv)
        want = oracles.CliExpectation(verb, True, code, answer, out)
        assert oracles.check_cli(want, code, out) is None
        assert oracles.check_cli(want, 1, out)
        assert oracles.check_cli(want, code, out.replace("1", "2"))
        # A wrong answer that the in-process call shares is still caught
        # by the library's answer.
        corrupted = json.loads(out)
        if verb == "classify":
            corrupted["family"] = 5
        elif verb == "check-theorem":
            corrupted["certified"] = not corrupted["certified"]
        elif verb == "orbit":
            corrupted["nodes"] = corrupted["nodes"][:1]
        else:
            corrupted["invariant"][0] += 1
        bad = json.dumps(corrupted, indent=2) + "\n"
        assert oracles.check_cli(dataclasses.replace(want, stdout=bad), code, bad)


def test_cli_calls_cover_every_verb_and_exit_code():
    specs = CliSingle(1).specs
    assert {want.verb for _, want in specs} == set(VERBS)
    assert {want.code for _, want in specs} == {0, 1, 2}


def test_benchmark_json_lists_the_metrics_the_run_reports():
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
