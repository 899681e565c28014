"""The benchmark's input generators draw exactly as the suite's.

perfbench/corpus.py keeps its own copy of the random diagram generators
of conftest.py.  Each pair must return equal values and leave the random
generator in the same state, so the copy can be replaced by conftest's
generators without changing any benchmark corpus.  The file is read only,
under a private module name.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from conftest import (
    basis_change,
    rand_genus2_diagram,
    rand_primitive_vec2,
    rand_primitive_vec4,
    rand_torus_diagram,
    rand_unimodular,
)
from trisect import embed_torus

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"


def _load_corpus():
    name = "_perfbench_corpus"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, CORPUS)
        module = importlib.util.module_from_spec(spec)
        # @dataclass looks its class's module up in sys.modules.
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


corpus = _load_corpus()


def _basis_changes(change):
    """A draw that ends in a basis change: a diagram and a unimodular
    matrix, both from conftest's generators, then change on them."""
    return lambda rng: change(rand_torus_diagram(rng), rand_unimodular(rng))


PAIRS = {
    "primitive2": (corpus.primitive2, rand_primitive_vec2),
    "primitive2 big": (
        lambda rng: corpus.primitive2(rng, 2**70), lambda rng: rand_primitive_vec2(rng, 2**70)
    ),
    "primitive4": (corpus.primitive4, rand_primitive_vec4),
    "unimodular": (corpus.unimodular, rand_unimodular),
    "torus": (corpus.torus, rand_torus_diagram),
    "genus2": (
        lambda rng: corpus.move_off_standard(rng, embed_torus(corpus.torus(rng))),
        rand_genus2_diagram,
    ),
    "basis_change": (_basis_changes(corpus.basis_change), _basis_changes(basis_change)),
}


@pytest.mark.parametrize("name", PAIRS)
def test_each_benchmark_generator_draws_as_the_suites(name):
    theirs, ours = PAIRS[name]
    for seed in range(20):
        rng_theirs, rng_ours = random.Random(seed), random.Random(seed)
        for i in range(25):
            got, want = theirs(rng_theirs), ours(rng_ours)
            assert got == want, (name, seed, i)
            assert rng_theirs.getstate() == rng_ours.getstate(), (name, seed, i)
