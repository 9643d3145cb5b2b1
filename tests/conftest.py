import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from numsem import build
from numsem.corpus import random_corpus
from numsem.search import SpParameters, construct_sp

import data

CORPUS_SEED = 20260808


def symmetric_pairs(limit):
    """All two-generator semigroups with multiplicity <= limit.

    Two-generator semigroups are always symmetric, which makes them a cheap
    stock of Gorenstein instances.
    """
    out = []
    for a in range(2, limit + 1):
        for b in range(a + 1, 3 * a):
            if math.gcd(a, b) == 1:
                out.append(build([a, b]))
    return out


@pytest.fixture(scope="session")
def e13():
    return build(list(data.E13))


@pytest.fixture(scope="session")
def study_instances():
    return [build(list(g)) for g in data.ALL_STUDY_INSTANCES]


@pytest.fixture(scope="session")
def sp_instances():
    return [
        construct_sp(SpParameters(p, 1, kp, 2, 2, 3))
        for p, (kp, _) in sorted(data.SP_FAMILY.items())
    ]


@pytest.fixture(scope="session")
def random_instances():
    return random_corpus(CORPUS_SEED, 120, dense_every=3)


@pytest.fixture(scope="session")
def property_corpus(study_instances, sp_instances):
    """The fixed 500-instance deck: knowns, symmetric stock, seeded randoms."""
    known = list(study_instances) + list(sp_instances) + symmetric_pairs(6)
    known += [build(g) for g in ((4, 5, 6), (4, 6, 7), (5, 7, 9, 11))]
    fill = random_corpus(CORPUS_SEED + 1, 500 - len(known), dense_every=3)
    return known + fill
