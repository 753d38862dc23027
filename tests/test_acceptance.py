"""End-to-end acceptance run.

Every criterion is exact (zero tolerance) and seeded; one pass/fail line
is printed per criterion.  Checks and sample counts come from
``verify.CRITERIA``; the counts are the contractual ones: 100 for the two
base-map/oracle equivalences, 50 for the matrix-level laws, exhaustive
enumeration for the divisor and counting criteria.
"""

import random

import pytest

from isolab import verify

SEED = 20240811

#: One label per row of ``verify.CRITERIA``, in the same order.  A label
#: salts its criterion's RNG, so it fixes the samples drawn.
LABELS = [
    "criterion 01: rank-2 base map == elimination oracle (100 samples)",
    "criterion 02: rank-3 base map == pairwise-sum oracle (100 samples)",
    "criterion 03: derivative char polys == oracles (50 samples)",
    "criterion 04: form preservation, skewness, kernels (50 samples)",
    "criterion 05: split-basis alpha block and Pfaffian (50 samples)",
    "criterion 06: star-operator split and block assembly (50 samples)",
    "criterion 07: ramification identity and twist degrees",
    "criterion 08: Prym preservation, exhaustive",
    "criterion 09: invariant calculus and counting reports",
    "criterion 10: rank-2 pair assembly (50 samples)",
]


def test_labels_cover_every_criterion():
    assert len(LABELS) == len(verify.CRITERIA)


@pytest.mark.parametrize("name,criterion", list(zip(LABELS, verify.CRITERIA)), ids=LABELS)
def test_acceptance(name, criterion):
    _, check, samples = criterion
    rng = random.Random(f"{SEED}:{name}")
    passed, detail = check(rng, samples)
    verdict = "PASS" if passed else "FAIL"
    print(f"{verdict}  {name}  [{detail}]")
    assert passed, f"{name}: {detail}"
