"""Pinned failure summaries of the three table checkers.

A report is summarized entry by entry as (key, ok, fail_count,
first_witness).  The module and category cases are seeded validation-
breaking mutants of the standard corpus; the functor cases are identity
functors with one table entry moved.  The values were recorded before
modules, categories and functors shared one report type, and only the
naturality witnesses differ from that record: they are now whole
morphism tuples, where they used to be cut to their first coordinate.
"""

import random

import pytest

from xmodcat import catgroups as cg
from xmodcat import functors as fn
from xmodcat import samples

VALIDATE_KEYS = (
    "boundary-hom", "theta-identity", "theta-rows-bijective",
    "theta-rows-additive", "theta-action", "gammaB-action", "gammaD-action",
    "boundary-equivariant", "lifted-conjugation", "boundary-conjugation",
    "braid-additive-right", "braid-additive-left", "braid-boundary",
    "braid-action-right", "braid-action-left", "action-equivariant",
    "braid-equivariant",
)

CHECK_AXIOMS_KEYS = (
    "composition-defined", "composition-typing", "grade-composition",
    "identity-typing", "identity-laws", "composition-associative", "inverses",
    "tensor-defined", "tensor-typing", "tensor-identities",
    "tensor-interchange", "assoc-typing", "left-unit-typing",
    "right-unit-typing", "braiding-typing", "unit-functor-typing",
    "unit-functor-composition", "pentagon", "triangle", "hexagon-left",
    "hexagon-right", "naturality-assoc", "naturality-braiding",
    "naturality-left-unit", "naturality-right-unit", "stability",
    "object-invertibility",
)

FUNCTOR_KEYS = (
    "object-map-range", "morphism-map-range", "morphism-map-typing",
    "functor-identities", "functor-composition", "comparison-typing",
    "comparison-natural", "assoc-compat", "right-unit-compat",
    "left-unit-compat", "braiding-compat", "unit-comparison-typing",
    "unit-comparison-natural",
)

MUTANT_FAILURES = {
    "theta[3][2]": (
        {
            "theta-rows-bijective": (1, (3,)),
            "theta-rows-additive": (4, (3, 1, 1)),
            "theta-action": (14, (1, 3, 2)),
            "boundary-conjugation": (1, (3, 2)),
            "braid-additive-right": (9, (1, 3, 3)),
            "braid-additive-left": (9, (3, 1, 3)),
            "braid-action-right": (1, (2, 3)),
            "braid-action-left": (1, (3, 2)),
            "action-equivariant": (2, (1, 3, 1)),
        },
        {
            "tensor-typing": (36, (3, 12)),
            "tensor-interchange": (1548, (3, 3, 6, 7)),
            "hexagon-left": (9, (1, 3, 3)),
            "hexagon-right": (9, (3, 1, 3)),
            "naturality-assoc": (2124, (0, 3, 12)),
            "naturality-braiding": (70, (3, 12)),
        },
    ),
    "eta[6][0]": (
        {
            "braid-additive-right": (22, (6, 0, 0)),
            "braid-additive-left": (18, (1, 5, 0)),
            "braid-boundary": (1, (6, 0)),
            "braid-action-left": (1, (6, 0)),
        },
        {
            "braiding-typing": (1, (6, 0)),
            "hexagon-left": (22, (6, 0, 0)),
            "hexagon-right": (21, (0, 6, 0)),
            "naturality-braiding": (31, (6, 0)),
        },
    ),
    "eta[1][2]": (
        {
            "braid-additive-right": (6, (1, 1, 2)),
            "braid-additive-left": (6, (1, 2, 2)),
        },
        {
            "hexagon-left": (6, (1, 1, 2)),
            "hexagon-right": (6, (1, 2, 2)),
        },
    ),
    "eta[1][3]": (
        {
            "braid-additive-right": (6, (1, 1, 2)),
            "braid-additive-left": (6, (1, 2, 3)),
            "braid-boundary": (1, (1, 3)),
        },
        {
            "braiding-typing": (1, (1, 3)),
            "hexagon-left": (9, (1, 0, 3)),
            "hexagon-right": (9, (0, 1, 3)),
            "naturality-braiding": (7, (1, 3)),
        },
    ),
    "actD[1][2]": (
        {
            "gammaD-action": (15, ("bijective", 1)),
            "boundary-equivariant": (1, (1, 2)),
            "braid-equivariant": (6, (1, 2, 3)),
        },
        {
            "composition-typing": (24, (18, 6)),
            "composition-associative": (144, (18, 6, 1)),
            "inverses": (4, (19,)),
            "tensor-typing": (117, (19, 19)),
            "tensor-interchange": (2106, (19, 2, 19, 2)),
            "naturality-assoc": (2673, (18, 19, 19)),
            "naturality-braiding": (117, (19, 19)),
            "stability": (1, (1, 1)),
        },
    ),
    "theta[3][0]": (
        {
            "theta-rows-bijective": (1, (3,)),
            "theta-rows-additive": (10, (3, 0, 0)),
            "theta-action": (19, (1, 2, 0)),
            "lifted-conjugation": (1, (3, 0)),
            "boundary-conjugation": (1, (3, 0)),
            "braid-additive-right": (40, (0, 3, 0)),
            "braid-additive-left": (40, (3, 0, 0)),
            "braid-action-right": (1, (0, 3)),
            "braid-action-left": (1, (3, 0)),
        },
        {
            "tensor-typing": (32, (3, 0)),
            "tensor-identities": (8, (3, 0)),
            "tensor-interchange": (1376, (3, 3, 0, 0)),
            "pentagon": (960, (0, 0, 3, 0)),
            "triangle": (8, (3, 0)),
            "hexagon-left": (96, (0, 3, 0)),
            "hexagon-right": (96, (0, 0, 3)),
            "naturality-assoc": (3616, (0, 3, 0)),
            "naturality-braiding": (63, (0, 3)),
            "naturality-right-unit": (4, (3,)),
        },
    ),
    "actD[1][3]": (
        {
            "gammaD-action": (10, ("bijective", 1)),
        },
        {
            "composition-typing": (40, (17, 7)),
            "composition-associative": (320, (17, 7, 1)),
            "inverses": (6, (17,)),
            "tensor-typing": (112, (17, 18)),
            "tensor-interchange": (3584, (17, 3, 18, 2)),
            "naturality-assoc": (2432, (16, 17, 18)),
            "naturality-braiding": (112, (17, 18)),
            "stability": (1, (1, 1)),
        },
    ),
    "eta[3][1]": (
        {
            "braid-additive-right": (6, (3, 1, 2)),
            "braid-additive-left": (6, (1, 2, 1)),
            "braid-boundary": (1, (3, 1)),
        },
        {
            "braiding-typing": (1, (3, 1)),
            "hexagon-left": (9, (3, 0, 1)),
            "hexagon-right": (9, (0, 3, 1)),
            "naturality-braiding": (7, (3, 1)),
        },
    ),
}

FUNCTOR_FAILURES = {
    ("q8", "obj"): {
        "morphism-map-typing": (14, (1,)),
        "functor-identities": (1, (1,)),
        "comparison-typing": (21, (0, 1)),
        "assoc-compat": (169, (0, 0, 1)),
        "right-unit-compat": (1, (1,)),
        "left-unit-compat": (1, (1,)),
        "braiding-compat": (15, (0, 1)),
    },
    ("q8", "mor"): {
        "morphism-map-typing": (1, (3,)),
        "functor-identities": (1, (3,)),
        "functor-composition": (22, (3, 3)),
        "comparison-natural": (93, (0, 3)),
        "assoc-compat": (64, (0, 0, 3)),
        "right-unit-compat": (1, (3,)),
        "left-unit-compat": (1, (3,)),
        "braiding-compat": (4, (0, 3)),
    },
    ("q8", "ftilde"): {
        "comparison-typing": (1, (1, 2)),
        "comparison-natural": (62, (1, 2)),
        "assoc-compat": (29, (0, 1, 2)),
        "braiding-compat": (2, (1, 2)),
    },
    ("q8", "fstar"): {
        "right-unit-compat": (8, (0,)),
        "left-unit-compat": (8, (0,)),
        "unit-comparison-typing": (1, (0,)),
        "unit-comparison-natural": (2, (0,)),
    },
    ("s3", "obj"): {
        "morphism-map-typing": (5, (1,)),
        "functor-identities": (1, (1,)),
        "comparison-typing": (15, (0, 1)),
        "assoc-compat": (91, (0, 0, 1)),
        "right-unit-compat": (1, (1,)),
        "left-unit-compat": (1, (1,)),
        "braiding-compat": (11, (0, 1)),
    },
    ("s3", "mor"): {
        "morphism-map-typing": (1, (3,)),
        "functor-identities": (1, (3,)),
        "functor-composition": (7, (3, 3)),
        "comparison-natural": (51, (0, 3)),
        "assoc-compat": (36, (0, 0, 3)),
        "right-unit-compat": (1, (3,)),
        "left-unit-compat": (1, (3,)),
        "braiding-compat": (2, (0, 3)),
    },
    ("s3", "ftilde"): {
        "comparison-typing": (1, (1, 2)),
        "comparison-natural": (17, (1, 2)),
        "assoc-compat": (21, (0, 1, 2)),
        "braiding-compat": (2, (1, 2)),
    },
    ("s3", "fstar"): {
        "right-unit-compat": (6, (0,)),
        "left-unit-compat": (6, (0,)),
        "unit-comparison-typing": (1, (0,)),
        "unit-comparison-natural": (1, (0,)),
    },
}

CATEGORIES = {"q8": lambda: samples.q8_i_module(True),
              "s3": lambda: samples.s3_a3_module(False)}


def summary(report):
    for e in report.entries:
        assert len(e.witnesses) == min(e.fail_count, 16), e
    return [(e.key, e.ok, e.fail_count, e.first_witness) for e in report.entries]


def expected(keys, failures):
    return [(k, k not in failures) + failures.get(k, (0, None)) for k in keys]


def test_mutant_module_and_category_summaries():
    mutants = samples.random_breaking_mutations(
        random.Random(7), samples.standard_corpus(), len(MUTANT_FAILURES))
    assert [desc for _, _, desc in mutants] == list(MUTANT_FAILURES)
    for mutant, _, desc in mutants:
        module_failures, category_failures = MUTANT_FAILURES[desc]
        assert summary(mutant.validate()) == \
            expected(VALIDATE_KEYS, module_failures), desc
        assert summary(cg.check_axioms(cg.build_catgroup(mutant))) == \
            expected(CHECK_AXIOMS_KEYS, category_failures), desc


def test_mutant_draws_on_a_random_corpus():
    # every table kind, on modules with and without a grading group (the
    # gamma orders are [1, 2, 1, 1, 1, 2]); the action rows of grade 0 are
    # never drawn
    base = samples.random_corpus(3, 6)
    mutants = samples.random_breaking_mutations(random.Random(11), base, 12)
    assert [(base.index(b), desc) for _, b, desc in mutants] == [
        (3, "theta[1][2]"), (1, "eta[0][0]"), (0, "theta[0][2]"),
        (3, "theta[4][0]"), (0, "eta[1][2]"), (3, "eta[5][2]"),
        (5, "actD[1][0]"), (5, "actB[1][0]"), (1, "eta[0][0]"),
        (3, "theta[5][2]"), (3, "theta[5][0]"), (5, "actD[1][3]")]


@pytest.mark.parametrize("case", list(FUNCTOR_FAILURES),
                         ids=lambda case: "-".join(case))
def test_corrupted_identity_functor_summaries(case):
    name, field = case
    G = cg.build_catgroup(CATEGORIES[name]())
    F = fn.identity_functor(G)
    if field == "obj":
        F.obj[1] = (F.obj[1] + 1) % G.n_obj
    elif field == "mor":
        F.mor[3] = (F.mor[3] + 5) % G.n_mor
    elif field == "ftilde":
        F.ftilde[1, 2] = (F.ftilde[1, 2] + 1) % G.n_mor
    else:
        F.fstar = (F.fstar + 1) % G.n_mor
    assert summary(fn.check_graded_functor(F)) == \
        expected(FUNCTOR_KEYS, FUNCTOR_FAILURES[case])
