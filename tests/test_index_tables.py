"""Every pure-Python index table is read by groups.index_table: a float,
a string, a ragged row or an entry out of range is refused with the
site's exception, never truncated or reinterpreted, and numpy integer
tables are read like lists."""

import json

import numpy as np
import pytest

from xmodcat import cohomology as ch
from xmodcat import extensions as ex
from xmodcat import groups as g
from xmodcat import samples
from xmodcat.catgroups import build_reduced
from xmodcat.crossed import BraidedGammaCrossedModule
from xmodcat.errors import BadSection, NotClosed, ShapeMismatch
from xmodcat.functors import enumerate_functors

Z2, Z4 = g.cyclic(2), g.cyclic(4)
# Z4 with Z2 negating it, and Z2 over the same Z2 acting trivially
Z4_NEG = g.GammaModule(Z4, g.action_from_automorphism(Z2, Z4, [0, 3, 2, 1]))
Z2_TRIV = g.GammaModule(Z2, g.trivial_action(Z2, Z2))
# the reduced model on Z2 over Z2, trivially graded: 2 types, 4 morphisms,
# and the identity functor lies over type map [0, 1] and payload map [0, 2]
Z2_ONE = g.GammaModule(Z2, g.trivial_action(g.trivial_group(), Z2))
Z2_MODEL = build_reduced(Z2_ONE, Z2_ONE)


def _module_site(field):
    m = samples.s3_a3_module(False)
    blob = m.to_json()

    def build(table):
        tables = {"d": m.d, "theta": m.theta, "eta": m.eta, field: table}
        return BraidedGammaCrossedModule(m.B, m.D, **tables)
    bound = m.D.order if field == "d" else m.B.order
    return build, blob[field], bound, ShapeMismatch


def _cochain2_site(field):
    tables = {"qq": [[0] * 4 for _ in range(4)],
              "qg": [[0] * 2 for _ in range(4)]}
    tables[field][3][1] = 1

    def build(table):
        return ch.SymmetricCochain2(Z4_NEG, Z2_TRIV,
                                    **dict(tables, **{field: table}))
    return build, tables[field], 2, ShapeMismatch


def _cochain3_site(field):
    tables = {name: np.zeros(ch._shape3(Z2_TRIV, axes), dtype=int).tolist()
              for name, axes in ch._TABLES3}
    cell = tables[field]
    while isinstance(cell[-1], list):
        cell = cell[-1]
    cell[-1] = 1

    def build(table):
        return ch.Cochain3(Z2_TRIV, Z2_TRIV, **dict(tables, **{field: table}))
    return build, tables[field], 2, ShapeMismatch


def _section_site():
    M = samples.abelian_module(Z2, Z4, [0, 2])
    ext = ex.GammaModuleExtension(
        M, g.GammaModule(Z2, g.trivial_action(g.trivial_group(), Z2)),
        g.GammaModule(Z4, g.trivial_action(g.trivial_group(), Z4)),
        g.GroupHom(Z2, Z4, [0, 2]), g.GroupHom(Z4, Z2, [0, 1, 0, 1]),
        g.identity_hom(Z4))
    return (lambda table: ex.extract_section_cochain(ext, table),
            [0, 1], 4, BadSection)


# site: (build, a valid table whose last entry is nonzero, the bound of its
# entries, the exception it raises, or one per case)
SITES = {
    "GroupHom": (lambda t: g.GroupHom(Z2, Z4, t), [0, 2], 4, ShapeMismatch),
    "GammaAction": (lambda t: g.GammaAction(Z2, Z4, t),
                    [[0, 1, 2, 3], [0, 3, 2, 1]], 4, ShapeMismatch),
    "module-d": _module_site("d"),
    "module-theta": _module_site("theta"),
    "module-eta": _module_site("eta"),
    "SymmetricCochain2-qq": _cochain2_site("qq"),
    "SymmetricCochain2-qg": _cochain2_site("qg"),
    "coboundary2": (lambda t: ch.coboundary2(Z4_NEG, Z2_TRIV, t),
                    [0, 1, 0, 1], 2, ShapeMismatch),
    **{f"Cochain3-{name}": _cochain3_site(name) for name, _ in ch._TABLES3},
    "extract_section_cochain": _section_site(),
    "enumerate_functors-phi": (
        lambda t: enumerate_functors(Z2_MODEL, Z2_MODEL, t, [0, 2]),
        [0, 1], 2, ShapeMismatch),
    "enumerate_functors-f_map": (
        lambda t: enumerate_functors(Z2_MODEL, Z2_MODEL, [0, 1], t),
        [0, 2], 4, ShapeMismatch),
    "FiniteGroup": (g.FiniteGroup, [list(r) for r in g.cyclic(3).table], 3,
                    {"float": TypeError, "string": TypeError,
                     "ragged": ShapeMismatch, "out-of-range": NotClosed}),
}


def _edit(table, case, bound):
    """A copy of table with its last entry made a float, a string, dropped
    or set to bound."""
    table = json.loads(json.dumps(table))
    row = table
    while isinstance(row[-1], list):
        row = row[-1]
    if case == "float":
        row[-1] = float(row[-1])
    elif case == "string":
        row[-1] = str(row[-1])
    elif case == "ragged":
        del row[-1]
    else:
        row[-1] = bound
    return table


@pytest.mark.parametrize("case", ["float", "string", "ragged", "out-of-range"])
@pytest.mark.parametrize("site", SITES)
def test_malformed_index_tables_are_refused(site, case):
    build, valid, bound, error = SITES[site]
    build(valid)
    if isinstance(error, dict):
        error = error[case]
    with pytest.raises(error):
        build(_edit(valid, case, bound))


@pytest.mark.parametrize("site", SITES)
def test_int64_index_tables_read_like_lists(site):
    build, valid = SITES[site][:2]
    assert build(np.asarray(valid, dtype=np.int64)) == build(valid)


def test_index_table_names_the_table():
    with pytest.raises(ShapeMismatch, match=r"^theta table has wrong shape$"):
        g.index_table([[0, 1]], (2, 2), 2, "theta")
    with pytest.raises(BadSection, match=r"^section table holds a non-integer$"):
        g.index_table([0, None], (2,), 2, "section", BadSection)
    with pytest.raises(ShapeMismatch, match=r"^eta value outside \[0, 2\)$"):
        g.index_table([[0, 1], [-1, 0]], (2, 2), 2, "eta")
    assert g.index_table([[0, 1], [1, 0]], (2, 2), 2, "eta") == ((0, 1), (1, 0))
