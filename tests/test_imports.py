"""Which layers a process loads: each CLI kind imports only the layers it
needs, and the package re-exports its names lazily."""

import json
import os
import subprocess
import sys
from pathlib import Path

from xmodcat import cli

SRC = Path(__file__).resolve().parents[1] / "src"

# The names `xmodcat` re-exports, by layer.
PUBLIC = {
    "groups": [
        "FiniteGroup", "FiniteAbelianGroup", "GammaAction", "GammaModule",
        "GroupHom", "abelian_invariants", "center", "check_action",
        "check_hom", "commutator_subgroup", "cyclic", "decompose_abelian",
        "dihedral", "direct_product", "group_from_table", "hom_kernel_image",
        "klein_four", "quaternion8", "quotient", "subgroup_generated",
        "symmetric3", "trivial_action", "trivial_group"],
    "crossed": [
        "BraidedGammaCrossedModule", "CrossedMorphism", "compose_morphisms",
        "conjugation_module", "identity_morphism", "is_abelian",
        "is_symmetric", "pi0", "pi1", "validate", "validate_morphism"],
    "cohomology": [
        "Cochain3", "SymmetricCochain2", "all_cocycles", "class_vanishes",
        "coboundary2", "h2", "is_2cocycle", "is_3cocycle", "obstruction",
        "pullback3", "pushforward3", "zero_cochain2", "zero_cochain3"],
    "catgroups": [
        "GradedCatGroup", "build_catgroup", "build_reduced", "check_axioms",
        "dis", "ker", "reduce_abelian"],
    "functors": [
        "FactorSet", "GradedFunctor", "catgroup_to_crossed",
        "check_graded_functor", "extract_factor_set", "find_homotopy",
        "functor_to_morphism", "homotopy_classes", "identity_functor",
        "is_homotopy", "is_regular", "is_regular_factor_set",
        "morphism_to_functor", "validate_factor_set"],
    "extensions": [
        "GammaModuleExtension", "are_equivalent", "classify",
        "extension_from_functor", "functor_from_extension", "induced_psi",
        "schreier_bijection_check"],
}

_REPORT = """
import json, sys
print(json.dumps({
    "xmodcat": sorted(m for m in sys.modules
                      if m == "xmodcat" or m.startswith("xmodcat.")),
    "numpy": "numpy" in sys.modules,
    "result": globals().get("result")}))
"""


def loaded(code, **environ):
    """Run code in a fresh interpreter; return the xmodcat modules it left
    loaded, whether numpy was loaded, and its `result` variable.  Keyword
    arguments set environment variables for it, or unset them when None."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    for name, value in environ.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    proc = subprocess.run([sys.executable, "-c", code + _REPORT],
                          capture_output=True, text=True, env=env, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    out["xmodcat"] = {m.removeprefix("xmodcat.") for m in out["xmodcat"]}
    return out


def after_cli(scenario):
    path = cli.default_corpus_dir() / scenario
    kind = json.loads(path.read_text())["kind"]
    return loaded(f"from xmodcat import cli\n"
                  f"result = cli.main([{kind!r}, {str(path)!r}])\n")


def build_d4_blas(preset, numpy_first=False):
    """cli.main on build_d4 in a fresh interpreter with OPENBLAS_NUM_THREADS
    preset (None: unset), importing numpy first if asked; `result` is the
    exit code, the variable afterwards and the report."""
    path = cli.default_corpus_dir() / "build_d4.json"
    return loaded(("import numpy\n" if numpy_first else "") +
                  "import contextlib, io, os\n"
                  "from xmodcat import cli\n"
                  "report = io.StringIO()\n"
                  "with contextlib.redirect_stdout(report):\n"
                  f"    code = cli.main(['build-catgroup', {str(path)!r}])\n"
                  "result = [code, os.environ.get('OPENBLAS_NUM_THREADS'),\n"
                  "          report.getvalue()]\n",
                  OPENBLAS_NUM_THREADS=preset)


def test_cli_starts_numpy_with_one_blas_thread_unless_told_otherwise():
    golden = (cli.default_corpus_dir() / "build_d4.expected.txt").read_text()
    out = build_d4_blas(None)
    assert out["numpy"]
    assert out["result"] == [0, "1", golden]
    out = build_d4_blas("3")
    assert out["result"] == [0, "3", golden]
    out = build_d4_blas(None, numpy_first=True)
    assert out["result"] == [0, None, golden]


def test_validate_loads_its_layers_and_no_numpy():
    for scenario in ("validate_q8_gamma.json", "validate_s3_a3.json"):
        out = after_cli(scenario)
        assert out["result"] == 0
        assert out["xmodcat"] == {"xmodcat", "errors", "zlinalg", "groups",
                                  "crossed", "cli"}
        assert not out["numpy"]


def test_cohomology_h2_skips_the_category_layers():
    out = after_cli("cohomology_h2_z4_negation.json")
    assert out["result"] == 0
    assert not out["xmodcat"] & {"catgroups", "functors", "extensions",
                                 "samples"}


def test_importing_groups_loads_only_its_dependencies():
    out = loaded("import xmodcat.groups\n")
    assert out["xmodcat"] == {"xmodcat", "errors", "zlinalg", "groups"}
    assert not out["numpy"]


def test_star_import_gives_the_public_names():
    out = loaded("ns = {}\nexec('from xmodcat import *', ns)\n"
                 "result = sorted(k for k in ns if k != '__builtins__')\n")
    assert out["result"] == sorted(n for names in PUBLIC.values()
                                   for n in names)


def test_public_names_resolve_to_their_layers():
    import importlib

    import xmodcat
    for layer, names in PUBLIC.items():
        mod = importlib.import_module(f"xmodcat.{layer}")
        for name in names:
            assert getattr(xmodcat, name) is getattr(mod, name)
            assert name in dir(xmodcat)
    assert not hasattr(xmodcat, "no_such_name")
