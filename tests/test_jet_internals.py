"""The one test module that reads private `gqem.jets` names.

Every other test reaches the engine through its public API and through the
names exported here, so that a change to how `jets.py` stores a jet, marks a
zero or caches a flag edits this module and no other. The storage and
caching rules that the README documents are observed through these helpers:
which jets are zero marks (`is_mark`), which are dense (`is_dense`), the
cached flags (`flags`), the stored rows of a row-form jet (`stored_rows`,
`row_shapes`) and the two product kernels (`KERNELS`, which the
`kernel_calls` fixture of ``conftest.py`` counts).
"""

import ast
from pathlib import Path

import numpy as np

from gqem import jets

ROW_BATCH = jets._BIG_BATCH  # the batch size from which a jet stores a tuple of rows
KERNELS = {"row": "_row_mul", "dense": "_mul_gather"}  # the two product kernels, by form

# numpy < 2 has no `numpy._core`; blocking the module takes the fallback import
NUMPY_1_CHECK = "\n".join([
    "import sys, numpy as np",
    "sys.modules['numpy._core.multiarray'] = None",
    "from gqem import jets",
    "assert jets._count_nonzero is np.count_nonzero",
    "for n in (3, 600):",
    "    assert type(jets.Jet.constant(np.zeros(n), 2, 2)) is jets._ZeroJet",
    "    assert type(jets.Jet.constant(np.ones(n), 2, 2)) is jets.Jet",
])


def is_mark(j) -> bool:
    """Whether `j` is a zero mark, which sums and products may return instead of computing."""
    return isinstance(j, jets._ZeroJet)


def is_dense(j) -> bool:
    """Whether `j` stores one coefficient-major array (below `ROW_BATCH` nodes)."""
    return hasattr(j, "_c")


def flags(j) -> tuple:
    """The cached (all zero, all finite) flags: None until computed, True for a mark."""
    return j._zero, j._finite


def lie_about_flags(j) -> None:
    """Set both flags on a jet that is neither zero nor finite-checked, to see who reads them."""
    j._zero = j._finite = True


def stored_rows(j) -> tuple:
    """A row-form jet's rows: None for a row known to be +0 at every node."""
    return j._rows


def row_shapes(j) -> set:
    return {np.shape(r) for r in j._rows if r is not None}


def lower_marks(j) -> list:
    """The orders of the lower-order marks that a mark keeps for `truncated` and `derive`."""
    return sorted(getattr(j, "_lower", ()))


def nonzero_counts(spy) -> list:
    """Each array whose non-zero entries `jets` counts from now on: zero scans, finite checks."""
    return spy(jets, "_count_nonzero")


def from_rows(dim: int, order: int, rows: tuple, batch: tuple):
    """A row-form jet of the given rows, each None or broadcasting to `batch`."""
    return jets._from_rows(dim, order, rows, batch)


def private_names() -> set:
    """Every single-underscore name that `jets.py` spells: private functions, classes, slots."""
    tree = ast.parse(Path(jets.__file__).read_text())
    found = set()
    for node in ast.walk(tree):
        for name in (getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None), getattr(node, "value", None)):
            if isinstance(name, str) and name.startswith("_") and not name.startswith("__"):
                found.add(name)
    return found


def private_reads(path: Path, names: set) -> list:
    """(line, name) of each private `jets` name that a test file spells outside a docstring.

    An attribute (``jets._BIG_BATCH``, ``x._rows``), an imported name, or a
    string constant (``setattr(jets, "_row_mul", ...)``) counts.
    """
    tree = ast.parse(path.read_text())
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Constant) and id(node) not in docstrings:
            name = node.value
        else:
            continue
        if name in names:
            out.append((node.lineno, name))
    return out


def test_only_this_module_reads_private_jet_names():
    names = private_names()
    assert {"_BIG_BATCH", "_ZeroJet", "_rows", "_c", "_finite", "_row_mul"} <= names
    here = Path(__file__)
    found = {p.name: private_reads(p, names) for p in sorted(here.parent.glob("*.py"))
             if p != here}
    assert {name: reads for name, reads in found.items() if reads} == {}


def test_seeds_share_their_sine_and_cosine(spy):
    # seeds of every order made from one `CoordinateValues` evaluate np.sin and np.cos once
    xs = jets.coordinate_values(np.random.default_rng(1).uniform(0.2, 1.0, size=(600, 2)))
    sines, cosines = spy(np, "sin"), spy(np, "cos")
    for order in range(5):
        for x in jets.seed_coordinates(xs, order):
            jets.sin(x), jets.cos(x), jets.sincos(x)
    assert len(sines) == len(cosines) == 2
