"""Known answers, computed without the code under test.

Graded generator counts come from closed formulas; chain identities are
checked with plain dictionaries; the few documents the benchmark needs as
inputs or expected outputs are written here from the ``steinerlab/1`` schema.
Nothing in this module imports steinerlab.
"""

from __future__ import annotations

import hashlib
import json
from math import comb

Counts = dict  # degree -> number of generators


def cube_counts(n: int) -> Counts:
    return {k: comb(n, k) * 2 ** (n - k) for k in range(n + 1)}


def oriental_counts(n: int) -> Counts:
    return {k: comb(n + 1, k + 1) for k in range(n + 1)}


def disk_counts(n: int) -> Counts:
    return {k: (2 if k < n else 1) for k in range(n + 1)}


def boundary_disk_counts(n: int) -> Counts:
    return {k: 2 for k in range(n)}


def _add(*parts: Counts) -> Counts:
    out: Counts = {}
    for part in parts:
        for k, v in part.items():
            out[k] = out.get(k, 0) + v
    return {k: v for k, v in sorted(out.items()) if v}


def _sub(a: Counts, b: Counts) -> Counts:
    return _add(a, {k: -v for k, v in b.items()})


def shift(a: Counts, by: int = 1) -> Counts:
    return {k + by: v for k, v in a.items()}


def tensor_counts(a: Counts, b: Counts) -> Counts:
    """Degreewise convolution: a generator pair x (x) y sits in |x| + |y|."""
    out: Counts = {}
    for i, u in a.items():
        for j, v in b.items():
            out[i + j] = out.get(i + j, 0) + u * v
    return dict(sorted(out.items()))


def join_counts(a: Counts, b: Counts) -> Counts:
    """Three parts: left copy, right copy, and the pairs shifted up by one."""
    return _add(a, b, shift(tensor_counts(a, b)))


def suspension_counts(a: Counts) -> Counts:
    """Everything shifted up by one over two new poles."""
    return _add({0: 2}, shift(a))


def theta_counts(dims, glue) -> Counts:
    """Disks glued along sub-disks: the glued copies are counted once."""
    total: Counts = {}
    for d in dims:
        total = _add(total, disk_counts(d))
    for j in glue:
        total = _sub(total, disk_counts(j))
    return total


def wedge_counts(a: Counts, b: Counts) -> Counts:
    """Two complexes sharing one vertex."""
    return _sub(_add(a, b), {0: 1})


SHAPE_COUNTS = {
    "cube": cube_counts,
    "oriental": oriental_counts,
    "antioriental": oriental_counts,
    "disk": disk_counts,
    "boundary_disk": boundary_disk_counts,
}
UNARY = ("susp", "antisusp", "dual_op", "dual_co", "dual_coop")


def expr_counts(expr) -> Counts:
    """Graded counts of an expression such as ``["tensor", ["cube", 2], ["unit"]]``."""
    head = expr[0]
    if head in SHAPE_COUNTS:
        return SHAPE_COUNTS[head](expr[1])
    if head == "unit":
        return {0: 1}
    if head == "interval":
        return {0: 2, 1: 1}
    if head in ("susp", "antisusp"):
        return suspension_counts(expr_counts(expr[1]))
    if head in UNARY:
        return expr_counts(expr[1])
    a, b = expr_counts(expr[1]), expr_counts(expr[2])
    return tensor_counts(a, b) if head == "tensor" else join_counts(a, b)


def expr_key(expr) -> str:
    """Stable text form, used to key recorded digests: ``tensor(cube:2,unit)``."""
    head = expr[0]
    if head in SHAPE_COUNTS:
        return f"{head}:{expr[1]}"
    if len(expr) == 1:
        return head
    return head + "(" + ",".join(expr_key(e) for e in expr[1:]) + ")"


# -- chain identities on plain dictionaries ------------------------------------


def boundary_of(diff: dict, chain: dict) -> dict:
    """d of a chain, given each generator's differential as a dict."""
    out: dict = {}
    for g, c in chain.items():
        for h, e in diff.get(g, {}).items():
            out[h] = out.get(h, 0) + c * e
    return {h: v for h, v in out.items() if v}


def minus(a: dict, b: dict) -> dict:
    out = dict(a)
    for h, v in b.items():
        out[h] = out.get(h, 0) - v
    return {h: v for h, v in out.items() if v}


def cell_problem(diff: dict, aug: dict, minus_: list, plus_: list) -> str | None:
    """Why a table of non-negative chains is not a cell, or None if it is.

    Levels are dicts; a cell has equal top entries, non-negative entries,
    ``d(x_k^-) = d(x_k^+) = x_{k-1}^+ - x_{k-1}^-`` and augmentation one at
    the bottom.
    """
    top = len(minus_) - 1
    if minus_[top] != plus_[top]:
        return "top entries differ"
    for k in range(top + 1):
        if any(v <= 0 for v in list(minus_[k].values()) + list(plus_[k].values())):
            return f"negative entry at level {k}"
    for k in range(1, top + 1):
        want = minus(plus_[k - 1], minus_[k - 1])
        if boundary_of(diff, minus_[k]) != want or boundary_of(diff, plus_[k]) != want:
            return f"boundary mismatch at level {k}"
    for side in (minus_[0], plus_[0]):
        if sum(aug[g] * c for g, c in side.items()) != 1:
            return "augmentation of level 0 is not one"
    return None


def composite(t_minus, t_plus, u_minus, u_plus, p: int):
    """The composite "t then u" along level p, by its defining formula."""
    out_minus, out_plus = [], []
    for k in range(len(t_minus)):
        if k < p:
            out_minus.append(t_minus[k])
            out_plus.append(t_plus[k])
        elif k == p:
            out_minus.append(t_minus[k])
            out_plus.append(u_plus[k])
        else:
            out_minus.append(_add(t_minus[k], u_minus[k]))
            out_plus.append(_add(t_plus[k], u_plus[k]))
    return out_minus, out_plus


# -- documents -------------------------------------------------------------------


def oriental_faces(n: int) -> dict:
    """The n-oriental's differential: alternating face sums of vertex subsets.

    Generators are rendered names (``"0.2"``); returns name -> {face: coeff}.
    """
    subsets = [()]
    for v in range(n + 1):
        subsets += [s + (v,) for s in subsets]
    diff = {}
    for s in subsets:
        if len(s) < 2:
            continue
        faces = {}
        for pos in range(len(s)):
            face = ".".join(str(v) for v in s[:pos] + s[pos + 1 :])
            faces[face] = 1 if pos % 2 == 0 else -1
        diff[".".join(str(v) for v in s)] = faces
    return diff


def complex_document(degrees: dict, diff: dict, aug: dict) -> dict:
    """A ``steinerlab/1`` complex document from rendered names.

    ``degrees`` maps degree -> names, ``diff`` name -> {name: coeff} and
    ``aug`` name -> value; every list keeps the order it is given in.
    Coefficients may be ints or decimal strings (for ones too long for
    ``str(int)``).
    """
    return {
        "format_version": "steinerlab/1",
        "kind": "complex",
        "degrees": [
            {"degree": d, "generators": list(gens)} for d, gens in degrees.items()
        ],
        "differential": [
            {
                "generator": g,
                "terms": [{"generator": h, "coeff": str(c)} for h, c in terms.items()],
            }
            for g, terms in diff.items()
        ],
        "augmentation": [{"generator": g, "value": str(v)} for g, v in aug.items()],
    }


def oriental_document(n: int) -> dict:
    diff = oriental_faces(n)
    names = [str(v) for v in range(n + 1)] + list(diff)
    degrees: dict = {}
    for g in names:
        degrees.setdefault(g.count("."), []).append(g)
    return complex_document(dict(sorted(degrees.items())), diff, {str(v): 1 for v in range(n + 1)})


def digest(data: bytes) -> str:
    """Short content digest used for byte-stability checks."""
    return hashlib.sha256(data).hexdigest()[:16]


def dump(doc: dict) -> str:
    """The byte layout ``steinerlab/1`` emission uses."""
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def point_document(aug: str) -> str:
    """One vertex ``u`` with the given decimal augmentation."""
    return dump(complex_document({0: ["u"]}, {}, {"u": aug}))


def suspended_point_document(aug: str) -> str:
    """Expected emission of the suspension of a point with decimal
    augmentation ``aug``: d(s.(u)) = aug * (b1 - b0), poles in name order."""
    return dump(
        complex_document(
            {0: ["b0", "b1"], 1: ["s.(u)"]},
            {"s.(u)": {"b0": "-" + aug, "b1": aug}},
            {"b0": 1, "b1": 1},
        )
    )
