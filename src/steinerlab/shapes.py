"""The generator families: disks, cubes, orientals, antiorientals, thetas.

Cubes carry word names over the letters ``0``, ``1``, ``i`` (one letter per
tensor factor, ``i`` marking an interval direction); orientals carry vertex
subset names.  All three families come with an independent second
construction used as a cross-check oracle: the iterated suspension of the
point or the empty complex (kept in the tests), the iterated tensor and the
iterated join.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable

from .basic import interval, unit, zero
from .core import (
    BasedComplex,
    Chain,
    CheckItem,
    CheckReport,
    ComplexMap,
    MalformedError,
    NameDepthError,
    SteinerlabError,
    _Canonical,
    _Record,
    _adopt,
    _check_size_at_least,
    _first_failure,
    _glued,
    _set_field,
    _sized_memo,
    _summary,
    basis_renaming_map,
    chain_of,
    check_size,
    coproduct,
    report,
    sole_generator,
    validate_complex,
    validate_map,
)
from .names import MAX_NAME_DEPTH, Name, check_depth, render_name, shown

# The five functions that use ``ops``, ``colimits`` or ``steiner`` import
# them where they run, so that building a cube, oriental, disk, theta or
# wedge loads none.


class BadDimsError(SteinerlabError):
    code = "BAD_DIMS"


class BadBasepointError(SteinerlabError):
    code = "BAD_BASEPOINT"


class EmptyComplexError(SteinerlabError):
    code = "EMPTY"


# -- disks ---------------------------------------------------------------


def disk_side_gen(k: int, side: str) -> Name:
    """The degree-k source/target generator shared by all disks above k."""
    name: Name = ("b0",) if side == "source" else ("b1",)
    for _ in range(k):
        name = ("s", name)
    return name


def disk_top_gen(n: int) -> Name:
    name: Name = ("u",)
    for _ in range(n):
        name = ("s", name)
    return name


def _check_disk_dims(n: int) -> None:
    """Refuse a disk dimension below zero, or one whose top generator would
    nest past ``MAX_NAME_DEPTH`` (``n + 1`` levels); the boundary of the
    n-disk is refused with it."""
    if n < 0:
        raise BadDimsError(f"disk dimension must be >= 0, got {shown(n)}")
    if n >= MAX_NAME_DEPTH:
        raise NameDepthError(
            f"disk dimension {shown(n)} needs names nested {shown(n + 1)} levels deep,"
            f" past the bound of {MAX_NAME_DEPTH}"
        )


def _refuse_globe(top: bool) -> Callable[[int], None]:
    def refuse(n: int) -> None:
        _check_disk_dims(n)
        check_size(2 * n + top)

    return refuse


def _globe(n: int, top: bool) -> BasedComplex:
    """The n-disk (``top``) or its boundary: the pair ``s^k(b0)``, ``s^k(b1)``
    in each degree ``k < n``, the disk's ``s^n(u)`` in degree ``n``, and
    ``d = s^(k-1)(b1) - s^(k-1)(b0)`` on every generator of degree ``k >= 1``."""
    if n == 0:
        return unit() if top else zero()
    low: tuple[Name, Name] = (("b0",), ("b1",))
    degrees = {0: _Canonical(low, 1)}
    diff: dict[Name, Chain] = {}
    for k in range(1, n):
        d = _adopt(k - 1, {low[1]: 1, low[0]: -1})
        low = (("s", low[0]), ("s", low[1]))
        degrees[k] = _Canonical(low, k + 1)
        diff[low[0]] = diff[low[1]] = d
    if top:
        u = disk_top_gen(n)
        degrees[n] = _Canonical((u,), n + 1)
        diff[u] = _adopt(n - 1, {low[1]: 1, low[0]: -1})
    return BasedComplex(degrees, diff, {("b0",): 1, ("b1",): 1})


@_sized_memo(_refuse_globe(True))
def disk(n: int) -> BasedComplex:
    """The n-disk: one generator on top, a source/target pair below."""
    return _globe(n, True)


@_sized_memo(_refuse_globe(False))
def boundary_disk(n: int) -> BasedComplex:
    """The boundary of the n-disk: a source/target pair in degrees below n."""
    return _globe(n, False)


def _onto_side(j: int, i: int, side: str) -> Callable[[Name], Name]:
    """The renaming of the j-disk's generators that includes it onto the
    indicated side of the i-disk: the top goes to the side generator of
    degree j, unless ``j == i``, and every other generator keeps its name."""
    top = disk_top_gen(j)
    image = top if j == i else disk_side_gen(j, side)
    return lambda g: image if g == top else g


def disk_inclusion(j: int, i: int, side: str) -> ComplexMap:
    """Include the j-disk onto the indicated side generator of the i-disk."""
    if side not in ("source", "target"):
        raise BadDimsError(f"side must be 'source' or 'target', got {side!r}")
    if not (0 <= j <= i):
        raise BadDimsError(f"need 0 <= j <= i, got j={shown(j)}, i={shown(i)}")
    return basis_renaming_map(disk(j), disk(i), _onto_side(j, i, side))


# -- cubes and orientals ----------------------------------------------------

# The generator count of each family by dimension n, at least 2**n.
_COUNTS = {"cube": lambda n: 3**n, "oriental": lambda n: 2 ** (n + 1) - 1}


def _refuse_family(family: str, n: int) -> None:
    """Refuse a negative ``family`` dimension, then the family's count."""
    if n < 0:
        raise BadDimsError(f"{family} dimension must be >= 0, got {shown(n)}")
    _check_size_at_least(n)
    check_size(_COUNTS[family](n))


_refuse_cube = partial(_refuse_family, "cube")
_refuse_oriental = partial(_refuse_family, "oriental")


@_sized_memo(_refuse_cube)
def cube(n: int) -> BasedComplex:
    """The oriented n-cube with word basis; degree = number of ``i`` letters.

    The differential replaces each ``i`` in turn by ``1`` minus ``0``, with
    the sign alternating over the ``i`` letters already passed.  Words are
    listed in name order, so word ``k`` reads ``k`` in base 3 over the digits
    ``0``, ``1``, ``i``; an ``i`` at a position of weight ``p`` has its two
    faces at ``k - p`` (letter ``1``) and ``k - 2p`` (letter ``0``).
    """
    if n == 0:
        return unit()
    words = [""]
    for _ in range(n):
        words = [w + ch for w in words for ch in "01i"]
    names: list[Name] = [(w,) for w in words]
    weights = [3 ** (n - 1 - pos) for pos in range(n)]
    degrees: dict[int, list[Name]] = {}
    diff: dict[Name, Chain] = {}
    aug: dict[Name, int] = {}
    for k, w in enumerate(words):
        degree = w.count("i")
        name = names[k]
        degrees.setdefault(degree, []).append(name)
        if degree == 0:
            aug[name] = 1
            continue
        terms: dict[Name, int] = {}
        sign = 1
        for pos, ch in enumerate(w):
            if ch == "i":
                p = weights[pos]
                terms[names[k - p]] = sign
                terms[names[k - 2 * p]] = -sign
                sign = -sign
        diff[name] = _adopt(degree - 1, terms)
    return BasedComplex(
        {deg: _Canonical(gens, 1) for deg, gens in degrees.items()}, diff, aug
    )


@_sized_memo(_refuse_oriental)
def oriental(n: int) -> BasedComplex:
    """The n-oriental: subsets of {0..n} as basis, alternating face sums.

    Subset ``k`` of the doubling list is the bitmask ``k``, so the face
    without vertex ``v`` is subset ``k ^ (1 << v)``."""
    names: list[Name] = [()]
    for v in range(n + 1):
        label = str(v)
        names += [s + (label,) for s in names]
    degrees: dict[int, list[Name]] = {}
    diff: dict[Name, Chain] = {}
    aug: dict[Name, int] = {}
    for k in range(1, len(names)):
        name = names[k]
        degree = len(name) - 1
        degrees.setdefault(degree, []).append(name)
        if degree == 0:
            aug[name] = 1
            continue
        terms: dict[Name, int] = {}
        sign, rest = 1, k
        while rest:
            bit = rest & -rest
            terms[names[k ^ bit]] = sign
            sign, rest = -sign, rest ^ bit
        diff[name] = _adopt(degree - 1, terms)
    return BasedComplex(degrees, diff, aug)


def oriental_via_join(n: int) -> BasedComplex:
    """The n-fold join of the point, renamed step by step to vertex subsets.

    Differentials come entirely out of the join formula of :func:`join`,
    not from face sums, which makes this an independent oracle for
    :func:`oriental`.
    """
    from .ops import join

    _refuse_oriental(n)
    current = BasedComplex({0: [("0",)]}, {}, {("0",): 1})
    for k in range(1, n + 1):
        current = join(current, unit()).renamed(lambda g: _right_cone_name(g, k))
    return current


def _right_cone_name(g: Name, k: int) -> Name:
    """Name a generator of ``join(oriental(k-1), unit)`` as a vertex subset of
    ``oriental(k)``: the cone vertex becomes ``k``."""
    if g[0] == "jl":
        return g[1]
    if g[0] == "jr":
        return (str(k),)
    return g[1] + (str(k),)


@_sized_memo(_refuse_oriental)
def antioriental(n: int) -> BasedComplex:
    """The co-dual of the n-oriental."""
    from .ops import dual_co

    return dual_co(oriental(n))


# -- thetas and wedges -------------------------------------------------------


class ThetaSpec(_Record):
    """An iterated gluing of disks: ``dims[l]``-disks glued along
    ``glue[l]``-disks, each included on the indicated sides."""

    __slots__ = ("dims", "glue", "sides")

    def __init__(
        self,
        dims: tuple[int, ...],
        glue: tuple[int, ...] = (),
        sides: tuple[tuple[str, str], ...] = (),
    ):
        if not dims:
            raise BadDimsError("theta spec needs at least one disk")
        if len(glue) != len(dims) - 1 or len(sides) != len(glue):
            raise BadDimsError("theta spec length mismatch")
        for pos, j in enumerate(glue):
            if j < 0 or j > min(dims[pos], dims[pos + 1]):
                raise BadDimsError(
                    f"glue dimension {shown(j)} exceeds adjacent disks"
                    f" {shown(dims[pos])}, {shown(dims[pos + 1])}"
                )
        for pair in sides:
            if len(pair) != 2 or any(s not in ("source", "target") for s in pair):
                raise BadDimsError(f"bad side pair {pair!r}")
        for n in dims:
            _check_disk_dims(n)
        _set_field(self, "dims", dims)
        _set_field(self, "glue", glue)
        _set_field(self, "sides", sides)

    def is_composable(self) -> bool:
        """True when every gluing is target-into-left, source-into-right,
        which is exactly the globular pasting (suspension/wedge) case."""
        return all(pair == ("target", "source") for pair in self.sides)


def theta(spec: ThetaSpec) -> BasedComplex:
    """The disks of ``spec`` glued along their disk inclusions; always based.

    Disk ``p`` of ``k`` names its generator ``x`` as ``r.x`` (plain ``x`` on
    disk 0) under ``k-1-p`` ``l`` tags, except that a generator glued to disk
    ``p+1`` takes that disk's name: the names an iterated pushout keeps.  The
    disks are renamed from the last to the first and glued by ``core._glued``.
    """
    dims, glue, k = spec.dims, spec.glue, len(spec.dims)
    check_size(sum(2 * n + 1 for n in dims) - sum(2 * j + 1 for j in glue))
    parts: list[tuple[BasedComplex, dict[Name, Name]]] = []
    for p in reversed(range(k)):
        table: dict[Name, Name] = {}
        if p < k - 1:
            (left, right), later = spec.sides[p], parts[-1][1]
            into_p = _onto_side(glue[p], dims[p], left)
            into_next = _onto_side(glue[p], dims[p + 1], right)
            for _, g in disk(glue[p]).all_generators():
                table[into_p(g)] = later[into_next(g)]
        for deg, x in disk(dims[p]).all_generators():
            if x not in table:
                # x nests deg + 1 deep, and r and the k-1-p l tags wrap it
                check_depth(k - p + deg + (p > 0))
                name = ("r", x) if p else x
                for _ in range(k - 1 - p):
                    name = ("l", name)
                table[x] = name
        parts.append((disk(dims[p]), table))
    return _glued(parts)


def _wedge(
    a: BasedComplex, marked_a: Name, b: BasedComplex, marked_b: Name
) -> tuple[BasedComplex, dict[Name, Name], dict[Name, Name]]:
    """The wedge of :func:`wedge_with_legs` with, in place of its legs, the
    tables naming each generator of ``a`` and of ``b`` in it."""
    for c, p in ((a, marked_a), (b, marked_b)):
        if not c.has_generator(p) or c.degree_of(p) != 0 or c.aug[p] != 1:
            raise BadBasepointError(f"marked generator must be a vertex of augmentation 1")
    tables = []
    for c, p, tag in ((a, marked_a, "wl"), (b, marked_b, "wr")):
        table = {x: (tag, x) for _, x in c.all_generators()}
        table[p] = ("w0",)
        tables.append(table)
    return _glued([(a, tables[0]), (b, tables[1])]), tables[0], tables[1]


def wedge_with_legs(
    a: BasedComplex, marked_a: Name, b: BasedComplex, marked_b: Name
) -> tuple[BasedComplex, ComplexMap, ComplexMap]:
    """Glue two complexes at marked vertices; return the complex and legs.

    Generators are renamed ``wl.x`` / ``wr.y`` with the shared basepoint
    ``w0``.
    """
    w, left, right = _wedge(a, marked_a, b, marked_b)
    return (
        w,
        basis_renaming_map(a, w, left.__getitem__),
        basis_renaming_map(b, w, right.__getitem__),
    )


def wedge(
    a: BasedComplex, marked_a: Name, b: BasedComplex, marked_b: Name
) -> BasedComplex:
    """Pushout identifying the two marked vertices."""
    return _wedge(a, marked_a, b, marked_b)[0]


def truncate_top(c: BasedComplex) -> BasedComplex:
    """Drop the top-degree generators and their differentials, or their
    augmentations when the top degree is 0."""
    if not c.degrees:
        raise EmptyComplexError("cannot truncate the empty complex")
    top = c.top_degree
    degrees = {deg: gens for deg, gens in c.degrees.items() if deg != top}
    diff = {g: ch for g, ch in c.diff.items() if c.degree_of(g) != top}
    return BasedComplex(degrees, diff, c.aug if top else {})


# -- boundary decompositions --------------------------------------------------


def _cube_word(g: Name) -> str:
    """Cube generator name to word; the 0-cube point is the empty word."""
    return "" if g == ("u",) else g[0]


# A face of the n-shape is tagged by its position, then the letters its
# coface writes there; the double face of faces f < h by f's and h's tags
# interleaved, so (i, j, a, b) for cubes and (i, j) for orientals.  It goes
# into f by h's coface one position lower and into h by f's coface.


def _cube_coface(pos: int, letters: Name, g: Name) -> Name:
    """Face (i, a) of the cube inserts the letter a at position i of a word."""
    word = _cube_word(g)
    return (word[:pos] + letters[0] + word[pos:],)


def _oriental_coface(pos: int, letters: Name, g: Name) -> Name:
    """Face (i,) of the oriental skips vertex i."""
    return tuple(str(int(v) if int(v) < pos else int(v) + 1) for v in g)


def _family(family: str):
    """The builder, the face tags of the n-shape and the coface of ``family``."""
    if family == "cube":
        return cube, lambda n: [(str(i), a) for i in range(n) for a in "01"], _cube_coface
    if family == "oriental":
        return oriental, lambda n: [(str(i),) for i in range(n + 1)], _oriental_coface
    raise MalformedError(f"unknown family {shown(family)}")


def _decomposition_data(family: str, n: int):
    """The n-shape, the face and double-face coproducts, and the coface.

    The sizes of the shape and of the two coproducts are refused, in that
    order, as counts of the family before anything is built."""
    build, face_tags, coface = _family(family)
    count = _COUNTS[family]
    _refuse_family(family, n)
    faces = face_tags(n)
    doubles = [
        sum(zip(f, h), ()) for f in faces for h in faces if int(f[0]) < int(h[0])
    ]
    check_size(len(faces) * count(n - 1))
    check_size(len(doubles) * count(n - 2))
    face_cop = coproduct([(("f",) + tag, build(n - 1)) for tag in faces])
    double_cop = coproduct([(("e",) + tag, build(n - 2)) for tag in doubles])
    return build(n), face_cop, double_cop, coface


def _induced_iso_items(
    prefix: str, induced: ComplexMap, label: str, expected: BasedComplex
) -> list[CheckItem]:
    """INDUCED_ISO, then, if it holds, EQUALS_<label>: the colimit renamed
    along the induced basis bijection is exactly ``expected``."""
    try:
        table = {g: sole_generator(chain) for g, chain in induced.assignment.items()}
        iso_ok = len(set(table.values())) == len(table) == induced.target.size
    except MalformedError:
        iso_ok = False
    items = [CheckItem(f"{prefix}:INDUCED_ISO", iso_ok, None)]
    if iso_ok:
        renamed = _glued([(induced.source, table)])
        items.append(CheckItem(f"{prefix}:EQUALS_{label}", renamed == expected, None))
    return items


def boundary_decomposition_check(family: str, n: int) -> CheckReport:
    """Verify that the boundary of the n-shape is the coequalizer of its
    codimension-2 faces mapping into its codimension-1 faces."""
    from .colimits import coequalizer, induced_from_coequalizer

    if n < 2:
        raise BadDimsError(f"boundary decomposition needs n >= 2, got {shown(n)}")
    shape, face_cop, double_cop, coface = _decomposition_data(family, n)

    def leg(into_first: bool) -> ComplexMap:
        def rename(gen: Name) -> Name:
            f, h = gen[0][1::2], gen[0][2::2]
            if into_first:
                return (("f",) + f, coface(int(h[0]) - 1, h[1:], gen[1]))
            return (("f",) + h, coface(int(f[0]), f[1:], gen[1]))

        return basis_renaming_map(double_cop, face_cop, rename)

    r, s = leg(True), leg(False)
    result = coequalizer(r, s)
    items: list[CheckItem] = [
        CheckItem(
            f"{family}:{n}:COLIMIT_BASED",
            result.based,
            result.reason,
        )
    ]
    if not result.based:
        return report(*items)

    boundary = truncate_top(shape)
    cocone = basis_renaming_map(
        face_cop, boundary, lambda gen: coface(int(gen[0][1]), gen[0][2:], gen[1])
    )
    coequalizes = _first_failure(
        f"{family}:{n}:COCONE_COEQUALIZES",
        (
            render_name(e)
            for _, e in double_cop.all_generators()
            if cocone(r.of_gen(e)) != cocone(s.of_gen(e))
        ),
    )
    if not coequalizes.passed:  # a passing check is not listed
        items.append(coequalizes)
        return report(*items)
    induced = induced_from_coequalizer(result, cocone)
    items += _induced_iso_items(f"{family}:{n}", induced, "TRUNCATION", boundary)
    items.append(
        _summary(f"{family}:{n}:COLIMIT_VALID", validate_complex(result.require_based()))
    )
    return report(*items)


def top_cell_decomposition_check(family: str, n: int) -> CheckReport:
    """Verify that the n-shape is its boundary with one n-disk attached along
    the source/target tower of the unique top cell."""
    from .colimits import induced_from_pushout, pushout
    from .steiner import atom_table

    if n < 1:
        raise BadDimsError(f"top-cell decomposition needs n >= 1, got {shown(n)}")
    shape = _family(family)[0](n)
    tops = shape.generators(n)
    items: list[CheckItem] = [
        CheckItem(f"{family}:{n}:UNIQUE_TOP_CELL", len(tops) == 1, str(len(tops)))
    ]
    if len(tops) != 1:
        return report(*items)
    top = tops[0]
    boundary = truncate_top(shape)
    table = atom_table(shape, top)
    bd = boundary_disk(n)
    attach_assignment: dict[Name, Chain] = {}
    for k in range(n):
        attach_assignment[disk_side_gen(k, "source")] = table.minus[k]
        attach_assignment[disk_side_gen(k, "target")] = table.plus[k]
    attach = ComplexMap(bd, boundary, attach_assignment)
    include = basis_renaming_map(bd, disk(n), lambda g: g)
    items.append(_summary(f"{family}:{n}:ATTACH_VALID", validate_map(attach)))
    # The disk side goes first so its generators take the l tag: unit pivots
    # then eliminate the disk copy of the boundary, leaving the shape's own
    # basis plus the attached top cell as survivors.
    result = pushout(include, attach)
    items.append(
        CheckItem(f"{family}:{n}:COLIMIT_BASED", result.based, result.reason)
    )
    if not result.based:
        return report(*items)
    u = basis_renaming_map(boundary, shape, lambda g: g)
    v_assignment = dict(attach_assignment)
    v_assignment[disk_top_gen(n)] = chain_of(n, top)
    v = ComplexMap(disk(n), shape, v_assignment)
    induced = induced_from_pushout(result, v, u)
    items += _induced_iso_items(f"{family}:{n}", induced, "SHAPE", shape)
    return report(*items)


# -- library and randomized inputs ---------------------------------------------


def shape_library(big: bool = False) -> dict[str, BasedComplex]:
    """A fixed catalogue of shapes used across the property suites."""
    from .ops import suspension

    lib: dict[str, BasedComplex] = {
        "unit": unit(),
        "interval": interval(),
        "disk1": disk(1),
        "disk2": disk(2),
        "disk3": disk(3),
        "boundary_disk2": boundary_disk(2),
        "cube2": cube(2),
        "oriental1": oriental(1),
        "oriental2": oriental(2),
        "oriental3": oriental(3),
        "antioriental2": antioriental(2),
        "susp_oriental2": suspension(oriental(2)),
    }
    if big:
        lib.update(
            {
                "cube3": cube(3),
                "oriental4": oriental(4),
                "theta212": theta(
                    ThetaSpec(
                        (2, 1, 2),
                        (1, 1),
                        (("target", "source"), ("target", "source")),
                    )
                ),
            }
        )
    return lib


def random_theta_spec(
    rng: random.Random, max_dim: int = 3, max_disks: int = 4, composable: bool = False
) -> ThetaSpec:
    """Draw a valid theta spec; ``composable`` restricts the side choices to
    target-into-left, source-into-right."""
    count = rng.randint(1, max_disks)
    dims = tuple(rng.randint(0, max_dim) for _ in range(count))
    glue = tuple(
        rng.randint(0, min(dims[k], dims[k + 1])) for k in range(count - 1)
    )
    if composable:
        sides = tuple(("target", "source") for _ in glue)
    else:
        sides = tuple(
            (rng.choice(("source", "target")), rng.choice(("source", "target")))
            for _ in glue
        )
    return ThetaSpec(dims, glue, sides)
