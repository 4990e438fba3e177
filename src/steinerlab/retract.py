"""Explicit chain-level sections and retractions between cubes, orientals,
suspensions, and wedges.

Everything here is constructive: each operation returns concrete maps whose
defining identities (section/retraction composites, quotient triangles) are
exact integer matrix equations, re-verified by the test battery.  The
cube-to-oriental comparison :func:`xi`, its section, :func:`section_q_cube`
and the oriental suspension section :func:`section_ell` are closed forms;
the three sections build their target first, so an oversized one is
refused at once.  Theta retracts wedge the retracts of the spec's blocks at
its lowest glue level left to right and suspend the result through
:func:`section_ell`, recursing once per glue level and never leaving the
orientals; the target oriental is built before the fold, and :func:`zeta`
and :func:`theta_left_inverse` build their big oriental before the wedge.
Only :func:`section_ell`, which the fold reuses, and the oriental wedges
memoize; :func:`section_ell` checks the size limit on every call, a memo
hit included.
"""

from __future__ import annotations

from functools import lru_cache, reduce

from .basic import interval, unit
from .core import (
    BasedComplex,
    Chain,
    CheckReport,
    ComplexMap,
    CompositionError,
    SteinerlabError,
    _adopt,
    _first_failure,
    _moved,
    _Record,
    _set_field,
    _sized_memo,
    _sum_images,
    _summary,
    basis_renaming_map,
    chain_of,
    compose,
    identity_map,
    report,
    validate_map,
)
from .names import Name, render_name
from .ops import (
    gray_tensor,
    gray_tensor_map,
    join,
    left_p_map,
    suspension,
    suspension_map,
)
from .shapes import (
    ThetaSpec,
    _cube_word,
    _refuse_cube,
    _refuse_oriental,
    _wedge,
    cube,
    oriental,
)


class UnsupportedSpecError(SteinerlabError):
    code = "UNSUPPORTED_SPEC"


class RetractionPair(_Record):
    """A split inclusion: ``retract`` after ``embed`` is the identity."""

    __slots__ = ("embed", "retract")

    def __init__(self, embed: ComplexMap, retract: ComplexMap):
        _set_field(self, "embed", embed)
        _set_field(self, "retract", retract)

    def verify(self) -> CheckReport:
        """The two maps valid, ``retract`` after ``embed`` the identity and
        ``embed`` after ``retract`` idempotent; the last two fail at the first
        generator in basis order whose two images differ.  A retract into
        another complex than the embed's source, or out of another than its
        target, raises ``CompositionError``.  Every composite image is a
        coefficient dict summed by ``core._sum_images``: the idempotent is one
        table of chains, and no composite map is built."""
        embed, retract = self.embed, self.retract
        if retract.target != embed.source or embed.target != retract.source:
            raise CompositionError("target of first map differs from source of second")
        idem = {
            b: _adopt(deg, _sum_images(retract.assignment[b]._coeffs, embed.assignment))
            for deg, b in retract.source.all_generators()
        }
        not_idempotent = (
            b for b, image in idem.items() if _sum_images(image._coeffs, idem) != image._coeffs
        )
        return report(
            _summary("EMBED_VALID", validate_map(embed)),
            _summary("RETRACT_VALID", validate_map(retract)),
            _first_failure("COMPOSITE_IDENTITY", _moved(embed, retract)),
            _first_failure("SPLITTING_IDEMPOTENT", map(render_name, not_idempotent)),
        )


# -- small renaming isomorphisms ----------------------------------------------


def _cube_word_name(word: str) -> Name:
    return ("u",) if word == "" else (word,)


def _shift_subset(name: Name, offset: int) -> Name:
    return tuple(str(int(v) + offset) for v in name)


# -- the square: quotient and section -----------------------------------------


def q2() -> ComplexMap:
    """The quotient square -> triangle: identity on top, kill the collapsed
    edge ``i1``, merge the vertices ``01`` and ``11`` into vertex ``2``."""
    o2 = oriental(2)
    assignment = {
        ("00",): chain_of(0, ("0",)),
        ("10",): chain_of(0, ("1",)),
        ("01",): chain_of(0, ("2",)),
        ("11",): chain_of(0, ("2",)),
        ("i0",): chain_of(1, ("0", "1")),
        ("0i",): chain_of(1, ("0", "2")),
        ("1i",): chain_of(1, ("1", "2")),
        ("i1",): Chain(1),
        ("ii",): chain_of(2, ("0", "1", "2")),
    }
    return ComplexMap(cube(2), o2, assignment)


def s2() -> ComplexMap:
    """The section of :func:`q2`: the long edge goes to the two-edge path
    through the free corner, the top cells correspond."""
    assignment = {
        ("0",): chain_of(0, ("00",)),
        ("1",): chain_of(0, ("10",)),
        ("2",): chain_of(0, ("11",)),
        ("0", "1"): chain_of(1, ("i0",)),
        ("1", "2"): chain_of(1, ("1i",)),
        ("0", "2"): Chain(1, {("0i",): 1, ("i1",): 1}),
        ("0", "1", "2"): chain_of(2, ("ii",)),
    }
    return ComplexMap(oriental(2), cube(2), assignment)


def h_map(x: BasedComplex) -> ComplexMap:
    """The square's splitting idempotent tensored with ``x``."""
    return gray_tensor_map(compose(q2(), s2()), identity_map(x))


# -- suspension comparison and its section -------------------------------------


def rho_map(a: BasedComplex) -> ComplexMap:
    """The comparison ``interval (x) suspension(a) -> suspension(interval (x) a)``
    collapsing the interval over each pole."""
    source = gray_tensor(interval(), suspension(a))
    target = suspension(gray_tensor(interval(), a))
    assignment: dict[Name, Chain] = {}
    for deg, gen in source.all_generators():
        _, v, z = gen
        if z[0] == "s":
            assignment[gen] = chain_of(deg, ("s", ("t", v, z[1])))
        elif v == ("i",):
            assignment[gen] = Chain(deg)
        else:
            assignment[gen] = chain_of(0, z)
    return ComplexMap(source, target, assignment)


def phi_map(a: BasedComplex) -> ComplexMap:
    """The section of :func:`rho_map`: the identity above degree one, with
    augmentation-weighted corrections along the interval over the poles."""
    source = suspension(gray_tensor(interval(), a))
    target = gray_tensor(interval(), suspension(a))
    assignment: dict[Name, Chain] = {
        ("b0",): chain_of(0, ("t", ("0",), ("b0",))),
        ("b1",): chain_of(0, ("t", ("1",), ("b1",))),
    }
    for deg, gen in source.all_generators():
        if gen[0] != "s":
            continue
        _, v, x = gen[1]
        terms = {("t", v, ("s", x)): 1}
        if a.degree_of(x) == 0 and v != ("i",):
            pole = ("b1",) if v == ("0",) else ("b0",)
            terms[("t", ("i",), pole)] = a.aug[x]
        assignment[gen] = Chain(deg, terms)
    return ComplexMap(source, target, assignment)


# -- sections of the cube quotients --------------------------------------------


def q_cube(n: int) -> ComplexMap:
    """The quotient ``cube(n+1) -> suspension(cube(n))`` along the last
    tensor factor."""
    source = cube(n + 1)
    target = suspension(cube(n))
    assignment: dict[Name, Chain] = {}
    for deg, g in source.all_generators():
        w = _cube_word(g)
        body, last = w[:-1], w[-1]
        if last == "i":
            assignment[g] = chain_of(deg, ("s", _cube_word_name(body)))
        elif "i" in body:
            assignment[g] = Chain(deg)
        else:
            assignment[g] = chain_of(0, ("b0",) if last == "0" else ("b1",))
    return ComplexMap(source, target, assignment)


def section_q_cube(n: int) -> RetractionPair:
    """Section of the cube-to-suspended-cube quotient.

    The poles go to the words ``0...0`` and ``1...1``.  ``s.w`` goes to the
    sum of ``w + "i"`` and of the words that follow ``w`` up to a position
    ``p`` after its last ``i``, hold ``i`` at ``p`` and then repeat the
    letter of ``0``, ``1`` that ``w`` does not have at ``p``.
    """
    if n < 0:
        _refuse_cube(n)  # as itself, by sign, before its target
    target = cube(n + 1)
    assignment: dict[Name, Chain] = {
        ("b0",): chain_of(0, ("0" * (n + 1),)),
        ("b1",): chain_of(0, ("1" * (n + 1),)),
    }
    for deg, g in cube(n).all_generators():
        w = _cube_word(g)
        words = [w + "i"]
        for p in range(w.rfind("i") + 1, n):
            words.append(w[:p] + "i" + ("1" if w[p] == "0" else "0") * (n - p))
        assignment[("s", g)] = Chain(deg + 1, {(word,): 1 for word in words})
    embed = ComplexMap(suspension(cube(n)), target, assignment)
    return RetractionPair(embed, q_cube(n))


# -- cube-to-oriental comparison ------------------------------------------------


def xi(n: int) -> ComplexMap:
    """The comparison ``cube(n) -> oriental(n)``.

    A word with a ``1`` after its first ``i`` goes to zero.  Any other word
    goes to the vertex subset of its ``i`` positions (counting from 1) and
    the position of its last ``1``, or ``0`` if it has none.
    """
    assignment: dict[Name, Chain] = {}
    for deg, g in cube(n).all_generators():
        w = _cube_word(g)
        first = w.find("i")
        if first >= 0 and "1" in w[first:]:
            assignment[g] = Chain(deg)
        else:
            ipos = [str(p + 1) for p, ch in enumerate(w) if ch == "i"]
            assignment[g] = chain_of(deg, (str(w.rfind("1") + 1), *ipos))
    return ComplexMap(cube(n), oriental(n), assignment)


def section_xi(n: int) -> RetractionPair:
    """Embed the oriental into the cube as a retract of :func:`xi`, built
    target first.

    A subset ``s_0 < ... < s_k`` goes to the sum of the words that are ``1``
    up to position ``s_0`` and ``0`` after ``s_k``, and that hold one ``i``
    in each gap ``(s_a, s_(a+1)]``, anywhere in it, with ``0`` before it and
    ``1`` after it within the gap.
    """
    target = cube(n)
    assignment: dict[Name, Chain] = {}
    for deg, g in oriental(n).all_generators():
        s = [int(v) for v in g]
        words = ["1" * s[0]]
        for lo, hi in zip(s, s[1:]):
            gaps = ["0" * p + "i" + "1" * (hi - lo - p - 1) for p in range(hi - lo)]
            words = [w + gap for w in words for gap in gaps]
        tail = "0" * (n - s[-1])
        assignment[g] = Chain(deg, {_cube_word_name(w + tail): 1 for w in words})
    return RetractionPair(ComplexMap(oriental(n), target, assignment), xi(n))


def e_s_kappa(a: BasedComplex) -> tuple[ComplexMap, ComplexMap]:
    """The splitting idempotent of the cylinder over a cone and the induced
    section of the double-cone quotient.

    Returns ``(e, s)``: ``s`` sections the quotient
    ``interval (x) cone(a) -> cone(cone(a))`` by placing the double apex at
    the 0 end, the base cone at the 1 end, and the joined cell over a base
    cell of ``a`` along the interval direction with a 0-end cone correction;
    ``e`` is the quotient (:func:`~steinerlab.ops.left_p_map`) then ``s``, an
    idempotent that collapses the 0 end by augmentation onto the apex.
    """
    cone = join(unit(), a)
    double = join(unit(), cone)
    assignment: dict[Name, Chain] = {}
    for deg, gen in double.all_generators():
        if gen[0] == "jl":
            assignment[gen] = chain_of(0, ("t", ("0",), ("jl", ("u",))))
        elif gen[0] == "jr":
            assignment[gen] = chain_of(deg, ("t", ("1",), gen[1]))
        else:
            z = gen[2]
            terms = {("t", ("i",), z): 1}
            if z[0] == "jr":
                terms[("t", ("0",), ("j", ("u",), z[1]))] = 1
            assignment[gen] = Chain(deg, terms)
    s = ComplexMap(double, gray_tensor(interval(), cone), assignment)
    return compose(left_p_map(cone), s), s


# -- sections of the oriental suspension quotient -------------------------------


def ell_oriental(n: int) -> ComplexMap:
    """The quotient ``oriental(n+1) -> suspension(oriental(n))`` collapsing
    everything below the last vertex onto the bottom pole."""
    source = oriental(n + 1)
    target = suspension(oriental(n))
    last = str(n + 1)
    assignment: dict[Name, Chain] = {}
    for deg, g in source.all_generators():
        if g[-1] != last:
            assignment[g] = chain_of(0, ("b0",)) if deg == 0 else Chain(deg)
        elif len(g) == 1:
            assignment[g] = chain_of(0, ("b1",))
        else:
            assignment[g] = chain_of(deg, ("s", g[:-1]))
    return ComplexMap(source, target, assignment)


# a negative n is refused as itself, any other by its target, the larger
@_sized_memo(lambda n: _refuse_oriental(n if n < 0 else n + 1))
def section_ell(n: int) -> RetractionPair:
    """Section of :func:`ell_oriental`, built target first: the poles go to
    the vertices ``0`` and ``n+1``, and ``s.S`` for ``S = s_0 < ... < s_k``
    to ``S`` with ``n+1`` added plus ``s_0, ..., s_(k-1), t, t+1`` for each
    ``t`` strictly between ``s_(k-1)`` (``-1`` when ``k = 0``) and ``s_k``."""
    target, top = oriental(n + 1), str(n + 1)
    assignment = {("b0",): chain_of(0, ("0",)), ("b1",): chain_of(0, (top,))}
    for deg, g in oriental(n).all_generators():
        terms = {(*g, top): 1}
        for t in range(int(g[-2]) + 1 if deg else 0, int(g[-1])):
            terms[(*g[:-1], str(t), str(t + 1))] = 1
        assignment[("s", g)] = Chain(deg + 1, terms)
    embed = ComplexMap(suspension(oriental(n)), target, assignment)
    return RetractionPair(embed, ell_oriental(n))


# -- wedges of orientals ---------------------------------------------------------


@lru_cache(maxsize=None)
def _oriental_wedge(n: int, m: int):
    return _wedge(oriental(n), (str(n),), oriental(m), ("0",))


def _oriental_sum(n: int, m: int) -> BasedComplex:
    """``oriental(n + m)``, built before the smaller wedge of ``oriental(n)``
    and ``oriental(m)``; a negative ``n`` or ``m`` is refused as itself."""
    for side in (n, m):
        if side < 0:
            _refuse_oriental(side)
    return oriental(n + m)


def zeta(n: int, m: int) -> ComplexMap:
    """The bipointed inclusion of the wedge of two orientals into the big
    oriental: left subsets stay put, right subsets shift."""
    target = _oriental_sum(n, m)
    w, left, right = _oriental_wedge(n, m)
    assignment: dict[Name, Chain] = {}
    for table, shift in ((left, 0), (right, n)):
        for g, name in table.items():
            assignment[name] = chain_of(len(g) - 1, _shift_subset(g, shift))
    return ComplexMap(w, target, assignment)


def theta_left_inverse(n: int, m: int) -> ComplexMap:
    """The left inverse of :func:`zeta`.

    A subset on one side of the middle vertex truncates to that side; a
    straddling subset that avoids the middle vertex maps to the closure of
    whichever side is a single vertex (both, for an edge), and everything
    else collapses.
    """
    source = _oriental_sum(n, m)
    w, left, right = _oriental_wedge(n, m)
    assignment: dict[Name, Chain] = {}
    for deg, g in source.all_generators():
        verts = [int(v) for v in g]
        below = [v for v in verts if v < n]
        above = [v for v in verts if v > n]
        names = []
        if not above:
            names.append(left[g])
        elif not below:
            names.append(right[_shift_subset(g, -n)])
        elif n not in verts:
            if len(above) == 1:
                names.append(left[tuple(str(v) for v in below + [n])])
            if len(below) == 1:
                names.append(right[tuple(str(v - n) for v in [n] + above)])
        assignment[g] = _adopt(deg, dict.fromkeys(names, 1))
    return ComplexMap(source, w, assignment)


# -- retracts of theta objects ----------------------------------------------------


def _wedge_map(source, target, lam1, f1, mu1, lam2, f2, mu2) -> ComplexMap:
    """The map between the wedges ``source`` and ``target`` whose name
    tables are ``lam1``, ``lam2`` and ``mu1``, ``mu2``: ``f1`` then ``mu1``
    on the left part, ``f2`` then ``mu2`` on the right; the left part gives
    the basepoint's image."""
    assignment: dict[Name, Chain] = {}
    for lam, f, mu in ((lam2, f2, mu2), (lam1, f1, mu1)):
        for g, image in f.assignment.items():
            terms = image._coeffs.items()
            assignment[lam[g]] = _adopt(image.degree, {mu[h]: k for h, k in terms})
    return ComplexMap(source, target, assignment)


def _wedge_retracts(first, second):
    """Wedge two retracts, each ``(left point, right point, embed, retract)``,
    at the first's right and the second's left point."""
    l1, r1, e1, rt1 = first
    l2, r2, e2, rt2 = second
    n1, n2 = e1.target.top_degree, e2.target.top_degree
    small, lam1, lam2 = _wedge(e1.source, r1, e2.source, l2)
    big, mu1, mu2 = _oriental_wedge(n1, n2)
    wedge_embed = _wedge_map(small, big, lam1, e1, mu1, lam2, e2, mu2)
    wedge_retract = _wedge_map(big, small, mu1, rt1, lam1, mu2, rt2, lam2)
    new_embed = compose(wedge_embed, zeta(n1, n2))
    new_retract = compose(theta_left_inverse(n1, n2), wedge_retract)
    return lam1[l1], lam2[r2], new_embed, new_retract


def _theta_retract(dims: list[int], glues: list[int]):
    """The retract of the theta of a composable spec, as ``(left point,
    right point, embed, retract)``; the theta is the source of ``embed``.

    The spec splits into blocks at its lowest glue level ``mu``; the
    retracts of the blocks, every dimension lowered by ``mu``, are wedged
    left to right and the result is suspended ``mu`` times.  A single disk
    is the point suspended.
    """
    if len(dims) == 1:
        mu = dims[0]
        embed = basis_renaming_map(unit(), oriental(0), lambda g: ("0",))
        retract = basis_renaming_map(oriental(0), unit(), lambda g: ("u",))
        part = (("u",), ("u",), embed, retract)
    else:
        mu = min(glues)
        blocks: list[tuple[list[int], list[int]]] = [([dims[0] - mu], [])]
        for d, j in zip(dims[1:], glues):
            if j == mu:
                blocks.append(([d - mu], []))
            else:
                blocks[-1][0].append(d - mu)
                blocks[-1][1].append(j - mu)
        part = reduce(_wedge_retracts, (_theta_retract(*block) for block in blocks))
    left, right, embed, retract = part
    for _ in range(mu):
        pair = section_ell(embed.target.top_degree)
        embed = compose(suspension_map(embed), pair.embed)
        retract = compose(pair.retract, suspension_map(retract))
        left, right = ("b0",), ("b1",)
    return left, right, embed, retract


def theta_retract_into_oriental(spec: ThetaSpec) -> RetractionPair:
    """Realize a composable theta spec as a retract of an oriental."""
    if not spec.is_composable():
        raise UnsupportedSpecError(
            "theta spec is not a suspension/wedge pasting: every gluing must"
            " be target-into-left, source-into-right"
        )
    oriental(sum(spec.dims) - sum(spec.glue))  # the fold's target, refused first
    _, _, embed, retract = _theta_retract(list(spec.dims), list(spec.glue))
    return RetractionPair(embed, retract)
