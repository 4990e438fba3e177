"""Algebraic operations on based complexes.

Gray tensor product, join and antijoin, suspension and antisuspension, the
op/co/coop sign involutions with their coherence isomorphisms, and the
quotient maps relating tensor, join, and suspension.

Sign conventions, fixed once for the whole library:

* the interval has ``d(i) = 1 - 0``;
* the tensor differential is ``d(x (x) y) = dx (x) y + (-1)^|x| x (x) dy``;
* in the join pushout the ``{0}`` end of the middle interval projects to the
  left factor and the ``{1}`` end to the right factor, which calibrates the
  join so that iterated joins of the point carry the alternating-face-sum
  differential, and the suspension so that ``d(S x) = eps(x)(top - bottom)``
  on vertices; ``join`` and ``suspension`` are closed forms checked against
  these pushouts (``join_pushout``, ``suspension_pushout``).
"""

from __future__ import annotations

from typing import Callable

from .basic import interval, two_points, unit
from .colimits import PushoutResult, pushout
from .core import (
    BasedComplex,
    Chain,
    ComplexMap,
    MalformedError,
    _adopt,
    _Canonical,
    _tagged_union,
    basis_renaming_map,
    chain_of,
    check_size,
    compose,
    direct_sum,
)
from .names import Name, check_depth, name_key

# -- Gray tensor product -----------------------------------------------------


def _paired_depth(a: BasedComplex, b: BasedComplex) -> int:
    """The depth of names ``(tag, x, y)`` over generators of ``a`` and ``b``,
    refused over the bound before any is built."""
    return check_depth(1 + max(a._depth, b._depth))


def _ranked(c: BasedComplex) -> list[tuple[int, Name, list[tuple[int, int]]]]:
    """``(degree, generator, differential)`` in rank order, the differential
    as ``(rank, coeff)`` pairs (none on a vertex).  Pairs ``(x, y)`` taken
    in the order of ``(rank x, rank y)`` are in the name order of
    ``(tag, x, y)``.  The ranks are the ``name_key`` order of all generators,
    sorted on each call."""
    ranks = {g: i for i, g in enumerate(sorted(c._gen_degree, key=name_key))}
    diff, ranked = c.diff, []
    for g in ranks:
        degree = c._gen_degree[g]
        terms = diff[g]._coeffs.items() if degree else ()
        ranked.append((degree, g, [(ranks[h], k) for h, k in terms]))
    return ranked


def _pair_grid(tag: str, ranked_a: list, ranked_b: list) -> list[list[Name]]:
    """The names ``(tag, x, y)``, row ``rank x`` and column ``rank y``."""
    return [[(tag, x, y) for _, y, _ in ranked_b] for _, x, _ in ranked_a]


def gray_tensor(a: BasedComplex, b: BasedComplex) -> BasedComplex:
    """Tensor product with Koszul-signed differential and pair-named basis.

    Each basis lists its pairs by ``(rank x, rank y)``, already name order.
    """
    check_size(a.size * b.size)
    depth = _paired_depth(a, b) if a.size and b.size else 0
    degrees: dict[int, list[Name]] = {}
    diff: dict[Name, Chain] = {}
    aug: dict[Name, int] = {}
    ranked_a, ranked_b = _ranked(a), _ranked(b)
    grid = _pair_grid("t", ranked_a, ranked_b)
    for (da, x, dx), row in zip(ranked_a, grid):
        sign = -1 if da % 2 else 1
        for j, (db, y, dy) in enumerate(ranked_b):
            name = row[j]
            degree = da + db
            degrees.setdefault(degree, []).append(name)
            if degree == 0:
                aug[name] = a.aug[x] * b.aug[y]
                continue
            # The two sums have different first factors, so no term cancels.
            terms = {grid[r][j]: c for r, c in dx}
            for r, c in dy:
                terms[row[r]] = sign * c
            diff[name] = _adopt(degree - 1, terms)
    canonical = {deg: _Canonical(gens, depth) for deg, gens in degrees.items()}
    return BasedComplex(canonical, diff, aug)


def gray_tensor_map(f: ComplexMap, g: ComplexMap) -> ComplexMap:
    """Functoriality: ``(f (x) g)(x (x) y) = f(x) (x) g(y)``, bilinearly."""
    source = gray_tensor(f.source, g.source)
    target = gray_tensor(f.target, g.target)
    assignment: dict[Name, Chain] = {}
    for degree, gen in source.all_generators():
        _, x, y = gen
        gy = g.of_gen(y)._coeffs
        terms = {
            ("t", xp, yp): c * e
            for xp, c in f.of_gen(x)._coeffs.items()
            for yp, e in gy.items()
        }
        assignment[gen] = _adopt(degree, terms)
    return ComplexMap(source, target, assignment)


# -- duality involutions ------------------------------------------------------


def _rescaled(a: BasedComplex, sign_of_degree) -> BasedComplex:
    """``a`` with its differentials rescaled, on ``a``'s own bases."""
    diff = {
        g: sign_of_degree(chain.degree + 1) * chain for g, chain in a.diff.items()
    }
    bases = {deg: _Canonical(gens, a._depth) for deg, gens in a.degrees.items()}
    return BasedComplex(bases, diff, a.aug)


def dual_op(a: BasedComplex) -> BasedComplex:
    """Rescale the degree-n differential by (-1)^n (reverse odd cells)."""
    return _rescaled(a, lambda n: -1 if n % 2 else 1)


def dual_co(a: BasedComplex) -> BasedComplex:
    """Rescale the degree-n differential by (-1)^(n+1) (reverse even cells)."""
    return _rescaled(a, lambda n: 1 if n % 2 else -1)


def dual_coop(a: BasedComplex) -> BasedComplex:
    """Negate every differential (reverse all cells)."""
    return _rescaled(a, lambda n: -1)


def _dual_of_map(f: ComplexMap, dual) -> ComplexMap:
    """The same assignment viewed between dualized complexes."""
    return ComplexMap(dual(f.source), dual(f.target), f.assignment)


def dual_op_map(f: ComplexMap) -> ComplexMap:
    return _dual_of_map(f, dual_op)


def dual_co_map(f: ComplexMap) -> ComplexMap:
    return _dual_of_map(f, dual_co)


def _swap_iso(a: BasedComplex, b: BasedComplex, dual) -> ComplexMap:
    """The isomorphism ``dual(a) (x) dual(b) -> dual(b (x) a)`` on basis pairs."""
    return basis_renaming_map(
        gray_tensor(dual(a), dual(b)),
        dual(gray_tensor(b, a)),
        lambda gen: ("t", gen[2], gen[1]),
    )


def swap_iso_op(a: BasedComplex, b: BasedComplex) -> ComplexMap:
    """The isomorphism ``a^op (x) b^op -> (b (x) a)^op`` on basis pairs."""
    return _swap_iso(a, b, dual_op)


def swap_iso_co(a: BasedComplex, b: BasedComplex) -> ComplexMap:
    """The isomorphism ``a^co (x) b^co -> (b (x) a)^co`` on basis pairs."""
    return _swap_iso(a, b, dual_co)


def cube_selfduality(n: int, which: str) -> ComplexMap:
    """Explicit iso ``cube(n) -> cube(n)^op`` (or ``^co``).

    The op iso composes the factor-swap isomorphisms with the vertex swap of
    the interval, which on cube words is letter reversal plus a 0/1 flip; the
    co iso uses the identity of the interval, leaving plain reversal.
    """
    from .shapes import cube  # local import: shapes builds on ops

    if which not in ("op", "co"):
        raise MalformedError(f"which must be 'op' or 'co', got {which!r}")
    source = cube(n)
    dual = dual_op(source) if which == "op" else dual_co(source)
    flip = {"0": "1", "1": "0", "i": "i"} if which == "op" else None

    def transform(word: str) -> str:
        out = word[::-1]
        if flip:
            out = "".join(flip[ch] for ch in out)
        return out

    return basis_renaming_map(
        source, dual, lambda gen: (transform(gen[0]),) if n else gen
    )


# -- join, suspension, and their duals ----------------------------------------


def _tensor3(a: BasedComplex, mid: BasedComplex, b: BasedComplex) -> BasedComplex:
    return gray_tensor(gray_tensor(a, mid), b)


def _collapse_pushout(
    cyl: BasedComplex,
    ends: BasedComplex,
    sides: BasedComplex,
    collapse_end: Callable[[int, Name], Chain],
) -> PushoutResult:
    """Push the cylinder out along its two ends, each end generator
    collapsing onto ``sides`` by ``collapse_end(degree, generator)``."""
    include = basis_renaming_map(ends, cyl, lambda g: g)
    collapse = ComplexMap(
        ends,
        sides,
        {gen: collapse_end(deg, gen) for deg, gen in ends.all_generators()},
    )
    return pushout(include, collapse)


def _eps_times(degree: int, name: Name, a: BasedComplex, x: Name) -> Chain:
    """``eps(x) * name`` when ``x`` is a vertex of ``a``, else the zero chain."""
    if a.degree_of(x) == 0:
        return Chain(degree, {name: a.aug[x]})
    return Chain(degree)


def join_pushout(a: BasedComplex, b: BasedComplex) -> PushoutResult:
    """The defining pushout of the join, with raw (un-renamed) names."""

    def collapse_end(deg: int, gen: Name) -> Chain:
        _, (_, x, end), y = gen
        if end == ("0",):
            return _eps_times(deg, ("l", x), b, y)
        return _eps_times(deg, ("r", y), a, x)

    return _collapse_pushout(
        _tensor3(a, interval(), b),
        _tensor3(a, two_points(), b),
        direct_sum(a, b),
        collapse_end,
    )


def join(a: BasedComplex, b: BasedComplex) -> BasedComplex:
    """Join in closed form on the three-part basis ``jl.x`` | ``j.x.y`` | ``jr.y``.

    The outer parts are copies of ``a`` and ``b``.  The joined cell ``j.x.y``
    has degree ``|x| + |y| + 1`` and ``d(j.x.y) = A + (-1)^(|x|+1) B``, where
    ``A`` is ``j.(dx).y``, or ``eps(x) jr.y`` when ``x`` is a vertex, and ``B``
    is ``j.x.(dy)``, or ``eps(y) jl.x`` when ``y`` is a vertex.
    :func:`join_pushout` is its oracle: its survivors sort in the same order.
    Each basis is its ``j`` pairs by ``(rank x, rank y)``, then its ``jl``
    and ``jr`` parts (``j`` < ``jl`` < ``jr``): already name order.
    """
    check_size(a.size + b.size + a.size * b.size)
    depth = _paired_depth(a, b) if a.size or b.size else 0
    outer, tables = _tagged_union([("jl", a), ("jr", b)])
    degrees: dict[int, list[Name]] = {}
    diff = dict(outer.diff)
    ranked_a, ranked_b = _ranked(a), _ranked(b)
    grid = _pair_grid("j", ranked_a, ranked_b)
    jl, jr = tables.get("jl", {}), tables.get("jr", {})
    columns = [(db, dy, jr[y], 0 if db else b.aug[y]) for db, y, dy in ranked_b]
    for (da, x, dx), row in zip(ranked_a, grid):
        left, eps_x = jl[x], 0 if da else a.aug[x]
        sign = 1 if da % 2 else -1
        for j, (db, dy, right, eps_y) in enumerate(columns):
            if da:
                terms = {grid[r][j]: c for r, c in dx}
            else:
                terms = {right: eps_x} if eps_x else {}
            if db:
                for r, c in dy:
                    terms[row[r]] = sign * c
            elif eps_y:
                terms[left] = sign * eps_y
            name = row[j]
            degrees.setdefault(da + db + 1, []).append(name)
            diff[name] = _adopt(da + db, terms)
    for deg, gens in outer.degrees.items():
        degrees.setdefault(deg, []).extend(gens)
    canonical = {deg: _Canonical(gens, depth) for deg, gens in degrees.items()}
    return BasedComplex(canonical, diff, outer.aug)


def antijoin(a: BasedComplex, b: BasedComplex) -> BasedComplex:
    """The co-dual join: ``(a^co * b^co)^co``."""
    return dual_co(join(dual_co(a), dual_co(b)))


def join_swap_iso_op(a: BasedComplex, b: BasedComplex) -> ComplexMap:
    """The isomorphism ``a^op * b^op -> (b * a)^op`` exchanging the two
    outer parts and swapping the joined pairs."""
    source = join(dual_op(a), dual_op(b))
    target = dual_op(join(b, a))

    def swap(g: Name) -> Name:
        if g[0] == "jl":
            return ("jr", g[1])
        if g[0] == "jr":
            return ("jl", g[1])
        return ("j", g[2], g[1])

    return basis_renaming_map(source, target, swap)


def suspension(a: BasedComplex) -> BasedComplex:
    """Shift ``a`` up one degree over two new poles ``b0``, ``b1``.

    ``d(s.x) = s.(dx)`` in degrees above one and ``eps(x) * (b1 - b0)`` on
    shifted vertices; this is the closed form of the quotient of the cylinder
    that collapses each end to a pole.  Each basis keeps the order of
    ``a``'s, with the poles (``b0`` < ``b1`` < ``s``) in degree zero.
    """
    depth = check_depth(1 + a._depth)
    poles = b0, b1 = ("b0",), ("b1",)
    degrees = {0: _Canonical(poles, depth)}
    diff: dict[Name, Chain] = {}
    aug = {b0: 1, b1: 1}
    new = {x: ("s", x) for x in a._gen_degree}
    for deg, gens in a.degrees.items():
        names = [new[x] for x in gens]
        degrees[deg + 1] = _Canonical(names, depth)
        for name, x in zip(names, gens):
            if deg == 0:
                diff[name] = Chain(0, {b1: a.aug[x], b0: -a.aug[x]})
            else:
                diff[name] = _adopt(
                    deg, {new[xp]: c for xp, c in a.diff[x]._coeffs.items()}
                )
    return BasedComplex(degrees, diff, aug)


def suspension_map(f: ComplexMap) -> ComplexMap:
    """Functoriality of the suspension: fix the poles, shift the assignment."""
    source = suspension(f.source)
    target = suspension(f.target)
    assignment: dict[Name, Chain] = {
        ("b0",): chain_of(0, ("b0",)),
        ("b1",): chain_of(0, ("b1",)),
    }
    for deg, x in f.source.all_generators():
        assignment[("s", x)] = _adopt(
            deg + 1, {("s", y): c for y, c in f.of_gen(x)._coeffs.items()}
        )
    return ComplexMap(source, target, assignment)


def suspension_pushout(a: BasedComplex) -> PushoutResult:
    """The defining pushout of the suspension (used as an oracle)."""

    def collapse_end(deg: int, gen: Name) -> Chain:
        _, x, end = gen
        return _eps_times(deg, end, a, x)

    return _collapse_pushout(
        gray_tensor(a, interval()),
        gray_tensor(a, two_points()),
        two_points(),
        collapse_end,
    )


def antisuspension(a: BasedComplex) -> BasedComplex:
    """The co-dual suspension ``S(a^co)^co``; differs from the suspension by
    a sign on differentials in degrees above one."""
    return dual_co(suspension(dual_co(a)))


def antisuspension_pushout(a: BasedComplex) -> PushoutResult:
    """The left-cylinder pushout presenting the antisuspension (the oracle
    for the mirror-image bicone presentation)."""

    def collapse_end(deg: int, gen: Name) -> Chain:
        _, end, x = gen
        return _eps_times(deg, end, a, x)

    return _collapse_pushout(
        gray_tensor(interval(), a),
        gray_tensor(two_points(), a),
        two_points(),
        collapse_end,
    )


def susp_coop_iso(a: BasedComplex) -> ComplexMap:
    """The identity of the underlying graded group as an isomorphism from the
    suspension of ``a`` to the antisuspension of ``a^coop``."""
    return basis_renaming_map(suspension(a), antisuspension(dual_coop(a)), lambda g: g)


# -- quotient maps between tensor, join, and suspension ------------------------


def p_map(a: BasedComplex) -> ComplexMap:
    """The quotient ``a (x) interval -> join(a, unit)`` collapsing the 1 end."""
    source = gray_tensor(a, interval())
    target = join(a, unit())
    assignment: dict[Name, Chain] = {}
    for deg, gen in source.all_generators():
        _, x, v = gen
        if v == ("i",):
            assignment[gen] = chain_of(deg, ("j", x, ("u",)))
        elif v == ("0",):
            assignment[gen] = chain_of(deg, ("jl", x))
        else:
            assignment[gen] = _eps_times(deg, ("jr", ("u",)), a, x)
    return ComplexMap(source, target, assignment)


def ell_map(a: BasedComplex) -> ComplexMap:
    """The quotient ``join(a, unit) -> suspension(a)`` collapsing the left
    part to the bottom pole."""
    source = join(a, unit())
    target = suspension(a)
    assignment: dict[Name, Chain] = {}
    for deg, gen in source.all_generators():
        if gen[0] == "jl":
            assignment[gen] = _eps_times(deg, ("b0",), a, gen[1])
        elif gen[0] == "jr":
            assignment[gen] = chain_of(0, ("b1",))
        else:
            assignment[gen] = chain_of(deg, ("s", gen[1]))
    return ComplexMap(source, target, assignment)


def q_susp_map(a: BasedComplex) -> ComplexMap:
    """The composite quotient ``a (x) interval -> suspension(a)``."""
    return compose(p_map(a), ell_map(a))


def left_p_map(a: BasedComplex) -> ComplexMap:
    """The quotient ``interval (x) a -> join(unit, a)`` collapsing the 0 end."""
    source = gray_tensor(interval(), a)
    target = join(unit(), a)
    assignment: dict[Name, Chain] = {}
    for deg, gen in source.all_generators():
        _, v, y = gen
        if v == ("i",):
            assignment[gen] = chain_of(deg, ("j", ("u",), y))
        elif v == ("1",):
            assignment[gen] = chain_of(deg, ("jr", y))
        else:
            assignment[gen] = _eps_times(deg, ("jl", ("u",)), a, y)
    return ComplexMap(source, target, assignment)
