"""Based augmented directed complexes over the integers, and their maps.

A :class:`BasedComplex` is a non-negatively graded chain complex of free
abelian groups with a chosen basis in every degree, an integer differential
given per generator, and an augmentation on degree zero.  The positivity
submonoid is always the natural-span of the basis and is never stored.
All coefficients are exact Python integers; nothing wraps or rounds.

Values are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import os
import re
from functools import lru_cache, wraps
from itertools import islice
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .names import _SHOWN_BITS, Name, check_depth, check_name, name_depth, name_key
from .names import render_name, shown

DEFAULT_MAX_GENERATORS = 100_000

# CPython refuses int<->str conversions above 4300 digits by default; longer
# values go through base-10**4000 chunks, each well below that limit.
_CHUNK_DIGITS = 4000
_CHUNK = 10**_CHUNK_DIGITS
_DECIMAL = re.compile(r"[+-]?[0-9]+")


class SteinerlabError(Exception):
    """Base error; ``code`` is the stable machine-readable identifier."""

    code = "ERROR"

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class MalformedError(SteinerlabError):
    code = "MALFORMED"


class DegreeMismatchError(SteinerlabError):
    code = "DEGREE_MISMATCH"


class CompositionError(SteinerlabError):
    code = "SOURCE_TARGET_MISMATCH"


class SizeLimitError(SteinerlabError):
    code = "SIZE_LIMIT"


class NameDepthError(SteinerlabError, ValueError):
    """A name nested past ``names.MAX_NAME_DEPTH``; a ``ValueError`` too, so a
    parser that reports bad name text reports this the same way."""

    code = "NAME_DEPTH"


def max_generators() -> int:
    raw = os.environ.get("STEINERLAB_MAX_GENERATORS")
    if raw is None:
        return DEFAULT_MAX_GENERATORS
    try:
        return int(raw)
    except ValueError as exc:
        raise SizeLimitError(f"bad STEINERLAB_MAX_GENERATORS value {shown(raw)}") from exc


def check_size(total: int) -> None:
    """Refuse a complex of ``total`` generators over the limit, before it is built."""
    if total > max_generators():
        _refuse_size(shown(total))


def _check_size_at_least(bits: int) -> None:
    """Refuse a complex of at least ``2**bits`` generators from ``bits`` alone,
    when that bound passes the limit and its total would not be shown exactly."""
    if bits >= _SHOWN_BITS and bits >= max_generators().bit_length():
        _refuse_size("at least 2**" + shown(bits))


def _refuse_size(count: str) -> None:
    raise SizeLimitError(
        f"complex with {count} generators exceeds STEINERLAB_MAX_GENERATORS"
    )


def _sized_memo(refuse: Callable[[int], None]):
    """Memoize a builder of one dimension behind ``refuse(n)``, which runs on
    every call, a memo hit included, so a limit lowered later still holds."""

    def decorate(build):
        memo = lru_cache(maxsize=None)(build)

        @wraps(build)
        def sized(n: int):
            refuse(n)
            return memo(n)

        sized.cache_clear = memo.cache_clear
        return sized

    return decorate


def _int_to_text(value: int) -> str:
    """``str(value)`` for an integer of any size."""
    if value.bit_length() <= 13_000:  # at most 3914 digits
        return str(value)
    sign, value = ("-", -value) if value < 0 else ("", value)
    chunks: list[str] = []
    while value:
        value, low = divmod(value, _CHUNK)
        chunks.append(str(low).zfill(_CHUNK_DIGITS))
    return sign + "".join(reversed(chunks)).lstrip("0")


def _text_to_int(text: str) -> int:
    """``int(text)`` for a decimal string (optional sign, ASCII digits) of any length."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError("not a decimal integer")
    if len(text) <= _CHUNK_DIGITS:
        return int(text)
    digits = text.lstrip("+-")
    first = len(digits) % _CHUNK_DIGITS or _CHUNK_DIGITS
    value = int(digits[:first])
    for start in range(first, len(digits), _CHUNK_DIGITS):
        value = value * _CHUNK + int(digits[start : start + _CHUNK_DIGITS])
    return -value if text[0] == "-" else value


def _short_int(text: str) -> int:
    """As :func:`_text_to_int`, for at most 4000 digits: dimensions and degrees."""
    if len(text) > _CHUNK_DIGITS:
        raise ValueError("over 4000 digits")
    return _text_to_int(text)


def add_scaled(total: dict, terms: Mapping, scale: int) -> None:
    """Add ``scale * terms`` into the sparse map ``total``, dropping zeros."""
    for key, value in terms.items():
        total[key] = total.get(key, 0) + scale * value
        if not total[key]:
            del total[key]


class Chain:
    """Homogeneous integer chain: a degree and a sparse generator->coefficient map.

    Zero coefficients are never stored.  Chains are immutable.  ``Chain(...)``
    copies and checks its coefficients; chains the library derives from
    chains already reduced (sums, multiples, renamings, splits) take their
    dict as is through :func:`_adopt`.
    """

    __slots__ = ("degree", "_coeffs")

    def __init__(self, degree: int, coeffs: dict[Name, int] | None = None):
        if degree < 0:
            raise MalformedError(f"chain degree must be >= 0, got {shown(degree)}")
        data: dict[Name, int] = {}
        for name, coeff in (coeffs or {}).items():
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise MalformedError(f"non-integer coefficient {coeff!r} on {name!r}")
            if coeff:
                data[name] = coeff
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_coeffs", data)

    def __setattr__(self, *args):  # pragma: no cover - guard
        raise AttributeError("Chain is immutable")

    def items(self) -> list[tuple[Name, int]]:
        return sorted(self._coeffs.items(), key=lambda kv: name_key(kv[0]))

    def coeff(self, name: Name) -> int:
        return self._coeffs.get(name, 0)

    def support(self) -> list[Name]:
        return sorted(self._coeffs, key=name_key)

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_nonnegative(self) -> bool:
        return all(c > 0 for c in self._coeffs.values())

    def __add__(self, other: "Chain") -> "Chain":
        if self.degree != other.degree:
            raise DegreeMismatchError(
                f"cannot add chains of degree {self.degree} and {other.degree}"
            )
        data = dict(self._coeffs)
        add_scaled(data, other._coeffs, 1)
        return _adopt(self.degree, data)

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-1) * other

    def __rmul__(self, scalar: int) -> "Chain":
        if not isinstance(scalar, int):
            return NotImplemented
        if not scalar:
            return Chain(self.degree)
        return _adopt(self.degree, {n: scalar * c for n, c in self._coeffs.items()})

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Chain)
            and self.degree == other.degree
            and self._coeffs == other._coeffs
        )

    def __hash__(self) -> int:
        return hash((self.degree, frozenset(self._coeffs.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return f"<0 (deg {self.degree})>"
        terms = " ".join(
            f"{'+' if c > 0 else '-'}{_int_to_text(abs(c)) if abs(c) != 1 else ''}{render_name(n)}"
            for n, c in self.items()
        )
        return f"<{terms} (deg {self.degree})>"


_new_object = object.__new__
_set_field = object.__setattr__


def _adopt(degree: int, coeffs: dict[Name, int]) -> Chain:
    """The chain holding ``coeffs`` itself, neither copied nor checked: the
    caller owns the dict, the degree is valid and every value is a non-zero
    ``int``."""
    chain = _new_object(Chain)
    _set_field(chain, "degree", degree)
    _set_field(chain, "_coeffs", coeffs)
    return chain


def chain_of(degree: int, name: Name, coeff: int = 1) -> Chain:
    if degree >= 0 and type(coeff) is int and coeff:
        return _adopt(degree, {name: coeff})
    return Chain(degree, {name: coeff})


def _sum_images(terms: Mapping[Name, int], images: Mapping[Name, Chain]) -> dict[Name, int]:
    """The sum of ``coeff * images[name]._coeffs`` over ``terms``, as one
    dict with zeros dropped.  Each image is read only when a term reaches
    it, and no chain is built."""
    total: dict[Name, int] = {}
    for name, coeff in terms.items():
        add_scaled(total, images[name]._coeffs, coeff)
    return total


def _refuse_strays(chain: Chain, gen_degree: Mapping[Name, int]) -> None:
    """Refuse ``chain`` at its least term (by ``name_key``) that is not a
    generator of its degree in ``gen_degree``, a complex's ``_gen_degree``."""
    degree = chain.degree
    stray = [g for g in chain._coeffs if gen_degree.get(g) != degree]
    if stray:
        term, degree = shown(_least(stray)), shown(degree)
        raise MalformedError(f"chain term {term} is not a degree {degree} generator")


def _least(stray: Iterable[object]) -> Name:
    """The ``name_key``-least of the stray keys a refusal names; a key that
    is not a name is refused first, by :func:`check_name`."""
    return min(map(check_name, stray), key=name_key)


def _depth_below(bases: Iterable[Iterable[Name]], ceiling: int) -> int:
    """How deep the deepest name of ``bases`` nests, known to be at most
    ``ceiling``: the scan stops at the first name that deep."""
    depth = 0
    for basis in bases:
        for g in basis:
            depth = max(depth, name_depth(g))
            if depth == ceiling:
                return depth
    return depth


class _Record:
    """An immutable record over ``__slots__``, the fields in slot order.

    A subclass lists its fields in ``__slots__`` and sets each once in its
    ``__init__`` with ``_set_field``.  Two records are equal when they are of
    one class and their fields are equal; hash and repr follow the fields, and
    assigning or deleting a field raises ``AttributeError``.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        # ``record._values(record)``: its fields as one tuple, in slot order
        cls._values = staticmethod(
            get if len(cls.__slots__) > 1 else lambda record: (get(record),)
        )

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class CheckItem(_Record):
    __slots__ = ("name", "passed", "witness")

    def __init__(self, name: str, passed: bool, witness: Optional[str] = None):
        _set_field(self, "name", name)
        _set_field(self, "passed", passed)
        _set_field(self, "witness", witness)


class CheckReport(_Record):
    """Outcome of a verification suite; ``passed`` iff every item passed."""

    __slots__ = ("checks",)

    def __init__(self, checks: tuple[CheckItem, ...]):
        _set_field(self, "checks", checks)

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.checks)

    def failures(self) -> list[CheckItem]:
        return [item for item in self.checks if not item.passed]

    def merged(self, other: "CheckReport") -> "CheckReport":
        return CheckReport(self.checks + other.checks)

    def lines(self) -> list[str]:
        out = []
        for item in self.checks:
            status = "pass" if item.passed else "FAIL"
            extra = f"  [{item.witness}]" if item.witness and not item.passed else ""
            out.append(f"{status}  {item.name}{extra}")
        return out


def report(*checks: CheckItem) -> CheckReport:
    return CheckReport(tuple(checks))


class _Canonical(tuple):
    """A basis already in canonical (``name_key``) order, of checked names
    nested at most ``depth`` levels: :class:`BasedComplex` takes it as it is.

    Constructors whose output order follows from their inputs' orders build
    their bases this way and refuse ``depth`` before building a name.
    """

    def __new__(cls, gens: Iterable[Name], depth: int):
        basis = super().__new__(cls, gens)
        basis.depth = depth
        return basis


class BasedComplex:
    """Finitely based augmented directed complex.

    ``degrees`` maps each non-empty degree to its canonically sorted basis,
    ``diff`` gives the differential of every generator of positive degree
    (a missing one is refused; a zero one is the zero chain),
    ``aug`` the augmentation of every degree-zero generator.  ``degrees``,
    ``_gen_degree`` and :meth:`all_generators` share one order, built once:
    ascending degree, then basis; readers take it unsorted.  Construction
    checks structural well-formedness only; run :func:`validate_complex`
    for the chain-complex axioms.  A basis given as a plain iterable has its
    names checked and is sorted by ``name_key``; one handed over by a derived
    constructor (tensor, join, suspension, duals, coproduct) or by ``parse``
    is already in that order and skips both.  Every other check runs either way.
    """

    __slots__ = ("degrees", "diff", "aug", "_gen_degree", "_depth")

    def __init__(
        self,
        degrees: Mapping[int, Iterable[Name]],
        diff: Mapping[Name, Chain],
        aug: Mapping[Name, int],
    ):
        deg_map: dict[int, tuple[Name, ...]] = {}
        gen_degree: dict[Name, int] = {}
        total = depth = 0
        for degree in sorted(degrees):
            basis = degrees[degree]
            if type(basis) is _Canonical:
                gens = basis
                if gens:
                    depth = max(depth, basis.depth)
            else:
                gens = list(basis)
                for g in gens:
                    depth = max(depth, name_depth(g))
                gens.sort(key=name_key)
            if not gens:
                continue
            if degree < 0:
                raise MalformedError(f"negative degree {shown(degree)}")
            for g in gens:
                if g in gen_degree:
                    raise MalformedError(f"duplicate generator {shown(g)}")
                gen_degree[g] = degree
            deg_map[degree] = tuple(gens)
            total += len(gens)
        check_size(total)
        diff_map: dict[Name, Chain] = {}
        for g, chain in diff.items():
            degree = gen_degree.get(g)
            if degree is None:
                raise MalformedError(f"differential on unknown generator {shown(g)}")
            if degree == 0:
                raise MalformedError(f"differential on degree-0 generator {shown(g)}")
            if chain.degree != degree - 1:
                raise MalformedError(
                    f"differential of {shown(g)} has degree {chain.degree},"
                    f" expected {degree - 1}"
                )
            stray = [h for h in chain._coeffs if gen_degree.get(h) != degree - 1]
            if stray:
                raise MalformedError(
                    f"differential of {shown(g)} has stray term {shown(_least(stray))}"
                )
            diff_map[g] = chain
        for degree, gens in deg_map.items():
            if degree >= 1:
                for g in gens:
                    if g not in diff_map:
                        raise MalformedError(f"missing differential for {shown(g)}")
        aug_map: dict[Name, int] = {}
        for g in deg_map.get(0, ()):
            value = aug.get(g)
            if value is None:
                raise MalformedError(f"missing augmentation for {shown(g)}")
            if not isinstance(value, int) or isinstance(value, bool):
                raise MalformedError(
                    f"non-integer augmentation {value!r} on {shown(g)}"
                )
            aug_map[g] = value
        for g in aug:
            if gen_degree.get(g) != 0:
                raise MalformedError(f"augmentation on non-vertex {shown(g)}")
        object.__setattr__(self, "degrees", deg_map)
        object.__setattr__(self, "diff", diff_map)
        object.__setattr__(self, "aug", aug_map)
        object.__setattr__(self, "_gen_degree", gen_degree)
        object.__setattr__(self, "_depth", depth)

    def __setattr__(self, *args):  # pragma: no cover - guard
        raise AttributeError("BasedComplex is immutable")

    # -- queries ---------------------------------------------------------

    def generators(self, degree: int) -> tuple[Name, ...]:
        return self.degrees.get(degree, ())

    def all_generators(self) -> Iterator[tuple[int, Name]]:
        for g, degree in self._gen_degree.items():
            yield degree, g

    def degree_of(self, name: Name) -> int:
        try:
            return self._gen_degree[name]
        except KeyError:
            raise MalformedError(f"unknown generator {shown(name)}") from None

    def has_generator(self, name: Name) -> bool:
        return name in self._gen_degree

    @property
    def top_degree(self) -> int:
        if not self.degrees:
            raise MalformedError("empty complex has no top degree", code="EMPTY")
        return max(self.degrees)

    @property
    def size(self) -> int:
        return len(self._gen_degree)

    def d(self, chain: Chain) -> Chain:
        """Differential, extended linearly; degree-0 chains and strays are refused."""
        if chain.degree == 0:
            raise DegreeMismatchError("no differential in degree 0", code="DEGREE_ZERO")
        _refuse_strays(chain, self._gen_degree)
        return _adopt(chain.degree - 1, _sum_images(chain._coeffs, self.diff))

    def eps(self, chain: Chain) -> int:
        if chain.degree != 0:
            raise DegreeMismatchError("augmentation applies to degree-0 chains")
        _refuse_strays(chain, self._gen_degree)
        return sum(coeff * self.aug[name] for name, coeff in chain._coeffs.items())

    def renamed(self, rename: Callable[[Name], Name]) -> "BasedComplex":
        """Apply a bijective renaming to every generator."""
        table: dict[Name, Name] = {}
        for _, g in self.all_generators():
            table[g] = check_name(rename(g))
        if len(set(table.values())) != len(table):
            raise MalformedError("renaming is not injective")
        return _glued([(self, table)])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BasedComplex)
            and self.degrees == other.degrees
            and self.diff == other.diff
            and self.aug == other.aug
        )

    def __hash__(self) -> int:
        return hash(tuple(self.degrees.items()))

    def __repr__(self) -> str:
        counts = ", ".join(f"{d}:{len(g)}" for d, g in self.degrees.items())
        return f"<BasedComplex {{{counts}}}>"


def _glued(parts: Iterable[tuple[BasedComplex, Mapping[Name, Name]]]) -> BasedComplex:
    """The complexes of ``parts``, each renamed through its table, as one
    complex; a name that two tables give is one generator."""
    degrees: dict[int, list[Name]] = {}
    diff: dict[Name, Chain] = {}
    aug: dict[Name, int] = {}
    for c, table in parts:
        for deg, g in c.all_generators():
            new = table[g]
            if new in diff or new in aug:  # named by an earlier part
                continue
            degrees.setdefault(deg, []).append(new)
            if deg:
                terms = c.diff[g]._coeffs.items()
                diff[new] = _adopt(deg - 1, {table[h]: k for h, k in terms})
            else:
                aug[new] = c.aug[g]
    return BasedComplex(degrees, diff, aug)


class ComplexMap:
    """Degreewise integer map between based complexes, given on generators.
    ``_table`` is ``None`` except on a :func:`_renaming`, whose name table it
    keeps for readers that skip its one-term chains; equality, hash, repr
    and ``assignment`` ignore it."""

    __slots__ = ("source", "target", "assignment", "_table")

    def __init__(
        self,
        source: BasedComplex,
        target: BasedComplex,
        assignment: Mapping[Name, Chain],
    ):
        asg: dict[Name, Chain] = {}
        target_degree = target._gen_degree.get
        for degree, gens in source.degrees.items():  # ascending, as built
            for g in gens:
                chain = assignment.get(g)
                if chain is None:
                    raise MalformedError(f"no assignment for generator {shown(g)}")
                if chain.degree != degree:
                    raise DegreeMismatchError(
                        f"assignment of {shown(g)} has degree {chain.degree},"
                        f" expected {degree}"
                    )
                stray = [h for h in chain._coeffs if target_degree(h) != degree]
                if stray:
                    _refuse_image(g, stray)
                asg[g] = chain
        if len(assignment) > len(asg):
            extra = _least(g for g in assignment if g not in asg)
            raise MalformedError(f"assignment for unknown generator {shown(extra)}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "assignment", asg)
        object.__setattr__(self, "_table", None)

    def __setattr__(self, *args):  # pragma: no cover - guard
        raise AttributeError("ComplexMap is immutable")

    def __call__(self, chain: Chain) -> Chain:
        _refuse_strays(chain, self.source._gen_degree)
        return _adopt(chain.degree, _sum_images(chain._coeffs, self.assignment))

    def of_gen(self, name: Name) -> Chain:
        return self.assignment[name]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ComplexMap)
            and self.source == other.source
            and self.target == other.target
            and self.assignment == other.assignment
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target))

    def __repr__(self) -> str:
        return f"<ComplexMap {self.source!r} -> {self.target!r}>"


def _refuse_image(g: Name, stray: list) -> None:
    raise MalformedError(f"assignment of {shown(g)} has stray term {shown(_least(stray))}")


def _adopt_map(
    source: BasedComplex, target: BasedComplex, assignment: dict[Name, Chain], table=None
) -> ComplexMap:
    """The map holding ``assignment`` itself, unchecked: only for maps derived
    from checked data, whose assignment is in source basis order."""
    f = _new_object(ComplexMap)
    for field, value in zip(ComplexMap.__slots__, (source, target, assignment, table)):
        _set_field(f, field, value)
    return f


def _renaming(source: BasedComplex, target: BasedComplex, table: dict[Name, Name]) -> ComplexMap:
    """The map sending each source generator ``g`` to ``table[g]``, keeping
    ``table`` (keyed by exactly the source generators) as its ``_table``.
    One check in source basis order: each value must be a target generator
    of its source generator's degree, refused as :class:`ComplexMap` does."""
    target_degree = target._gen_degree.get
    images: dict[Name, Chain] = {}
    shared: dict[Name, Chain] = {}
    for g, degree in source._gen_degree.items():
        h = table[g]
        if target_degree(h) != degree:
            _refuse_image(g, [h])
        chain = shared.get(h)
        if chain is None:  # sources that share an image share its chain
            chain = shared[h] = _adopt(degree, {h: 1})
        images[g] = chain
    return _adopt_map(source, target, images, table)


# -- operations ------------------------------------------------------------


def _first_failure(name: str, witnesses: Iterable[str]) -> CheckItem:
    """The item ``name``, failing at the first witness ``witnesses`` yields
    (taking nothing past it), or passing when it yields none."""
    witness = next(iter(witnesses), None)
    return CheckItem(name, witness is None, witness)


def _summary(name: str, *reports: CheckReport) -> CheckItem:
    """The item ``name`` over ``reports``: it passes iff every report passes,
    and fails at the first failing item of the first failing report, shown as
    ``NAME at WITNESS``, or ``NAME`` alone when that item has no witness."""
    failing = (item for sub in reports for item in sub.checks if not item.passed)
    return _first_failure(
        name, (f"{i.name} at {i.witness}" if i.witness else i.name for i in failing)
    )


def _positions(c: BasedComplex) -> dict[Name, int]:
    """Each generator's position: its place in ``c._gen_degree``, that is
    degree, then basis order.  The one numbering of generators; built once
    per call that needs it, never kept."""
    return {g: i for i, g in enumerate(c._gen_degree)}


def _position_rows(c: BasedComplex) -> list[dict[int, int]]:
    """Each generator's differential as ``{position: coeff}``, by
    :func:`_positions`.  A vertex's row is empty."""
    position = _positions(c)
    diff = c.diff
    return [
        {position[h]: k for h, k in diff[g]._coeffs.items()} if degree else {}
        for g, degree in c._gen_degree.items()
    ]


def _d2_failures(c: BasedComplex, rows: list[dict[int, int]]) -> Iterator[Name]:
    """Each generator whose d(d g) is not zero, in basis order; d(d g) is
    summed over the rows of ``c`` in one dict per generator, from the first
    position of degree two: below it, d(d g) has no term."""
    for i in range(len(c.generators(0)) + len(c.generators(1)), len(rows)):
        total: dict[int, int] = {}
        for j, coeff in rows[i].items():
            for k, v in rows[j].items():
                total[k] = total.get(k, 0) + coeff * v
        if any(total.values()):
            yield next(islice(c._gen_degree, i, None))  # the witness's name


def validate_complex(c: BasedComplex) -> CheckReport:
    """Check d∘d = 0, ε∘d₁ = 0, and ε ≥ 0 on vertices, with witnesses."""
    return _validity(c, _position_rows(c))


def _validity(c: BasedComplex, rows: list[dict[int, int]]) -> CheckReport:
    """:func:`validate_complex`, over the rows :func:`_position_rows` gives."""
    unbalanced = (g for g in c.generators(1) if c.eps(c.diff[g]) != 0)
    negative = (g for g in c.generators(0) if c.aug[g] < 0)
    return report(
        _first_failure("D2_ZERO", map(render_name, _d2_failures(c, rows))),
        _first_failure("AUG_KILLS_D1", map(render_name, unbalanced)),
        _first_failure("AUG_NONNEGATIVE", map(render_name, negative)),
    )


def validate_map(f: ComplexMap) -> CheckReport:
    """Check the chain rule ``f(d g) = d(f g)``, augmentation preservation,
    and positivity, each failing at its first generator in basis order.
    Both sides of the chain rule are coefficient dicts summed by
    :func:`_sum_images`; no chain is built."""
    source, images = f.source, f.assignment
    source_diff, target_diff, target_aug = source.diff, f.target.diff, f.target.aug
    unchained = (
        g
        for degree, g in source.all_generators()
        if degree
        and _sum_images(source_diff[g]._coeffs, images)
        != _sum_images(images[g]._coeffs, target_diff)
    )
    moved = (
        g
        for g in source.generators(0)
        if sum(k * target_aug[h] for h, k in images[g]._coeffs.items()) != source.aug[g]
    )
    negative = (
        g for _, g in source.all_generators() if min(images[g]._coeffs.values(), default=1) <= 0
    )
    return report(
        _first_failure("CHAIN_RULE", map(render_name, unchained)),
        _first_failure("AUG_PRESERVED", map(render_name, moved)),
        _first_failure("POSITIVITY", map(render_name, negative)),
    )


def identity_map(c: BasedComplex) -> ComplexMap:
    return ComplexMap(
        c, c, {g: chain_of(deg, g) for deg, g in c.all_generators()}
    )


def compose(f: ComplexMap, g: ComplexMap) -> ComplexMap:
    """The composite "first f, then g"; requires target(f) = source(g)."""
    if f.target != g.source:
        raise CompositionError("target of first map differs from source of second")
    return ComplexMap(
        f.source,
        g.target,
        {name: g(chain) for name, chain in f.assignment.items()},
    )


def coproduct(parts: Iterable[tuple[Name, BasedComplex]]) -> BasedComplex:
    """Degreewise disjoint union of tagged complexes; names become ``(tag, gen)``.

    Each basis is the parts' bases concatenated in tag order, which is name
    order when the tags of non-empty parts differ."""
    return _tagged_union(parts)[0]


def _tagged_union(
    parts: Iterable[tuple[Name, BasedComplex]],
) -> tuple[BasedComplex, dict[Name, dict[Name, Name]]]:
    """:func:`coproduct`, and for each tag of a non-empty part the table
    from that part's generators to their names in the union (the last such
    part's when two share a tag)."""
    parts = [(tag, part) for tag, part in parts if part.size]
    depth = 0
    for tag, part in parts:
        depth = max(depth, name_depth((tag,)), 1 + part._depth)
    check_depth(depth)
    parts.sort(key=lambda tagged: name_key((tagged[0],)))
    degrees: dict[int, list[Name]] = {}
    diff: dict[Name, Chain] = {}
    aug: dict[Name, int] = {}
    tables: dict[Name, dict[Name, Name]] = {}
    for tag, part in parts:
        new = tables[tag] = {g: (tag, g) for g in part._gen_degree}
        for deg, gens in part.degrees.items():
            names = [new[g] for g in gens]
            degrees.setdefault(deg, []).extend(names)
            if deg == 0:
                aug.update(zip(names, (part.aug[g] for g in gens)))
                continue
            for name, g in zip(names, gens):
                diff[name] = _adopt(
                    deg - 1, {new[h]: c for h, c in part.diff[g]._coeffs.items()}
                )
    if len(tables) == len(parts):
        degrees = {deg: _Canonical(gens, depth) for deg, gens in degrees.items()}
    return BasedComplex(degrees, diff, aug), tables


def direct_sum(a: BasedComplex, b: BasedComplex) -> BasedComplex:
    """Degreewise disjoint union with summand-tagged names ``l``/``r``."""
    return coproduct([("l", a), ("r", b)])


def graded_counts(c: BasedComplex) -> dict[int, int]:
    return {deg: len(gens) for deg, gens in c.degrees.items()}


def equal_presentation(a: BasedComplex, b: BasedComplex) -> bool:
    """Equality up to the canonical order-preserving renaming by position."""
    if graded_counts(a) != graded_counts(b):
        return False
    table = {x: y for (_, x), (_, y) in zip(a.all_generators(), b.all_generators())}
    return _glued([(a, table)]) == b


def verify_mutually_inverse(f: ComplexMap, g: ComplexMap) -> CheckReport:
    """Pass iff "first f, then g" and "first g, then f" are both identities;
    each fails at the first generator in basis order not sent to itself.
    Each composite image is a coefficient dict summed by :func:`_sum_images`;
    no composite map is built."""
    if f.source != g.target or f.target != g.source:
        raise CompositionError("maps are not a candidate inverse pair")
    return report(
        _first_failure("LEFT_THEN_RIGHT_IS_ID", _moved(f, g)),
        _first_failure("RIGHT_THEN_LEFT_IS_ID", _moved(g, f)),
    )


def _moved(f: ComplexMap, g: ComplexMap) -> Iterator[str]:
    """Each source generator of ``f``, in basis order and rendered, that
    "first f, then g" does not send to itself; ``g.source`` is ``f.target``."""
    images, after = f.assignment, g.assignment
    for _, x in f.source.all_generators():
        if _sum_images(images[x]._coeffs, after) != {x: 1}:
            yield render_name(x)


def sole_generator(chain: Chain) -> Name:
    """The generator of a chain that is one generator with coefficient one;
    raises :class:`MalformedError` on any other chain."""
    items = list(chain._coeffs.items())
    if len(items) != 1 or items[0][1] != 1:
        support = " ".join(render_name(n) for n in chain.support())
        raise MalformedError(f"not one generator with coefficient 1: [{support}]")
    return items[0][0]


def _bijection(f: ComplexMap) -> dict[Name, Name]:
    """The generator each source generator goes to, for ``f`` sending the
    bases bijectively, generator to generator; else :class:`MalformedError`.
    A renaming's ``_table`` is read as it is."""
    table = f._table
    if table is None:
        table = {g: sole_generator(chain) for g, chain in f.assignment.items()}
    if len(set(table.values())) != f.target.size or len(table) != f.target.size:
        raise MalformedError("map is not bijective on bases")
    return table


def invert_basis_bijection(f: ComplexMap) -> ComplexMap:
    """Invert a map that sends each generator to a single generator with
    coefficient one.  Raises if ``f`` is not of that shape or not bijective."""
    return _renaming(f.target, f.source, {h: g for g, h in _bijection(f).items()})


def basis_renaming_map(
    source: BasedComplex, target: BasedComplex, rename: Callable[[Name], Name]
) -> ComplexMap:
    """The map sending each source generator to its renamed target generator."""
    return _renaming(source, target, {g: rename(g) for g in source._gen_degree})
