"""Exact 1-D interval abstractions for translation dynamics on a segment.

The concrete plant moves by plain translation, x' = x + u, on a bounded
segment of the rational line.  All arithmetic is exact, on integers scaled
by the cover's common denominator d: a cover is its integer rows, and its
``Fraction`` cells, like the ``Fraction`` images of error messages, are built
only where something reads them.  The separating examples hinge on whether
images touch the single point 0, which floating point cannot be trusted with.

Cells carry open/closed endpoint flags, and every decision reads them as
cuts.  A cut (v, s) compares as a tuple: s = 0 is the point v itself, s = +1
just above v (an open lower end), s = -1 just below v (an open upper end).
A cell is every cut from its lower cut to its upper cut, both included.

Abstract inputs are affine state-feedback laws u = gain * x + offset that act
on a whole cell; the closed-loop map is then x -> σx + c with σ = 1 + gain =
σn/σd and c = offset = cn/cd.  ``AffineMap`` makes the law's integer form
A = σn·cd, B = cn·σd, D = σd·cd > 0 once, and x -> (A·x + B)/D: a plant step
is three integer products and one reduced ``Fraction``.  It sends the cut at
k/d to (A·k + B·d)/D times 1/d, so each image cut is keyed with one
``divmod``.  A negative A swaps the two cuts and negates their sides, and
A = 0 (gain -1) is the closed point c.  An affine map sends a cell onto
exactly its image interval, so the memoryless containment condition over all
points of a cell is one inclusion between quantizations: the checks below
are exact without sampling.

Feedback refinement applies one input to a whole cell, here a constant shift.
``constant_shift_abstraction`` holds every such shift at once: one input per
class of shifts that the cover's endpoints do not tell apart.  Reach-avoid
synthesis on it decides whether any controller constant on each cell meets
a goal.  The fig8 scenario at the end
shows the gap between the two: no constant shift reaches the origin, while
affine feedback does in one step.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .core import ContractError, DomainError, FiniteTransitionSystem, ReachAvoidSpec


class OutOfDomainError(ContractError):
    """A point or image interval escapes the covered segment."""


Rational = Fraction | int


def _frac(value: Rational) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class IntervalCell:
    """Rational interval with endpoint flags; a single point is the closed
    degenerate case lo == hi.  Cuts: lower (lo, 0), or (lo, +1) if open;
    upper (hi, 0), or (hi, -1) if open; x is inside iff lower <= (x, 0) <= upper."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", _frac(self.lo))
        object.__setattr__(self, "hi", _frac(self.hi))
        if self.lo > self.hi:
            raise ContractError(f"empty interval: lo {self.lo} > hi {self.hi}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ContractError("a point cell must be closed on both sides")

    @staticmethod
    def point(value: Rational) -> "IntervalCell":
        v = _frac(value)
        return IntervalCell(v, v, True, True)

    def is_point(self) -> bool:
        return self.lo == self.hi

    def describe(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        if self.is_point():
            return f"{{{self.lo}}}"
        return f"{left}{self.lo}, {self.hi}{right}"


def _key(n: int, den: int, side: int) -> int:
    """Integer key over the denominator d of the cut (v, side) with v·d =
    n/den, in the order of the cuts at multiples of 1/d: 2·v·d + side when
    den divides n, else the open gap 2·floor(v·d) + 1 between two multiples."""
    m, rest = divmod(n, den)
    return 2 * m + 1 if rest else 2 * m + side


@dataclass(frozen=True)
class AffineMap:
    """Feedback law u = gain * x + offset; ``_form`` is its (A, B, D), made once."""

    gain: Fraction
    offset: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "gain", _frac(self.gain))
        object.__setattr__(self, "offset", _frac(self.offset))
        (g, g_den), (c, c_den) = self.gain.as_integer_ratio(), self.offset.as_integer_ratio()
        object.__setattr__(self, "_form", ((g + g_den) * c_den, c * g_den, g_den * c_den))

    def apply(self, x: Rational) -> Fraction:
        """u at x = n/m: ((A - D)·n + B·m)/(D·m), one reduced ``Fraction``."""
        (a, b, den), (n, m) = self._form, _frac(x).as_integer_ratio()
        return Fraction((a - den) * n + b * m, den * m)

    def closed_loop(self, x: Rational) -> Fraction:
        """Next plant state x + u at x = n/m: (A·n + B·m)/(D·m), one gcd."""
        (a, b, den), (n, m) = self._form, _frac(x).as_integer_ratio()
        return Fraction(a * n + b * m, den * m)


@dataclass(frozen=True)
class AbstractInput:
    """Named abstract input carrying its feedback law, so interfaces never
    need a stored table: the concrete input at x is just law.apply(x)."""

    name: str
    law: AffineMap


Row = tuple[str, int, int, bool, int, int, bool]


@dataclass(frozen=True, slots=True, init=False)
class CellCover:
    """Ordered list of named cells; may overlap, may leave gaps, must not be
    empty.

    A cover is its integer rows: per name, the cuts (k_lo, s_lo, k_hi, s_hi),
    k = v·d exact over the common denominator d of the endpoints.  A cut's
    key is 2k + s, so a cell is exactly the integers between its keys and an
    odd key is the open gap between two multiples of 1/d.  The cells are
    sorted by lower key once, in O(n log n), beside the running maximum of
    their upper keys; the extreme keys are the hull.  Keys grow with the
    number of distinct denominators, not of cells.  ``cells``, ``cell()``
    and ``hull()`` are ``Fraction`` views, built when they are read.
    """

    names: tuple[str, ...]
    _scale: int = field(repr=False)
    _int_cuts: dict[str, tuple[int, int, int, int]] = field(hash=False, repr=False)
    _names: tuple[str, ...] = field(compare=False, repr=False)
    _los: tuple[int, ...] = field(compare=False, repr=False)
    _his: tuple[int, ...] = field(compare=False, repr=False)
    _max_hi: tuple[int, ...] = field(compare=False, repr=False)
    _cells: tuple[tuple[str, IntervalCell], ...] | None = field(compare=False, repr=False)

    def __init__(self, cells: Iterable[tuple[str, IntervalCell]]) -> None:
        self._index((str(name), *cell.lo.as_integer_ratio(), cell.lo_closed,
                     *cell.hi.as_integer_ratio(), cell.hi_closed) for name, cell in cells)

    @classmethod
    def _from_rows(cls, rows: Iterable[Row]) -> CellCover:
        """The decoder's entry: (name, lo_n, lo_d, lo_closed, hi_n, hi_d,
        hi_closed) rows, endpoints in lowest terms with positive
        denominators."""
        cover = cls.__new__(cls)
        cover._index(rows)
        return cover

    def _index(self, rows: Iterable[Row]) -> None:
        """Check each row before the next is read, then the cover; index it."""
        checked = []
        for row in rows:
            _, lo_n, lo_d, lo_closed, hi_n, hi_d, hi_closed = row
            if lo_n * hi_d > hi_n * lo_d or row[1:3] == row[4:6] and not (lo_closed and hi_closed):
                # An empty cell or an open point: IntervalCell raises its error.
                IntervalCell(Fraction(lo_n, lo_d), Fraction(hi_n, hi_d), lo_closed, hi_closed)
            checked.append(row)
        if not checked:
            raise ContractError("a cover needs at least one cell")
        d = lcm(*{den for row in checked for den in (row[2], row[5])})
        int_cuts = {name: (lo_n * (d // lo_d), 0 if lo_closed else 1,
                           hi_n * (d // hi_d), 0 if hi_closed else -1)
                    for name, lo_n, lo_d, lo_closed, hi_n, hi_d, hi_closed in checked}
        if len(int_cuts) != len(checked):
            raise ContractError("cell names must be unique")
        los, his, names = zip(*sorted(
            (2 * k_lo + s_lo, 2 * k_hi + s_hi, name)
            for name, (k_lo, s_lo, k_hi, s_hi) in int_cuts.items()
        ))
        for attr, value in (("names", tuple(int_cuts)), ("_scale", d), ("_int_cuts", int_cuts),
                            ("_names", names), ("_los", los), ("_his", his),
                            ("_max_hi", tuple(accumulate(his, max))), ("_cells", None)):
            object.__setattr__(self, attr, value)

    def _to_rows(self) -> Iterator[Row]:
        """The rows in cover order, endpoints in lowest terms: the encoder's."""
        d = self._scale
        for name, (k_lo, s_lo, k_hi, s_hi) in self._int_cuts.items():
            lo, hi = gcd(k_lo, d), gcd(k_hi, d)
            yield name, k_lo // lo, d // lo, not s_lo, k_hi // hi, d // hi, not s_hi

    @property
    def cells(self) -> tuple[tuple[str, IntervalCell], ...]:
        if self._cells is None:
            d = self._scale
            object.__setattr__(self, "_cells", tuple(
                (name, IntervalCell(Fraction(k_lo, d), Fraction(k_hi, d), not s_lo, not s_hi))
                for name, (k_lo, s_lo, k_hi, s_hi) in self._int_cuts.items()
            ))
        return self._cells

    def cell(self, name: str) -> IntervalCell:
        try:
            return dict(self.cells)[name]
        except KeyError:
            raise DomainError(f"unknown cell {name!r}") from None

    def hull(self) -> IntervalCell:
        lo, hi, d = self._los[0], self._max_hi[-1], self._scale
        return IntervalCell(Fraction(lo >> 1, d), Fraction((hi + 1) >> 1, d),
                            not lo & 1, not hi & 1)


def _quantize_keys(cover: CellCover, lo_key: int, hi_key: int) -> frozenset[str] | None:
    """The integer part of ``quantize``: names of the cells whose keys meet
    [lo_key, hi_key], or None when the keys leave the hull.  A bisection finds
    the last cell whose lower key is at most hi_key, and the walk left from
    it stops once the running maximum of the upper keys drops below lo_key."""
    los, his, max_hi = cover._los, cover._his, cover._max_hi
    if lo_key < los[0] or hi_key > max_hi[-1]:
        return None
    names = cover._names
    found = []
    i = bisect_right(los, hi_key) - 1
    while i >= 0 and max_hi[i] >= lo_key:
        if his[i] >= lo_key:
            found.append(names[i])
        i -= 1
    return frozenset(found)


def quantize(cover: CellCover, target: IntervalCell | Rational) -> frozenset[str]:
    """Names of all cells meeting ``target``, exactly honouring endpoint
    flags.  Raises if the target is not contained in the covered segment.

    O(log n + cells visited), on integers only: the target's two cuts are
    keyed once with ``_key``, a point t as the cut (t, 0) at both ends, and
    ``_quantize_keys`` walks the cover's index.
    """
    d = cover._scale
    if isinstance(target, IntervalCell):
        lo, hi = target.lo, target.hi
        lo_key = _key(lo.numerator * d, lo.denominator, 0 if target.lo_closed else 1)
        hi_key = _key(hi.numerator * d, hi.denominator, 0 if target.hi_closed else -1)
    else:
        lo_key = hi_key = _key(target.numerator * d, target.denominator, 0)
    found = _quantize_keys(cover, lo_key, hi_key)
    if found is None:
        cell = target if isinstance(target, IntervalCell) else IntervalCell.point(target)
        raise OutOfDomainError(f"{cell.describe()} escapes the domain {cover.hull().describe()}")
    return found


def _rows(cover: CellCover, inputs: Sequence[AbstractInput],
          available: Callable[[str], Iterable[str]]) -> Iterator[tuple[str, str, int, int]]:
    """(cell name, input name, lower key, upper key) of the exact closed-loop
    image of every row, cells in cover order, inputs in ``available`` order,
    names the cover's and the first law's own objects (the last law rules).
    Each law's (A, B, D) becomes (A, B·d, D, sign of A) (module docstring),
    and an image cut is ``_key(A·k + B·d, D, side · sign)``, inlined: O(1) per row."""
    d = cover._scale
    forms = {ai.name: ai.law._form for ai in inputs}
    laws = {u: (u, a, b * d, den, (a > 0) - (a < 0)) for u, (a, b, den) in forms.items()}
    for name, (k_lo, s_lo, k_hi, s_hi) in cover._int_cuts.items():
        for input_name in available(name):
            try:
                u, a, b, den, sign = laws[input_name]
            except KeyError:
                raise DomainError(f"unknown abstract input {input_name!r}") from None
            (lo, lo_rest), (hi, hi_rest) = divmod(a * k_lo + b, den), divmod(a * k_hi + b, den)
            lo = 2 * lo + 1 if lo_rest else 2 * lo + s_lo * sign
            hi = 2 * hi + 1 if hi_rest else 2 * hi + s_hi * sign
            yield (name, u, lo, hi) if a >= 0 else (name, u, hi, lo)


def _image(cover: CellCover, inputs: Sequence[AbstractInput], name: str,
           input_name: str) -> IntervalCell:
    """The closed-loop image of a row over ``Fraction``, for its errors."""
    law, cell = {ai.name: ai.law for ai in inputs}[input_name], cover.cell(name)
    lo, hi = law.closed_loop(cell.lo), law.closed_loop(cell.hi)
    if lo == hi:
        return IntervalCell.point(lo)
    flags = (cell.lo_closed, cell.hi_closed) if lo < hi else (cell.hi_closed, cell.lo_closed)
    return IntervalCell(min(lo, hi), max(lo, hi), *flags)


def _row_error(cover: CellCover, inputs: Sequence[AbstractInput], name: str,
               input_name: str, found: frozenset[str] | None) -> OutOfDomainError:
    """The error of a row whose image leaves the hull (None) or meets no cell."""
    image = _image(cover, inputs, name, input_name).describe()
    return OutOfDomainError(f"image of cell {name!r} under {input_name!r} " + (
        f"leaves the domain: {image} escapes the domain {cover.hull().describe()}"
        if found is None else f"meets no cell: {image} lies in a gap of the cover"))


def build_abstraction(
    cover: CellCover,
    inputs: Sequence[AbstractInput],
    availability: Mapping[str, Iterable[str]],
) -> FiniteTransitionSystem:
    """Finite abstraction of the translation plant over ``cover``.

    For each cell and each abstract input available there, the successors are
    the quantization of the exact closed-loop image of the cell.  This is the
    smallest successor assignment under which the memoryless containment
    holds for every point of the cell.

    Each row is keyed by ``_rows`` and quantized from its keys: O(r log n + v)
    for r rows over n cells, where v counts the cells visited.  The table is
    sealed unchecked, from the cover's and the laws' own names, with one
    object per distinct row.  Availability for a cell the cover lacks is a
    DomainError naming the least such cell.  An image that leaves the hull,
    or that lies in a gap between cells and so would leave its input
    unavailable, is an OutOfDomainError naming the row.
    """
    if unknown := set(availability).difference(cover.names):
        raise DomainError(f"availability names unknown cell {min(unknown)!r}")
    trans: dict[tuple[str, str], frozenset[str]] = {}
    pool: dict[frozenset[str], frozenset[str]] = {}
    for name, input_name, lo_key, hi_key in _rows(
        cover, inputs, lambda name: sorted(set(availability.get(name, ())))
    ):
        found = _quantize_keys(cover, lo_key, hi_key)
        if not found:
            raise _row_error(cover, inputs, name, input_name, found)
        trans[name, input_name] = pool.setdefault(found, found)
    labels = tuple(sorted(dict.fromkeys(ai.name for ai in inputs)))
    return FiniteTransitionSystem._trusted(tuple(sorted(cover.names)), labels, trans, frozenset())


def verify_mcr_interval(
    cover: CellCover,
    abstraction: FiniteTransitionSystem,
    inputs: Sequence[AbstractInput],
) -> bool:
    """Exact memoryless containment check of an abstraction over ``cover``:
    every quantization of every point of a cell's closed-loop image must be a
    declared successor.  Availability is read off the abstraction's rows.

    Rows are keyed and quantized as in ``build_abstraction``: O(r log n + v).
    An image off the hull raises ``quantize``'s error; one in a gap, which
    fails ASR, raises ``build_abstraction``'s.
    """
    for name, input_name, lo_key, hi_key in _rows(cover, inputs, abstraction.available_inputs):
        found = _quantize_keys(cover, lo_key, hi_key)
        if found is None:
            quantize(cover, _image(cover, inputs, name, input_name))  # raises its error
        if not found:
            raise _row_error(cover, inputs, name, input_name, found)
        if not found <= abstraction.trans[name, input_name]:
            return False
    return True


def verify_asr_interval(
    cover: CellCover,
    abstraction: FiniteTransitionSystem,
    inputs: Sequence[AbstractInput],
) -> bool:
    """Exact existential counterpart: every point of the closed-loop image
    must fall in at least one declared successor cell, i.e. the image is
    covered by the successors' union.

    Per row, the s successors' integer cuts are looked up in O(1) each and
    swept by lower key a, O(s log s) on integers: ``need``, the least image
    key not yet covered, moves past the upper key b of each successor with
    a <= need, to b + 1, and the row is covered iff it passes the image's.
    """
    int_cuts = cover._int_cuts
    for name, input_name, need, hi_key in _rows(cover, inputs, abstraction.available_inputs):
        # ``cell`` raises the unknown-cell DomainError for a name off the cover.
        pieces = [int_cuts[q] if q in int_cuts else cover.cell(q)
                  for q in abstraction.trans[name, input_name]]
        for k_lo, s_lo, k_hi, s_hi in sorted(pieces):
            if 2 * k_lo + s_lo > need:
                break
            need = max(need, 2 * k_hi + s_hi + 1)
        if need <= hi_key:
            return False
    return True


def constant_shift_abstraction(cover: CellCover) -> FiniteTransitionSystem:
    """Abstraction of the plant x' = x + c over ``cover`` under every constant
    shift c at once: the choices of a feedback refinement (FRR), which applies
    one input on a whole cell.  A goal is reachable with an input constant on
    each cell iff ``synthesize_reach_avoid`` solves it on this system.

    The quantization of a cell [lo, hi] shifted by c changes only where c =
    v - lo or c = v - hi for a cover endpoint v.  These critical values, and
    the midpoint between each pair of neighbours, stand for every shift; each
    is an input of the cell labelled by the shift as "p/q".  On integers over
    2d, a shift m/(2d) moves a cut key by m, and an odd m lands both cuts in
    the open gap between two multiples of 1/d.  A row is kept only when its
    image lies in one connected piece of the cells' union, so that no point
    leaves the cover: the pieces are merged once from the sorted keys, and a
    row is checked with one bisection.  O(n) shifts per cell for n cells give
    O(n^2) non-empty rows, each quantized from its keys in O(log n) plus the
    cells it meets.  The labels are shared by all cells and the table is
    dense over them: when the endpoint differences are distinct there are
    O(n^2) labels, so O(n^3) entries, most of them empty.
    """
    d, cuts, los, max_hi = cover._scale, cover._int_cuts, cover._los, cover._max_hi
    ends = {k for k_lo, _, k_hi, _ in cuts.values() for k in (k_lo, k_hi)}
    breaks = [i for i in range(1, len(los)) if los[i] > max_hi[i - 1] + 1]
    starts = [los[0], *(los[i] for i in breaks)]
    stops = [*(max_hi[i - 1] for i in breaks), max_hi[-1]]
    trans: dict[tuple[str, str], frozenset[str]] = {}
    pool: dict[frozenset[str], frozenset[str]] = {}
    labels: dict[int, str] = {}
    for name, (k_lo, s_lo, k_hi, s_hi) in cuts.items():
        crit = sorted({v - k for v in ends for k in (k_lo, k_hi)})
        for m in [m for t, u in zip(crit, crit[1:]) for m in (2 * t, t + u)] + [2 * crit[-1]]:
            odd = m & 1
            lo_key = 2 * k_lo + m + (0 if odd else s_lo)
            hi_key = 2 * k_hi + m + (0 if odd else s_hi)
            piece = bisect_right(starts, lo_key) - 1
            if piece >= 0 and hi_key <= stops[piece]:
                found = _quantize_keys(cover, lo_key, hi_key)
                if m not in labels:
                    g = gcd(m, 2 * d)
                    labels[m] = f"{m // g}/{2 * d // g}"
                trans[name, labels[m]] = pool.setdefault(found, found)
    return FiniteTransitionSystem._trusted(
        tuple(sorted(cover.names)), tuple(sorted(labels.values())), trans, frozenset())


# --------------------------------------------------------------------------
# The bundled fig8 scenario: reach the origin on [-L, L].
# --------------------------------------------------------------------------


def fig8_cover(bound: Rational) -> CellCover:
    """Three cells on [-L, L]: the negatives, the origin, the positives."""
    size = _frac(bound)
    if size <= 0:
        raise ContractError("the segment half-width must be positive")
    return CellCover((
        ("q1", IntervalCell(-size, Fraction(0), True, False)),
        ("q2", IntervalCell.point(0)),
        ("q3", IntervalCell(Fraction(0), size, False, True)),
    ))


FIG8_AVAILABILITY = {"q1": ["k1"], "q2": ["k2"], "q3": ["k3"]}


def fig8_affine_inputs() -> tuple[AbstractInput, ...]:
    """One state-feedback law per cell driving every point to the origin in a
    single step: u = -x on the side cells, u = 0 at the origin."""
    return (
        AbstractInput("k1", AffineMap(Fraction(-1), Fraction(0))),
        AbstractInput("k2", AffineMap(Fraction(0), Fraction(0))),
        AbstractInput("k3", AffineMap(Fraction(-1), Fraction(0))),
    )


def fig8_target_spec(cover: CellCover) -> ReachAvoidSpec:
    return ReachAvoidSpec(frozenset(cover.names), frozenset({"q2"}), frozenset())
