import copy
import dataclasses
import itertools
import json
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symcret import (
    AbstractInput,
    AffineMap,
    CellCover,
    ContractError,
    DomainError,
    FiniteTransitionSystem,
    IntervalCell,
    OutOfDomainError,
    ReachAvoidSpec,
    Relation,
    RelationKind,
    build_abstraction,
    check_frr,
    check_mcr,
    constant_shift_abstraction,
    maximal_interface,
    quantize,
    synthesize_reach_avoid,
    verify_asr_interval,
    verify_mcr_interval,
    winning_region,
)
from symcret import interval, jsonio
from symcret.interval import FIG8_AVAILABILITY, fig8_affine_inputs, fig8_cover, fig8_target_spec

from conftest import fresh, grid_cover_document, json_nodes, mutate, outcome

L = Fraction(1)
NEGATIVES = IntervalCell(-L, Fraction(0), True, False)


def constant_inputs(shift):
    """fig8's piecewise constant laws: right by ``shift`` on the negatives,
    none at the origin, left by ``shift`` on the positives."""
    return tuple(AbstractInput(name, AffineMap(0, c))
                 for name, c in (("k1", shift), ("k2", 0), ("k3", -shift)))


# The Fraction image and the Fraction cut sweep that the integer row keys
# replaced in the library, kept as references.


def affine_image(cell, law):
    """Exact image of a cell under the closed loop x -> (1 + gain) x + offset.

    Endpoint flags follow the sign of (1 + gain); a gain of -1 collapses the
    cell to the single point {offset}.
    """
    slope = 1 + law.gain
    if slope == 0:
        return IntervalCell.point(law.offset)
    lo = slope * cell.lo + law.offset
    hi = slope * cell.hi + law.offset
    if slope > 0:
        return IntervalCell(lo, hi, cell.lo_closed, cell.hi_closed)
    return IntervalCell(hi, lo, cell.hi_closed, cell.lo_closed)


class TestIntervalCell:
    def test_bad_bounds(self):
        with pytest.raises(ContractError):
            IntervalCell(Fraction(1), Fraction(0))
        with pytest.raises(ContractError):
            IntervalCell(Fraction(0), Fraction(0), True, False)

    def test_membership_respects_flags(self):
        cover = CellCover((
            ("z", IntervalCell.point(0)),
            ("c", IntervalCell(Fraction(0), Fraction(1), False, True)),
        ))
        assert quantize(cover, 0) == frozenset({"z"})
        assert quantize(cover, Fraction(1, 2)) == quantize(cover, 1) == frozenset({"c"})

    def test_touching_intervals_intersection(self):
        cover = CellCover((
            ("m", IntervalCell(Fraction(-1), Fraction(0))),
            ("r", IntervalCell(Fraction(0), Fraction(1))),
        ))
        left_open = IntervalCell(Fraction(-1), Fraction(0), True, False)
        assert quantize(cover, left_open) == frozenset({"m"})
        left_closed = IntervalCell(Fraction(-1), Fraction(0))
        assert quantize(cover, left_closed) == frozenset({"m", "r"})

    def test_subset_with_flags(self):
        inner = IntervalCell(Fraction(0), Fraction(1), False, False)
        outer = IntervalCell(Fraction(0), Fraction(1), True, False)
        assert quantize(CellCover((("o", outer),)), inner) == frozenset({"o"})
        with pytest.raises(OutOfDomainError):
            quantize(CellCover((("i", inner),)), outer)


class TestAffineImage:
    def test_unit_negative_gain_collapses_to_origin(self):
        law = AffineMap(Fraction(-1), Fraction(0))
        assert affine_image(NEGATIVES, law) == IntervalCell.point(0)

    def test_constant_shift(self):
        law = AffineMap(Fraction(0), Fraction(1, 2))
        image = affine_image(NEGATIVES, law)
        assert image == IntervalCell(Fraction(-1, 2), Fraction(1, 2), True, False)

    def test_zero_map_is_identity(self):
        law = AffineMap(Fraction(0), Fraction(0))
        assert affine_image(NEGATIVES, law) == NEGATIVES

    def test_negative_slope_swaps_flags(self):
        cell = IntervalCell(Fraction(0), Fraction(1), True, False)
        image = affine_image(cell, AffineMap(Fraction(-2), Fraction(0)))
        assert image == IntervalCell(Fraction(-1), Fraction(0), False, True)

    def test_thousand_random_points_land_inside(self):
        rng = random.Random(0)
        cell = IntervalCell(Fraction(-3, 2), Fraction(2, 3), True, False)
        for _ in range(1000):
            law = AffineMap(
                Fraction(rng.randint(-4, 4), rng.randint(1, 5)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 7)),
            )
            image = affine_image(cell, law)
            span = cell.hi - cell.lo
            x = cell.lo + span * Fraction(rng.randint(0, 9999), 10000)
            if not reference_contains(cell, x):
                continue
            assert reference_contains(image, law.closed_loop(x))

    def test_endpoints_attained_in_closure(self):
        law = AffineMap(Fraction(1, 3), Fraction(1, 8))
        image = affine_image(NEGATIVES, law)
        assert image.lo == law.closed_loop(NEGATIVES.lo)
        assert image.hi == law.closed_loop(NEGATIVES.hi)


# The plain Fraction arithmetic that the law's integer form replaced, kept as
# references.


def reference_apply(law, x):
    return law.gain * Fraction(x) + law.offset


def reference_closed_loop(law, x):
    return Fraction(x) + reference_apply(law, x)


class TestAffineMapIntegerForm:
    def test_steps_match_the_fraction_reference(self):
        rng = random.Random(27)
        gains, offsets = set(), set()
        for i in range(2000):
            law = AffineMap(Fraction(rng.randint(-4, 4), rng.randint(1, 5)),
                            Fraction(rng.randint(-3, 3), rng.randint(1, 7)))
            gains.add(law.gain)
            offsets.add(law.offset)
            if i % 2:
                x = Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**25))
            else:
                x = rng.randint(-10**6, 10**6)
            for got, want in ((law.apply(x), reference_apply(law, x)),
                              (law.closed_loop(x), reference_closed_loop(law, x))):
                assert type(got) is Fraction and got == want, (law, x)
        # Gain -1 is A = 0, the collapse to the point offset.
        assert {Fraction(-1), Fraction(0)} <= gains and Fraction(0) in offsets

    def test_the_integer_form_is_not_a_field(self):
        law = AffineMap(Fraction(-1, 2), Fraction(1, 3))
        assert [f.name for f in dataclasses.fields(AffineMap)] == ["gain", "offset"]
        assert repr(law) == "AffineMap(gain=Fraction(-1, 2), offset=Fraction(1, 3))"
        odd = AffineMap(law.gain, law.offset)
        object.__setattr__(odd, "_form", (0, 0, 1))
        assert odd == law and hash(odd) == hash(law) and repr(odd) == repr(law)
        moved = dataclasses.replace(law, offset=Fraction(-5, 3))
        back = pickle.loads(pickle.dumps(moved))
        for x in (Fraction(7, 11), Fraction(-10**20, 3), 0, 5):
            want = reference_closed_loop(moved, x)
            assert moved.closed_loop(x) == back.closed_loop(x) == want
            assert moved.apply(x) == back.apply(x) == reference_apply(moved, x)

    def test_ints_and_floats_become_fractions(self):
        law = AffineMap(-1, 0.5)
        assert (law.gain, law.offset) == (Fraction(-1), Fraction(1, 2))
        assert type(law.gain) is Fraction and type(law.offset) is Fraction
        for x in (3, 0.25, Fraction(1, 3)):
            assert type(law.closed_loop(x)) is Fraction and law.closed_loop(x) == Fraction(1, 2)
            assert type(law.apply(x)) is Fraction
            assert law.apply(x) == reference_apply(law, x)
        assert AffineMap(0.75, -2).closed_loop(0.5) == Fraction(7, 8) - 2


# References: the endpoint flag cases that the cuts replaced, and the linear
# scans that the cover index replaced, built on those cases only.


def reference_contains(cell, x):
    x = Fraction(x)
    if x < cell.lo or x > cell.hi:
        return False
    if x == cell.lo and not cell.lo_closed:
        return False
    if x == cell.hi and not cell.hi_closed:
        return False
    return True


def reference_intersects(cell, other):
    lo = max(cell.lo, other.lo)
    hi = min(cell.hi, other.hi)
    if lo > hi:
        return False
    if lo < hi:
        return True
    return reference_contains(cell, lo) and reference_contains(other, lo)


def reference_is_subset_of(cell, other):
    if cell.lo < other.lo or cell.hi > other.hi:
        return False
    if cell.lo == other.lo and cell.lo_closed and not other.lo_closed:
        return False
    if cell.hi == other.hi and cell.hi_closed and not other.hi_closed:
        return False
    return True


def reference_hull(cover):
    lo = min(cell.lo for _, cell in cover.cells)
    hi = max(cell.hi for _, cell in cover.cells)
    lo_closed = any(cell.lo_closed for _, cell in cover.cells if cell.lo == lo)
    hi_closed = any(cell.hi_closed for _, cell in cover.cells if cell.hi == hi)
    return IntervalCell(lo, hi, lo_closed, hi_closed)


def reference_cell(cover, name):
    for cell_name, cell in cover.cells:
        if cell_name == name:
            return cell
    raise DomainError(f"unknown cell {name!r}")


def reference_quantize(cover, target):
    if not isinstance(target, IntervalCell):
        target = IntervalCell.point(target)
    hull = reference_hull(cover)
    if not reference_is_subset_of(target, hull):
        raise OutOfDomainError(f"{target.describe()} escapes the domain {hull.describe()}")
    return frozenset(n for n, c in cover.cells if reference_intersects(c, target))


def reference_interval_covered(target, pieces):
    """Sampled cover test: membership in a union of intervals is constant
    between consecutive endpoint values, so every endpoint inside the target
    and one rational midpoint between each adjacent pair decide it, in
    O(s^2) ``reference_contains`` calls."""
    marks = {target.lo, target.hi}
    for piece in pieces:
        marks.add(piece.lo)
        marks.add(piece.hi)
    ordered = sorted(marks)
    samples = [value for value in ordered if reference_contains(target, value)]
    samples += [
        mid for mid in ((a + b) / 2 for a, b in zip(ordered, ordered[1:]))
        if reference_contains(target, mid)
    ]
    return all(any(reference_contains(piece, s) for piece in pieces) for s in samples)


def reference_rows(cover, abstraction, inputs):
    laws = {ai.name: ai.law for ai in inputs}
    for name, cell in cover.cells:
        for u in abstraction.available_inputs(name):
            yield name, u, affine_image(cell, laws[u]), abstraction.successors(name, u)


def reference_verify(cover, abstraction, inputs):
    """(mcr, asr) outcomes from the scans, each a verdict or the type and
    message of the error raised: every quantization of a row's image is a
    successor, an image in a gap raises the error of ``reference_build``,
    and the successors' union covers the image."""
    def mcr():
        for name, u, image, succ in reference_rows(cover, abstraction, inputs):
            found = reference_quantize(cover, image)
            if not found:
                raise OutOfDomainError(f"image of cell {name!r} under {u!r} meets no cell: "
                                       f"{image.describe()} lies in a gap of the cover")
            if not found <= succ:
                return False
        return True

    def asr():
        return all(reference_interval_covered(image, [reference_cell(cover, q) for q in succ])
                   for _, _, image, succ in reference_rows(cover, abstraction, inputs))

    return outcome(mcr), outcome(asr)


def verify_both(cover, abstraction, inputs):
    return (outcome(verify_mcr_interval, cover, abstraction, inputs),
            outcome(verify_asr_interval, cover, abstraction, inputs))


def reference_build(cover, inputs, availability):
    laws = {ai.name: ai.law for ai in inputs}
    trans = {}
    for name, cell in cover.cells:
        for u in sorted(set(availability.get(name, ()))):
            image = affine_image(cell, laws[u])
            try:
                trans[(name, u)] = reference_quantize(cover, image)
            except OutOfDomainError as err:
                raise OutOfDomainError(
                    f"image of cell {name!r} under {u!r} leaves the domain: {err}"
                ) from None
            if not trans[(name, u)]:
                raise OutOfDomainError(f"image of cell {name!r} under {u!r} meets no cell: "
                                       f"{image.describe()} lies in a gap of the cover")
    return FiniteTransitionSystem(cover.names, tuple(sorted(laws)), trans)


# Endpoints on a coarse half-integer grid, so that equal endpoints, shared
# boundaries and point cells come up often.
ENDPOINTS = st.integers(-6, 6).map(lambda k: Fraction(k, 2))
# Endpoints with denominators 2, 3, 5 and 7 on the same segment, so that a
# cover's common denominator reaches 210 and targets fall between its
# multiples.
MIXED_ENDPOINTS = st.sampled_from((2, 3, 5, 7)).flatmap(
    lambda q: st.integers(-3 * q, 3 * q).map(lambda k: Fraction(k, q))
)
ANY_ENDPOINTS = ENDPOINTS | MIXED_ENDPOINTS
LAWS = st.lists(
    st.tuples(
        st.integers(-4, 2).map(lambda k: Fraction(k, 2)),
        st.integers(-4, 4).map(lambda k: Fraction(k, 4)),
    ),
    min_size=1,
    max_size=3,
)


@st.composite
def intervals(draw, values):
    lo, hi = sorted((draw(values), draw(values)))
    if lo == hi:
        return IntervalCell.point(lo)
    return IntervalCell(lo, hi, draw(st.booleans()), draw(st.booleans()))


@st.composite
def covers(draw, max_cells=8, values=ANY_ENDPOINTS):
    cells = draw(st.lists(intervals(values), min_size=1, max_size=max_cells))
    named = [(f"c{i}", cell) for i, cell in enumerate(cells)]
    return CellCover(tuple(draw(st.permutations(named))))


def probe_points(cover):
    """Every cell endpoint, a point inside each gap between consecutive
    endpoints, and one point beyond each end of the hull."""
    ends = sorted({v for _, cell in cover.cells for v in (cell.lo, cell.hi)})
    mids = [(a + b) / 2 for a, b in zip(ends, ends[1:])]
    return ends + mids + [ends[0] - 1, ends[-1] + 1]


@st.composite
def covers_and_targets(draw):
    cover = draw(covers())
    values = st.sampled_from(probe_points(cover))
    return cover, draw(values | intervals(values))


class TestCoverIndexAgainstScan:
    @settings(max_examples=300, deadline=None)
    @given(case=covers_and_targets())
    def test_quantize_matches_the_scan(self, case):
        cover, target = case
        assert outcome(quantize, cover, target) == outcome(reference_quantize, cover, target)

    def test_quantize_over_distinct_prime_denominators(self):
        # Common denominator 2·101·103·107·109·113·127 ≈ 3.5e12: every probe
        # and every interval between two probes against the scan.
        primes = (101, 103, 107, 109, 113, 127)
        cells = []
        for i, p in enumerate(primes):
            lo, hi = Fraction(i * p - 7, p), Fraction((i + 1) * p + 5, p)
            cells.append((f"c{i}", IntervalCell(lo, hi, i % 2 == 0, i % 3 != 0)))
        cells.append(("dot", IntervalCell.point(Fraction(5, 2))))
        cover = CellCover(tuple(cells))
        assert cover._scale == 2 * 101 * 103 * 107 * 109 * 113 * 127
        probes = probe_points(cover)
        targets = [*probes]
        for lo in probes:
            for hi in probes:
                if lo < hi:
                    targets += [IntervalCell(lo, hi, a, b) for a in (True, False)
                                for b in (True, False)]
        for target in targets:
            assert outcome(quantize, cover, target) == outcome(reference_quantize, cover, target)

    @settings(max_examples=100, deadline=None)
    @given(cover=covers())
    def test_hull_and_lookup_match_the_scan(self, cover):
        assert cover.hull() == reference_hull(cover)
        for name in cover.names:
            assert cover.cell(name) is reference_cell(cover, name)
        with pytest.raises(DomainError):
            cover.cell("missing")

    @settings(max_examples=150, deadline=None)
    @given(cover=covers(), laws=LAWS, data=st.data())
    def test_build_abstraction_matches_the_scan(self, cover, laws, data):
        inputs = tuple(AbstractInput(f"k{j}", AffineMap(g, o)) for j, (g, o) in enumerate(laws))
        names = [ai.name for ai in inputs]
        availability = {
            q: data.draw(st.lists(st.sampled_from(names), max_size=len(names)))
            for q in cover.names
        }
        built = outcome(build_abstraction, cover, inputs, availability)
        assert built == outcome(reference_build, cover, inputs, availability)
        if isinstance(built, FiniteTransitionSystem):
            assert verify_mcr_interval(cover, built, inputs)

    @settings(max_examples=150, deadline=None)
    @given(cover=covers(), laws=LAWS, data=st.data())
    def test_verification_matches_the_references_with_a_successor_dropped(
        self, cover, laws, data
    ):
        inputs = tuple(AbstractInput(f"k{j}", AffineMap(g, o)) for j, (g, o) in enumerate(laws))
        # Every law whose image of the cell stays in the hull and meets a cell.
        def lands(cell, law):
            image = affine_image(cell, law)
            return (reference_is_subset_of(image, reference_hull(cover))
                    and bool(reference_quantize(cover, image)))

        availability = {
            q: [ai.name for ai in inputs if lands(cell, ai.law)] for q, cell in cover.cells
        }
        built = build_abstraction(cover, inputs, availability)
        rows = sorted(key for key, succ in built.trans.items() if succ)
        assume(rows)
        row = data.draw(st.sampled_from(rows))
        dropped = data.draw(st.sampled_from(sorted(built.trans[row])))
        trimmed = {key: succ - {dropped} if key == row else succ
                   for key, succ in built.trans.items()}
        shrunk = FiniteTransitionSystem(built.states, built.inputs, trimmed)
        assert verify_both(cover, shrunk, inputs) == reference_verify(cover, shrunk, inputs)


# A fixed table for the integer row keys: endpoints with denominators 2, 3,
# 5 and 7 (common denominator 210), overlapping cells, point cells, all four
# flag pairs, and laws whose closed-loop slope 1 + gain is positive,
# negative and zero.
TABLE_COVER = CellCover((
    ("a", IntervalCell(Fraction(-2), Fraction(-1, 2), True, False)),
    ("b", IntervalCell(Fraction(-1, 2), Fraction(1, 3), True, True)),
    ("c", IntervalCell.point(Fraction(1, 3))),
    ("d", IntervalCell(Fraction(-2, 7), Fraction(7, 5), False, False)),
    ("e", IntervalCell(Fraction(6, 5), Fraction(15, 7), False, True)),
    ("f", IntervalCell.point(Fraction(-2))),
    ("g", IntervalCell(Fraction(-3, 2), Fraction(2, 3), False, True)),
))
TABLE_INPUTS = tuple(
    AbstractInput(f"k{j}", AffineMap(Fraction(gain), Fraction(offset)))
    for j, (gain, offset) in enumerate((
        ("-1", "0"), ("-1", "2/7"), ("-3/2", "1/2"), ("-3/2", "-3/5"), ("-1/2", "-1/3"),
        ("-2/3", "2/7"), ("0", "1/2"), ("0", "-3/5"), ("1/2", "-1/3"), ("-8/3", "0"),
        ("-2/7", "2/7"),
    ))
)


class TestIntegerRowsAgainstFractions:
    def test_every_row_matches_the_references(self):
        escaped = 0
        for name in TABLE_COVER.names:
            for ai in TABLE_INPUTS:
                availability = {name: [ai.name]}
                built = outcome(build_abstraction, TABLE_COVER, TABLE_INPUTS, availability)
                assert built == outcome(reference_build, TABLE_COVER, TABLE_INPUTS, availability)
                escaped += not isinstance(built, FiniteTransitionSystem)
        assert 0 < escaped < len(TABLE_COVER.names) * len(TABLE_INPUTS)

    def test_verifiers_match_the_references_with_each_successor_dropped(self):
        availability = {
            name: [ai.name for ai in TABLE_INPUTS
                   if isinstance(outcome(build_abstraction, TABLE_COVER, TABLE_INPUTS,
                                         {name: [ai.name]}), FiniteTransitionSystem)]
            for name in TABLE_COVER.names
        }
        built = build_abstraction(TABLE_COVER, TABLE_INPUTS, availability)
        assert built == reference_build(TABLE_COVER, TABLE_INPUTS, availability)
        assert verify_both(TABLE_COVER, built, TABLE_INPUTS) == (True, True)
        verdicts = set()
        for row, succ in sorted(built.trans.items()):
            for dropped in sorted(succ):
                trimmed = {**built.trans, row: succ - {dropped}}
                shrunk = FiniteTransitionSystem(built.states, built.inputs, trimmed)
                got = verify_both(TABLE_COVER, shrunk, TABLE_INPUTS)
                assert got == reference_verify(TABLE_COVER, shrunk, TABLE_INPUTS)
                # Dropping a row's only successor drops the row; any other
                # drop breaks containment, and covering where the cell was
                # needed.
                assert got[0] == (len(succ) == 1)
                verdicts.add(got)
        assert verdicts == {(True, True), (False, True), (False, False)}

    def test_escaping_rows_raise_the_reference_messages(self):
        # Every law at every cell, every cell a successor: the first row
        # that leaves the hull decides MCR, and ASR refutes it instead.
        full = FiniteTransitionSystem(
            TABLE_COVER.names, tuple(ai.name for ai in TABLE_INPUTS),
            {(q, ai.name): frozenset(TABLE_COVER.names)
             for q in TABLE_COVER.names for ai in TABLE_INPUTS},
        )
        got = verify_both(TABLE_COVER, full, TABLE_INPUTS)
        assert got == reference_verify(TABLE_COVER, full, TABLE_INPUTS)
        assert got[0][0] is OutOfDomainError and got[1] is False

    @settings(max_examples=200, deadline=None)
    @given(cover=covers(), laws=LAWS)
    def test_inline_row_keys_are_the_image_cuts_keys(self, cover, laws):
        # Gains from -2 to 1: slopes A < 0 swap the cuts and flip their
        # sides, and A = 0 (gain -1) is the closed point of the offset.
        inputs = tuple(AbstractInput(f"k{j}", AffineMap(gain, offset))
                       for j, (gain, offset) in enumerate(laws))
        cells, names, d = dict(cover.cells), [ai.name for ai in inputs], cover._scale
        for name, u, lo_key, hi_key in interval._rows(cover, inputs, lambda name: names):
            law = inputs[names.index(u)].law
            image = affine_image(cells[name], law)
            assert (lo_key, hi_key) == (
                interval._key(image.lo.numerator * d, image.lo.denominator,
                              0 if image.lo_closed else 1),
                interval._key(image.hi.numerator * d, image.hi.denominator,
                              0 if image.hi_closed else -1),
            )

    def test_asr_sees_one_missing_point(self):
        # The cover misses only the origin, and the image of the negatives
        # spans it: the successors' keys leave out exactly one key.
        cover = CellCover((
            ("qa", IntervalCell(-L, Fraction(0), True, False)),
            ("qb", IntervalCell(Fraction(0), L, False, True)),
        ))
        inputs = (AbstractInput("k", AffineMap(Fraction(0), Fraction(1, 2))),)
        sys = build_abstraction(cover, inputs, {"qa": ["k"]})
        assert sys.successors("qa", "k") == frozenset({"qa", "qb"})
        got = verify_both(cover, sys, inputs)
        assert got == reference_verify(cover, sys, inputs) == (True, False)

    def test_asr_names_a_successor_off_the_cover(self):
        inputs = fig8_affine_inputs()
        sys = build_abstraction(fig8_cover(L), inputs, FIG8_AVAILABILITY)
        trans = {**sys.trans, ("q1", "k1"): frozenset({"q2", "zz"})}
        wider = FiniteTransitionSystem(sys.states + ("zz",), sys.inputs, trans)
        got = verify_both(fig8_cover(L), wider, inputs)
        assert got == reference_verify(fig8_cover(L), wider, inputs)
        assert got == (True, (DomainError, "unknown cell 'zz'"))


class TestCellCover:
    def test_empty_cover_rejected(self):
        with pytest.raises(ContractError):
            CellCover(())

    def test_empty_cover_document_rejected(self):
        obj = jsonio.cover_to_obj(fig8_cover(L), fig8_affine_inputs(), FIG8_AVAILABILITY)
        obj["cells"] = []
        with pytest.raises(ContractError):
            jsonio.cover_from_obj(obj)

    def test_equality_follows_the_cells_in_order(self):
        a, b = IntervalCell(Fraction(0), L), IntervalCell(Fraction(0), L / 2)
        cover = CellCover((("p", a), ("q", b)))
        assert cover == CellCover([("p", a), ("q", b)])
        assert hash(cover) == hash(CellCover([("p", a), ("q", b)]))
        # The same names in another order, and the same integer cuts over
        # another common denominator, are other covers.
        assert cover != CellCover((("q", b), ("p", a)))
        assert CellCover((("p", a),)) != CellCover((("p", b),))
        assert CellCover((("p", a),))._int_cuts == CellCover((("p", b),))._int_cuts

    def test_duplicate_names_rejected(self):
        with pytest.raises(ContractError):
            CellCover((("q", IntervalCell.point(0)), ("q", IntervalCell.point(1))))

    @pytest.mark.parametrize("section, key, value, detail", [
        pytest.param("cells", "lo", -0.1, 'expected a "p/q" string, got -0.1',
                     id="endpoint-as-a-float"),
        pytest.param("cells", "lo_closed", "no", 'expected true or false, got "no"',
                     id="flag-as-a-string"),
        pytest.param("cells", "state", 7, "expected a name, got 7", id="cell-named-by-a-number"),
        pytest.param("inputs", "gain", True, 'expected a "p/q" string, got true',
                     id="gain-as-a-boolean"),
        pytest.param("inputs", "input", 5, "expected a name, got 5",
                     id="input-named-by-a-number"),
        # Spellings that Fraction reads, or fails on with a bare ValueError.
        *(pytest.param(section, key, text, f'expected a "p/q" string, got {json.dumps(text)}',
                       id=f"{key}-{text!r}")
          for section, key in (("cells", "hi"), ("inputs", "offset"))
          for text in ("abc", "1/2/3", "nan", "inf", "0x10", "1e3", "0.5", " 1/2 ", "-1_0/1",
                       "1", "+1/2", "1/-2", "")),
        # More digits than int() converts: a named error, not a bare ValueError.
        *(pytest.param(section, key, text, "a rational with 5002 characters is too long",
                       id=f"{key}-long-{part}")
          for section, key in (("cells", "hi"), ("inputs", "offset"))
          for part, text in (("numerator", "1" * 5000 + "/1"),
                             ("denominator", "1/" + "1" * 5000))),
    ])
    def test_cover_document_coerces_nothing(self, section, key, value, detail):
        obj = jsonio.cover_to_obj(fig8_cover(L), fig8_affine_inputs(), FIG8_AVAILABILITY)
        obj[section][0][key] = value
        with pytest.raises(jsonio.FormatError) as err:
            jsonio.cover_from_obj(obj)
        assert str(err.value) == f"malformed cover document (TypeError: {detail})"

    @pytest.mark.parametrize("section", ["cells", "inputs"])
    def test_cover_sections_must_be_arrays(self, section):
        obj = jsonio.cover_to_obj(fig8_cover(L), fig8_affine_inputs(), FIG8_AVAILABILITY)
        obj[section] = ""
        with pytest.raises(jsonio.FormatError) as err:
            jsonio.cover_from_obj(obj)
        detail = f'expected an array of {section}, got ""'
        assert str(err.value) == f"malformed cover document (TypeError: {detail})"

    def test_zero_denominator_in_a_document(self):
        obj = jsonio.cover_to_obj(fig8_cover(L), fig8_affine_inputs(), FIG8_AVAILABILITY)
        obj["inputs"][0]["gain"] = "1/0"
        with pytest.raises(jsonio.FormatError, match="zero denominator in '1/0'"):
            jsonio.cover_from_obj(obj)


# The Fraction decoder that decoding to integer rows replaced, and the
# Fraction index that CellCover built from its cells, kept as references.


def reference_rational(value):
    match = jsonio._RATIONAL.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        raise TypeError(f'expected a "p/q" string, got {json.dumps(value)}')
    try:
        numerator, denominator = int(match[1]), int(match[2])
    except ValueError:
        raise TypeError(f"a rational with {len(value)} characters is too long") from None
    if not denominator:
        raise jsonio.FormatError(f"zero denominator in {value!r}")
    return Fraction(numerator, denominator)


def reference_interval(lo, hi, lo_closed, hi_closed):
    if lo > hi:
        raise ContractError(f"empty interval: lo {lo} > hi {hi}")
    if lo == hi and not (lo_closed and hi_closed):
        raise ContractError("a point cell must be closed on both sides")
    return IntervalCell(lo, hi, lo_closed, hi_closed)


@jsonio._decoder("cover")
def reference_cover_from_obj(obj):
    """(cells, inputs, availability) of a cover document, the cells as the
    (name, IntervalCell) pairs a cover is built from."""
    flag = "true or false"
    cells = tuple(
        (jsonio._typed(c["state"], str, "a name"),
         reference_interval(reference_rational(c["lo"]), reference_rational(c["hi"]),
                            jsonio._typed(c["lo_closed"], bool, flag),
                            jsonio._typed(c["hi_closed"], bool, flag)))
        for c in jsonio._typed(obj["cells"], list, "an array of cells")
    )
    if not cells:
        raise ContractError("a cover needs at least one cell")
    if len(dict(cells)) != len(cells):
        raise ContractError("cell names must be unique")
    inputs = tuple(
        AbstractInput(jsonio._typed(i["input"], str, "a name"),
                      AffineMap(reference_rational(i["gain"]), reference_rational(i["offset"])))
        for i in jsonio._typed(obj["inputs"], list, "an array of inputs")
    )
    availability = {name: jsonio._names(us) for name, us in obj["availability"].items()}
    return cells, inputs, availability


def reference_index(cells):
    """The integer index of a cover, from the cells' Fractions."""
    d = math.lcm(*(v.denominator for _, cell in cells for v in (cell.lo, cell.hi)))
    int_cuts = {
        name: (cell.lo.numerator * (d // cell.lo.denominator), 0 if cell.lo_closed else 1,
               cell.hi.numerator * (d // cell.hi.denominator), 0 if cell.hi_closed else -1)
        for name, cell in cells
    }
    los, his, names = zip(*sorted((2 * a + b, 2 * c + e, name)
                                  for name, (a, b, c, e) in int_cuts.items()))
    return {"_scale": d, "_int_cuts": int_cuts, "_names": names, "_los": los, "_his": his,
            "_max_hi": tuple(itertools.accumulate(his, max))}


@st.composite
def spelled(draw, value):
    """``value`` as a ``"p/q"`` string, not always in lowest terms."""
    times = draw(st.integers(1, 3))
    return f"{value.numerator * times}/{value.denominator * times}"


@st.composite
def cover_documents(draw):
    """Valid cover documents: negative and unreduced endpoints, point cells
    whose two ends may be spelled differently, overlaps, gaps and every flag
    pair, in any order."""
    cells = draw(st.lists(intervals(ANY_ENDPOINTS), min_size=1, max_size=6))
    objs = [{"state": f"c{i}", "lo": draw(spelled(cell.lo)), "hi": draw(spelled(cell.hi)),
             "lo_closed": cell.lo_closed, "hi_closed": cell.hi_closed}
            for i, cell in enumerate(cells)]
    inputs = [{"input": f"k{j}", "gain": draw(spelled(g)), "offset": draw(spelled(o))}
              for j, (g, o) in enumerate(draw(LAWS))]
    return jsonio.tagged("cover", {
        "cells": draw(st.permutations(objs)), "inputs": inputs,
        "availability": {obj["state"]: ["k0"] for obj in objs[::2]},
    })


def decodings(decode, doc):
    """What ``decode`` makes of ``doc``, alone and as the bundle member
    'grid': its result or the type and message of its error."""
    return outcome(decode, doc), outcome(jsonio._member, "cover", "grid", decode, doc)


def is_error(result):
    return isinstance(result, tuple) and isinstance(result[0], type)


def same_decoding(doc):
    """Assert that the decoder and the reference agree on ``doc``, alone and
    inside a bundle: the same error class and message, or equal results.
    Returns the error, or None."""
    got, ref = decodings(jsonio.cover_from_obj, doc), decodings(reference_cover_from_obj, doc)
    in_bundle = outcome(jsonio.bundle_from_obj,
                        jsonio.tagged("bundle", {"covers": {"grid": doc}}))
    if is_error(ref[0]):
        assert got == ref and in_bundle == ref[1]
        return ref[0]
    assert not is_error(got[0]), got
    (cover, inputs, availability), (cells, *rest) = got[0], ref[0]
    assert cover._cells is None  # decoding built no Fraction cell
    assert cover.cells == cells and [inputs, availability] == rest
    assert cover == CellCover(cells) and hash(cover) == hash(CellCover(cells))
    assert in_bundle.covers == {"grid": got[0]}
    return None


SMALL_COVER_DOC = jsonio.cover_to_obj(fig8_cover(L), fig8_affine_inputs(), FIG8_AVAILABILITY)
GRID_COVER_DOC = grid_cover_document()


def cell_by_cell_decoding(monkeypatch, doc):
    """What ``cover_from_obj`` makes of ``doc`` when it reads every cell with
    ``_cell_row``: its result, or the type and message of its error."""
    with monkeypatch.context() as patch:
        patch.setattr(jsonio, "_bulk_rows", lambda cells: None)
        return outcome(jsonio.cover_from_obj, doc)


SPELLINGS = st.sampled_from(
    ["-2/2", "2/4", "-0/3", "0/0", "1/2/3", "1", "+1/2", "1" * 5000 + "/1", "1/" + "1" * 5000]
) | st.builds("{}/{}".format, st.integers(-4, 4), st.integers(0, 4))
# For each kind of mutation, whether it may hit a value, by its path and
# value; the document itself is the empty path.
MUTABLE = {
    "type": lambda path, value: bool(path),
    "string for list": lambda path, value: isinstance(value, list),
    "int for name": lambda path, value: isinstance(value, str),
    "missing": lambda path, value: bool(path),
    "extra": lambda path, value: isinstance(value, dict),
    "rational": lambda path, value: path[-1:] in [("lo",), ("hi",), ("gain",), ("offset",)],
    "flag": lambda path, value: path[-1:] in [("lo_closed",), ("hi_closed",)],
    "rename": lambda path, value: path[-1:] == ("state",),
}
# The mutations of cover values: the strategy for the new value, from the old.
COVER_EDITS = {
    "rational": lambda value: SPELLINGS,
    "flag": lambda value: st.just(not value),
    "rename": lambda value: st.sampled_from(["q1", "q2", "q3"]),
}


@st.composite
def mutated_covers(draw):
    """The small cover document after one to three mutations in turn: those
    of the bundle fuzz, a rational respelled, a flag flipped or a cell
    renamed after another."""
    doc = copy.deepcopy(SMALL_COVER_DOC)
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(sorted(MUTABLE)))
        targets = [path for path, value in json_nodes({"": doc}) if MUTABLE[how](path[1:], value)]
        if not targets:
            continue
        path = draw(st.sampled_from(targets))[1:]
        if how in COVER_EDITS:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = draw(COVER_EDITS[how](parent[path[-1]]))
        else:
            mutate(draw, doc, how, path)
    return doc


class TestCoverDecoding:
    @settings(max_examples=200, deadline=None)
    @given(doc=cover_documents())
    def test_integer_rows_match_the_fraction_reference(self, doc):
        cover, _, _ = jsonio.cover_from_obj(doc)
        cells, _, _ = reference_cover_from_obj(doc)
        built = CellCover(cells)
        assert cover.names == built.names == tuple(name for name, _ in cells)
        index = reference_index(cells)
        assert {attr: getattr(cover, attr) for attr in index} == index
        for target in probe_points(built):
            assert (outcome(quantize, cover, target) == outcome(quantize, built, target)
                    == outcome(reference_quantize, built, target))
        assert cover.cells == built.cells == cells
        assert cover.hull() == built.hull() == reference_hull(built)
        assert cover == built and hash(cover) == hash(built)
        # The encoder writes the reduced rows as the Fraction cells read.
        assert jsonio.cover_to_obj(cover)["cells"] == [
            {"state": name, "lo": jsonio.fraction_to_str(cell.lo),
             "hi": jsonio.fraction_to_str(cell.hi), "lo_closed": cell.lo_closed,
             "hi_closed": cell.hi_closed} for name, cell in cells]

    @pytest.mark.parametrize("edits, error, message", [
        pytest.param({(0, "lo"): "1/1", (1, "lo_closed"): "no"}, ContractError,
                     "empty interval: lo 1 > hi 0", id="empty-cell-before-a-later-flag"),
        pytest.param({(0, "lo_closed"): "no", (1, "lo"): "2/1"}, jsonio.FormatError,
                     'malformed cover document (TypeError: expected true or false, got "no")',
                     id="flag-before-a-later-empty-cell"),
        pytest.param({(0, "hi"): "-2/2", (1, "hi"): "1/0"}, ContractError,
                     "a point cell must be closed on both sides", id="open-point-unreduced"),
        pytest.param({(1, "state"): "q1", (2, "hi"): "1/0"}, jsonio.FormatError,
                     "zero denominator in '1/0'", id="later-zero-denominator-before-a-duplicate"),
        pytest.param({(0, "lo_closed"): 0, (0, "hi"): "1/2/3"}, jsonio.FormatError,
                     'malformed cover document (TypeError: expected a "p/q" string, got "1/2/3")',
                     id="end-before-a-flag-of-the-same-cell"),
        pytest.param({(2, "state"): "q1"}, ContractError, "cell names must be unique",
                     id="duplicate-name"),
        pytest.param({(1, "hi"): "3/1"}, None, None, id="valid-overlap"),
    ])
    def test_errors_come_cell_by_cell(self, edits, error, message):
        doc = copy.deepcopy(SMALL_COVER_DOC)
        for (i, key), value in edits.items():
            doc["cells"][i][key] = value
        expected = (error, message) if error else None
        assert same_decoding(doc) == expected
        if error:
            in_bundle = outcome(jsonio.bundle_from_obj,
                                jsonio.tagged("bundle", {"covers": {"grid": doc}}))
            assert in_bundle == (jsonio.FormatError, f"cover 'grid': {message}")

    @settings(max_examples=300, deadline=None)
    @given(doc=mutated_covers())
    def test_mutated_cover_fails_like_the_reference(self, doc):
        same_decoding(doc)

    @pytest.mark.parametrize("doc", [SMALL_COVER_DOC, GRID_COVER_DOC], ids=["fig8", "grid"])
    def test_a_valid_cover_is_read_in_bulk(self, doc, monkeypatch):
        cell_by_cell = cell_by_cell_decoding(monkeypatch, doc)

        def no_cell_row(obj):
            raise AssertionError("the cover left the bulk path")

        monkeypatch.setattr(jsonio, "_cell_row", no_cell_row)
        cover, inputs, availability = jsonio.cover_from_obj(doc)
        assert (cover, inputs, availability) == cell_by_cell
        for attr in ("names", "_scale", "_int_cuts", "_los", "_his", "_max_hi"):
            assert getattr(cover, attr) == getattr(cell_by_cell[0], attr), attr
        assert hash(cover) == hash(cell_by_cell[0])

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda cells: cells.__setitem__(1, ["q2"]), id="cell-not-a-dict"),
        pytest.param(lambda cells: cells.clear(), id="no-cells"),
        pytest.param(lambda cells: cells[1].__setitem__("hi", "0/0"), id="zero-over-zero"),
        pytest.param(lambda cells: cells[2].__setitem__("lo", "1" * 5000 + "/1"),
                     id="too-many-digits"),
        pytest.param(lambda cells: cells[1].__setitem__("lo", "1/2\n3/4"), id="newline"),
        pytest.param(lambda cells: cells[1].__setitem__("lo", "1/2,3/4"), id="comma"),
        pytest.param(lambda cells: cells[0].__setitem__("state", 1), id="int-name"),
        pytest.param(lambda cells: cells[2].__setitem__("hi_closed", 1), id="int-flag"),
        pytest.param(lambda cells: cells[0].pop("lo"), id="missing-field"),
    ])
    def test_a_malformed_cover_fails_as_read_cell_by_cell(self, edit, monkeypatch):
        doc = copy.deepcopy(SMALL_COVER_DOC)
        edit(doc["cells"])
        assert jsonio._bulk_rows(doc["cells"]) is None
        got = outcome(jsonio.cover_from_obj, doc)
        assert is_error(got) and got == cell_by_cell_decoding(monkeypatch, doc)

    def test_a_name_of_a_str_subclass_decodes_to_an_equal_cover(self):
        class Name(str):
            pass

        doc = copy.deepcopy(SMALL_COVER_DOC)
        doc["cells"][1]["state"] = Name(doc["cells"][1]["state"])
        cover, _, _ = jsonio.cover_from_obj(doc)
        assert cover == jsonio.cover_from_obj(SMALL_COVER_DOC)[0]
        assert hash(cover) == hash(jsonio.cover_from_obj(SMALL_COVER_DOC)[0])

    @pytest.mark.parametrize("names, detail", [
        (["halve", 3], 'expected an array of names, got ["halve", 3]'),
        ("halve", 'expected an array of names, got "halve"'),
    ])
    def test_availability_fails_as_read_name_by_name(self, names, detail):
        doc = copy.deepcopy(GRID_COVER_DOC)
        assert same_decoding(doc) is None
        doc["availability"]["p0007"] = names
        message = f"malformed cover document (TypeError: {detail})"
        assert same_decoding(doc) == (jsonio.FormatError, message)


class TestQuantize:
    def test_origin_is_its_own_cell(self):
        assert quantize(fig8_cover(L), 0) == frozenset({"q2"})

    def test_generic_shift_touches_everything(self):
        window = IntervalCell(Fraction(-1, 2), Fraction(1, 2), True, False)
        assert quantize(fig8_cover(L), window) == frozenset({"q1", "q2", "q3"})

    def test_full_shift_leaves_the_negatives(self):
        window = IntervalCell(Fraction(0), L, True, False)
        assert quantize(fig8_cover(L), window) == frozenset({"q2", "q3"})

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomainError):
            quantize(fig8_cover(L), Fraction(3, 2))


class TestBuildAbstraction:
    def test_affine_laws_give_deterministic_system(self):
        sys = build_abstraction(fig8_cover(L), fig8_affine_inputs(), FIG8_AVAILABILITY)
        assert sys.is_deterministic()
        assert sys.successors("q1", "k1") == frozenset({"q2"})
        assert sys.successors("q2", "k2") == frozenset({"q2"})
        assert sys.successors("q3", "k3") == frozenset({"q2"})

    def test_constant_generic_shift_is_wide(self):
        sys = build_abstraction(
            fig8_cover(L), constant_inputs(Fraction(1, 2)), FIG8_AVAILABILITY
        )
        assert sys.successors("q1", "k1") == frozenset({"q1", "q2", "q3"})

    def test_collapsing_gain_gives_singleton(self):
        inputs = (AbstractInput("k", AffineMap(Fraction(-1), Fraction(0))),)
        sys = build_abstraction(fig8_cover(L), inputs, {"q1": ["k"], "q2": ["k"], "q3": ["k"]})
        assert all(sys.successors(q, "k") == frozenset({"q2"}) for q in sys.states)

    def test_escaping_image_names_the_culprit(self):
        inputs = (AbstractInput("far", AffineMap(Fraction(0), 2 * L)),)
        with pytest.raises(OutOfDomainError) as err:
            build_abstraction(fig8_cover(L), inputs, {"q1": ["far"]})
        assert "q1" in str(err.value) and "far" in str(err.value)

    @pytest.mark.parametrize("gain, offset, image", [
        ("0", "3/2", "[3/2, 5/2]"), ("-1", "2", "{2}"), ("-2", "5/2", "[3/2, 5/2]"),
    ])
    def test_image_in_a_gap_is_named(self, gain, offset, image):
        # Between the cells [0, 1] and [3, 4]: the row would be empty, and the
        # declared input would read as unavailable.
        cover = CellCover((("a", IntervalCell(Fraction(0), L)),
                           ("b", IntervalCell(Fraction(3), Fraction(4)))))
        inputs = (AbstractInput("k", AffineMap(Fraction(gain), Fraction(offset))),)
        got = outcome(build_abstraction, cover, inputs, {"a": ["k"]})
        assert got == outcome(reference_build, cover, inputs, {"a": ["k"]}) == (
            OutOfDomainError, f"image of cell 'a' under 'k' meets no cell: {image} lies in a gap "
                              "of the cover")
        # A hand-built row (a, k) -> {a} fails ASR, as no cell meets the
        # image, so MCR, which implies ASR, must not pass it either.
        hand_built = FiniteTransitionSystem(("a", "b"), ("k",), {("a", "k"): frozenset({"a"})})
        assert verify_both(cover, hand_built, inputs) == (got, False)
        assert reference_verify(cover, hand_built, inputs) == (got, False)

    def test_unknown_availability_cell_is_named(self):
        availability = {**FIG8_AVAILABILITY, "q9": ["k1"], "Q1": ["k1"]}
        with pytest.raises(DomainError) as err:
            build_abstraction(fig8_cover(L), fig8_affine_inputs(), availability)
        assert str(err.value) == "availability names unknown cell 'Q1'"


class TestVerification:
    def test_affine_abstraction_is_tight(self):
        inputs = fig8_affine_inputs()
        sys = build_abstraction(fig8_cover(L), inputs, FIG8_AVAILABILITY)
        assert verify_mcr_interval(fig8_cover(L), sys, inputs)
        assert verify_asr_interval(fig8_cover(L), sys, inputs)

    def test_constant_abstraction_contains_by_construction(self):
        for shift in (Fraction(1, 3), Fraction(1), Fraction(0)):
            inputs = constant_inputs(shift)
            sys = build_abstraction(fig8_cover(L), inputs, FIG8_AVAILABILITY)
            assert verify_mcr_interval(fig8_cover(L), sys, inputs)

    def test_cover_spans_its_hull(self):
        cover = fig8_cover(L)
        assert reference_interval_covered(cover.hull(), [cell for _, cell in cover.cells])

    def test_dropping_a_successor_breaks_containment(self):
        inputs = constant_inputs(Fraction(1, 2))
        sys = build_abstraction(fig8_cover(L), inputs, FIG8_AVAILABILITY)
        trimmed = {
            key: (succ - {"q3"} if key == ("q1", "k1") else succ)
            for key, succ in sys.trans.items()
        }
        shrunk = FiniteTransitionSystem(sys.states, sys.inputs, trimmed)
        assert not verify_mcr_interval(fig8_cover(L), shrunk, inputs)

    @pytest.mark.parametrize("verify", [verify_mcr_interval, verify_asr_interval])
    def test_row_input_without_law_is_named(self, verify):
        sys = build_abstraction(fig8_cover(L), fig8_affine_inputs(), FIG8_AVAILABILITY)
        with pytest.raises(DomainError, match="unknown abstract input 'k2'"):
            verify(fig8_cover(L), sys, fig8_affine_inputs()[:1])

    def test_empty_availability_vacuous(self):
        sys = build_abstraction(fig8_cover(L), fig8_affine_inputs(), {})
        assert verify_mcr_interval(fig8_cover(L), sys, fig8_affine_inputs())

    def test_overlap_creates_the_existential_universal_gap(self):
        # Two cells sharing the origin; pushing the negatives right by L
        # lands exactly on the positive cell, but the shared origin also
        # quantizes into the negative cell.
        cover = CellCover((
            ("qa", IntervalCell(-L, Fraction(0))),
            ("qb", IntervalCell(Fraction(0), L)),
        ))
        inputs = (
            AbstractInput("k", AffineMap(Fraction(0), L)),
            AbstractInput("stay", AffineMap(Fraction(-1), Fraction(0))),
        )
        shrunk = FiniteTransitionSystem(
            ("qa", "qb"), ("k", "stay"),
            {("qa", "k"): {"qb"}, ("qb", "stay"): {"qa", "qb"}},
        )
        assert verify_asr_interval(cover, shrunk, inputs)
        assert not verify_mcr_interval(cover, shrunk, inputs)

    def test_partition_has_no_gap(self):
        cover = CellCover((
            ("qa", IntervalCell(-L, Fraction(0), True, False)),
            ("qb", IntervalCell(Fraction(0), L)),
        ))
        inputs = (
            AbstractInput("k", AffineMap(Fraction(0), L)),
            AbstractInput("stay", AffineMap(Fraction(-1), Fraction(0))),
        )
        sys = build_abstraction(cover, inputs, {"qa": ["k"], "qb": ["stay"]})
        assert sys.successors("qa", "k") == frozenset({"qb"})
        assert verify_asr_interval(cover, sys, inputs)
        assert verify_mcr_interval(cover, sys, inputs)

    def test_asr_handles_split_pieces(self):
        # The image [0, 1] of the source cell falls on two halves: closed
        # halves share 1/2 and cover it, open ends at 1/2 leave it out.
        inputs = (AbstractInput("k", AffineMap(Fraction(0), Fraction(2))),)
        for half_closed, asr in ((True, True), (False, False)):
            cover = CellCover((
                ("src", IntervalCell(Fraction(-2), Fraction(-1))),
                ("a", IntervalCell(Fraction(0), Fraction(1, 2), True, half_closed)),
                ("b", IntervalCell(Fraction(1, 2), Fraction(1), half_closed, True)),
            ))
            sys = build_abstraction(cover, inputs, {"src": ["k"]})
            assert sys.successors("src", "k") == frozenset({"a", "b"})
            got = verify_both(cover, sys, inputs)
            assert got == reference_verify(cover, sys, inputs) == (True, asr)


class TestFig8Separation:
    @pytest.mark.parametrize("bound", [Fraction(1), Fraction(2), Fraction(1, 2)])
    def test_constant_cases(self, bound):
        cover = fig8_cover(bound)
        shifts = constant_shift_abstraction(cover)

        def row(name, shift):
            return shifts.successors(name, jsonio.fraction_to_str(shift))

        assert row("q1", bound / 2) == row("q3", -bound / 2) == frozenset({"q1", "q2", "q3"})
        assert row("q1", bound) == frozenset({"q2", "q3"})
        assert row("q3", -bound) == frozenset({"q1", "q2"})
        assert row("q1", Fraction(0)) == frozenset({"q1"})
        assert row("q3", Fraction(0)) == frozenset({"q3"})
        assert synthesize_reach_avoid(shifts, fig8_target_spec(cover)) is None

    def test_affine_success(self):
        cover, inputs = fig8_cover(L), fig8_affine_inputs()
        affine = build_abstraction(cover, inputs, FIG8_AVAILABILITY)
        result = synthesize_reach_avoid(affine, fig8_target_spec(cover))
        assert result is not None and affine.is_deterministic()
        assert result.rank == {"q1": 1, "q2": 0, "q3": 1}
        assert verify_mcr_interval(cover, affine, inputs)

    def test_one_step_to_origin_symbolically(self):
        law = fig8_affine_inputs()[0].law
        rng = random.Random(3)
        for _ in range(200):
            x = Fraction(rng.randint(-1000, 1000), 1000)
            if x == 0:
                continue
            assert law.closed_loop(x) == 0

    def test_direct_synthesis_on_generic_constant_case(self):
        inputs = constant_inputs(Fraction(1, 2))
        sys = build_abstraction(fig8_cover(L), inputs, FIG8_AVAILABILITY)
        assert synthesize_reach_avoid(sys, fig8_target_spec(fig8_cover(L))) is None


SMALL_ENDPOINTS = st.sampled_from((1, 2, 3)).flatmap(
    lambda q: st.integers(-2 * q, 2 * q).map(lambda k: Fraction(k, q))
)


def reference_constant_shifts(cover):
    """Every admissible row of the plant x' = x + c, keyed (cell, c), for each
    c on the multiples of 1/(2d) that can keep a cell's image on the hull,
    quantized with the public ``quantize``: no critical values.  An image
    that the cells do not cover, even in part, is left out."""
    d = math.lcm(*(v.denominator for _, cell in cover.cells for v in (cell.lo, cell.hi)))
    hull = reference_hull(cover)
    cells = [cell for _, cell in cover.cells]
    rows = {}
    for name, cell in cover.cells:
        for m in range(int((hull.lo - cell.hi) * 2 * d), int((hull.hi - cell.lo) * 2 * d) + 1):
            c = Fraction(m, 2 * d)
            image = IntervalCell(cell.lo + c, cell.hi + c, cell.lo_closed, cell.hi_closed)
            try:
                found = quantize(cover, image)
            except OutOfDomainError:
                continue
            if reference_interval_covered(image, cells):
                rows[name, c] = found
    return rows


def reference_losing(rows, names, target):
    """The cells from which no choice of rows forces the target."""
    winning, grew = set(target), True
    while grew:
        grew = False
        for (name, _), succ in rows.items():
            if name not in winning and succ <= winning:
                winning.add(name)
                grew = True
    return set(names) - winning


def least_losing(abstraction, target):
    spec = ReachAvoidSpec(frozenset(abstraction.states), frozenset(target), frozenset())
    return min(spec.initial - winning_region(abstraction, spec)[0], default=None)


def uniform_grid(k, width):
    return jsonio.cover_from_obj(grid_cover_document(k, width))[0]


class TestConstantShiftAbstraction:
    @settings(max_examples=200, deadline=None)
    @given(cover=covers(max_cells=5, values=SMALL_ENDPOINTS), data=st.data())
    def test_rows_equal_the_brute_force_reference(self, cover, data):
        got = constant_shift_abstraction(cover)
        want = reference_constant_shifts(cover)
        rows = {key: succ for key, succ in got.trans.items() if succ}
        # Each label is its shift, and the row is that shift's quantization.
        assert all(want[name, Fraction(label)] == succ for (name, label), succ in rows.items())
        assert set(got.inputs) == {label for _, label in rows}
        for name in cover.names:
            assert ({succ for (x, _), succ in rows.items() if x == name}
                    == {succ for (x, _), succ in want.items() if x == name})
        target = data.draw(st.sets(st.sampled_from(cover.names), min_size=1))
        losing = reference_losing(want, cover.names, target)
        assert least_losing(got, target) == min(losing, default=None)
        spec = ReachAvoidSpec(frozenset(cover.names), frozenset(target), frozenset())
        assert (synthesize_reach_avoid(got, spec) is not None) == (not losing)

    @pytest.mark.parametrize("bound", [Fraction(1), Fraction(1, 3), Fraction(7, 5)])
    def test_fig8_verdict(self, bound):
        shifts = constant_shift_abstraction(fig8_cover(bound))
        rows = {key: succ for key, succ in shifts.trans.items() if succ}
        assert len(rows) == 11
        assert least_losing(shifts, {"q2"}) == "q1"
        assert [sorted(rows["q1", jsonio.fraction_to_str(c)]) for c in (0, bound / 2, bound)] == [
            ["q1"], ["q1", "q2", "q3"], ["q2", "q3"]]

    @pytest.mark.parametrize("width", [Fraction(1), Fraction(3, 7)])
    @pytest.mark.parametrize("k", [5, 10, 20])
    def test_uniform_grid_verdict(self, k, width):
        # No shift sends n0001 = [-w, 0) onto the point z, but a shift by w
        # sends each farther cell onto its neighbour.
        shifts = constant_shift_abstraction(uniform_grid(k, width))
        assert least_losing(shifts, {"z"}) == "n0001"
        assert least_losing(shifts, {"z", "n0001", "p0001"}) is None

    def test_rows_of_a_cover_with_overlaps_and_a_gap(self):
        # The hull is [-1, 3] and [1, 2] is a gap: a's image {1/2 + c} is
        # left out at c = 1/2, 1 and 3/2.  b = [-1, 1/2] is wider than zz, so
        # only [-1, 1) holds its image, for 0 <= c < 1/2: at c = 1/2 the image
        # reaches the gap at 1, and the rows that met the gap in part are gone.
        # The cells are listed against the order of their names.
        cover = CellCover((
            ("zz", IntervalCell(Fraction(2), Fraction(3), False, True)),
            ("b", IntervalCell(Fraction(-1), Fraction(1, 2))),
            ("a", IntervalCell.point(Fraction(1, 2))),
            ("m", IntervalCell(Fraction(0), Fraction(1), True, False)),
        ))
        shifts = constant_shift_abstraction(cover)

        def rows(name):
            return {str(Fraction(u)): "".join(sorted(shifts.trans[name, u]))
                    for u in sorted(shifts.available_inputs(name), key=Fraction)}

        assert rows("a") == {"-3/2": "b", "-1": "b", "-1/2": "bm", "-1/4": "bm", "0": "abm",
                             "1/4": "m", "2": "zz", "5/2": "zz"}
        assert rows("b") == {"0": "abm", "1/4": "abm"}
        assert rows("m") == {"-1": "b", "-3/4": "bm", "-1/2": "bm", "-1/4": "abm", "0": "abm"}
        assert rows("zz") == {"-3": "bm", "-11/4": "bm", "-5/2": "abm", "-9/4": "abm", "0": "zz"}
        assert shifts.inputs == tuple(sorted(shifts.inputs))
        assert least_losing(shifts, {"a"}) == "b"

    def test_image_partly_in_a_gap_is_infeasible(self):
        # t = [3/2, 12/5] is narrower than a = [0, 1], so every shift that
        # moves a onto t alone sends part of a into the gap (1, 3/2): only
        # the shift 0 is left at a, and no constant shift reaches t from a.
        cover = CellCover((
            ("a", IntervalCell(Fraction(0), Fraction(1))),
            ("t", IntervalCell(Fraction(3, 2), Fraction(12, 5))),
        ))
        shifts = constant_shift_abstraction(cover)
        assert shifts.available_inputs("a") == ("0/1",)
        assert shifts.successors("a", "0/1") == frozenset({"a"})
        spec = ReachAvoidSpec(frozenset(cover.names), frozenset({"t"}), frozenset())
        assert synthesize_reach_avoid(shifts, spec) is None
        assert least_losing(shifts, {"t"}) == "a"


class TestRefinementBridge:
    def build_fine_coarse_pair(self):
        """A finer partition of the same segment, driven by the same affine
        input alphabet, refines the three-cell abstraction."""
        half = L / 2
        fine_cover = CellCover((
            ("f1", IntervalCell(-L, -half, True, False)),
            ("f2", IntervalCell(-half, Fraction(0), True, False)),
            ("f3", IntervalCell.point(0)),
            ("f4", IntervalCell(Fraction(0), half, False, True)),
            ("f5", IntervalCell(half, L, False, True)),
        ))
        availability = {
            "f1": ["k1"], "f2": ["k1"], "f3": ["k2"], "f4": ["k3"], "f5": ["k3"],
        }
        fine = build_abstraction(fine_cover, fig8_affine_inputs(), availability)
        coarse = build_abstraction(fig8_cover(L), fig8_affine_inputs(), FIG8_AVAILABILITY)
        refinement = Relation(
            fine.states, coarse.states,
            frozenset({
                ("f1", "q1"), ("f2", "q1"), ("f3", "q2"), ("f4", "q3"), ("f5", "q3"),
            }),
        )
        return fine, coarse, refinement

    def test_shared_alphabet_refinement_holds(self):
        fine, coarse, refinement = self.build_fine_coarse_pair()
        assert check_frr(fine, coarse, refinement).holds
        assert check_mcr(fine, coarse, refinement).holds

    def test_refinement_interface_is_identity(self):
        fine, coarse, refinement = self.build_fine_coarse_pair()
        iface = maximal_interface(fine, coarse, refinement, RelationKind.FRR)
        for (x1, x2, u2), us in iface.table.items():
            assert us == frozenset({u2})


# ``build_abstraction`` seals its table unchecked; the checking constructor
# it used before is kept here as the reference, on rows found by the scan.


def checked_build(cover, inputs, availability):
    """The former ``build_abstraction``: the rows in cover order and sorted
    availability order, each quantized by the scan, handed with the cover's
    names and every law's name to the checking constructor."""
    if unknown := set(availability).difference(cover.names):
        raise DomainError(f"availability names unknown cell {min(unknown)!r}")
    laws = {ai.name: ai.law for ai in inputs}
    rows = {}
    for name, cell in cover.cells:
        for u in sorted(set(availability.get(name, ()))):
            if u not in laws:
                raise DomainError(f"unknown abstract input {u!r}")
            image = affine_image(cell, laws[u])
            try:
                found = reference_quantize(cover, image)
            except OutOfDomainError as err:
                raise OutOfDomainError(
                    f"image of cell {name!r} under {u!r} leaves the domain: {err}") from None
            if not found:
                raise OutOfDomainError(f"image of cell {name!r} under {u!r} meets no cell: "
                                       f"{image.describe()} lies in a gap of the cover")
            rows[name, u] = found
    return FiniteTransitionSystem(cover.names, [ai.name for ai in inputs], rows)


def build_case(seed):
    """A cover of overlapping cells with gaps, in shuffled order; laws that
    share names; availability lists that are unsorted and repeat entries.
    Every name is its own object.  Now and then an availability list names a
    law that does not exist, or availability names a cell that does not."""
    rng = random.Random(seed)
    ends = sorted({Fraction(k, rng.choice((1, 2, 3))) for k in range(-6, 7)})
    cells = []
    for i in range(rng.randint(1, 7)):
        lo, hi = sorted(rng.sample(ends, 2))
        cell = IntervalCell(lo, hi, rng.random() < 0.5, rng.random() < 0.5)
        cells.append((fresh(f"c{i}"), IntervalCell.point(lo) if rng.random() < 0.15 else cell))
    rng.shuffle(cells)
    cover = CellCover(cells)
    inputs = tuple(
        AbstractInput(fresh(rng.choice(("k0", "k1", "k2"))),
                      AffineMap(Fraction(rng.randint(-4, 1), 2), Fraction(rng.randint(-3, 3), 3)))
        for _ in range(rng.randint(1, 4))
    )
    names = [ai.name for ai in inputs] + ["kz"] * (rng.random() < 0.1)
    availability = {
        fresh(q): [fresh(rng.choice(names)) for _ in range(rng.randint(0, 4))]
        for q in cover.names if rng.random() < 0.8
    }
    if rng.random() < 0.05:
        availability[fresh("zz")] = [fresh(names[0])]
    return cover, inputs, availability


# The four faults of a build: unknown cell, unknown input, off-hull row, gap row.
BUILD_ERRORS = ("availability names unknown cell", "unknown abstract input",
                "leaves the domain", "meets no cell")


def test_build_abstraction_matches_the_checking_constructor():
    """Equal fields, rows in the same order, the carriers' own objects in
    every key, successor set and availability tuple, and the same errors."""
    def shared(names, carrier):
        one = dict(zip(carrier, carrier))
        return all(name is one[name] for name in names)

    kinds = set()
    for seed in range(3000):
        cover, inputs, availability = build_case(seed)
        got = outcome(build_abstraction, cover, inputs, availability)
        want = outcome(checked_build, cover, inputs, availability)
        if not isinstance(want, FiniteTransitionSystem):
            assert got == want, seed
            kinds.add(next(kind for kind in BUILD_ERRORS if kind in want[1]))
            continue
        if len(got.inputs) < len(inputs) and any(got.trans.values()):
            kinds.add("built with a law name held twice")
        assert (got.states, got.inputs, got._avail) == (want.states, want.inputs, want._avail)
        assert list(got.trans.items()) == list(want.trans.items())
        assert all(a is b for a, b in zip(got.states + got.inputs, want.states + want.inputs))
        assert shared((x for x, _ in got.trans), got.states)
        assert shared((u for _, u in got.trans), got.inputs)
        assert shared((q for row in got.trans.values() for q in row), got.states)
        assert shared((u for us in got._avail.values() for u in us), got.inputs)
    assert kinds == {"built with a law name held twice", *BUILD_ERRORS}
