import collections
import math
import random
import sys

import numpy as np
import pytest

from branchsite.criteria import (
    _DIRECTIONS,
    Band,
    CriterionSpec,
    ScoreScheme,
    Segment,
    SuitabilityClass,
    classify,
    segment_index,
    validate_spec,
)
from branchsite.errors import InputError, SpecificationError

from helpers import (
    _classify_scores,
    check_normalizes_like_reference,
    reference_normalize,
    segment_contains,
)

HIGH = SuitabilityClass.HIGH_SUITABLE
SUIT = SuitabilityClass.SUITABLE
NON = SuitabilityClass.NON_SUITABLE


def spec_near(spec_id, hi_end, suit_end):
    """Near-is-better row: [0, hi_end] high, [hi_end, suit_end] suitable, beyond non."""
    return CriterionSpec(
        id=spec_id,
        kind="distance",
        direction="near_better",
        bands=(
            Band(0, hi_end, HIGH),
            Band(hi_end, suit_end, SUIT),
            Band(suit_end, None, NON),
        ),
    )


MAIN_STREET = spec_near("main_street", 100, 500)

COMPETITOR = CriterionSpec(
    id="competitor_branch",
    kind="distance",
    direction="band",
    bands=(Band(100, 200, HIGH), Band(200, None, SUIT), Band(0, 100, NON)),
)

DENSITY = CriterionSpec(
    id="population_density",
    kind="density",
    direction="far_better",
    bands=(Band(500, None, HIGH), Band(200, 500, SUIT), Band(0, 200, NON)),
)

OFFICE = CriterionSpec(
    id="office",
    kind="distance",
    direction="near_better",
    bands=(Band(0, 250, HIGH), Band(200, 500, SUIT), Band(500, None, NON)),
)

INCOME = CriterionSpec(
    id="income_level",
    kind="categorical",
    categories={"High": HIGH, "Middle": SUIT, "Low": NON},
)

COST = CriterionSpec(
    id="building_cost",
    kind="cost-level",  # alias for categorical
    categories={"Middle": HIGH, "High": SUIT, "Low": NON},
)


class TestClassify:
    def test_main_street_50m_high(self):
        assert classify(validate_spec(MAIN_STREET), 50) is HIGH

    def test_main_street_boundary_100m_belongs_to_high(self):
        assert classify(validate_spec(MAIN_STREET), 100) is HIGH

    def test_competitor_band_shape(self):
        norm = validate_spec(COMPETITOR)
        assert classify(norm, 150) is HIGH
        assert classify(norm, 80) is NON
        assert classify(norm, 100) is HIGH  # shared boundary goes to the better class
        assert classify(norm, 200) is HIGH
        assert classify(norm, 250) is SUIT

    def test_density_550_high(self):
        assert classify(validate_spec(DENSITY), 550) is HIGH

    def test_categorical_levels(self):
        income = validate_spec(INCOME)
        assert classify(income, "High") is HIGH
        assert classify(income, "Middle") is SUIT
        assert classify(income, "Low") is NON
        cost = validate_spec(COST)
        assert classify(cost, "Middle") is HIGH  # band-shaped cost row
        assert classify(cost, "High") is SUIT

    def test_unknown_category_rejected(self):
        with pytest.raises(InputError):
            classify(validate_spec(INCOME), "Medium")

    def test_negative_raw_rejected(self):
        with pytest.raises(SpecificationError):
            classify(validate_spec(MAIN_STREET), -1.0)


def band_tables(st, wild=False):
    """Strategy for a tuple of 1 to 5 drawn bands. A coarse lattice of edges
    makes point, touching and overlapping bands and shared gap midpoints
    common; free floats cover the rest. ``wild`` also draws signed zeros,
    edges near the float maximum, invalid minima (negative, NaN, inf),
    explicit inf maxima and maxima below their minima. No NaN maximum is
    drawn beside a valid minimum."""
    edge = st.one_of(st.integers(0, 12).map(lambda k: k * 12.5), st.floats(0.0, 200.0))
    shapes = ["point", "bounded", "unbounded"]
    if wild:
        edge = st.one_of(edge, st.sampled_from([0.0, -0.0]),
                         st.floats(1e307, sys.float_info.max))
        shapes.append("inf")
    bad_low = st.sampled_from([-1.0, -5e-324, math.nan, math.inf])

    @st.composite
    def bands(draw):
        out = []
        for _ in range(draw(st.integers(1, 5))):
            # a wild band is invalid one time in ten: a bad minimum or hi < lo
            fault = draw(st.integers(0, 19)) if wild else None
            lo = draw(bad_low if fault == 0 else edge)
            shape = "reversed" if fault == 1 else draw(st.sampled_from(shapes))
            hi = {"point": lambda: lo, "bounded": lambda: lo + draw(edge),
                  "unbounded": lambda: None, "inf": lambda: math.inf,
                  "reversed": lambda: math.nextafter(lo, -math.inf)}[shape]()
            out.append(Band(lo, hi, draw(st.sampled_from([HIGH, SUIT, NON]))))
        return tuple(out)

    return bands()


def check_against_reference(hypothesis, examples: int) -> collections.Counter:
    """Check ``validate_spec`` against ``reference_normalize`` on
    ``examples`` wild band tables of every kind and direction, drawn from
    a fixed seed; count the tables that normalize clean, with repairs, or
    not at all, and those with an empty gap, which are not compared."""
    st = hypothesis.strategies
    outcomes = collections.Counter()

    @hypothesis.settings(max_examples=examples, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(bands=band_tables(st, wild=True),
                      kind=st.sampled_from(["distance", "density"]),
                      direction=st.sampled_from(_DIRECTIONS))
    def check(bands, kind, direction):
        got = check_normalizes_like_reference(
            CriterionSpec(id="drawn", kind=kind, direction=direction, bands=bands))
        outcomes["empty gap" if got is None else "rejected" if isinstance(got, str)
                 else "repaired" if got[1] else "clean"] += 1

    check()
    return outcomes


class TestSegmentIndex:
    """The band lookup shared by classify and the rasters, against the
    per-segment comparison rules it replaced."""

    def test_drawn_band_tables(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        scheme = ScoreScheme()

        @st.composite
        def specs(draw):
            spec = CriterionSpec(id="drawn", kind=draw(st.sampled_from(["distance", "density"])),
                                 direction="band", bands=draw(band_tables(st)))
            try:
                return validate_spec(spec)
            except SpecificationError:
                hypothesis.assume(False)

        @hypothesis.settings(max_examples=400, deadline=None)
        @hypothesis.given(spec=specs(),
                          randoms=st.lists(st.floats(0.0, 1e6), max_size=20))
        def check(spec, randoms):
            values = [0.0, -0.0] + randoms
            for seg in spec.segments[:-1]:
                values += [math.nextafter(seg.hi, -math.inf), seg.hi,
                           math.nextafter(seg.hi, math.inf)]
            values = [v for v in values if v >= 0.0]
            raws = np.array(values)
            scores = np.array([scheme.value(seg.cls) for seg in spec.segments])
            got = segment_index(spec, raws)
            assert np.array_equal(scores[got], _classify_scores(spec, raws, scheme))
            for v, k in zip(values, got.tolist()):
                hits = [j for j, seg in enumerate(spec.segments) if segment_contains(seg, v)]
                assert hits == [k], (spec.segments, v)
                assert segment_index(spec, v) == k
                assert classify(spec, v) is spec.segments[k].cls
            for bad in (-5e-324, -0.5, -1e6, math.nan, math.inf, -math.inf,
                        10 ** 400, -(10 ** 400)):
                with pytest.raises(SpecificationError, match="outside the normalized bands"):
                    classify(spec, bad)

        check()

    def test_edges_of_the_point_band(self):
        norm = validate_spec(CriterionSpec(
            id="point", kind="distance", direction="band",
            bands=(Band(0, 10, NON), Band(10, 10, HIGH), Band(10, None, SUIT))))
        assert [classify(norm, v) for v in (math.nextafter(10.0, 0.0), 10.0,
                                            math.nextafter(10.0, 20.0))] == [NON, HIGH, SUIT]
        assert segment_index(norm, np.array([0.0, 10.0, math.inf])).tolist() == [0, 1, 2]


class TestScore:
    def test_default_scheme_values(self):
        scheme = ScoreScheme()
        assert scheme.value(HIGH) == 0.6
        assert scheme.value(SUIT) == 0.4
        assert scheme.value(NON) == 0.0

    def test_strictly_order_reversing(self):
        for scheme in (ScoreScheme(), ScoreScheme(0.9, 0.5, 0.1), ScoreScheme(1.0, 0.2, 0.0)):
            assert scheme.value(HIGH) > scheme.value(SUIT) > scheme.value(NON)

    def test_invalid_scheme_rejected(self):
        with pytest.raises(SpecificationError):
            ScoreScheme(0.4, 0.6, 0.0)
        with pytest.raises(SpecificationError):
            ScoreScheme(0.6, 0.4, -0.1)


class TestValidateSpec:
    def test_office_overlap_repaired_toward_high(self):
        norm = validate_spec(OFFICE)
        assert any("overlap" in r for r in norm.repairs)
        # the contested strip stays with the more suitable class
        assert classify(norm, 225) is HIGH
        assert classify(norm, 250) is HIGH
        assert classify(norm, 300) is SUIT
        assert classify(norm, 500) is SUIT
        assert classify(norm, 501) is NON

    def test_disjoint_bands_no_repairs(self):
        spec = CriterionSpec(
            id="clean",
            kind="distance",
            direction="near_better",
            bands=(Band(0, 100, HIGH), Band(100, 500, SUIT), Band(500, None, NON)),
        )
        norm = validate_spec(spec)
        # only the shared boundaries get resolved; no overlap/gap repairs
        assert not any("gap" in r for r in norm.repairs)

    def test_gap_filled_to_midpoint(self):
        spec = CriterionSpec(
            id="gapped",
            kind="distance",
            direction="near_better",
            bands=(Band(0, 100, HIGH), Band(200, None, SUIT)),
        )
        norm = validate_spec(spec)
        assert any("gap" in r for r in norm.repairs)
        assert classify(norm, 149.9) is HIGH
        assert classify(norm, 150.0) is HIGH  # midpoint owned by the better side
        assert classify(norm, 150.1) is SUIT
        # sweep: every sample lands in exactly one band
        rng = random.Random(1)
        for _ in range(10_000):
            v = rng.uniform(0, 1000)
            hits = [seg for seg in norm.segments if segment_contains(seg, v)]
            assert len(hits) == 1

    def test_idempotent(self):
        for spec in (MAIN_STREET, COMPETITOR, DENSITY, OFFICE, INCOME, COST):
            once = validate_spec(spec)
            assert validate_spec(once) == once

    def test_totality_fuzz(self):
        rng = random.Random(9)
        for spec in (MAIN_STREET, COMPETITOR, DENSITY, OFFICE):
            norm = validate_spec(spec)
            for _ in range(2000):
                v = rng.choice(
                    [rng.uniform(0, 50), rng.uniform(0, 600), rng.uniform(0, 1e6)]
                )
                hits = [seg for seg in norm.segments if segment_contains(seg, v)]
                assert len(hits) == 1, (spec.id, v)
            # exact stated boundaries too
            for v in (0.0, 100.0, 200.0, 250.0, 500.0):
                assert sum(segment_contains(seg, v) for seg in norm.segments) == 1

    def test_partition_structure(self):
        norm = validate_spec(OFFICE)
        assert norm.segments[0].lo == 0.0 and norm.segments[0].lo_inc
        assert math.isinf(norm.segments[-1].hi)
        for a, b in zip(norm.segments, norm.segments[1:]):
            assert a.hi == b.lo and a.hi_inc != b.lo_inc

    def test_empty_bands_rejected(self):
        with pytest.raises(SpecificationError):
            validate_spec(CriterionSpec(id="x", kind="distance", bands=()))

    def test_bad_category_set_rejected(self):
        with pytest.raises(SpecificationError):
            validate_spec(
                CriterionSpec(
                    id="x",
                    kind="categorical",
                    categories={"High": HIGH, "Low": NON},
                )
            )

    def test_direction_mismatch_rejected(self):
        with pytest.raises(SpecificationError):
            validate_spec(
                CriterionSpec(
                    id="backwards",
                    kind="distance",
                    direction="far_better",
                    bands=(Band(0, 100, HIGH), Band(100, None, NON)),
                )
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecificationError):
            CriterionSpec(id="x", kind="mystery", bands=(Band(0, 1, HIGH),))


class TestReferenceNormalize:
    """The one sweep over the band edges against the interval-subtraction
    normalizer it replaced, ``reference_normalize`` in ``tests/helpers.py``:
    the same segments bit for bit, the same repairs in order and the same
    error text, once -0.0 edges read as 0.0. Tables with an empty gap, an
    open stretch between two adjacent floats that no band holds, are not
    compared: the reference repairs it. CI repeats the drawn tables 20,000
    times."""

    def test_drawn_band_tables(self):
        hypothesis = pytest.importorskip("hypothesis")
        outcomes = check_against_reference(hypothesis, 400)
        assert min(outcomes[k] for k in ("clean", "repaired", "rejected")) >= 10, outcomes

    def test_adjacent_float_edges_keep_their_bands(self):
        """The open stretch between 10 and the next float holds no value: it
        is not repaired, and 10 stays with the band that states it."""
        after = math.nextafter(10.0, math.inf)
        spec = CriterionSpec(id="x", kind="distance",
                             bands=(Band(0, 10, NON), Band(after, None, HIGH)))
        norm = validate_spec(spec)
        assert norm.segments == (Segment(0.0, True, 10.0, True, NON),
                                 Segment(10.0, False, math.inf, False, HIGH))
        assert norm.repairs == ()
        assert [classify(norm, v) for v in (10.0, after)] == [NON, HIGH]
        spec = CriterionSpec(id="x", kind="distance", bands=(
            Band(0, 5, HIGH), Band(10, 10, NON), Band(after, None, SUIT)))
        norm = validate_spec(spec)
        assert norm.segments == (Segment(0.0, True, 7.5, True, HIGH),
                                 Segment(7.5, False, 10.0, True, NON),
                                 Segment(10.0, False, math.inf, False, SUIT))
        assert norm.repairs == ("gap (5, 10): filled to midpoint 7.5 (high left, non right)",)
        assert [classify(norm, v) for v in (10.0, after)] == [NON, SUIT]

    def test_adjacent_float_edges_of_one_class_join(self):
        spec = CriterionSpec(id="x", kind="distance",
                             bands=(Band(0, 0, HIGH), Band(5e-324, 5e-324, HIGH)))
        norm = validate_spec(spec)
        assert norm.segments == (Segment(0.0, True, math.inf, False, HIGH),)
        assert norm.repairs == ("gap above 4.94066e-324: extended high to inf",)
        assert reference_normalize(spec).repairs[0].endswith("between high pieces: bridged")

    def test_stated_edges_go_to_the_most_suitable_band(self):
        """Every finite edge a band states classifies to the most suitable
        class among the bands that hold it. About half of the tables get one
        more band, of any class, from the float just above a finite edge e
        already drawn to e + 10 or to infinity, so that two stated edges are
        often adjacent floats with no band across them."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=400, deadline=None)
        @hypothesis.given(bands=band_tables(st, wild=True), data=st.data())
        def check(bands, data):
            edges = [x for b in bands for x in (b.lo, b.hi)
                     if x is not None and math.isfinite(x)]
            if edges and data.draw(st.booleans()):
                e = data.draw(st.sampled_from(edges))
                bands += (Band(math.nextafter(e, math.inf),
                               data.draw(st.sampled_from([e + 10.0, None])),
                               data.draw(st.sampled_from([HIGH, SUIT, NON]))),)
            try:
                norm = validate_spec(CriterionSpec(id="drawn", kind="distance", bands=bands))
            except SpecificationError:
                return
            for x in {x for b in bands for x in (b.lo, b.hi) if x is not None} - {math.inf}:
                holding = [b.cls for b in bands if b.lo <= x and (b.hi is None or x <= b.hi)]
                assert classify(norm, x) is max(holding, key=lambda c: c.rank), (bands, x)

        check()

    def test_nan_maximum_rejected(self):
        spec = CriterionSpec(id="x", kind="distance",
                             bands=(Band(0, 100, HIGH), Band(50, math.nan, NON)))
        with pytest.raises(SpecificationError, match=r"'x': band \[50.0, nan\]"):
            validate_spec(spec)

    def test_negative_zero_edge_reads_as_zero(self):
        spec = CriterionSpec(id="z", kind="distance",
                             bands=(Band(0, 10, HIGH), Band(-0.0, 5, NON)))
        assert validate_spec(spec).repairs == (
            "overlap on [0, 5] claimed by both high and non; kept for high",
            "gap above 10: extended high to inf",
        )
        assert reference_normalize(spec).repairs[0].startswith("overlap on [-0, 5]")
        lone = CriterionSpec(id="z", kind="distance", bands=(Band(-0.0, None, HIGH),))
        assert repr(validate_spec(lone).segments[0].lo) == "0.0"
        assert repr(reference_normalize(lone).segments[0].lo) == "-0.0"
