import math

import pytest

from cayleywl import (
    CayleyGraph,
    GroupSpec,
    cr_stabilize,
    eigenvalue_classes,
    numeric_spectrum,
    predicted_individualized_partition,
    stabilizer_subgroup,
    uniform_coloring,
)
from cayleywl.tinhofer import individualize
from cayleywl.wl import partition_from_coloring
from invariants import all_connection_sets, check_spectrum_grouping, group_spectrum


def test_stabilizer_examples():
    sd = stabilizer_subgroup(7, {1, 6})
    assert sd.h_elements == (1, 6) and sd.d_con == 3
    sd = stabilizer_subgroup(7, {1, 2, 4})
    assert sd.h_elements == (1, 2, 4) and sd.d_con == 2
    sd = stabilizer_subgroup(5, {1, 2, 3, 4})
    assert sd.h_elements == (1, 2, 3, 4) and sd.d_con == 1


def test_stabilizer_validation():
    with pytest.raises(ValueError):
        stabilizer_subgroup(6, {1})
    with pytest.raises(ValueError):
        stabilizer_subgroup(7, set())
    with pytest.raises(ValueError):
        stabilizer_subgroup(7, {0, 1})


def test_stabilizer_is_subgroup():
    for p in (5, 7, 11):
        for con in all_connection_sets(p):
            if not con:
                continue
            sd = stabilizer_subgroup(p, con)
            h = set(sd.h_elements)
            assert 1 in h
            assert all((a * b) % p in h for a in h for b in h)
            assert sd.d_con * len(h) == p - 1
            assert all({(x * c) % p for c in con} == set(con) for x in h)


def test_eigenvalue_classes_examples():
    assert eigenvalue_classes(stabilizer_subgroup(7, {1, 6})).to_text() == "0|1,6|2,5|3,4"
    assert eigenvalue_classes(stabilizer_subgroup(7, {1, 2, 4})).to_text() == "0|1,2,4|3,5,6"
    assert eigenvalue_classes(stabilizer_subgroup(5, {1, 2, 3, 4})).to_text() == "0|1,2,3,4"


def test_numeric_spectrum_values():
    sd = stabilizer_subgroup(5, {1, 4})
    values = numeric_spectrum(sd)
    assert values[0] == complex(2)
    assert math.isclose(values[1].real, 2 * math.cos(2 * math.pi / 5), abs_tol=1e-12)
    assert math.isclose(values[1].real, 0.618034, abs_tol=5e-7)
    sd7 = stabilizer_subgroup(7, {1, 6})
    v7 = numeric_spectrum(sd7)
    assert abs(v7[1] - v7[6]) < 1e-9
    with pytest.raises(ValueError):
        group_spectrum(sd, values, tolerance=0.0)


def test_spectrum_grouping_matches_exact_classes():
    assert check_spectrum_grouping((3, 5, 7)) == 3 + 15 + 63


def test_group_spectrum_single_class_for_huge_tolerance():
    sd = stabilizer_subgroup(7, {1, 6})
    grouped = group_spectrum(sd, numeric_spectrum(sd), tolerance=100.0)
    assert grouped.class_count == 1


def test_predicted_partition_examples():
    sd = stabilizer_subgroup(7, {1, 6})
    assert predicted_individualized_partition(sd, 0).to_text() == "0|1,6|2,5|3,4"
    sd = stabilizer_subgroup(7, {1, 2, 4})
    part = predicted_individualized_partition(sd, 3)
    assert {frozenset(c) for c in part.classes} == {
        frozenset({3}),
        frozenset({4, 5, 0}),
        frozenset({6, 1, 2}),
    }
    sd = stabilizer_subgroup(5, {1, 2, 3, 4})
    assert predicted_individualized_partition(sd, 0).to_text() == "0|1,2,3,4"


def test_predicted_partition_shape():
    for p in (5, 7, 11):
        for con in all_connection_sets(p):
            if not con:
                continue
            sd = stabilizer_subgroup(p, con)
            for g0 in (0, p // 2):
                part = predicted_individualized_partition(sd, g0)
                assert part.class_count == sd.d_con + 1
                assert part.class_of(g0) == (g0,)


def test_prediction_matches_refinement_oracle():
    for p in (5, 7):
        spec = GroupSpec((p,))
        for con in all_connection_sets(p):
            if not con or len(con) == p - 1:
                continue
            sd = stabilizer_subgroup(p, con)
            cg = CayleyGraph(spec, con)
            for g0 in range(p):
                trace = cr_stabilize(cg, individualize(uniform_coloring(p), g0))
                got = partition_from_coloring(trace.final, spec)
                assert got.classes == predicted_individualized_partition(sd, g0).classes
