"""Input validation at every public entry point that takes a pair, and of
every seed.

Each input vector is validated in one pass that also measures its
inf-norm; a NaN or an infinity anywhere in it must still be caught, as
must a complex, text or ragged value, and the error must name the vector
that carries it.  A seed is an int or a
numpy integer, not a bool, of at least 0, as a dimension is one of at least 1.
A real array holds bools, integers, floats or ``numbers.Real`` objects; a real
scalar (a multiplier, a band, a tol) is a ``numbers.Real`` that is not a bool.
"""

import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from crossproj import (
    AffinePairConstraint,
    BoxPairConstraint,
    DimensionMismatch,
    DomainError,
    Pair,
    Tolerances,
    alternating_projections,
    as_pair,
    as_vector,
    block_solve,
    check,
    classify,
    default_start,
    douglas_rachford,
    family_samples,
    generate_instance,
    inner,
    lagrangian_oracle,
    norm,
    objective,
    project,
    subspace_oracle,
)
from crossproj.projection import DEFAULT_TOLS, _unit

N = 5
BAD = {"nan": math.nan, "+inf": math.inf, "-inf": -math.inf}
POSITIONS = {"first": 0, "middle": N // 2, "last": N - 1}
_PROBLEM, _ = generate_instance("orthant", N, 0)


def _ap(x, y):
    return alternating_projections(_PROBLEM, (x, y), max_iter=3)


def _dr(x, y):
    return douglas_rachford(_PROBLEM, (x, y), max_iter=3)


def _distance_sq(x0, y0):
    # the squared distance as callers take it from project's result
    return 2.0 * project(x0, y0).half_dist_sq


def _solve_lambda(x0, y0):
    # the multiplier roots as check and the oracles read them, from the
    # unit-scale record; the small one is project's lam
    core = _unit(x0, y0, DEFAULT_TOLS)
    return core.lam, core.lam_plus


def _objective(x0, y0):
    # the point is finite, so every error is the input's
    return objective(Pair(np.zeros(N), np.zeros(N)), x0, y0)


# entry point -> the names its errors give the two components
PAIR_ENTRIES = {
    "project": (project, ("x0", "y0")),
    "distance_sq": (_distance_sq, ("x0", "y0")),
    "classify": (classify, ("x0", "y0")),
    "check": (check, ("x0", "y0")),
    "as_pair": (as_pair, ("x", "y")),
    "block_solve": (lambda x, y: block_solve(0.5, (x, y)), ("x", "y")),
    "alternating_projections": (_ap, ("x", "y")),
    "douglas_rachford": (_dr, ("x", "y")),
    "inner": (inner, ("x", "y")),
    # |<x, y>|, the amount by which a pair misses the cross
    "membership_residual": (lambda x, y: abs(inner(x, y)), ("x", "y")),
    "objective": (_objective, ("x0", "y0")),
    "solve_lambda": (_solve_lambda, ("x0", "y0")),
    "lagrangian_oracle": (lagrangian_oracle, ("x0", "y0")),
    "subspace_oracle": (subspace_oracle, ("x0", "y0")),
    "family_samples": (lambda x, y: family_samples(x, y, 3), ("x0", "y0")),
}


def _finite_pair():
    rng = np.random.default_rng(7)
    return rng.uniform(-1.0, 1.0, N), rng.uniform(-1.0, 1.0, N)


@pytest.mark.parametrize("entry", PAIR_ENTRIES)
@pytest.mark.parametrize("where", ["x0", "y0", "both"])
@pytest.mark.parametrize("pos", POSITIONS)
@pytest.mark.parametrize("bad", BAD)
def test_non_finite_coordinate_names_its_vector(entry, where, pos, bad):
    fn, names = PAIR_ENTRIES[entry]
    x, y = _finite_pair()
    if where in ("x0", "both"):
        x[POSITIONS[pos]] = BAD[bad]
    if where in ("y0", "both"):
        y[POSITIONS[pos]] = BAD[bad]
    # with both bad, the first component is validated first
    named = names[1] if where == "y0" else names[0]
    with pytest.raises(DomainError, match=f"^{named} has non-finite coordinates$"):
        fn(x, y)


@pytest.mark.parametrize("pos", POSITIONS)
@pytest.mark.parametrize("bad", BAD)
def test_as_vector_non_finite(pos, bad):
    v = np.ones(N)
    v[POSITIONS[pos]] = BAD[bad]
    with pytest.raises(DomainError, match="^v has non-finite coordinates$"):
        as_vector(v, "v")


@pytest.mark.parametrize("bad", BAD)
def test_nan_in_second_vector_below_first_norm(bad):
    # |x0|_inf = 1e300 must not hide y0's bad coordinate when the two
    # inf-norms are combined into one scale
    x = np.full(N, 1e300)
    y = np.full(N, 1e-300)
    y[-1] = BAD[bad]
    with pytest.raises(DomainError, match="^y0 has non-finite"):
        project(x, y)
    with pytest.raises(DomainError, match="^y has non-finite"):
        as_pair(x, y)


def test_x0_named_before_y0_that_is_not_numeric():
    # y0 fails conversion to floats, yet the error is x0's, as validation orders them
    with pytest.raises(DomainError, match="^x0 has non-finite"):
        project(np.array([np.inf]), ["a"])
    with pytest.raises(DomainError, match="^x0 has non-finite"):
        project([math.nan], "abc")
    with pytest.raises(DomainError, match="^y0 must hold real numbers$"):
        project([1.0], "abc")


# values that are not vectors of real numbers: numpy would drop the imaginary
# part of a complex one with only a ComplexWarning, and float() reads text,
# bytes and Decimal objects and turns None into NaN
NOT_REAL = {
    "complex": np.full(N, 1.0 + 2.0j),
    "complex_zero_imag": np.full(N, 1.0 + 0.0j),
    "text": "abc",
    "ragged": [1.0, [2.0]],
    "text_objects": np.array([str(i + 1) for i in range(N)], dtype=object),
    "bytes_object": np.array([b"1"] + [2.0] * (N - 1), dtype=object),
    "none_object": np.array([None] + [2.0] * (N - 1), dtype=object),
    "decimal_objects": np.array([Decimal(i + 1) for i in range(N)], dtype=object),
}


@pytest.mark.parametrize("entry", PAIR_ENTRIES)
@pytest.mark.parametrize("where", ["x0", "y0"])
@pytest.mark.parametrize("value", NOT_REAL)
def test_not_real_names_its_vector(entry, where, value):
    fn, names = PAIR_ENTRIES[entry]
    x, y = _finite_pair()
    if where == "x0":
        x = NOT_REAL[value]
    else:
        y = NOT_REAL[value]
    named = names[0] if where == "x0" else names[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{named} must hold real numbers$"):
            fn(x, y)


def test_complex_refused_by_as_vector_and_member():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^v must hold real numbers$"):
            as_vector([1j], "v")
        fam = project([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(DomainError, match="^u must hold real numbers$"):
            fam.member(np.array([1.0 + 0.0j, 0.0]))


REAL_DTYPES = {
    "int": lambda v: v.astype(int),
    "bool": lambda v: v != 0.0,
    "float32": lambda v: v.astype(np.float32),
    "big_endian": lambda v: v.astype(">f8"),
    "fraction_objects": lambda v: np.array([Fraction(c) for c in v], dtype=object),
    "int_list": lambda v: [int(c) for c in v],
    "mixed_objects": lambda v: np.array([np.float64(v[0]), int(v[1]), Fraction(v[2])],
                                        dtype=object),
}


@pytest.mark.parametrize("dtype", REAL_DTYPES)
def test_real_dtypes_give_the_bits_of_their_float64_copy(dtype):
    # each case: generic, orthogonal, degenerate, and the origin
    for x0, y0 in [([3, 0, -2], [1, 5, 0]), ([1, 0, 0], [0, 2, 0]), ([1, 2, 0], [1, 2, 0]),
                   ([0, 0, 0], [0, 0, 0])]:
        x, y = REAL_DTYPES[dtype](np.array(x0, float)), REAL_DTYPES[dtype](np.array(y0, float))
        xf, yf = np.asarray(x).astype(float), np.asarray(y).astype(float)
        got, want = project(x, y), project(xf, yf)
        assert (got.tag, got.half_dist_sq, got.dist) == (want.tag, want.half_dist_sq, want.dist)
        for a, b in zip(got.selections(), want.selections(), strict=True):
            assert a.x.tobytes() + a.y.tobytes() == b.x.tobytes() + b.y.tobytes()
        assert as_vector(x).tobytes() == xf.tobytes()
        assert norm(x) == norm(xf)
        assert BoxPairConstraint(x, xf, xf, xf).lo_x.tobytes() == xf.tobytes()


def test_int_beyond_the_float_range_is_not_finite():
    with pytest.raises(DomainError, match="^x0 has non-finite coordinates$"):
        project([2**1100, 1], [1, 2])


SHAPE_ERRORS = {
    "2-D": (np.ones((2, 2)), np.ones(2)),
    "empty": (np.ones(0), np.ones(0)),
    "2-D y": (np.ones(4), np.ones((2, 2))),
}


@pytest.mark.parametrize("entry", PAIR_ENTRIES)
@pytest.mark.parametrize("shape", SHAPE_ERRORS)
def test_structural_errors(entry, shape):
    fn, names = PAIR_ENTRIES[entry]
    x, y = SHAPE_ERRORS[shape]
    named = names[1] if shape == "2-D y" else names[0]
    with pytest.raises(DomainError, match=f"^{named} must be a 1-D vector"):
        fn(x, y)


@pytest.mark.parametrize("entry", PAIR_ENTRIES)
def test_mismatched_sizes(entry):
    fn, _ = PAIR_ENTRIES[entry]
    with pytest.raises(DimensionMismatch):
        fn(np.ones(N), np.ones(N - 1))


def test_scalar_input_is_a_vector_of_dimension_one():
    assert as_vector(np.float64(2.5)).shape == (1,)
    assert as_vector(-3.0).tolist() == [-3.0]
    p = as_pair(1.0, 2.0)
    assert p.x.shape == p.y.shape == (1,)
    res = project(2.0, 1.0)
    assert res.point.x.shape == (1,)
    assert _distance_sq(2.0, 1.0) == pytest.approx(1.0)
    with pytest.raises(DomainError, match="^x0 has non-finite"):
        project(math.nan, 1.0)


SEED_ENTRIES = {
    "check": lambda seed: check([1.0, 2.0], [3.0, 1.0], seed=seed),
    "generate_instance": lambda seed: generate_instance("box", 3, seed),
    "default_start": lambda seed: default_start("box", 3, seed),
}


@pytest.mark.parametrize("entry", SEED_ENTRIES)
@pytest.mark.parametrize(
    "seed", [-1, np.int64(-1), 1.5, True, "0", None], ids=["-1", "int64_-1", "1.5", "True", "str", "None"]
)
def test_seed_must_be_a_non_negative_integer(entry, seed):
    with pytest.raises(DomainError, match="^seed must be an integer >= 0$"):
        SEED_ENTRIES[entry](seed)


@pytest.mark.parametrize("entry", SEED_ENTRIES)
def test_numpy_integer_seed_is_its_int(entry):
    fn = SEED_ENTRIES[entry]
    for seed in (0, 5):
        a, b = fn(seed), fn(np.int32(seed))
        if entry == "check":
            assert a.items == b.items
        else:
            assert repr(a) == repr(b)


def _box(lo_x):
    return BoxPairConstraint(lo_x, [1.0], [0.0], [1.0])


# arrays outside the pair entry points, read by the same rule and refused, naming
# what carries them
NOT_REAL_ARRAYS = {
    "as_vector_none": (lambda: as_vector(np.array([None], dtype=object), "v"), "v"),
    "norm_text": (lambda: norm(["3", "4"]), "x"),
    "norm_complex_list": (lambda: norm([3 + 4j]), "x"),
    "norm_complex_array": (lambda: norm(np.array([3 + 4j])), "x"),
    "norm_none": (lambda: norm(np.array([None], dtype=object)), "x"),
    "box_text": (lambda: _box(["-1"]), "instance field 'lo_x'"),
    "box_complex": (lambda: _box(np.array([-1 + 5j])), "instance field 'lo_x'"),
    "box_ragged": (lambda: BoxPairConstraint([1.0], [2.0], [[1.0], 2.0], [2.0]),
                   "instance field 'lo_y'"),
    "affine_complex_basis": (lambda: AffinePairConstraint(
        np.zeros(2), np.eye(2) + 0j, np.zeros(2), np.eye(2)), "instance field 'basis_x'"),
}


@pytest.mark.parametrize("case", NOT_REAL_ARRAYS)
def test_array_rule_refuses_what_is_not_real(case):
    fn, named = NOT_REAL_ARRAYS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{named} must hold real numbers$"):
            fn()


def test_norm_passes_non_finite_values_through():
    # check measures non-finite points with norm, so it validates only their numbers
    assert norm([math.inf, 1.0]) == math.inf
    assert math.isnan(norm([math.nan, 1.0]))
    with pytest.raises(DomainError, match="^x has non-finite coordinates$"):
        norm([2**1100])  # an int beyond the float range has no float64 copy


def _tol_run(tol):
    return alternating_projections(_PROBLEM, (np.ones(N), np.ones(N)), max_iter=3, tol=tol)


# real scalars that are not real numbers by the one rule for scalars
NOT_REAL_SCALARS = {
    "orth_text": (lambda: Tolerances(orth="a"), "tolerance orth"),
    "orth_complex": (lambda: Tolerances(orth=1j), "tolerance orth"),
    "orth_decimal": (lambda: Tolerances(orth=Decimal("1e-12")), "tolerance orth"),
    "deg_bool": (lambda: Tolerances(deg=False), "tolerance deg"),
    "deg_numpy_bool": (lambda: Tolerances(deg=np.False_), "tolerance deg"),
    "multiplier_text": (lambda: block_solve("0.5", Pair([2.0], [1.0])), "multiplier"),
    "multiplier_complex": (lambda: block_solve(0.5 + 1j, Pair([2.0], [1.0])), "multiplier"),
    "multiplier_none": (lambda: block_solve(None, Pair([2.0], [1.0])), "multiplier"),
    "tol_bool": (lambda: _tol_run(True), "tol"),
    "tol_text": (lambda: _tol_run("1e-8"), "tol"),
    "tol_complex": (lambda: _tol_run(1e-8 + 0j), "tol"),
}


@pytest.mark.parametrize("case", NOT_REAL_SCALARS)
def test_scalar_rule_refuses_what_is_not_real(case):
    fn, named = NOT_REAL_SCALARS[case]
    with pytest.raises(DomainError, match=f"^{named} must be a real number$"):
        fn()


def test_int_beyond_the_float_range_fails_the_range_test():
    with pytest.raises(DomainError, match="^multiplier must be finite$"):
        block_solve(-(2**1100), Pair([2.0], [1.0]))
    with pytest.raises(DomainError, match="^tol must be finite and > 0$"):
        _tol_run(2**1100)
    with pytest.raises(DomainError, match="^tolerance deg must be finite, >= 0 and < 1$"):
        Tolerances(deg=Fraction(2**1100))


REAL_SCALARS = {
    "float64": np.float64,
    "int64": np.int64,
    "fraction": Fraction,
}


@pytest.mark.parametrize("kind", REAL_SCALARS)
def test_scalar_rule_keeps_the_bits_of_the_float64_value(kind):
    make = REAL_SCALARS[kind]
    band = make(0) if kind == "int64" else make(1, 4) if kind == "fraction" else make(0.25)
    tols = Tolerances(orth=band, deg=band)
    assert type(tols.orth) is float and tols.orth == float(band) and tols == Tolerances(
        float(band), float(band))
    lam = make(0) if kind == "int64" else make(1, 2) if kind == "fraction" else make(0.5)
    rhs = Pair([2.0, -1.0], [1.0, 3.0])
    got, want = block_solve(lam, rhs), block_solve(float(lam), rhs)
    assert got.x.tobytes() + got.y.tobytes() == want.x.tobytes() + want.y.tobytes()
    tol = make(1) if kind != "float64" else make(1e-8)
    got, want = _tol_run(tol), _tol_run(float(tol))
    assert type(got.config["tol"]) is float and got.config == want.config
    assert (got.residuals_c, got.residuals_b, got.case_tags) == (
        want.residuals_c, want.residuals_b, want.case_tags)
