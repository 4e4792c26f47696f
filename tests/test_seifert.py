import collections
import random

import pytest

from alexpoly import (
    AlexanderMatrix,
    ArfData,
    BalancedClass,
    LaurentPoly,
    NormalizedInput,
    NotSquare,
    NotUnimodular,
    ONE,
    Ring,
    SeifertPair,
    ShapeMismatch,
    T,
    T_HALF,
    UnimodularPair,
    ZERO,
    alexander_matrix,
    basis_change,
    canonicalize,
    check_duality,
    det,
    intersection_form,
    normalized_alexander,
    normalized_matrix,
    stabilize,
    z_balanced_eq,
)
from alexpoly.seifert import (
    IntMatrix,
    _balanced_digits,
    _bareiss,
    _corank_one_kernel,
    _pencil,
    as_int_matrix,
    int_det,
    mat_mul,
    pencil_det,
    transpose,
)
from conftest import (
    cofactor_det_oracle,
    corank_one_kernel_oracle,
    identity,
    one_step_bareiss_oracle,
    one_step_det_oracle,
    pencil_det_interp_oracle,
    perm_det_int_oracle,
    perm_det_oracle,
    random_int_matrix,
    random_poly,
    random_unimodular,
    symplectic,
)

SEED = 20260811

T_INV = LaurentPoly.t_power(-1)
T_HALF_INV = LaurentPoly.half_power(-1)

V_PLUS = SeifertPair([[0, -1], [0, -1]], [[0, 0], [-1, -1]], 1, 1)
V_MINUS = SeifertPair([[-1, -1], [0, -1]], [[-1, 0], [-1, -1]], 1, 1)
V_ZERO = SeifertPair([[-1]], [[-1]], 1, 1)


class TestSeifertPair:
    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            SeifertPair([[1, 2]], [[1]], 1, 2)

    def test_bad_metadata(self):
        with pytest.raises(ValueError):
            SeifertPair([[1]], [[1]], 4, 2)
        with pytest.raises(ValueError):
            SeifertPair([[1]], [[1]], 0, 0)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            SeifertPair([[1.5]], [[1]], 1, 2)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: AlexanderMatrix([[0.5, ONE], [ONE, 3 * ONE]]), id="alexander-float"),
        pytest.param(lambda: AlexanderMatrix([[1, 2], [3, 4]]), id="alexander-int"),
        pytest.param(lambda: stabilize(AlexanderMatrix([[T]]), 1, [2.5]), id="stabilize-float"),
        pytest.param(lambda: SeifertPair([[1]], [[1]], 0.25, 2), id="pair-float-p"),
        pytest.param(lambda: SeifertPair([[1]], [[1]], True, 2), id="pair-bool-p"),
        pytest.param(lambda: SeifertPair([[1]], [[1]], 1, 2.0), id="pair-float-n"),
        pytest.param(lambda: ArfData([0.5], [1]), id="arf-float"),
        pytest.param(lambda: ArfData([1], [True]), id="arf-bool"),
        pytest.param(lambda: T**0.5, id="pow-half"),
        pytest.param(lambda: T**1.5, id="pow-float"),
        pytest.param(lambda: T.shift(1.0), id="shift-float"),
        pytest.param(lambda: T.exact_div(2.0), id="exact-div-float"),
        pytest.param(lambda: T.exact_div("2"), id="exact-div-str"),
        pytest.param(lambda: canonicalize(2 * T - 4, "Z"), id="canonicalize-ring-str"),
        pytest.param(lambda: BalancedClass("1*t^1", Ring.Z), id="class-str"),
        pytest.param(lambda: BalancedClass(T, "Z"), id="class-ring-str"),
        pytest.param(lambda: NormalizedInput(V_ZERO, "false"), id="middle-str"),
        pytest.param(lambda: NormalizedInput(V_ZERO, 0), id="middle-int"),
    ],
)
def test_constructors_reject_inexact_values(build):
    with pytest.raises(TypeError):
        build()


class TestAlexanderMatrix:
    def test_one_by_one(self):
        m = alexander_matrix(SeifertPair([[4]], [[4]], 1, 2))
        assert m.entries == ((4 * T - 4,),)

    def test_zero_pair(self):
        m = alexander_matrix(SeifertPair([[0, 0], [0, 0]], [[0, 0], [0, 0]], 1, 2))
        assert all(not e for row in m.entries for e in row)

    def test_shape(self):
        assert alexander_matrix(V_PLUS).shape == (2, 2)
        assert alexander_matrix(SeifertPair([[1, 0]], [[0, 1]], 1, 2)).shape == (1, 2)
        assert alexander_matrix(SeifertPair([], [], 1, 2)).shape == (0, 0)

    def test_entrywise_formula(self):
        m = alexander_matrix(V_PLUS)
        expected = ((ZERO, -T), (ONE, -T + 1))
        assert m.entries == expected
        for i in range(2):
            for j in range(2):
                assert m.entries[i][j] == T * V_PLUS.S[i][j] - V_PLUS.N[i][j]


class TestNormalizedMatrix:
    def test_one_by_one(self):
        m = normalized_matrix(V_ZERO)
        assert m.entries == ((-T_HALF + T_HALF_INV,),)

    def test_zero_pair(self):
        m = normalized_matrix(SeifertPair([[0]], [[0]], 1, 1))
        assert m.entries == ((ZERO,),)

    def test_entrywise_formula(self):
        m = normalized_matrix(V_MINUS)
        expected = (
            (-T_HALF + T_HALF_INV, -T_HALF),
            (T_HALF_INV, -T_HALF + T_HALF_INV),
        )
        assert m.entries == expected


class TestDet:
    def test_upper_triangular(self):
        m = AlexanderMatrix(((T, T - 1), (ZERO, T)))
        assert det(m) == T * T

    def test_empty_matrix(self):
        assert det(AlexanderMatrix(())) == ONE

    def test_normalized_trefoil(self):
        pair = SeifertPair([[-1, -1], [0, -1]], transpose(((-1, -1), (0, -1))), 1, 1)
        assert det(normalized_matrix(pair)) == T + T_INV - 1

    def test_not_square(self):
        with pytest.raises(NotSquare):
            det(AlexanderMatrix(((T, T),)))

    def test_matches_oracle_small(self):
        rng = random.Random(SEED)
        entries = tuple(
            tuple(random_poly(rng, max_terms=3, halfexp_lo=-4, halfexp_hi=4,
                              coeff_lo=-3, coeff_hi=3) for _ in range(3))
            for _ in range(3)
        )
        m = AlexanderMatrix(entries)
        assert det(m) == perm_det_oracle(entries)


class TestPencilDet:
    def test_empty_pair(self):
        assert pencil_det(SeifertPair([], [], 1, 2)) == ONE

    def test_one_by_one(self):
        assert pencil_det(SeifertPair([[4]], [[4]], 1, 2)) == 4 * T - 4

    def test_twist_pairs(self):
        assert pencil_det(V_PLUS) == T
        assert pencil_det(V_MINUS) == T * T - T + 1
        assert pencil_det(V_ZERO) == -T + 1

    def test_not_square(self):
        with pytest.raises(NotSquare):
            pencil_det(SeifertPair([[1, 2]], [[0, 1]], 1, 2))


class TestIntersectionForm:
    def test_subtraction(self):
        assert intersection_form(V_PLUS) == ((0, -1), (1, 0))

    def test_equal_matrices(self):
        pair = SeifertPair([[2, 3], [4, 5]], [[2, 3], [4, 5]], 1, 2)
        assert intersection_form(pair) == ((0, 0), (0, 0))

    def test_one_by_one(self):
        assert intersection_form(SeifertPair([[4]], [[4]], 1, 2)) == ((0,),)


class TestCheckDuality:
    def test_middle_dimension_transpose(self):
        # n = 4k+1 and p = 2k+1 makes the sign +1, so N must equal S^t.
        for pair in (V_PLUS, V_MINUS, V_ZERO):
            partner = SeifertPair(transpose(pair.N), transpose(pair.S), pair.p, pair.n)
            assert check_duality(pair, partner)

    def test_zero_matrices(self):
        a = SeifertPair([[0]], [[0]], 1, 1)
        assert check_duality(a, a)

    def test_odd_sign(self):
        a = SeifertPair([[1, 0]], [[0, 1]], 1, 2)
        b = SeifertPair([[0], [-1]], [[0], [0]], 2, 2)
        assert check_duality(a, b)

    def test_degree_mismatch(self):
        a = SeifertPair([[1]], [[1]], 1, 2)
        b = SeifertPair([[1]], [[1]], 1, 2)
        with pytest.raises(ShapeMismatch):
            check_duality(a, b)

    def test_shape_mismatch(self):
        a = SeifertPair([[1, 0]], [[0, 1]], 1, 2)
        b = SeifertPair([[1, 0]], [[0, 1]], 2, 2)
        with pytest.raises(ShapeMismatch):
            check_duality(a, b)


class TestBasisChange:
    def test_identity(self):
        u = UnimodularPair(identity(2), identity(2))
        assert basis_change(V_PLUS, u) == V_PLUS

    def test_row_negation(self):
        u = UnimodularPair([[-1, 0], [0, 1]], identity(2))
        out = basis_change(V_PLUS, u)
        assert out.S == ((0, 1), (0, -1))
        assert out.N == ((0, 0), (-1, -1))
        assert out.S == mat_mul(mat_mul(u.P, V_PLUS.S), transpose(u.Q))

    def test_row_swap(self):
        u = UnimodularPair([[0, 1], [1, 0]], identity(2))
        out = basis_change(V_PLUS, u)
        assert out.S == (V_PLUS.S[1], V_PLUS.S[0])
        assert out.N == (V_PLUS.N[1], V_PLUS.N[0])

    def test_not_unimodular(self):
        with pytest.raises(NotUnimodular):
            UnimodularPair([[2, 0], [0, 1]], identity(2))

    def test_shape_mismatch(self):
        u = UnimodularPair(identity(3), identity(2))
        with pytest.raises(ShapeMismatch):
            basis_change(V_PLUS, u)

    def test_mat_mul_shape_mismatch(self):
        with pytest.raises(ShapeMismatch) as info:
            mat_mul(((1, 2),), ((1,),))
        assert str(info.value) == "cannot multiply 1x2 by 1x1"


class TestStabilize:
    def test_single_block(self):
        m = AlexanderMatrix(((T * T,),))
        out = stabilize(m, 1, (ZERO,))
        assert out.entries == ((T, ZERO), (ZERO, T * T))
        assert det(out) == T**3

    def test_empty_base(self):
        out = stabilize(AlexanderMatrix(()), 1, ())
        assert out.entries == ((T,),)

    def test_negative_sign_with_filler(self):
        m = AlexanderMatrix(((T, ZERO), (ZERO, T)))
        out = stabilize(m, -1, (ONE, T))
        assert det(out) == perm_det_oracle(out.entries)
        assert det(out) == -(T**3)

    def test_filler_length(self):
        with pytest.raises(ShapeMismatch):
            stabilize(AlexanderMatrix(((T,),)), 1, ())

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            stabilize(AlexanderMatrix(((T,),)), 2, (ZERO,))

    def test_not_square(self):
        with pytest.raises(NotSquare, match=r"^1x2 matrix cannot be stabilized$"):
            stabilize(AlexanderMatrix(((T, ONE),)), 1, (ZERO, ZERO))


def _with_elimination_edits(rng, m, zero):
    """m, then for size 2 and up five edits that random entries seldom
    give: a zero (0, 0) entry, which forces a row swap; a zero column
    before the last, which has no pivot; one column repeated in another,
    which leaves a later column without a pivot; row r, r odd and below
    n - 1 where n allows, made a combination of the rows above in its
    first r + 1 entries, so that the leading minor of size r + 1 is zero
    and the second pivot of a two-step sweep needs a swap; and column
    c + 1, c even, a multiple of column c, so that no row gives a sweep
    at column c its second pivot."""
    yield m
    n = len(m)
    if n < 2:
        return
    blank, (src, dst) = rng.randrange(n - 1), rng.sample(range(n), 2)
    yield ((zero,) + m[0][1:],) + m[1:]
    yield tuple(row[:blank] + (zero,) + row[blank + 1 :] for row in m)
    yield tuple(row[:dst] + (row[src],) + row[dst + 1 :] for row in m)
    r, weights = rng.randrange(1, max(n - 1, 2), 2), [rng.randint(-2, 2) for _ in range(n)]
    head = tuple(sum((w * row[j] for w, row in zip(weights, m[:r])), zero) for j in range(r + 1))
    yield m[:r] + (head + m[r][r + 1 :],) + m[r + 1 :]
    c, factor = rng.randrange(0, n - 1, 2), rng.choice((-2, -1, 1, 2))
    yield tuple(row[: c + 1] + (factor * row[c],) + row[c + 2 :] for row in m)


def test_int_det_matches_oracle_randomized():
    rng, edits = random.Random(SEED + 1), random.Random(SEED + 11)
    for _ in range(400):
        n = rng.randint(0, 5)
        for m in _with_elimination_edits(edits, random_int_matrix(rng, n, n), 0):
            assert int_det(m) == perm_det_int_oracle(m)
            constants = tuple(tuple(LaurentPoly.constant(v) for v in row) for row in m)
            assert det(AlexanderMatrix(constants)) == int_det(m)


def test_pencil_builders_match_entrywise_definitions_randomized():
    """Square, rectangular and empty pairs: every builder of x*S - y*N
    equals its entrywise formula, and only a square pair has pencil_det."""
    rng = random.Random(SEED + 14)
    shapes = set()
    for _ in range(200):
        m, k = rng.randint(0, 5), rng.randint(0, 5)
        pair = SeifertPair(random_int_matrix(rng, m, k), random_int_matrix(rng, m, k), 1, 2)
        rows, cols = pair.shape
        assert (rows, cols) == (m, k if m else 0)
        shapes.add((rows, cols))
        cells = [list(zip(srow, nrow)) for srow, nrow in zip(pair.S, pair.N)]
        assert intersection_form(pair) == tuple(
            tuple(s - n for s, n in row) for row in cells
        )
        assert alexander_matrix(pair).entries == tuple(
            tuple(T * s - n for s, n in row) for row in cells
        )
        assert normalized_matrix(pair).entries == tuple(
            tuple(T_HALF * s - T_HALF_INV * n for s, n in row) for row in cells
        )
        if rows == cols:
            assert pencil_det(pair) == det(alexander_matrix(pair))
        else:
            with pytest.raises(NotSquare):
                pencil_det(pair)
    assert {(0, 0), (1, 0), (2, 3), (3, 2), (5, 5)} <= shapes


@pytest.mark.parametrize("rows, cols", [(2, 3), (3, 2), (1, 0)])
def test_pencil_det_of_a_zero_non_square_pair_raises(rows, cols):
    """h2 = 0 here too, yet the pair has no determinant: NotSquare, not ZERO."""
    zero = [[0] * cols for _ in range(rows)]
    with pytest.raises(NotSquare) as info:
        pencil_det(SeifertPair(zero, zero, 1, 2))
    assert str(info.value) == f"{rows}x{cols} matrix has no determinant"


def test_det_matches_permutation_oracle_all_sizes():
    rng, edits = random.Random(SEED + 2), random.Random(SEED + 12)
    for _ in range(1000):
        n = rng.randint(0, 5)
        entries = tuple(
            tuple(
                random_poly(rng, max_terms=2, halfexp_lo=-3, halfexp_hi=3,
                            coeff_lo=-3, coeff_hi=3)
                for _ in range(n)
            )
            for _ in range(n)
        )
        for m in _with_elimination_edits(edits, entries, ZERO):
            assert det(AlexanderMatrix(m)) == perm_det_oracle(m)


def test_det_beyond_cofactor_sizes():
    rng = random.Random(SEED + 3)
    for n in (6, 7):
        entries = tuple(
            tuple(
                random_poly(rng, max_terms=2, halfexp_lo=-2, halfexp_hi=2,
                            coeff_lo=-2, coeff_hi=2)
                for _ in range(n)
            )
            for _ in range(n)
        )
        assert det(AlexanderMatrix(entries)) == perm_det_oracle(entries)


def test_basis_change_preserves_class_randomized():
    rng = random.Random(SEED + 4)
    for _ in range(1000):
        n = rng.randint(1, 4)
        pair = SeifertPair(
            random_int_matrix(rng, n, n), random_int_matrix(rng, n, n), 1, 2
        )
        u = UnimodularPair(random_unimodular(rng, n), random_unimodular(rng, n))
        before = det(alexander_matrix(pair))
        after = det(alexander_matrix(basis_change(pair, u)))
        assert after == before or after == -before
        assert z_balanced_eq(before, after)


def test_stabilize_scales_det_randomized():
    rng = random.Random(SEED + 5)
    for _ in range(1000):
        n = rng.randint(0, 3)
        entries = tuple(
            tuple(
                random_poly(rng, max_terms=2, halfexp_lo=-3, halfexp_hi=3,
                            coeff_lo=-3, coeff_hi=3)
                for _ in range(n)
            )
            for _ in range(n)
        )
        m = AlexanderMatrix(entries)
        sign = rng.choice((1, -1))
        filler = tuple(
            random_poly(rng, max_terms=2, halfexp_lo=-3, halfexp_hi=3)
            for _ in range(n)
        )
        assert det(stabilize(m, sign, filler)) == sign * T * det(m)


def test_normalized_det_inversion_symmetric_randomized():
    rng = random.Random(SEED + 6)
    for _ in range(1000):
        n = rng.choice((2, 4))
        s = random_int_matrix(rng, n, n)
        pair = SeifertPair(s, transpose(s), 1, 1)
        d = det(normalized_matrix(pair))
        assert d.is_inversion_symmetric()
        assert d.eval_at_one() == int_det(intersection_form(pair))


def test_normalized_det_at_one_is_one_for_symplectic_intersection():
    rng = random.Random(SEED + 7)
    for _ in range(200):
        m = rng.randint(1, 2)
        j = symplectic(m)
        upper = [[j[i][k] if i < k else 0 for k in range(2 * m)] for i in range(2 * m)]
        sym = random_int_matrix(rng, 2 * m, 2 * m, -2, 2)
        s = as_int_matrix(
            [
                [upper[i][k] + sym[min(i, k)][max(i, k)] for k in range(2 * m)]
                for i in range(2 * m)
            ]
        )
        pair = SeifertPair(s, transpose(s), 1, 1)
        assert intersection_form(pair) == j
        assert det(normalized_matrix(pair)).eval_at_one() == 1


def _check_pencil(pair: SeifertPair) -> LaurentPoly:
    """pencil_det against every oracle that is affordable at the pair's size."""
    got = pencil_det(pair)
    entries = alexander_matrix(pair).entries
    size = len(entries)
    assert got == det(AlexanderMatrix(entries))
    if size <= 6:
        assert got == perm_det_oracle(entries)
    if size <= 4:
        assert got == cofactor_det_oracle(entries)
    return got


def test_pencil_det_random_pairs():
    rng = random.Random(SEED + 8)
    for _ in range(300):
        n = rng.randint(0, 12)
        pair = SeifertPair(
            random_int_matrix(rng, n, n), random_int_matrix(rng, n, n), 1, 2
        )
        got = _check_pencil(pair)
        assert got.is_integral()
        assert not got or (got.min_halfexp >= 0 and got.max_halfexp <= 2 * n)


def test_pencil_det_knot_like_pairs():
    rng = random.Random(SEED + 9)
    for _ in range(150):
        n = rng.randint(0, 12)
        s = random_int_matrix(rng, n, n)
        pair = SeifertPair(s, transpose(s), 1, 1)
        got = _check_pencil(pair)
        assert got.eval_at_one() == int_det(intersection_form(pair))


def test_pencil_det_singular_pencils_are_zero():
    rng = random.Random(SEED + 10)
    for _ in range(150):
        n = rng.randint(1, 12)
        # The last column is the same combination of the others in S and
        # in N, so t*S - N has dependent columns for every t.
        weights = [rng.randint(-2, 2) for _ in range(n - 1)]
        s, nm = (
            [list(row) for row in random_int_matrix(rng, n, n)] for _ in range(2)
        )
        for m in (s, nm):
            for row in m:
                row[-1] = sum(w * v for w, v in zip(weights, row))
        assert _check_pencil(SeifertPair(s, nm, 1, 2)) == ZERO


def test_pencil_det_rank_deficient_s_lowers_degree():
    rng = random.Random(SEED + 11)
    for _ in range(150):
        n = rng.randint(1, 12)
        rank = rng.randint(0, n - 1)
        s = mat_mul(random_int_matrix(rng, n, rank), random_int_matrix(rng, rank, n))
        if rank == 0:
            s = tuple((0,) * n for _ in range(n))
        pair = SeifertPair(s, random_int_matrix(rng, n, n), 1, 2)
        got = _check_pencil(pair)
        assert not got or got.max_halfexp <= 2 * rank


def test_normalized_alexander_is_shifted_pencil_det():
    rng = random.Random(SEED + 12)
    for _ in range(300):
        k = rng.randint(0, 2)
        size = rng.randint(0, 7)
        s = random_int_matrix(rng, size, size)
        nm = transpose(s) if rng.random() < 0.5 else random_int_matrix(rng, size, size)
        pair = SeifertPair(s, nm, 2 * k + 1, 4 * k + 1)
        data = NormalizedInput(pair, middle_condition=True)
        assert normalized_alexander(data) == det(normalized_matrix(pair))


def _pencil_kinds(rng: random.Random, n: int):
    """One pair of each kind at size n: +-3 entries, knot-like, singular,
    rank-deficient S, entries up to 10^6 in size, and a zero row."""
    s = random_int_matrix(rng, n, n)
    yield SeifertPair(s, random_int_matrix(rng, n, n), 1, 2)
    yield SeifertPair(s, transpose(s), 1, 1)
    big = 10**6
    yield SeifertPair(
        random_int_matrix(rng, n, n, -big, big), random_int_matrix(rng, n, n, -big, big), 1, 2
    )
    if not n:
        return
    weights = [rng.randint(-2, 2) for _ in range(n - 1)]
    singular = [[list(row) for row in random_int_matrix(rng, n, n)] for _ in range(2)]
    for m in singular:
        for row in m:
            row[-1] = sum(w * v for w, v in zip(weights, row))
    yield SeifertPair(*singular, 1, 2)
    rank = rng.randint(0, n - 1)
    low = mat_mul(random_int_matrix(rng, n, rank), random_int_matrix(rng, rank, n))
    if rank == 0:
        low = ((0,) * n,) * n
    yield SeifertPair(low, random_int_matrix(rng, n, n), 1, 2)
    i = rng.randrange(n)
    zero_row = [
        [list(row) for row in random_int_matrix(rng, n, n, -big, big)] for _ in range(2)
    ]
    for m in zero_row:
        m[i] = [0] * n
    yield SeifertPair(*zero_row, 1, 2)


def test_pencil_det_matches_interpolation_oracle_randomized():
    rng = random.Random(SEED + 13)
    for n in range(25):
        for _ in range(2):
            for pair in _pencil_kinds(rng, n):
                assert pencil_det(pair) == pencil_det_interp_oracle(pair)


def _sylvester(size: int):
    h = ((1,),)
    while len(h) < size:
        h = tuple(row + row for row in h) + tuple(
            row + tuple(-v for v in row) for row in h
        )
    return h


def test_pencil_det_at_hadamard_bound():
    # A Sylvester-Hadamard S of size m has |det S| = m^(m/2), Hadamard's bound
    # itself.  With N = 0 the top coefficient of det(t*S - N) equals the
    # coefficient bound sqrt(h2) = m^(m/2), the largest digit the width must
    # hold.
    for size in (1, 2, 4, 8, 16, 32):
        h = _sylvester(size)
        assert int_det(h) ** 2 == size**size
        zero = ((0,) * size,) * size
        negated = tuple(tuple(-v for v in row) for row in h)
        for nm in (zero, h, negated, transpose(h)):
            pair = SeifertPair(h, nm, 1, 2)
            assert pencil_det(pair) == pencil_det_interp_oracle(pair)
        assert pencil_det(SeifertPair(h, zero, 1, 2)) == int_det(h) * T**size


def _diagonal_pair(rng: random.Random, sums) -> SeifertPair:
    """A diagonal pair with |S_ii| + |N_ii| = sums[i], so h2 = prod(sums)^2."""
    n = len(sums)
    s, nm = ([[0] * n for _ in range(n)] for _ in range(2))
    for i, c in enumerate(sums):
        a = rng.randint(0, c)
        s[i][i], nm[i][i] = rng.choice((-1, 1)) * a, rng.choice((-1, 1)) * (c - a)
    return SeifertPair(s, nm, 1, 2)


def _sparse_pair(rng: random.Random, n: int) -> SeifertPair:
    """S a signed permutation matrix; N has one +-1 in about half of its rows."""
    s, nm = ([[0] * n for _ in range(n)] for _ in range(2))
    for i, j in enumerate(rng.sample(range(n), n)):
        s[i][j] = rng.choice((-1, 1))
        if rng.randint(0, 1):
            nm[i][rng.randrange(n)] = rng.choice((-1, 1))
    return SeifertPair(s, nm, 1, 2)


def _routing_cases(rng: random.Random):
    """(pair, evaluation points) on both sides of m*b = 512, m the size and
    2b the digit width: one point at or below 512, two above."""
    big = 10**6
    for n in (8, 10, 12):
        yield SeifertPair(
            random_int_matrix(rng, n, n, -big, big), random_int_matrix(rng, n, n, -big, big), 1, 2
        ), 2
    for n, points in ((16, 1), (18, 2)):
        yield SeifertPair(random_int_matrix(rng, n, n), random_int_matrix(rng, n, n), 1, 2), points
    for n in (24, 32, 48):
        yield _sparse_pair(rng, n), 1
    yield _diagonal_pair(rng, [15] * 16), 1  # b = 32: m*b = 512
    yield _diagonal_pair(rng, [6] * 2 + [7] * 17), 2  # b = 27: m*b = 513


def test_pencil_det_routes_by_size_times_digit_width(monkeypatch):
    calls = []
    monkeypatch.setattr("alexpoly.seifert.int_det", lambda m: calls.append(m) or int_det(m))
    for pair, points in _routing_cases(random.Random(SEED + 15)):
        calls.clear()
        got = pencil_det(pair)
        assert len(calls) == points
        assert got == pencil_det_interp_oracle(pair)


@pytest.mark.parametrize("width", [1, 0])
def test_balanced_digits_refuse_a_width_below_two(width):
    # At width 1 the digits are -1 and 0, so a positive value never shrinks.
    with pytest.raises(ValueError, match=f"^balanced digits need width >= 2, got {width}$"):
        _balanced_digits(1, width)


def _elimination_cases(rng: random.Random, n: int):
    """(integer matrices, Laurent matrices) of size n: a random matrix, and
    S - N and x*S - N of every _pencil_kinds pair, singular pencils and
    zero rows among them; t*S - N of each pair."""
    pairs = list(_pencil_kinds(rng, n))
    x = rng.choice((3, -(1 << 20), 1 << 40))
    ints = [random_int_matrix(rng, n, n)]
    for pair in pairs:
        ints += intersection_form(pair), tuple(map(tuple, _pencil(pair, x, 1)))
    return ints, [alexander_matrix(pair).entries for pair in pairs]


def _blocks(pivots):
    """(k, width) for each block of a pivot list read greedily from the
    left: pivot k and pivot k + 1 form a two-step block (width 2) when
    their columns are adjacent, and any other pivot is a one-step row."""
    blocks, k = [], 0
    while k < len(pivots):
        width = 2 if pivots[k + 1 : k + 2] == [pivots[k] + 1] else 1
        blocks.append((k, width))
        k += width
    return blocks


def test_elimination_matches_one_step_oracle_randomized():
    """The two-step elimination against the one-step one on sizes 0..12,
    with every elimination edit: the same swaps, sign and pivot columns;
    every one-step row and first row of a block the same from its pivot
    column on; the second row of each block at the step before, so that
    it has the same pivot entry and, advanced one step, the same entries
    right of it; and so the same int_det, det and kernel."""
    rng, edits = random.Random(SEED + 16), random.Random(SEED + 17)
    seen = collections.Counter()
    for n in range(13):
        for rep in range(4):
            ints, laurents = _elimination_cases(rng, n)
            for m in (m for base in ints for m in _with_elimination_edits(edits, base, 0)):
                a, pivots, order, sign = _bareiss(m)
                want = one_step_bareiss_oracle(m)
                assert (pivots, order, sign) == want[1:], m
                for k, width in _blocks(pivots):
                    c = pivots[k]
                    assert a[k][c:] == want[0][k][c:], m
                    if width == 2:
                        r0, r1 = a[k], a[k + 1]
                        prev = want[0][k - 1][pivots[k - 1]] if k else 1
                        assert r1[c + 1] == want[0][k + 1][c + 1], m
                        advanced = [
                            (r0[c] * y - r1[c] * x) // prev
                            for x, y in zip(r0[c + 2 :], r1[c + 2 :])
                        ]
                        assert advanced == want[0][k + 1][c + 2 :], m
                    seen["block" if width == 2 else "one-step"] += 1
                assert int_det(m) == one_step_det_oracle(m, 1, 0), m
                kernel = _corank_one_kernel(m)
                assert kernel == corank_one_kernel_oracle(m), m
                seen[n % 2, len(pivots) == n, kernel is not None] += 1
            if rep:
                continue  # the Laurent eliminations cost ten times the integer ones
            for m in (m for base in laurents for m in _with_elimination_edits(edits, base, ZERO)):
                assert det(AlexanderMatrix(m)) == one_step_det_oracle(m, ONE, ZERO), m
    # Odd and even sizes each give full-rank matrices, corank-one ones and
    # lower ranks; both kinds of pivot row occur.
    for parity in (0, 1):
        assert seen[parity, True, False] > 400
        assert seen[parity, False, True] > 600
        assert seen[parity, False, False] > 10
    assert seen["block"] > 1000 and seen["one-step"] > 1000


def _corank_one_matrix(rng: random.Random, n: int, free: int, swap: bool) -> IntMatrix:
    """An n x n integer matrix whose column `free` is a combination of the
    columns before it (zero if free = 0), the others random.  With swap,
    rows 0 and 1 agree up to a factor in columns 0 and 1, so that the
    leading 2x2 minor is zero and a block at columns 0 and 1 takes its
    second pivot from a lower row."""
    cols = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 1)]
    if swap:
        factor = rng.choice((-2, -1, 1, 2))
        for col in cols[:2]:
            col[0] = col[0] or 1
            col[1] = factor * col[0]
    weights = [rng.choice((-1, 1)) for _ in range(free)]
    combination = [sum(w * col[i] for w, col in zip(weights, cols)) for i in range(n)]
    cols.insert(free, combination)
    return tuple(tuple(col[i] for col in cols) for i in range(n))


def test_kernel_at_every_block_boundary():
    """Corank-one matrices built so that the pivot list pairs in every
    shape: a one-step pivot before the last followed by a two-step block
    (its sweep found every lower 2x2 minor zero), an odd size whose last
    column is one-step, four adjacent pivots (two blocks in a row), and a
    block whose second pivot needs a row swap.  Each kernel equals the one
    of the one-step elimination and back substitution."""
    rng = random.Random(SEED + 19)
    seen = collections.Counter()
    for _ in range(60):
        for n in range(2, 12):
            for free in range(n):
                swap = free >= 2 and rng.random() < 0.5
                m = _corank_one_matrix(rng, n, free, swap)
                kernel = _corank_one_kernel(m)
                assert kernel == corank_one_kernel_oracle(m), m
                if kernel is None:
                    continue
                pivots = one_step_bareiss_oracle(m)[1]
                blocks = _blocks(pivots)
                seen["kernel"] += 1
                seen["one-step before a block"] += any(
                    width == 1 and nxt == 2 for (_, width), (_, nxt) in zip(blocks, blocks[1:])
                )
                seen["odd size, last column one-step"] += (
                    n % 2 == 1 and blocks[-1][1] == 1 and pivots[-1] == n - 1
                )
                seen["four adjacent pivots"] += any(
                    w0 == w1 == 2 and pivots[k1] == pivots[k0] + 2
                    for (k0, w0), (k1, w1) in zip(blocks, blocks[1:])
                )
                seen["second-pivot swap"] += (
                    m[0][0] != 0
                    and m[0][0] * m[1][1] == m[0][1] * m[1][0]
                    and pivots[:2] == [0, 1]
                )
    assert len(seen) == 5 and min(seen.values()) > 500, seen


def test_every_determinant_and_kernel_runs_the_one_elimination(monkeypatch):
    """int_det, det and _corank_one_kernel each run seifert._bareiss once
    at sizes 1 to 21, so no second elimination serves any of them."""
    calls = []
    monkeypatch.setattr(
        "alexpoly.seifert._bareiss", lambda rows: calls.append(rows) or _bareiss(rows)
    )
    rng = random.Random(SEED + 18)
    for n in (1, 2, 3, 8, 13, 21):
        pair = SeifertPair(random_int_matrix(rng, n, n), random_int_matrix(rng, n, n), 1, 2)
        form = intersection_form(pair)
        for run in (
            lambda: int_det(form),
            lambda: det(alexander_matrix(pair)),
            lambda: _corank_one_kernel(form),
        ):
            calls.clear()
            run()
            assert len(calls) == 1, (n, run)
