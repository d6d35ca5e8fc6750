"""Derivative engine: dual-number mode against closed forms and finite differences."""

import numpy as np
import pytest

from triadlab import DiffEngine, catalog
from triadlab.ad import (Dual, array, broadcast_to, cos, exp, sin, sqrt,
                         stack)
from triadlab.engine import dot, inner, inv, outer, solve

from oracles import (column, directional_derivative, fd_jacobian,
                     lie_bracket, lie_derivative_endo, flow_lie_derivative_endo,
                     lu_solve_generic, numeric_directional)


def test_engine_rejects_bad_mode_and_step():
    with pytest.raises(ValueError):
        DiffEngine(mode="symbolic")
    for step in (0.0, -1e-4, np.inf, np.nan, True, "1e-4", None, 1e-4j):
        with pytest.raises(ValueError):
            DiffEngine(mode="fd", step=step)


def test_a_shared_direction_at_a_dual_batch_has_the_full_tangent_shape():
    """At a dual batch, a direction shared by the batch enters the inner
    pass broadcast over the batch axes, and gives the second derivatives
    one direction per point gives."""
    eng = DiffEngine()
    P = np.array([[0.5, 1.5, -0.3], [1.0, -2.0, 0.7]])
    v = np.array([1.0, 2.0, -1.0])
    seen = []

    def f(r):
        seen.append(r)
        return sin(r[..., 0] * r[..., 1]) + r[..., 2] * r[..., 2]

    shared = eng.jacobian(lambda q: eng.deriv(f, q, v), P)
    assert seen[0].du.shape == (1,) + P.shape
    own = eng.jacobian(
        lambda q: eng.deriv(f, q, np.broadcast_to(v, P.shape)), P)
    assert np.allclose(shared, own, rtol=0.0, atol=1e-14)


def test_directional_derivative_polynomial_exact():
    eng = DiffEngine()

    def f(q):
        return q[0] * q[0] * q[1] + 3.0 * q[2]

    p = np.array([1.5, -0.7, 0.2])
    v = np.array([1.0, 2.0, -1.0])
    # grad = (2xy, x^2, 3) = (-2.1, 2.25, 3)
    want = -2.1 * 1.0 + 2.25 * 2.0 + 3.0 * (-1.0)
    assert abs(directional_derivative(eng, f, p, v) - want) < 1e-14


def test_directional_derivative_transcendental():
    eng = DiffEngine()

    def f(q):
        return sin(q[0]) * exp(q[1]) + sqrt(1.0 + q[2] * q[2])

    p = np.array([0.4, -0.3, 0.9])
    for k, v in enumerate(np.eye(3)):
        want = numeric_directional(lambda q: float(np.sin(q[0]) * np.exp(q[1])
                                                   + np.sqrt(1 + q[2] ** 2)), p, v)
        got = directional_derivative(eng, f, p, v)
        assert abs(got - want) < 1e-10, k


def test_nested_second_derivative():
    """Derivative-of-derivative must work: d/dx (d/dy sin(xy)) = cos - xy sin."""
    eng = DiffEngine()

    def inner(q):
        return eng.deriv(lambda r: sin(r[0] * r[1]), q, np.array([0.0, 1.0]))

    p = np.array([0.8, 0.6])
    got = eng.deriv(inner, p, np.array([1.0, 0.0]))
    x, y = p
    want = np.cos(x * y) - x * y * np.sin(x * y)
    assert abs(got - want) < 1e-12


def test_jacobian_vector_field():
    eng = DiffEngine()

    def field(q):
        return array([q[1] * q[2], q[0] * q[0], q[2]])

    p = np.array([0.3, 1.1, -0.4])
    J = eng.jacobian(field, p)
    want = np.array([[0.0, -0.4, 1.1], [0.6, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.max(np.abs(J - want)) < 1e-13


def test_fd_mode_matches_ad_mode():
    ad = DiffEngine()
    fd = DiffEngine(mode="fd", step=1e-4)

    def f(q):
        return exp(q[..., 0]) * sin(q[..., 1])

    p = np.array([0.2, 0.7])
    v = np.array([1.0, -2.0])
    # central stencil truncation ~ step^2 * |third derivative|
    assert abs(ad.deriv(f, p, v) - fd.deriv(f, p, v)) < 10 * fd.step ** 2 * 10.0


def test_lie_bracket_coordinate_fields_and_jacobi():
    eng = DiffEngine()
    rng = np.random.default_rng(8)
    A = rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 3))
    C = rng.standard_normal((3, 3))

    def lin(M):
        return lambda q: M @ q

    p = rng.standard_normal(3)
    # linear fields: [Au, Bu] = (BA - AB) u
    got = lie_bracket(eng, lin(A), lin(B), p)
    want = (B @ A - A @ B) @ p
    assert np.max(np.abs(got - want)) < 1e-12

    def br(X, Y):
        return lambda q: lie_bracket(eng, X, Y, q)

    jac = (lie_bracket(eng, br(lin(A), lin(B)), lin(C), p)
           + lie_bracket(eng, br(lin(B), lin(C)), lin(A), p)
           + lie_bracket(eng, br(lin(C), lin(A)), lin(B), p))
    assert np.max(np.abs(jac)) < 1e-10


def test_exterior_derivative_antisymmetric_and_nilpotent():
    eng = DiffEngine()

    def alpha(q):
        # alpha = d(x^2 y + z) -> exterior derivative must vanish
        return array([2.0 * q[0] * q[1], q[0] * q[0], 1.0 + 0.0 * q[0]])

    p = np.array([0.5, -0.2, 0.3])
    d = eng.exterior_derivative(alpha, p)
    assert np.max(np.abs(d + d.T)) == 0.0
    assert np.max(np.abs(d)) < 1e-13


def test_exterior_derivative_torus_form():
    """cos z dx + sin z dy: the only nonzero entries pair z with x and y."""
    eng = DiffEngine()

    def alpha(q):
        return array([cos(q[2]), sin(q[2]), 0.0 * q[2]])

    p = np.array([1.0, 2.0, 0.8])
    d = eng.exterior_derivative(alpha, p)
    assert abs(d[2, 0] - (-np.sin(0.8))) < 1e-13
    assert abs(d[2, 1] - np.cos(0.8)) < 1e-13
    assert abs(d[0, 1]) < 1e-13


def test_lie_derivative_endo_trivial_cases():
    eng = DiffEngine()
    A = np.diag([1.0, 2.0, 3.0])
    p = np.array([0.1, 0.2, 0.3])

    def coord_field(q):
        zero = q[0] * 0
        return array([zero + 1.0, zero, zero])

    got = lie_derivative_endo(eng, column(coord_field), A,
                              np.zeros((3, 3, 3)), p)[0]
    assert np.max(np.abs(got)) < 1e-13


def test_lie_derivative_endo_matches_flow_oracle():
    """Dual-number Lie transport against RK4 flow pullback on catalog triads."""
    for ex_id in ("r3-perturbed-J", "t3-tight", "r5-perturbed-J"):
        triad = catalog()[ex_id].build()
        eng = triad.engine
        p = triad.sample_points(1, seed=31)[0]
        got = lie_derivative_endo(eng, column(triad.reeb_any),
                                  triad.j_any(p), triad.jac_j_at(p), p)[0]
        want = flow_lie_derivative_endo(
            triad.reeb_any,
            lambda q: fd_jacobian(triad.reeb_any, q),
            triad.j_any, p)
        assert np.max(np.abs(got - want)) < 1e-6, ex_id


def test_fd_jacobian_is_fd_deriv_stacked_along_each_axis():
    fd = DiffEngine(mode="fd", step=1e-4)
    for ex_id in ("r3-perturbed-J", "r5-standard", "t3-tight"):
        t = catalog()[ex_id].build(fd)
        p = t.sample_points(1, seed=31)[0]
        fields = (t.reeb_any, t.j_any, t.metric_any,
                  lambda q: inner(t.lam_any(q), q))
        for f in fields:
            want = np.stack([np.asarray(fd.deriv(f, p, e), dtype=float)
                             for e in np.eye(t.dim)], axis=-1)
            assert fd.jacobian(f, p).tobytes() == want.tobytes(), ex_id


def test_jacobian_fd_vs_ad_on_catalog_reeb():
    for ex_id, spec in catalog().items():
        triad = spec.build()
        fd = DiffEngine(mode="fd", step=1e-4)
        triad_fd = spec.build(fd)
        p = triad.sample_points(1, seed=5)[0]
        J_ad = triad.engine.jacobian(triad.reeb_any, p)
        J_fd = fd.jacobian(triad_fd.reeb_any, p)
        assert np.max(np.abs(J_ad - J_fd)) < 1e-6, ex_id


def _mixed_ranks(q):
    """Scalar, vector and matrix values combined with broadcasting."""
    s = q[0] * q[1]
    M = outer(q, sin(q))
    v = M @ q / (2.0 + s) - s * q + exp(q) / sqrt(1.0 + q * q)
    return stack([v, q * q, cos(q)]).mT @ (M - 1.0)


def test_mixed_rank_array_duals_against_central_differences():
    p = np.array([0.4, -0.7, 0.25])
    got = DiffEngine().jacobian(_mixed_ranks, p)
    assert got.shape == (3, 3, 3)
    assert np.max(np.abs(got - fd_jacobian(_mixed_ranks, p))) < 1e-8
    # Second order: a Jacobian of directional derivatives nests two levels.
    v = np.array([1.0, 0.5, -2.0])

    def first(q):
        return DiffEngine().deriv(_mixed_ranks, q, v)

    second = DiffEngine().jacobian(first, p)
    assert np.max(np.abs(second - fd_jacobian(first, p, h=1e-5))) < 1e-7


def test_numpy_refuses_duals():
    """A ufunc, np.dot or an array conversion of a dual raises TypeError
    rather than building an object array."""
    x = Dual(1, np.array([0.3, -0.2]), np.eye(2))
    A = np.eye(2)
    for call in (lambda: np.sin(x), lambda: np.add(A, x),
                 lambda: np.dot(A, x), lambda: np.asarray(x),
                 lambda: np.array([x, x])):
        with pytest.raises(TypeError):
            call()


def test_broadcast_to_lifts_a_dual_of_lower_rank():
    """A dual broadcasts as its value does: its tangent gains the new value
    axes behind the direction axis, not in front of it."""
    x = Dual(1, np.array([0.3, -0.2, 0.5]), np.arange(15.0).reshape(5, 3))
    y = broadcast_to(x, (2, 3))
    assert y.shape == (2, 3)
    assert np.array_equal(y.du, np.broadcast_to(x.du[:, None], (5, 2, 3)))


# -- linear algebra over dual scalars --------------------------------------


def _a_of(q):
    """A well-conditioned 3x3 matrix field, evaluable at dual points."""
    return array([[3.0 + sin(q[0]), q[1] * q[2], 0.5],
                  [q[0] * q[1], 2.5 + q[2] * q[2], cos(q[1])],
                  [0.25 * q[2], -q[0], 4.0 + q[0] * q[1]]])


def _b_of(q):
    return array([cos(q[2]), q[0] * q[0], 1.0 + q[1]])


def _bm_of(q):
    return array([[q[0], 1.0], [sin(q[1]), q[2] * q[0]], [2.0, q[1] - q[2]]])


def _float_solve(q):
    return np.linalg.solve(_a_of(q).astype(float), _b_of(q).astype(float))


def _float_dot(q):
    return np.dot(_a_of(q).astype(float), _bm_of(q).astype(float))


_P = np.array([0.3, -0.8, 0.6])
_AD = DiffEngine("ad")


def test_solve_scalar_tangent_matches_forward_rule():
    v = np.array([0.4, 1.0, -0.7])
    got = _AD.deriv(lambda q: solve(_a_of(q), _b_of(q)), _P, v)
    A = _a_of(_P).astype(float)
    dA = numeric_directional(lambda q: _a_of(q).astype(float), _P, v)
    db = numeric_directional(lambda q: _b_of(q).astype(float), _P, v)
    X = np.linalg.solve(A, _b_of(_P).astype(float))
    assert got.dtype == float
    assert np.max(np.abs(got - np.linalg.solve(A, db - dA @ X))) < 1e-9
    got_inv = _AD.deriv(lambda q: inv(_a_of(q)), _P, v)
    Ai = np.linalg.inv(A)
    assert np.max(np.abs(got_inv + Ai @ dA @ Ai)) < 1e-9


def test_jacobian_of_solve_and_dot_against_central_differences():
    J_solve = _AD.jacobian(lambda q: solve(_a_of(q), _b_of(q)), _P)
    assert J_solve.shape == (3, 3)
    assert np.max(np.abs(J_solve - fd_jacobian(_float_solve, _P))) < 1e-8
    J_dot = _AD.jacobian(lambda q: dot(_a_of(q), _bm_of(q)), _P)
    assert J_dot.shape == (3, 2, 3)
    want = np.stack([fd_jacobian(lambda q: _float_dot(q)[:, k], _P)
                     for k in range(2)], axis=1)
    assert np.max(np.abs(J_dot - want)) < 1e-8


def test_second_order_with_matrix_and_rhs_at_different_levels():
    """A is frozen at the outer point while b moves with the inner one."""
    u = np.array([1.0, -0.5, 0.25])
    v = np.array([0.2, 0.9, -1.1])

    def inner(q):
        return _AD.deriv(lambda r: solve(_a_of(q), _b_of(r)), q, v)

    got = _AD.deriv(inner, _P, u)

    def inner_float(q):
        db = numeric_directional(lambda r: _b_of(r).astype(float), q, v)
        return np.linalg.solve(_a_of(q).astype(float), db)

    assert np.max(np.abs(got - numeric_directional(inner_float, _P, u))) < 1e-7


def test_nested_jacobian_with_dual_tangent_slots():
    """A Jacobian of a Jacobian puts lower-level duals in vector slots."""
    def jac(q):
        return _AD.jacobian(lambda r: solve(_a_of(r), _b_of(r)), q)

    got = _AD.jacobian(jac, _P)
    assert got.shape == (3, 3, 3)
    want = np.stack([fd_jacobian(lambda q: jac(q)[:, l], _P, h=1e-5)
                     for l in range(3)], axis=1)
    assert np.max(np.abs(got - want)) < 1e-7
    assert np.max(np.abs(got - np.swapaxes(got, 1, 2))) < 1e-12


def test_object_arrays_of_floats_come_back_as_floats():
    A = _a_of(_P).astype(float)
    b = _b_of(_P).astype(float)
    Ao, bo = A.astype(object), b.astype(object)
    for got, want in ((solve(Ao, bo), np.linalg.solve(A, b)),
                      (inv(Ao), np.linalg.inv(A)),
                      (dot(Ao, Ao), A @ A),
                      (dot(bo, Ao), b @ A)):
        assert got.dtype == float
        assert np.max(np.abs(got - want)) < 1e-14


def test_singular_dual_system_raises():
    def f(q):
        A = array([[q[0], 2.0 * q[0]], [q[1], 2.0 * q[1]]])
        return solve(A, array([q[0], 1.0]))

    with pytest.raises(np.linalg.LinAlgError):
        _AD.deriv(f, np.array([0.5, 1.5]), np.array([1.0, 0.0]))
    with pytest.raises(np.linalg.LinAlgError):
        _AD.jacobian(lambda q: inv(outer(q, q)), np.array([0.5, 1.5]))


def _coeffs(x, levels):
    """Every Taylor coefficient of a nested dual scalar, as a flat float array.

    ``levels`` lists (level, tangent shape) from the top level down; an
    entry without a given level counts as having a zero tangent there.
    """
    if not levels:
        return np.array([float(x)])
    (lvl, tshape), rest = levels[0], levels[1:]
    if isinstance(x, Dual) and x.lvl == lvl:
        re, du = x.re, x.du
    else:
        re, du = x, np.zeros(tshape)
    slots = [du[i] for i in np.ndindex(*tshape)]
    return np.concatenate([_coeffs(re, rest)]
                          + [_coeffs(g, rest) for g in slots])


def _random_dual(rng, levels, keep=1.0):
    """A random nested dual; each level is present with probability ``keep``."""
    if not levels:
        return float(rng.standard_normal())
    (lvl, tshape), rest = levels[0], levels[1:]
    re = _random_dual(rng, rest, keep)
    if rng.random() > keep:
        return re
    slots = [_random_dual(rng, rest, keep) for _ in range(int(np.prod(tshape)))]
    du = array(slots).reshape(tshape)
    return Dual(lvl, re, du)


@pytest.mark.parametrize("levels", [
    [(1, (1,))],
    [(1, (3,))],
    [(2, (1,)), (1, (2,))],
    [(2, (2,)), (1, (1,))],
])
def test_solve_and_inv_agree_with_dual_lu_oracle(levels):
    rng = np.random.default_rng(len(levels) * 10 + len(levels[0][1]))
    n = 4
    for keep in (1.0, 0.6):
        A = np.empty((n, n), dtype=object)
        B = np.empty((n, 2), dtype=object)
        for idx in np.ndindex(A.shape):
            A[idx] = _random_dual(rng, levels, keep) + (3.0 * n if idx[0] == idx[1] else 0.0)
        for idx in np.ndindex(B.shape):
            B[idx] = _random_dual(rng, levels, keep)
        # The engine takes array duals; the oracle eliminates over the
        # object arrays of scalar duals they are assembled from.
        Ad, Bd = array(A.tolist()), array(B.tolist())
        for got, want in ((solve(Ad, Bd), lu_solve_generic(A, B)),
                          (solve(Ad, Bd[:, 0]), lu_solve_generic(A, B[:, 0])),
                          (inv(Ad), lu_solve_generic(A, np.eye(n)))):
            assert got.shape == want.shape
            for idx in np.ndindex(*want.shape):
                g, w = got[idx], want[idx]
                assert np.max(np.abs(_coeffs(g, levels) - _coeffs(w, levels))) < 1e-13
