"""Kernel sums, the regularized pairing, coefficient extraction, and the
Eisenstein target for the constant lift."""

import math
import tracemalloc

import numpy as np
import pytest

from cmtrace.analytic import _f_grid_evaluator, _fd_columns
from cmtrace.lattice import LatticeSpec, LatticeVector, pair
from cmtrace.thetalift import (
    _BLOCK,
    _THETA,
    _coset_points,
    _enumerate_qsums,
    _integral_profile,
    _local_cholesky,
    _panel_quad,
    _solve_threshold,
    _strip_cutoff,
    _tail_bound,
    _tail_factor,
    eisen_prediction,
    fourier_extract,
    theta_integral,
    theta_kernel,
)
from references import x_of_z

LEVEL4 = LatticeSpec.level4()


def _brute_force(spec, h, x, y, T):
    """Index triples (k1, k2, k3) of the points X = ((k_i + h_i/s_i) s_i) of
    h + L with M(X) <= T, found in a bounding box, and their X and M."""
    steps = np.array([float(s) for s in spec.steps])
    off = np.array([float(h.x1), float(h.x2), float(h.x3)]) / steps

    def M(x1, x2, x3):
        X = LatticeVector(x1, x2, x3)
        s = pair(X, x_of_z(complex(x, y)))
        return s * s - 2 * X.q()

    # M(X) >= lam |k + off|^2, lam the least eigenvalue of M's Gram in k
    e = np.eye(3) * steps
    G = np.array([[(M(*(e[i] + e[j])) - M(*e[i]) - M(*e[j])) / 2 for j in range(3)]
                  for i in range(3)])
    R = math.sqrt(T / np.linalg.eigvalsh(G).min())
    axes = [np.arange(math.floor(-o - R) - 1, math.ceil(-o + R) + 2) for o in off]
    k = [a.ravel() for a in np.meshgrid(*axes, indexing="ij")]
    X = [(kk + o) * s for kk, o, s in zip(k, off, steps)]
    inside = M(*X) <= T
    return [kk[inside] for kk in k], [xx[inside] for xx in X], M(*X)[inside]


SPEC_CASES = [(LEVEL4, 0, 1.0), (LEVEL4, 1, 0.5), (LatticeSpec.level4p(2), 37, 1.0)]

ENUM_CASES = [  # (spec, coset index, x, y, v, tol)
    (LEVEL4, 0, 0.1, 1.1, 1.0, 1e-10),
    (LEVEL4, 1, 0.45, 0.9, 0.5, 1e-6),
    (LEVEL4, 1, 0.0, 2.5, 2.0, 1e-12),
    (LatticeSpec.level4p(2), 37, 0.3, 1.3, 1.0, 1e-8),
]
# each case's node is enumerated in one call together with these nodes
# (x, y, tol); EMPTY_NODE holds no point of level4p(2) coset 37 at v = 1
EMPTY_NODE = (0.2, 1.0, 0.9)
COMPANIONS = [(0.45, 0.87, 1e-3), EMPTY_NODE, (0.05, 2.0, 1e-12)]


def _nodes(x, y, tol):
    nodes = [(x, y, tol)] + COMPANIONS
    return nodes, tuple(np.array(c, dtype=float) for c in zip(*nodes))


def _threshold(spec, v, x, y, tol):
    chol = _local_cholesky(np.array([x]), np.array([y]), spec.steps)
    return float(_solve_threshold(v, _tail_factor(v, chol[:3]), np.array([tol]))[0][0])


class TestEnumeration:
    @pytest.mark.parametrize("spec, hi, x, y, v, tol", ENUM_CASES)
    def test_points_match_brute_force(self, spec, hi, x, y, v, tol):
        h = spec.cosets()[hi]
        nodes, (xs, ys, _) = _nodes(x, y, tol)
        T = np.array([_threshold(spec, v, *n) for n in nodes])
        node, k, X = _coset_points(spec, h, T, _local_cholesky(xs, ys, spec.steps))
        assert np.all(np.diff(node) >= 0)  # node after node
        steps = [float(s) for s in spec.steps]
        hs = (float(h.x1), float(h.x2), float(h.x3))
        for i, (xi, yi, _) in enumerate(nodes):
            mine = node == i
            got = list(zip(*(a[mine].tolist() for a in k)))
            want, _, _ = _brute_force(spec, h, xi, yi, T[i])
            assert len(got) == len(set(got))
            assert set(got) == set(zip(*(a.tolist() for a in want)))
            assert not got if (hi, nodes[i]) == (37, EMPTY_NODE) else len(got) > 1
            # fixed order: x1 outer, x3 middle, x2 inner
            assert got == sorted(got, key=lambda t: (t[0], t[2], t[1]))
            for kk, xx, s, hx in zip(k, X, steps, hs):
                assert np.allclose(xx[mine], kk[mine] * s + hx, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("spec, hi, x, y, v, tol", ENUM_CASES)
    def test_grouped_sums_match_brute_force(self, spec, hi, x, y, v, tol):
        h = spec.cosets()[hi]
        nodes, columns = _nodes(x, y, tol)
        q, got_nodes, _ = _enumerate_qsums(spec, h, v, *columns)
        assert len(got_nodes) == len(nodes)
        for (xi, yi, ti), sums in zip(nodes, got_nodes):
            _, X, M = _brute_force(spec, h, xi, yi, _threshold(spec, v, xi, yi, ti))
            s = pair(LatticeVector(*X), x_of_z(complex(xi, yi)))
            terms = (v * s * s - 1 / (2 * math.pi)) * np.exp(-math.pi * v * M)
            qq = np.rint(4 * LatticeVector(*X).q()).astype(int)
            ref, absref = {}, {}
            for b, t in zip(qq.tolist(), terms.tolist()):
                ref[b] = ref.get(b, 0.0) + t
                absref[b] = absref.get(b, 0.0) + abs(t)

            got = dict(zip(np.rint(4 * q).astype(int).tolist(), sums.tolist()))
            assert {b for b, t in got.items() if t} == {b for b, t in ref.items() if t}
            for b, t in ref.items():
                assert abs(got[b] - t) <= 1e-13 * absref[b]

    @pytest.mark.parametrize("kind, n, xi", [("arc", 12, 0), ("arc", 27, 26), ("rect", 18, 5)])
    @pytest.mark.parametrize("spec, hi, v", SPEC_CASES)
    def test_column_matches_nodes_alone(self, kind, n, xi, spec, hi, v):
        # one quadrature column
        g = np.polynomial.legendre.leggauss(n)[0]
        x = 0.25 * (g[xi] + 1.0)
        y0, y1 = (math.sqrt(1.0 - x * x), 1.0) if kind == "arc" else (1.0, 2.0)
        ys = 0.5 * (y1 - y0) * (g + 1.0) + y0
        _assert_each_node_as_alone(spec, spec.cosets()[hi], v, np.full_like(ys, x), ys)

    @pytest.mark.parametrize("n, ya, yb, b", [(12, None, None, 0), (18, 1.0, 2.0, 2)])
    @pytest.mark.parametrize("spec, hi, v", SPEC_CASES)
    def test_block_across_columns_matches_nodes_alone(self, n, ya, yb, b, spec, hi, v):
        # block b of a panel's columns laid end to end, as _panel_quad cuts them
        cols = list(_fd_columns(n, ya, yb))
        xs = np.concatenate([np.full_like(ys, x) for x, _, ys, _ in cols])
        ys = np.concatenate([ys for _, _, ys, _ in cols])
        blk = slice(b * _BLOCK, (b + 1) * _BLOCK)
        assert _BLOCK == 64 and np.unique(xs[blk]).size > 2
        _assert_each_node_as_alone(spec, spec.cosets()[hi], v, xs[blk], ys[blk])


def _assert_each_node_as_alone(spec, h, v, xs, ys):
    """One pass over the nodes (tolerances as _panel_quad sets them for J)
    gives each node, bit for bit, the (q, sums, tail) it gets alone."""
    fv = _f_grid_evaluator("J")[0](xs, ys)
    tols = 1e-3 * ys * ys / (40.0 * (1.0 + np.abs(fv.real)))
    q, rows, tails = _enumerate_qsums(spec, h, v, xs, ys, tols)
    assert rows.shape == (xs.size, q.size) and tails.shape == (xs.size,)
    for j, sums in enumerate(rows):
        q1, (sums1,), (tail1,) = _enumerate_qsums(spec, h, v, xs[j:j + 1], ys[j:j + 1],
                                                  tols[j:j + 1])
        own = (q >= q1[0]) & (q <= q1[-1])  # node j's own q-range
        assert q[own].tobytes() == q1.tobytes()
        assert sums[own].tobytes() == sums1.tobytes()
        assert not sums[~own].any()
        assert repr(tails[j]) == repr(tail1)


# (spec, coset index, x, y, v, tol); the last node's tol puts its T on the floor
TAIL_NODES = [
    (LEVEL4, 0, 0.1, 1.1, 1.0, 1e-6),
    (LEVEL4, 1, 0.45, 0.9, 0.5, 1e-4),
    (LEVEL4, 0, 0.0, 2.5, 0.5, 1e-3),
    (LEVEL4, 1, 0.2, 1.0, 2.0, 1e-8),
    (LatticeSpec.level4p(2), 37, 0.3, 1.3, 1.0, 1e-6),
    (LEVEL4, 0, 0.25, 0.97, 1.5, 0.5),
    (LEVEL4, 1, 0.05, 4.0, 0.5, 1e-2),
    (LEVEL4, 0, 0.3, 1.5, 1.0, 50.0),
]


def _solved(spec, x, y, v, tol):
    chol = _local_cholesky(np.array([x]), np.array([y]), spec.steps)
    pref = _tail_factor(v, chol[:3])
    (T,), (tail,) = _solve_threshold(v, pref, np.array([tol]))
    return T, tail, pref


def _floor(v):
    # where (2vT + 1/2pi) e^{-pi v (1 - theta) T} starts to decrease
    return (2.0 / (math.pi * (1.0 - _THETA)) - 1.0 / (2.0 * math.pi)) / (2.0 * v)


class TestTailBound:
    @pytest.mark.parametrize("spec, hi, x, y, v, tol", TAIL_NODES)
    def test_bound_covers_dropped_terms(self, spec, hi, x, y, v, tol):
        # every point with T < M <= T + 30/v, found by brute force
        T, tail, _ = _solved(spec, x, y, v, tol)
        _, X, M = _brute_force(spec, spec.cosets()[hi], x, y, T + 30.0 / v)
        s = pair(LatticeVector(*X), x_of_z(complex(x, y)))
        km = np.abs(v * s * s - 1 / (2 * math.pi)) * np.exp(-math.pi * v * M)
        dropped = km[M > T]
        assert dropped.size > 10
        assert math.fsum(dropped.tolist()) <= tail <= tol

    @pytest.mark.parametrize("spec, hi, x, y, v, tol", TAIL_NODES)
    def test_threshold_is_least(self, spec, hi, x, y, v, tol):
        T, tail, pref = _solved(spec, x, y, v, tol)
        assert T >= _floor(v)
        assert float(_tail_bound(T, v, pref)[0]) == tail <= tol
        if T > _floor(v) * (1 + 1e-9):
            assert float(_tail_bound(T * (1 - 1e-9), v, pref)[0]) > tol
        else:
            assert tol == 50.0  # only the last node sits on the floor


class TestKernel:
    @pytest.mark.parametrize("h", [0, 1])
    def test_float_and_mp_paths_agree(self, h):
        # the quadrature's float64 enumerator at one node, phased by e(q u),
        # against the mpmath kernel
        hv = LEVEL4.cosets()[h]
        for tau, z in [(0.3 + 1.0j, 0.1 + 1.1j), (1j, 0.25 + 0.93j),
                       (0.7 + 2.0j, -0.4 + 1.7j)]:
            qq, sums, tails = _enumerate_qsums(LEVEL4, hv, tau.imag, np.array([z.real]),
                                               np.array([z.imag]), np.array([1e-10]))
            a = complex(np.sum(sums[0] * np.exp(2j * math.pi * qq * tau.real)))
            b = theta_kernel(h, tau, z, tol=1e-16)
            assert abs(a - complex(b.value)) < 1e-10
            assert tails[0] <= 1e-10 and b.error_bound < 1e-15

    @pytest.mark.parametrize("h", [0, 1])
    def test_modular_invariance_in_z(self, h):
        # the kernel descends to the modular curve in z
        for z in (0.31 + 1.27j, -0.2 + 0.81j):
            tau = 0.4 + 1.3j
            a = theta_kernel(h, tau, z, tol=1e-11)
            for w in (z + 1, -1 / z):
                b = theta_kernel(h, tau, w, tol=1e-11)
                assert abs(complex(a.value) - complex(b.value)) < 1e-9

    def test_truncation_validates_against_tighter_tolerance(self):
        tau, z = 0.2 + 0.9j, 0.45 + 1.05j
        for h in (0, 1):
            a = theta_kernel(h, tau, z, tol=1e-6)
            b = theta_kernel(h, tau, z, tol=1e-12)
            assert abs(complex(a.value) - complex(b.value)) <= a.error_bound

    @pytest.mark.parametrize("h", [0, 1])
    @pytest.mark.parametrize("y", [2.0, 4.0, 6.0])
    def test_certified_vanishing_on_imaginary_axis(self, h, y):
        k = theta_kernel(h, 1j, 1j * y, tol=2.0 ** -206)
        assert abs(complex(k.value)) + k.error_bound < 2.0 ** -200

    def test_offaxis_profile_concave_decreasing(self):
        logs = []
        for y in (2.0, 3.0, 4.0):
            k = theta_kernel(0, 1j, 0.3 + 1j * y, tol=1e-30)
            logs.append(math.log(abs(complex(k.value))))
        d1 = logs[1] - logs[0]
        d2 = logs[2] - logs[1]
        assert d1 < -5 and d2 < d1  # super-exponential falloff

    def test_validation(self):
        with pytest.raises(ValueError):
            theta_kernel(2, 1j, 1j)
        with pytest.raises(ValueError):  # a coset index, not a vector
            theta_kernel(LEVEL4.cosets()[1], 1j, 1j)
        with pytest.raises(ValueError):
            theta_kernel(0, 1j, 1j, tol=-1.0)
        with pytest.raises(ValueError):
            theta_kernel(0, -1j, 1j)
        with pytest.raises(ValueError):
            theta_kernel(0, 1j, 0.5)


class TestIntegral:
    def test_linearity(self):
        tau = 0.3 + 1.1j
        a = theta_integral(0, tau, "J", tol=1e-5)
        b = theta_integral(0, tau, [-1488, 2], tol=1e-5)  # 2J as a polynomial in j
        assert abs(2 * complex(a.value) - complex(b.value)) < 2 * a.error_bound + b.error_bound + 1e-9

    def test_conjugation_symmetry(self):
        for h in (0, 1):
            a = theta_integral(h, 0.22 + 1.0j, "J", tol=1e-5)
            b = theta_integral(h, -0.22 + 1.0j, "J", tol=1e-5)
            assert abs(complex(a.value).conjugate() - complex(b.value)) < \
                a.error_bound + b.error_bound + 1e-9

    def test_constant_lift_matches_prediction(self):
        for tau in (1j, 2j):
            avg = 0.5 * sum(complex(theta_integral(h, tau, "1", tol=1e-5).value)
                            for h in (0, 1))
            P = complex(eisen_prediction(tau).value)
            assert abs(avg - P) < 0.01 * abs(P)

    def test_strip_cutoff_stability(self):
        # pushing the cusp truncation one unit higher moves nothing
        Y = _strip_cutoff(1.0, 1, 1.0, 1e-4)
        a, ea = _integral_profile(1, 1.0, "J", 1e-4, [0.0], y_top=Y)
        b, _ = _integral_profile(1, 1.0, "J", 1e-4, [0.0], y_top=Y + 1.0)
        assert abs(a[0] - b[0]) < ea

    @pytest.mark.parametrize("ya, yb", [(None, None), (1.0, 2.0), (4.0, 5.0)])
    @pytest.mark.parametrize("us", [[0.25], np.arange(8) / 8])
    def test_panel_matches_per_node_sums(self, ya, yb, us):
        # reference: each node enumerated alone, phased, then weighted.  On
        # the y in [4, 5] strip the panel sum cancels to ~1e-12 of its terms,
        # so agreement is measured against the terms' magnitude, scale.
        n, v, tol = 12, 1.5, 1e-4
        h = LEVEL4.cosets()[0]
        f_vals = _f_grid_evaluator("J")[0]
        us = np.asarray(us, dtype=float)
        g, w = np.polynomial.legendre.leggauss(n)
        ref, ref_err, scale = np.zeros(us.size, dtype=complex), 0.0, 0.0
        for x, wx in zip(0.25 * (g + 1.0), 0.25 * w):
            y0, y1 = (math.sqrt(1.0 - x * x), 1.0) if ya is None else (ya, yb)
            for y, wy in zip(0.5 * (y1 - y0) * (g + 1.0) + y0, 0.5 * (y1 - y0) * w):
                f = f_vals(np.array([x]), np.array([y]))[0].real
                t = tol * y * y / (40.0 * (1.0 + abs(f)))
                q, (sums,), (tail,) = _enumerate_qsums(LEVEL4, h, v, np.array([x]),
                                                       np.array([y]), np.array([t]))
                wf = 2.0 * wx * wy / (y * y) * f
                ref += wf * (np.exp(2j * math.pi * np.outer(us, q)) @ sums)
                ref_err += abs(wf) * tail
                scale += abs(wf) * np.abs(sums).sum()
        got, err = _panel_quad(ya, yb, n, h, v, f_vals, tol, us)
        assert np.abs(got - ref).max() <= 1e-13 * scale
        assert abs(err - ref_err) <= 1e-13 * ref_err

    @pytest.mark.parametrize("tol", [1e-13, 1e-30, 1e-300, 0.0])
    def test_tolerance_below_float_kernel_rejected(self, tol):
        # 1e-300 used to run for minutes, and 1e-30 returned an error_bound
        # of 1.7e-16, far above what it was asked for
        with pytest.raises(ValueError, match="tol >= 1e-12"):
            theta_integral(0, 0.3 + 1.5j, "1", tol=tol)
        with pytest.raises(ValueError, match="tol >= 1e-12"):
            fourier_extract(0, 1, 1.0, "J", tol=tol)

    @pytest.mark.parametrize("tau, f, tol", [
        (1j, "J2", 1e-3),  # returned an error_bound of 7.3e10
        (2j, "J3", 1e-3),  # returned -1.06e88 +- 1.04e88
        (0.3 + 1.5j, "J", 1e-8),  # returned an error_bound of 4.9e-8
    ])
    def test_bound_past_tol_rejected(self, tau, f, tol):
        with pytest.raises(ValueError, match="exceeds tol"):
            theta_integral(0, tau, f, tol=tol)

    def test_validation(self):
        with pytest.raises(ValueError):
            theta_integral(0, 0.2j, "J")
        with pytest.raises(ValueError):
            theta_integral(0, 1j, "j")  # nonzero constant term
        with pytest.raises(ValueError):
            theta_integral(0, 1j, [0, 744, 1])


class TestFourierExtract:
    def test_first_odd_trace(self):
        c = fourier_extract(1, 0.75, 1.0, "J", tol=1e-3)
        assert abs(float(c.value) + 248) < 0.02 * 248

    def test_first_even_trace(self):
        c = fourier_extract(0, 1, 1.0, "J", tol=1e-3)
        assert abs(float(c.value) - 492) < 0.02 * 492

    def test_peak_memory(self):
        # blocks of _BLOCK nodes bound the node x q tables: one pass per
        # whole panel peaks at about 4.5 MiB, one per 128 nodes at 1.8 MiB
        fourier_extract(0, 1, 1.0, "J", tol=1e-3)  # fills the j and Gauss-Legendre caches
        tracemalloc.start()
        try:
            fourier_extract(0, 1, 1.0, "J", tol=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2 ** 20

    def test_profile_bound_past_tol_rejected(self):
        # returned 2.9e5 +- 2.0e13
        with pytest.raises(ValueError, match="exceeds tol"):
            fourier_extract(0, 1, 1.0, "J2", tol=1e-3)

    def test_coset_congruence_enforced(self):
        with pytest.raises(ValueError):
            fourier_extract(0, 0.75, 1.0, "J")
        with pytest.raises(ValueError):
            fourier_extract(1, 1, 1.0, "J")

    def test_grid_and_height_floors(self):
        with pytest.raises(ValueError):
            fourier_extract(1, 0.75, 1.0, "J", grid_size=4)
        with pytest.raises(ValueError):
            fourier_extract(1, 0.75, 0.2, "J")

    def test_principal_part_alias_warns(self):
        with pytest.warns(UserWarning, match="alias"):
            fourier_extract(1, 7.75, 1.0, "J", grid_size=8, tol=1e-2)


class TestEisenPrediction:
    def test_frozen_values(self):
        # cross-checked against the quadrature side to ~1e-9
        assert complex(eisen_prediction(1j).value).real == pytest.approx(
            0.0039711228, abs=2e-9)
        assert complex(eisen_prediction(2j).value).real == pytest.approx(
            -0.026715898, abs=2e-8)

    def test_large_height_limit(self):
        # only H(0) = -1/12 and the N = 0 beta term survive v -> infinity
        v = 40.0
        P = complex(eisen_prediction(1j * v).value)
        want = -1 / 12 + 2 / (8 * math.pi * math.sqrt(v))
        assert P.real == pytest.approx(want, abs=1e-12)
        assert abs(P.imag) < 1e-12

    def test_error_bound_honest_under_refinement(self):
        a = eisen_prediction(0.3 + 1.1j, tol=1e-8)
        b = eisen_prediction(0.3 + 1.1j, tol=1e-14)
        assert abs(complex(a.value) - complex(b.value)) <= a.error_bound

    def test_validation(self):
        with pytest.raises(ValueError):
            eisen_prediction(0.1j)
        with pytest.raises(ValueError):
            eisen_prediction(1j, tol=0.0)
