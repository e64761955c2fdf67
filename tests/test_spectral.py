import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

import idlaw
import idlaw.spectral as spectral
from idlaw import maps, quadrature
from idlaw import triplet as tripmod
from idlaw.errors import InvalidMeasureError
from idlaw.spectral import GridTail, SpectralMeasure, ray


def poly_terms(coefs, shift=0.0):
    # (c, p) power terms of shift + sum of coefs[k] r^k
    return [(c + (shift if k == 0 else 0.0), float(k)) for k, c in enumerate(coefs)]


def segment_exponent(sg, ws):
    # the exponent integral of a radial measure holding one segment
    return spectral.RadialMeasure((), (sg,)).exponent_integral(ws)


def power_integral(sg, a, b, s):
    # integral of r^s against the segment over (a, b), clipped to its range
    lo, hi = max(a, sg.lo), min(b, sg.hi)
    return 0.0 if hi <= lo else sg.c * float(spectral._moment(sg, lo, hi, s))


def jump_kernel(r, w):
    # integrand of the compensated jump part for a positive ray
    val = np.exp(1j * w * r) - 1.0
    if r <= 1.0:
        val -= 1j * w * r
    return val


class TestGridTail:
    def test_tail_interpolation(self):
        gt = GridTail([0.5, 1.0, 2.0, 4.0], [1.0, 0.6, 0.2, 0.0])
        assert gt.tail_at(0.4) == 1.0
        assert abs(gt.tail_at(1.5) - 0.4) < 1e-15
        assert gt.tail_at(4.0) == 0.0
        assert gt.tail_at(7.0) == 0.0

    def test_integral_uses_endpoint_averages_per_cell(self):
        gt = GridTail([0.5, 1.5, 3.0], [0.8, 0.3, 0.0])
        # a node is interposed at radius 1, then each cell weighs the kernel
        # by the average of its endpoint values
        nodes = [0.5, 1.0, 1.5, 3.0]
        tails = [0.8, 0.55, 0.3, 0.0]
        g = lambda r: r * r
        truth = sum(
            (tails[k] - tails[k + 1]) * 0.5 * (g(nodes[k]) + g(nodes[k + 1]))
            for k in range(3)
        )
        assert abs(gt.split_integral(g, g) - truth) < 1e-12

    def test_split_integral_straddles_unit_radius(self):
        gt = GridTail([0.5, 1.5, 3.0], [0.8, 0.3, 0.0])
        # below-1 kernel r^2 sees the (0.5, 1] cell, the flat kernel the rest
        truth = 0.25 * 0.5 * (0.25 + 1.0) + 0.25 * 1.0 + 0.3 * 1.0
        got = gt.split_integral(lambda r: r * r, lambda r: np.ones_like(r))
        assert abs(got - truth) < 1e-12

    def test_residual_tail_mass_sits_on_last_node(self):
        gt = GridTail([1.0, 2.0], [0.5, 0.2])
        got = gt.split_integral(lambda r: r, lambda r: r)
        truth = 0.3 * 0.5 * (1.0 + 2.0) + 0.2 * 2.0
        assert abs(got - truth) < 1e-12

    def test_fine_tabulation_converges_to_density_integral(self):
        # tail exp(-r) on a dense grid: endpoint averaging is second order,
        # so the Stieltjes integral approaches the true density integral
        radii = np.linspace(0.2, 20.0, 4001)
        gt = GridTail(radii, np.exp(-radii))
        got = gt.split_integral(lambda r: r * r, lambda r: r * r)
        truth = quad(lambda r: r * r * np.exp(-r), 0.2, 20.0, epsabs=1e-13)[0]
        truth += np.exp(-20.0) * 20.0**2
        assert abs(got - truth) < 1e-5

    def test_rejects_malformed_grids(self):
        with pytest.raises(ValueError):
            GridTail([1.0], [0.5])
        with pytest.raises(ValueError):
            GridTail([1.0, 2.0], [0.5])

    def test_issues_flag_increasing_tail(self):
        gt = GridTail([1.0, 2.0, 3.0], [0.2, 0.6, 0.0])
        assert gt.issues("t")


class TestRadialClosedForms:
    def test_tails_combine_atoms_and_segments(self):
        rad = ray(1.0, atoms=[(1.0, 0.5), (2.0, 1.0)], segments=[(1.0, 3.0, 0.6, -2.0)]).radial
        seg_mass = lambda u: 0.6 * (1.0 / u - 1.0 / 3.0)
        assert abs(rad.tail(0.5) - (1.5 + seg_mass(1.0))) < 1e-14
        assert abs(rad.tail(1.0) - (1.0 + seg_mass(1.0))) < 1e-14
        assert abs(rad.tail(2.0) - (0.0 + seg_mass(2.0))) < 1e-14
        assert rad.tail(3.5) == 0.0

    def test_power_moment_beyond_unit_ball(self):
        rad = ray(1.0, atoms=[(2.0, 1.0)], segments=[(1.0, math.inf, 0.2, -2.5)]).radial
        truth = 2.0**-1.0 + 0.2 / 2.5
        assert abs(rad.power_moment_above1(-1.0) - truth) < 1e-12

    def test_log_moment_of_unbounded_segment(self):
        rad = ray(1.0, segments=[(1.0, math.inf, 0.2, -2.5)]).radial
        # int_1^inf log(r) * 0.2 r^-2.5 dr = 0.2 / 1.5^2
        assert abs(rad.log_moment() - 0.2 / 2.25) < 1e-12


def power_segment_integral(lo, hi, p, W):
    """int r^p (exp(i W r) - 1 - i W r [r <= 1]) dr over (lo, hi), W > 0, at mpmath's precision.

    From 0 the compensated integral C(x) over (0, x) is, termwise,
    x^(p+1) sum over k >= 2 of (i W x)^k / (k! (p+k+1)) = x^(p+1) z^2 /
    (2 (p+3)) 2F2(1, p+3; 3, p+4; z), z = i W x, for every p > -3; above
    radius 1 the raw kernel adds i W times the integral of r^(p+1), and an
    unbounded end takes the incomplete gamma function.
    """
    p, W = mp.mpf(p), mp.mpf(W)

    def comp(x):
        if x == 0.0:
            return mp.mpf(0)
        z = mp.mpc(0, W * x)
        return mp.mpf(x) ** (p + 1) * z * z / (2 * (p + 3)) * mp.hyp2f2(1, p + 3, 3, p + 4, z)

    def power(a, b, s):
        a, b = mp.mpf(a), mp.mpf(b)
        return mp.log(b / a) if s == -1 else (b ** (s + 1) - a ** (s + 1)) / (s + 1)

    val = mp.mpf(0)
    if min(hi, 1.0) > lo:
        val += comp(min(hi, 1.0)) - comp(lo)
    bottom = max(lo, 1.0)
    if math.isinf(hi):
        z = mp.mpc(0, -W)
        val += z ** (-p - 1) * mp.gammainc(p + 1, z * bottom) + bottom ** (p + 1) / (p + 1)
    elif hi > bottom:
        val += comp(hi) - comp(bottom) + mp.mpc(0, W) * power(bottom, hi, p + 1)
    return val


def power_segment_oracle(lo, hi, c, p, w):
    """30-digit value of c * int r^p (exp(i w r) - 1 - i w r [r <= 1]) dr over (lo, hi)."""
    if w == 0.0:
        return 0j
    with mp.workdps(30):
        out = complex(c * power_segment_integral(lo, hi, p, abs(w)))
    return out if w > 0.0 else out.conjugate()


def form_nodes(e):
    # the nodes {0} and the offsets e, a number or a sequence, sorted
    return sorted([0.0, *np.atleast_1d(e).tolist()])


# nodes closer than this are moved apart to it, so that partial fractions
# hold; a node's move changes the form by about SPLIT times its
# log-length log(hi/r) relative, far below every tolerance
SPLIT = 1e-30


def power_terms(p, e, hi, span=math.inf):
    """Partial fractions of a log form: r^p D[N](log(hi/r)) as power terms.

    D is the divided difference of x -> exp(x t) over the nodes N = {0} and
    the offsets e; for distinct nodes n_j it is the sum of exp(n_j t) w_j,
    w_j = 1/prod over k != j of (n_j - n_k), so the form is the sum of
    w_j hi^(n_j) r^(p - n_j). Returns those (coefficient, power) pairs as
    mpf and the digits to sum them at: 30, and 10 more, and the digits
    the terms cancel, up to the largest |w_j|, and up to span^-m more on a
    range that reaches no further than log(hi/r) = span from hi, where D
    is of order span^m, m + 1 nodes. Summing at those digits is
    independent of the package's Taylor series, recursion and Leibniz
    rule.
    """
    nodes = []
    with mp.workdps(60):
        for x in form_nodes(e):
            nodes.append(max(mp.mpf(x), nodes[-1] + SPLIT) if nodes else mp.mpf(x))
        gaps = [mp.fprod(x - y for k, y in enumerate(nodes) if k != j)
                for j, x in enumerate(nodes)]
        lost = max(0, -min(int(mp.floor(mp.log10(abs(g)))) for g in gaps))
    m = len(nodes) - 1
    dps = 40 + lost + m * math.ceil(-math.log10(min(span, 1.0)))
    with mp.workdps(dps):
        terms = [(mp.mpf(hi) ** x / mp.fprod(x - y for k, y in enumerate(nodes) if k != j),
                  mp.mpf(p) - x) for j, x in enumerate(nodes)]
    return terms, dps


def power_moment(x, a, b):
    """Integral of r^(x-1) over (a, b), b finite: a^x expm1(x S)/x, S = log(b/a), or b^x/x from 0."""
    if a == 0:
        return b ** x / x if x > 0 else mp.inf
    S = mp.log(b / a)
    return S if x == 0 else a ** x * mp.expm1(x * S) / x


def log_power_moment(x, a, b):
    """Integral of log(r/a) r^(x-1) over (a, b), 0 < a < b < inf: a^x S^2 1F1(2; 3; x S)/2."""
    S = mp.log(b / a)
    return a ** x * S * S * mp.hyp1f1(2, 3, x * S) / 2


def log_form_oracle(lo, hi, c, p, e, w):
    """30-digit value of c * int r^p D (exp(i w r) - 1 - i w r [r <= 1]) dr over (lo, hi).

    D is the divided difference of exp(x log(hi/r)) over {0} and the
    offsets e; the integral is the sum of the power segments' integrals of
    its partial fractions (:func:`power_terms`), at their digits.
    """
    if w == 0.0:
        return 0j
    terms, dps = power_terms(p, e, hi, math.log(hi / lo) if lo > 0.0 else math.inf)
    with mp.workdps(dps):
        total = mp.fsum(coef * power_segment_integral(lo, hi, power, abs(w)) for coef, power in terms)
        out = complex(c * total)
    return out if w > 0.0 else out.conjugate()


def moment_oracle(sg, a, b, k=None):
    """30-digit integral of r^k, or of log(r/a) when k is None, against sg at c = 1 over (a, b).

    A sum over the power terms of sg (:func:`power_terms` for a log form)
    of :func:`power_moment` or :func:`log_power_moment` at x = q - n, q =
    p + 1 + k and n the term's node; to b = inf, a power segment's only,
    it is -a^q/q or a^q/q^2.
    """
    if sg.e:
        terms, dps = power_terms(sg.p, sg.e, sg.hi, math.log(sg.hi / a) if a > 0.0 else math.inf)
    else:
        terms, dps = [(mp.mpf(1), mp.mpf(sg.p))], 30
    with mp.workdps(dps):
        a_, b_ = mp.mpf(a), mp.mpf(b)
        shift = 1 + (0 if k is None else mp.mpf(k))
        q = mp.mpf(sg.p) + shift
        if math.isinf(b):
            if q >= 0:
                return math.inf
            return float(a_ ** q / q ** 2 if k is None else -(a_ ** q) / q)
        # the density near 0 times r^k is about r^(q - max n - 1)
        if a == 0.0 and q - form_nodes(sg.e)[-1] <= 0:
            return math.inf
        f = power_moment if k is not None else log_power_moment
        return float(mp.fsum(coef * f(power + shift, a_, b_) for coef, power in terms))


@st.composite
def segment_ranges(draw, from_zero=True):
    """(segment at c = 1, a, b): a power segment or log form and a range (a, b) in it.

    p is within 0.01 of -1 or anywhere in (-3, 2). A log form has one to
    three offsets, each 0, within 0.01 of 0 or anywhere in (-3, 3), and
    with two or three one may repeat. The range starts at lo, at 0 when
    ``from_zero``, and spans log(b/a) from 1e-6 to 30; it runs to hi, to a
    power segment's unbounded end or, for a log form, short of hi.
    """
    p = draw(st.one_of(st.floats(-1.01, -0.99), st.floats(-3.0, 2.0)))
    offset = st.one_of(st.just(0.0), st.floats(-0.01, 0.01), st.floats(-3.0, 3.0))
    e = draw(st.one_of(
        st.none(), offset, st.lists(offset, min_size=2, max_size=3),
        st.lists(offset, min_size=1, max_size=2).map(lambda xs: xs + xs[:1]),
    ))
    if from_zero and draw(st.booleans()):
        a, b = 0.0, 10.0 ** draw(st.floats(-2.0, 2.0))
    else:
        a = 10.0 ** draw(st.floats(-2.0, 2.0))
        b = a * math.exp(10.0 ** draw(st.floats(-6.0, math.log10(30.0))))
    hi = b
    if e is None and a > 0.0 and draw(st.booleans()):
        b = hi = math.inf
    elif e is not None and draw(st.booleans()):
        hi = b * 10.0 ** draw(st.floats(1e-6, 1.0))
    return spectral.Segment(a, hi, 1.0, p, () if e is None else e), a, b


# admissible log forms (p - e > -1): lo = 0 and lo > 0, e = 0 and near 0,
# on pieces below, above and across radius 1, and on a short range there
ORACLE_SEGMENTS = [
    (0.0, 0.8, 0.25, -0.5, 0.0),
    (0.5, 3.0, 0.39, 0.3, 1e-7),
    (0.5, 3.0, 0.39, 0.3, -0.005),
    (0.0, 2.0, 0.2, -0.9, -0.008),
    (0.0, 0.8, 0.5, -0.95, 0.003),
    (0.99, 1.02, 0.7, -0.9, 0.009),
    (0.3, 4.0, 0.4, -0.7, 0.009),
    (0.0, 1.0, 0.3, 0.5, -0.005),
    (1.0, 6.0, 0.2, -0.95, 0.0),
    # from 0 with p <= -2, where the zeroed k = 1 series row diverges: it
    # read nan times the coefficient 0
    (0.0, 0.8, 0.5, -2.2, -2.2),
    (0.0, 0.8, 0.5, -2.2, -1.7),
    (0.0, 0.8, 0.5, -2.6, -2.6),
    # two and three offsets, repeated ones included
    (0.5, 3.0, 0.39, 0.3, (-0.7, 0.0)),
    (0.0, 2.0, 0.2, -0.9, (-0.008, -0.008)),
    (0.3, 4.0, 0.4, -0.7, (-1.2, -1.2, 0.009)),
    (0.3, 2.5, 0.7, -0.9, (0.0, 0.0, 0.0)),
    (0.0, 0.8, 0.5, -0.95, (-1.1, -0.3, 0.003)),
]


def edge_frequencies(*ends):
    # |w| just below and above the series/contour switch at each end
    return [spectral.SERIES_EDGE * (1.0 + d) / x for x in ends for d in (-1e-9, 1e-9)
            if 0.0 < x < math.inf]


def jump_exponent(m, W):
    """The jump part of the exponent on the grid W: the triplet (0, 0, m)'s."""
    return tripmod.LevyTriplet(m.dim, np.zeros(m.dim), np.zeros((m.dim, m.dim)), m).exponent_grid(W)


class TestExponentIntegrals:
    def test_segment_matches_high_precision_oracle(self):
        m = SpectralMeasure(1, (ray(1.0, segments=[(0.5, 3.0, 0.3, -1.4)]),))
        got = jump_exponent(m, np.array([[1.2]]))[0]
        # frozen 30-digit quadrature of the compensated kernel
        truth = -0.45162806527956827053 + 0.15911312123657953195j
        assert abs(got - truth) < 1e-10

    def test_unbounded_segment_matches_oscillatory_oracle(self):
        m = SpectralMeasure(1, (ray(1.0, segments=[(1.0, math.inf, 0.2, -2.5)]),))
        got = jump_exponent(m, np.array([[0.7]]))[0]
        # frozen oscillatory-aware high-precision quadrature of the tail
        truth = -0.098531378210745869589 + 0.091804516769435187804j
        assert abs(got - truth) < 1e-12

    def test_grid_tail_exponent_follows_endpoint_average_rule(self):
        gt = GridTail([0.5, 1.5, 3.0], [0.8, 0.3, 0.0])
        m = SpectralMeasure(1, (ray(1.0, grid_tail=gt),))
        nodes = np.array([0.5, 1.0, 1.5, 3.0])
        tails = np.array([0.8, 0.55, 0.3, 0.0])
        for w in (0.9, 1.7):
            got = jump_exponent(m, np.array([[w]]))[0]
            masses = tails[:-1] - tails[1:]
            truth = 0.0
            for k in range(3):
                # each cell applies one kernel form, chosen by which side of
                # the unit radius the whole cell sits on
                comp = nodes[k + 1] <= 1.0
                gl = np.exp(1j * w * nodes[k]) - 1.0 - (1j * w * nodes[k] if comp else 0.0)
                gr = np.exp(1j * w * nodes[k + 1]) - 1.0 - (1j * w * nodes[k + 1] if comp else 0.0)
                truth += masses[k] * 0.5 * (gl + gr)
            assert abs(got - truth) < 1e-13

    def test_fine_grid_tail_exponent_converges_to_density_oracle(self):
        radii = np.linspace(0.2, 12.0, 3001)
        gt = GridTail(radii, np.exp(-radii))
        m = SpectralMeasure(1, (ray(1.0, grid_tail=gt),))
        w = 1.3
        got = jump_exponent(m, np.array([[w]]))[0]
        truth = 0.0
        for a, b in ((0.2, 1.0), (1.0, 12.0)):
            re = quad(lambda r: jump_kernel(r, w).real * np.exp(-r), a, b, epsabs=1e-13)[0]
            im = quad(lambda r: jump_kernel(r, w).imag * np.exp(-r), a, b, epsabs=1e-13)[0]
            truth += re + 1j * im
        truth += np.exp(-12.0) * jump_kernel(12.0, w)
        assert abs(got - truth) < 1e-5

    @pytest.mark.parametrize("p", [-1.001, -1.05, -2.5, -2.999])
    @pytest.mark.parametrize("lo", [1.0, 1e3])
    def test_unbounded_tail_matches_incomplete_gamma(self, p, lo):
        # 30-digit reference: int_lo^inf r^p exp(i w r) dr
        # = (-i w)^(-p-1) Gamma(p+1, -i lo w) on the principal branch
        ws = np.array([0.0, 1e-12, -1e-12, 1e-6, -1e-6, 5.0, -5.0, 1e3])
        mass = -(lo ** (p + 1.0)) / (p + 1.0)
        want = np.zeros(ws.shape, dtype=complex)
        with mp.workdps(30):
            for k, w in enumerate(ws):
                if w != 0.0:
                    z = mp.mpc(0.0, -w)
                    want[k] = complex(z ** (-p - 1.0) * mp.gammainc(p + 1.0, z * lo) - mass)
        got = segment_exponent(spectral.Segment(lo, math.inf, 1.0, p), ws)
        assert got[0] == 0.0
        assert np.max(np.abs(got - want)) < 1e-12

    def test_grid_tail_memory_is_bounded_for_large_batches(self, monkeypatch):
        # 1e5 arguments against 600 nodes: the dense complex kernel would
        # take 960 MB; chunking keeps the peak near a few output vectors
        radii = np.geomspace(1e-3, 1e4, 600)
        gt = GridTail(radii, 1.0 / radii)
        w = np.linspace(-5.0, 5.0, 100_000)
        tracemalloc.start()
        try:
            got = gt.exponent_integral(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6
        # the chunked sum agrees with the dense endpoint-average rule,
        # here also in blocks of one row and fewer atoms than the nodes
        monkeypatch.setattr(spectral, "CIS_CHUNK_ELEMENTS", 7 * 40)
        sub = w[::2500]
        r, t = gt._unit_split
        theta = np.multiply.outer(sub, r)
        g_plain = np.exp(1j * theta) - 1.0
        g_comp = g_plain - 1j * theta
        g_cell = np.where(
            r[1:] <= 1.0,
            0.5 * (g_comp[:, :-1] + g_comp[:, 1:]),
            0.5 * (g_plain[:, :-1] + g_plain[:, 1:]),
        )
        want = g_cell @ -np.diff(t) + g_plain[:, -1] * t[-1]
        assert np.max(np.abs(gt.exponent_integral(sub) - want)) < 1e-11
        assert np.max(np.abs(got[::2500] - want)) < 1e-11

    def test_segment_memory_is_bounded_for_large_batches(self, monkeypatch):
        # 1e5 arguments on a finite segment below the unit radius: the
        # (arguments x terms) series and Laguerre arrays are built per
        # chunk, so the peak stays near 20 MB
        sg = spectral.Segment(0.0, 0.8, 0.5, -0.7)
        w = np.linspace(0.0, 5.0, 100_001)[1:]
        tracemalloc.start()
        try:
            segment_exponent(sg, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        # chunked and single-batch results agree within twice the default
        # tolerance, and to the byte, for the compensated, raw and
        # unbounded parts and a log form alike; a budget of 7 elements
        # takes 3 rows at a time for a segment of two pieces
        tol = quadrature.default_tol()
        sub = np.linspace(0.05, 8.0, 40)
        for seg in (sg, spectral.Segment(0.5, 3.0, 0.3, -1.4),
                    spectral.Segment(1.5, math.inf, 0.3, -1.6),
                    spectral.Segment(0.0, 2.0, 0.2, -0.9, -0.008)):
            whole = segment_exponent(seg, sub)
            monkeypatch.setattr(spectral, "PIECE_CHUNK_ELEMENTS", 7)
            chunked = segment_exponent(seg, sub)
            monkeypatch.undo()
            assert np.max(np.abs(chunked - whole)) < 2.0 * tol
            assert chunked.tobytes() == whole.tobytes()

    def test_image_leaf_memory_is_bounded_for_large_batches(self):
        # 200,000 rows of a jbeta image law, six segments in seven pieces:
        # the piece table runs in blocks of PIECE_CHUNK_ELEMENTS elements
        # that share one work buffer (7.6 MiB peak); the per-segment chunks
        # it replaced peaked at 23 MiB
        levy = SpectralMeasure(1, (
            ray(1.0, atoms=[(2.0, 1.0), (1.0, 0.5)], segments=[(0.0, 0.8, 0.5, -2.2)]),
            ray(-1.0, segments=[(1.5, math.inf, 0.3, -1.6)]),
        ))
        law = maps.jbeta_triplet(tripmod.LevyTriplet(1, [0.25], [[0.2]], levy), 1.0)
        Y = np.linspace(-5.0, 5.0, 200_000)[:, None]
        law.exponent_grid(Y[:2])
        tracemalloc.start()
        try:
            got = law.exponent_grid(Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 23 * 2**20
        rows = np.arange(0, Y.shape[0], 9973)
        assert got[rows].tobytes() == law.exponent_grid(Y[rows]).tobytes()

    @pytest.mark.parametrize("tol", [1e-10, 1e-11])
    @pytest.mark.parametrize("W", [1e3, 3e3, 1e4])
    @pytest.mark.parametrize("p", [-0.7, -1.7, -2.2])
    def test_power_segment_holds_at_large_frequencies(self, p, W, tol):
        # the adaptive quadrature this replaced raised QuadratureError here
        sg = spectral.Segment(0.0, 0.8, 0.5, p)
        got = segment_exponent(sg, np.array([W, -W]))
        want = power_segment_oracle(0.0, 0.8, 0.5, p, W)
        floor = max(tol, 50.0 * np.finfo(float).eps * abs(want))
        assert abs(got[0] - want) <= floor
        assert abs(got[1] - want.conjugate()) <= floor

    @pytest.mark.parametrize("seg", [
        *[(0.0, 0.8, 0.5, p) for p in (-0.7, -1.0, -1.7, -2.0, -2.2, -2.999)],
        (0.3, 2.0, 0.5, -0.7),
        # P_0 and P_1 meet their logarithmic case
        (0.2, 5.0, 0.5, -2.0),
        (0.2, 5.0, 0.5, -1.0),
        *[(lo, math.inf, 0.3, p) for lo in (0.5, 1.5) for p in (-1.001, -2.5, -2.999)],
    ])
    def test_power_segment_matches_oracle_on_both_branches(self, seg):
        # every end, the unit radius included, on both sides of the switch
        # between the power series and the rotated contour
        ws = np.array([1e-12, -1e-12, 1e-6, *edge_frequencies(seg[0], seg[1], 1.0)])
        got = segment_exponent(spectral.Segment(*seg), ws)
        want = np.array([power_segment_oracle(*seg, w) for w in ws])
        assert np.all(np.abs(got - want) <= 100.0 * np.finfo(float).eps * np.abs(want))

    def test_power_segments_run_no_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the jump integrand must not call quadrature.integrate")

        monkeypatch.setattr(quadrature, "integrate", refuse)
        m = SpectralMeasure(1, (
            ray(1.0, atoms=[(2.0, 1.0)], segments=[(0.0, 0.8, 0.5, -2.2), (0.3, 2.0, 0.5, -0.7)]),
            ray(-1.0, segments=[(1.5, math.inf, 0.3, -1.6)]),
        ))
        vals = jump_exponent(m, np.linspace(-50.0, 50.0, 41)[:, None])
        assert np.all(np.isfinite(vals))
        # one radial measure with every primitive: atom, power segment,
        # log-form segment and grid tail
        rad = spectral.RadialMeasure(
            (spectral.Atom(0.4, 0.5),),
            (spectral.Segment(0.0, 0.8, 0.5, -2.2), spectral.Segment(0.5, 3.0, 0.39, 0.3, -0.005)),
            GridTail(np.geomspace(0.5, 4.0, 30), np.linspace(1.0, 0.0, 30)),
        )
        assert np.all(np.isfinite(rad.exponent_integral(np.linspace(-1e4, 1e4, 41))))

    def test_series_and_laguerre_tables(self):
        want = [float(Fraction(1, math.factorial(k))) for k in range(spectral._INV_FACT.size)]
        assert spectral._INV_FACT.tolist() == want
        n = spectral._LAG_NODES.size
        nodes, weights = np.polynomial.laguerre.laggauss(n)
        # laggauss(34) is itself off by up to 1e-14 in its nodes and 5e-13
        # in its weights (its moments below miss k! by 3e-14); the literals
        # are exact to double precision, so they integrate v^k exp(-v) over
        # (0, inf), that is k!, to rounding for every k < 2n
        assert np.max(np.abs(spectral._LAG_NODES / nodes - 1.0)) < 1e-13
        assert np.max(np.abs(spectral._LAG_WEIGHTS / weights - 1.0)) < 1e-11
        for k in range(2 * n):
            moment = math.fsum(spectral._LAG_WEIGHTS * spectral._LAG_NODES ** k)
            assert moment == pytest.approx(math.factorial(k), rel=(k + 4) * 1e-16)

    def test_hermitian_symmetry(self):
        # every piece takes signed arguments: atoms, a power segment, a
        # log-form segment, a grid tail and an unbounded power segment,
        # the last one past the series edge at the larger |w|
        gt = GridTail(np.geomspace(0.5, 4.0, 30), np.linspace(1.0, 0.0, 30))
        m = SpectralMeasure(
            1,
            (
                ray(
                    1.0,
                    atoms=[(0.4, 0.5), (2.0, 1.0)],
                    segments=[(0.5, 3.0, 0.3, -1.4), (0.5, 3.0, 0.3, 0.3, 0.0)],
                    grid_tail=gt,
                ),
                ray(-1.0, atoms=[(1.5, 0.7)], segments=[(1.5, math.inf, 0.3, -1.6)]),
            ),
        )
        W = np.linspace(-12.0, 12.0, 13)[:, None]
        vals = jump_exponent(m, W)
        assert np.max(np.abs(vals - np.conj(vals[::-1]))) < 1e-13

    def test_atom_memory_is_bounded_for_large_batches(self):
        # 1,000 atoms x 5,000 arguments: one (arguments x atoms) complex
        # kernel peaked near 280 MB; the chunked point-mass sum stays small
        rng = np.random.default_rng(5)
        r, m = rng.uniform(0.05, 5.0, 1000), rng.uniform(0.1, 2.0, 1000)
        rad = spectral.RadialMeasure(tuple(spectral.Atom(*a) for a in zip(r, m)))
        w = np.linspace(-40.0, 40.0, 5000)
        tracemalloc.start()
        try:
            got = rad.exponent_integral(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6
        # the per-atom formula, written out on every 50th argument
        theta = np.multiply.outer(w[::50], r)
        cis_m1 = -2.0 * np.sin(0.5 * theta) ** 2 + 1j * np.sin(theta)
        want = (cis_m1 - 1j * theta * (r <= 1.0)) @ m
        assert np.all(np.abs(got[::50] - want) <= 1e-13 * np.abs(want))


class TestCisKernel:
    """exp(i theta) - 1 from one half-angle tangent, against 40-digit mpmath."""

    @staticmethod
    def _rel_errors(theta: np.ndarray) -> np.ndarray:
        got = spectral._cis_m1(theta[:, None], np.ones((1, 1)), np.ones(1))
        out = []
        with mp.workdps(40):
            for th, g in zip(theta, got):
                half = mp.mpf(th) / 2
                want = mp.mpc(-2 * mp.sin(half) ** 2, mp.sin(2 * half))
                out.append(float(abs(g - want) / abs(want)))
        return np.array(out)

    def test_relative_error_from_1e_minus_12_to_1e3(self):
        rng = np.random.default_rng(11)
        theta = rng.choice([-1.0, 1.0], 3000) * 10.0 ** rng.uniform(-12.0, 3.0, 3000)
        assert self._rel_errors(theta).max() <= 1e-15

    def test_relative_error_next_to_odd_multiples_of_pi(self):
        # tan(theta/2) reaches about 1.6e16 here, and t**2 stays finite
        odd_pi = (2 * np.arange(160) + 1) * math.pi
        theta = np.concatenate([np.nextafter(odd_pi, 0.0), odd_pi, np.nextafter(odd_pi, 1e4)])
        assert self._rel_errors(np.concatenate([theta, -theta])).max() <= 1e-15

    def test_zero_angle_is_exactly_zero(self):
        got = spectral._cis_m1(np.zeros((3, 2)), np.ones((4, 2)), np.ones(4))
        assert got.tobytes() == np.zeros(3, dtype=complex).tobytes()


class TestSegmentMoments:
    """Closed-form segment moments against a 30-digit oracle, to 1e-13 of the integral.

    Both integrands are of one sign, so the integral of |integrand| is |want|.
    """

    @settings(max_examples=150, deadline=None)
    @given(case=segment_ranges(), k=st.floats(-4.0, 2.0))
    # K = p - e + 1 + k = -2 and q = K + e = 0: the series that takes over as
    # the range shrinks ran at |K| T = 7.4, 1.0e-5 relative off
    @example(case=(spectral.Segment(0.5, 20.0, 1.0, 1.0, 2.0), 0.5, 20.0), k=-2.0)
    # the oracle's hardest node sets: a node held four times, offsets 1e-7
    # and 5e-324 apart, and a range of log-length 1e-6 at hi, where the
    # form is of order 1e-12
    @example(case=(spectral.Segment(0.3, 2.5, 1.0, -0.9, (0.0, 0.0, 0.0)), 0.3, 2.5), k=-0.5)
    @example(case=(spectral.Segment(0.0, 4.0, 1.0, 0.3, (-1.2, -1.2 + 1e-7)), 0.0, 3.0), k=0.5)
    @example(case=(spectral.Segment(0.5, 3.0, 1.0, -0.9, (0.0, 5e-324)), 0.5, 2.0), k=1.0)
    @example(case=(spectral.Segment(1.0, 3.0, 1.0, -0.5, (-0.2, 0.0)), 3.0 * math.exp(-1e-6), 3.0),
             k=-1.0)
    def test_moment_matches_oracle(self, case, k):
        sg, a, b = case
        want = moment_oracle(sg, a, b, k)
        got = float(spectral._moment(sg, a, b, k))
        tol = 1e-13 * abs(want)
        if a == 0.0 or math.isinf(b):
            # a moment that reaches 0 or inf is about C/x, and inf for x <= 0,
            # with x = p + k + 1, or the least of p - n + k + 1 over the nodes
            # n of a log form from 0; x is summed in doubles, and its
            # rounding, up to 2 eps (|p| + |n| + |k| + 1), moves the moment by
            # that over |x| relative, or across x = 0, whatever the algorithm
            q = math.fsum((sg.p, k, 1.0))
            nodes = form_nodes(sg.e)
            x = min(abs(q - n) for n in nodes)
            slack = 2.0 * np.finfo(float).eps * (
                abs(sg.p) + max(abs(n) for n in nodes) + abs(k) + 1.0
            )
            if x <= slack:
                return
            tol += abs(want) * slack / x
        if math.isinf(want):
            assert got == math.inf
        else:
            assert abs(got - want) <= tol, (got, want)

    @settings(max_examples=150, deadline=None)
    @given(case=segment_ranges(from_zero=False))
    # a near-zero offset beside a double node: the recursion of the divided
    # difference read 1.28e-13 relative off here, at |S| times the spread 1.09
    @example(case=(spectral.Segment(1.0, 8.810542256910674, 1.0, -1.5,
                                    (-0.009929966799236198, 0.0, 0.0)), 1.0, 8.810542256910674))
    @example(case=(spectral.Segment(0.3, 2.5, 1.0, -0.9, (0.0, 0.0, 0.0)), 0.3, 2.5))
    @example(case=(spectral.Segment(1.0, 3.0, 1.0, -0.5, (0.0, 5e-324)), 3.0 * math.exp(-1e-6), 3.0))
    def test_log_moment_matches_oracle(self, case):
        sg, a, b = case
        b = sg.hi if sg.e else b  # a log form's runs to its end
        want = moment_oracle(sg, a, b)
        got = float(spectral._log_moment(sg, a, b))
        if math.isinf(want):
            assert got == math.inf
        else:
            assert abs(got - want) <= 1e-13 * abs(want), (got, want)

    def test_moments_take_arrays_of_starts(self):
        # one call over many starts has each start's bytes alone
        sg = spectral.Segment(0.0, 2.0, 0.5, -1.003, -0.003)
        starts = np.geomspace(1e-6, 1.9, 9)
        for f in (lambda u: spectral._moment(sg, u, 2.0, -0.7),
                  lambda u: spectral._log_moment(sg, u, 2.0)):
            whole = f(starts)
            assert whole.tobytes() == np.array([float(f(u)) for u in starts]).tobytes()

    def test_log_ratio_takes_each_element_alone(self):
        # rows (x, x), close to x and far from it, broadcast against x, and
        # scalars: every element is log1p(d/y) within y/32 and log(x/y) beyond
        x = np.geomspace(0.01, 5.0, 13)
        ends = np.stack([x, x * (1.0 + np.linspace(-0.05, 0.05, 13)), x[::-1], np.full(13, 0.8)])

        def alone(a, b):
            a, b = np.array([a]), np.array([b])
            close = abs(a - b) < b / 32.0
            return (np.log1p((a - b) / b) if close[0] else np.log(a / b))[0]

        want = np.array([[alone(a, b) for a, b in zip(row, x)] for row in ends])
        assert spectral._log_ratio(ends, x).tobytes() == want.tobytes()
        for a, b in ((0.8, 0.8), (0.81, 0.8), (2.0, 0.8)):
            assert spectral._log_ratio(a, np.float64(b)) == alone(a, b)


def test_spectral_runs_no_quadrature():
    # every moment of the measure layer is closed form
    assert not hasattr(idlaw.spectral, "quadrature")


class TestValidation:
    def test_divergent_small_jump_segment_is_flagged(self):
        m = SpectralMeasure(1, (ray(1.0, segments=[(0.0, 1.0, 1.0, -3.0)]),))
        assert not m.is_valid
        assert any("diverge" in msg for msg in m.issues())

    def test_negative_mass_is_flagged(self):
        m = SpectralMeasure(1, (ray(1.0, atoms=[(2.0, -1.0)]),))
        assert not m.is_valid

    def test_non_unit_direction_is_flagged(self):
        m = SpectralMeasure(1, (ray([2.0], atoms=[(1.0, 1.0)]),))
        assert not m.is_valid

    def test_segments_summing_to_a_negative_density_are_flagged(self):
        # overlapping segments are summed; here the sum is -0.5/r on (1.5, 2)
        m = SpectralMeasure(
            1, (ray(1.0, segments=[(0.5, 2.0, 1.0, -1.0), (1.5, 3.0, -1.5, -1.0)]),)
        )
        assert not m.is_valid
        assert any("(1.5, 2.0)" in msg for msg in m.issues())
        positive = SpectralMeasure(
            1, (ray(1.0, segments=[(0.5, 2.0, 1.0, -1.0), (1.5, 3.0, 1.0, -1.0)]),)
        )
        assert positive.is_valid

    @pytest.mark.parametrize(
        "terms, valid",
        [
            # 1 - 2.2 r + r^2 dips to -0.21 at r = 1.1, both ends positive
            ([(1.0, 0.0), (-2.2, 1.0), (1.0, 2.0)], False),
            # (1 - r)^2 + 0.01 is positive despite two sign changes
            ([(1.01, 0.0), (-2.0, 1.0), (1.0, 2.0)], True),
            # (1 - r)^2 touches zero inside the range; 1e-6 less dips below
            ([(1.0, 0.0), (-2.0, 1.0), (1.0, 2.0)], True),
            ([(1.0 - 1e-6, 0.0), (-2.0, 1.0), (1.0, 2.0)], False),
            # 2 - r^-1 on (0.5, 3): one change, zero at 0.5, positive at 3
            ([(2.0, 0.0), (-1.0, -1.0)], True),
            # r^-1 - 0.5 on (0.5, 3): one change, negative at 3
            ([(-0.5, 0.0), (1.0, -1.0)], False),
            # (r - 1)^2 (r - 2)^2 touches zero twice; less 0.01 it dips twice:
            # the derivative has three terms, so its zeros are bisected
            (poly_terms([4.0, -12.0, 13.0, -6.0, 1.0]), True),
            (poly_terms([4.0, -12.0, 13.0, -6.0, 1.0], -0.01), False),
            # (sqrt(r) - sqrt(2))^2 / sqrt(r), zero at 2, the image of an image
            ([(2.0, -0.5), (-2.0 * math.sqrt(2.0), 0.0), (1.0, 0.5)], True),
        ],
    )
    def test_sign_certificate_on_a_range(self, terms, valid):
        segs = [(0.5, 3.0, c, p) for c, p in terms]
        m = SpectralMeasure(1, (ray(1.0, segments=segs),))
        assert m.is_valid is valid

    @pytest.mark.parametrize("top, valid", [(1.0, True), (1.0 - 6.25e-5, False)])
    def test_sign_certificate_brackets_zeros_on_an_unbounded_range(self, top, valid):
        # (u - 1)^2 (u - 2)^2 + 0.01 (u - 2)^2 with u = 0.01/r on (0, inf) is
        # zero at r = 0.005; 6.25e-5 u^4 less, it dips below zero there only.
        # The derivative's zero near r = 0.005 lies on a piece reaching
        # r = 0, so it is bisected from a bracket walked out from that end
        coefs = [4.04, -12.04, 13.01, -6.0, top]
        segs = [spectral.Segment(0.0, math.inf, c * 0.01 ** k, -k) for k, c in enumerate(coefs)]
        assert spectral._density_nonnegative(segs, 0.0, math.inf) is valid

    def test_sign_certificate_uses_limits_at_zero_and_infinity(self):
        # r^-2 - r^-1.5 on (0, 1) is positive near 0 and zero at 1
        ok = [(0.0, 1.0, 1.0, -2.0), (0.0, 1.0, -1.0, -1.5)]
        assert SpectralMeasure(1, (ray(1.0, segments=ok),)).is_valid
        # r^-2.5 - r^-2 on (1, inf) is zero at 1 and negative at infinity
        bad = [(1.0, math.inf, -1.0, -2.0), (1.0, math.inf, 1.0, -2.5)]
        assert not SpectralMeasure(1, (ray(1.0, segments=bad),)).is_valid

    def test_segment_at_extreme_radii_validates(self):
        # a**q expm1(q log(b/a)) / q at a = 1.6e-260, q = 3 was 0 * inf:
        # the admissible segment was judged "diverges"
        m = SpectralMeasure(1, (ray([1.0], segments=[(1.6e-260, 1.0 + 1.6e-260, 1.0, 0.0)]),))
        assert m.is_valid
        assert spectral._min1r2([m.rays[0].radial])[0] == pytest.approx(1.0 / 3.0, rel=1e-15)
        # nothing cancels past q log(b/a) = 700: the value is b**q / q
        got = spectral._power_ints(np.array([1.6e-260, 0.5]), 1.0, 3.0)
        assert got[0] == 1.0 / 3.0
        assert got[1] == pytest.approx(7.0 / 24.0, rel=1e-15)

    def test_clean_measure_validates(self):
        m = SpectralMeasure(1, (ray(1.0, atoms=[(2.0, 1.0)], segments=[(0.1, 1.0, 0.5, -0.5)]),))
        assert m.is_valid and m.issues() == []


class TestLogFormSegment:
    SEGMENTS = [
        spectral.Segment(0.0, 0.8, 0.25, -0.5, 0.0),
        spectral.Segment(0.5, 3.0, 0.39, 0.3, 1e-7),
        spectral.Segment(0.5, 3.0, 0.39, 0.3, -0.005),
        spectral.Segment(0.0, 2.0, 0.2, -0.9, -0.008),
    ]

    @staticmethod
    def density(sg, r):
        log_ratio = math.log(sg.hi / r)
        if not sg.e:
            return sg.c * r ** sg.p
        (e,) = sg.e
        return sg.c * r ** sg.p * (log_ratio if e == 0.0 else math.expm1(e * log_ratio) / e)

    def moment(self, sg, a, b, g):
        a, b = max(a, sg.lo), min(b, sg.hi)
        if b <= a:
            return 0.0
        kw = dict(epsabs=1e-15, epsrel=1e-13, limit=200)
        return quad(lambda r: self.density(sg, r) * g(r), a, b, **kw)[0]

    @pytest.mark.parametrize("sg", SEGMENTS)
    def test_moments_match_quadrature_of_the_density(self, sg):
        rad = spectral.RadialMeasure((), (sg,))
        assert rad.issues("ray") == []
        for u in (0.0, 0.3, 0.6, 1.0, 2.5):
            want = self.moment(sg, u, math.inf, lambda r: 1.0)
            assert float(rad.tail(u)) == pytest.approx(want, rel=1e-11, abs=1e-13)
        want = self.moment(sg, 0.0, 1.0, lambda r: r * r) + self.moment(
            sg, 1.0, math.inf, lambda r: 1.0
        )
        assert spectral._min1r2([rad])[0] == pytest.approx(want, rel=1e-11, abs=1e-13)
        for s in (-1.3, 0.5):
            want = self.moment(sg, 1.0, math.inf, lambda r: r ** s)
            assert rad.power_moment_above1(s) == pytest.approx(want, rel=1e-11, abs=1e-13)
        want = self.moment(sg, 1.0, math.inf, math.log)
        assert rad.log_moment() == pytest.approx(want, rel=1e-11, abs=1e-13)

    @pytest.mark.parametrize("sg", SEGMENTS + [spectral.Segment(0.5, 3.0, 0.39, 0.3)])
    def test_power_integral_stops_at_its_upper_limit(self, sg):
        for a, b in ((0.6, 2.0), (1.0, math.inf), (0.0, 0.7)):
            for s in (-1.3, 0.5, 2.0) if a > 0.0 else (0.5, 2.0):
                want = self.moment(sg, a, b, lambda r: r ** s)
                got = power_integral(sg, a, b, s)
                assert got == pytest.approx(want, rel=1e-11, abs=1e-13), (a, b, s)

    def test_power_integral_from_zero_below_the_first_moment(self):
        sg = self.SEGMENTS[0]  # density 0.25 r^-0.5 log(0.8/r)
        want = self.moment(sg, 0.0, 0.7, lambda r: r ** -0.3)
        assert power_integral(sg, 0.0, 0.7, -0.3) == pytest.approx(want, rel=1e-11)
        assert power_integral(sg, 0.0, 0.7, -1.3) == math.inf

    def test_exponent_matches_quadrature_of_the_density(self):
        sg = self.SEGMENTS[1]
        rad = spectral.RadialMeasure((), (sg,))
        for w in (0.7, -2.0):
            want = quad(
                lambda r: self.density(sg, r) * (math.cos(w * r) - 1.0), 0.5, 3.0,
                epsabs=1e-14, epsrel=1e-13,
            )[0] + 1j * quad(
                lambda r: self.density(sg, r) * (math.sin(w * r) - w * r * (r <= 1.0)),
                0.5, 3.0, epsabs=1e-14, epsrel=1e-13, points=[1.0],
            )[0]
            got = rad.exponent_integral(np.array([w]))[0]
            assert abs(got - want) < 1e-11

    @pytest.mark.parametrize("sg", ORACLE_SEGMENTS)
    def test_exponent_matches_30_digit_oracle(self, sg):
        # both ends, the unit radius included, on both sides of the switch
        # between the power series and the rotated contour; -w gives the
        # conjugate
        ws = np.array([0.7, 40.0, -0.7, -40.0, *edge_frequencies(sg[0], sg[1], 1.0)])
        got = segment_exponent(spectral.Segment(*sg), ws)
        want = np.array([log_form_oracle(*sg, w) for w in ws])
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    @pytest.mark.parametrize("sg, want", [
        # log_form_oracle at w = 1e4, and as before by 30-digit quadrature
        # on 3184 and 1274 panels of 16 and of 20 nodes each
        ((0.0, 2.0, 0.2, -0.9, -0.008), -5.892493727333567 - 2887.480673482906j),
        ((0.0, 0.8, 0.5, -0.95, 0.003), -16.623561518719743 - 3593.486067505651j),
    ])
    def test_exponent_holds_at_large_frequencies(self, sg, want):
        # the adaptive quadrature this replaced raised QuadratureError here
        # at tol 1e-12
        got = segment_exponent(spectral.Segment(*sg), np.array([1e4, -1e4]))
        assert abs(got[0] - want) <= 1e-13 * abs(want)
        assert abs(got[1] - want.conjugate()) <= 1e-13 * abs(want)

    @staticmethod
    def measure(*segments):
        radial = spectral.RadialMeasure((), segments)
        return SpectralMeasure(1, (spectral.Ray(np.array([1.0]), radial),))

    @pytest.mark.parametrize(
        "sg, match",
        [
            (spectral.Segment(0.5, 3.0, -0.1, 0.3, 0.0), "nonnegative"),
            (spectral.Segment(0.5, math.inf, 0.1, -2.0, 0.0), "log-form"),
            (spectral.Segment(0.5, 3.0, 0.1, -1.5, -0.2), "log-form"),
        ],
    )
    def test_inadmissible_log_forms_are_flagged(self, sg, match):
        with pytest.raises(InvalidMeasureError, match=match):
            self.measure(sg).require_valid()

    @pytest.mark.parametrize("e", [0.0, 0.004, -0.004])
    def test_log_forms_enter_the_sign_certificate(self, e):
        # 0.3 r^0.3 (log(3/r) near e = 0) on (0.5, 3) is at most 0.3 * 3^0.3
        # * log(6) < 0.75 at r = 0.5, at r = 2 still positive: a positive
        # term of 0.75 lifts a negative log form over the whole range, one
        # of 0.3 only near hi
        neg = spectral.Segment(0.5, 3.0, -0.3, 0.3, e)
        self.measure(neg, spectral.Segment(0.5, 3.0, 0.75, 0.0)).require_valid()
        with pytest.raises(InvalidMeasureError, match="nonnegative"):
            self.measure(neg, spectral.Segment(0.5, 3.0, 0.3, 0.0)).require_valid()

    @pytest.mark.parametrize("lift, valid", [(1.02, True), (0.98, False)])
    def test_log_forms_of_several_offsets_enter_the_sign_certificate(self, lift, valid):
        # -r^0.3 D[-0.2, 0, 0] on (0.5, 3), D = (L - (1 - exp(-0.2 L))/0.2)/0.2
        # at L = log(3/r), plus a constant: by partial fractions one (x + y t)
        # group for the double node and a power group; it is nonnegative
        # once the constant reaches the form's largest density
        neg = spectral.Segment(0.5, 3.0, -1.0, 0.3, (-0.2, 0.0))
        r = np.geomspace(0.5, 3.0, 20001)
        L = np.log(3.0 / r)
        top = np.max(r ** 0.3 * (L + np.expm1(-0.2 * L) / 0.2) / 0.2)
        lifted = self.measure(neg, spectral.Segment(0.5, 3.0, lift * top, 0.0))
        assert lifted.is_valid is valid

    def test_a_node_held_three_times_is_not_certified(self):
        # -r^0.3 log(3/r)^2 / 2 has no (x + y t) groups: with any lift the
        # range is reported uncertified
        neg = spectral.Segment(0.5, 3.0, -1.0, 0.3, (0.0, 0.0))
        with pytest.raises(InvalidMeasureError, match="not certified"):
            self.measure(neg, spectral.Segment(0.5, 3.0, 100.0, 0.0)).require_valid()
        # alone and positive, it needs no certificate
        self.measure(spectral.Segment(0.5, 3.0, 1.0, 0.3, (0.0, 0.0))).require_valid()

    def test_exponents_that_round_together_form_one_group(self):
        # the second jbeta image (betas 0.5 then 1.09375) of an atom (1, 0.5)
        # and Segment(1, 2, 1, 0.092...) as computed with e = p - beta + 1:
        # the log form's other exponent p - e is 0.09375 - 1.4e-17, and
        # shifted by the lowest, -0.5, it rounds onto the power term's
        segs = (
            spectral.Segment(0.0, 1.0, 1.2498654942571892, -0.5),
            spectral.Segment(0.0, 1.0, -1.09857278582122, 0.09375),
            spectral.Segment(1.0, 2.0, 2.3450704574907832, -0.5),
            spectral.Segment(1.0, 2.0, -1.553886650529082, 0.09375),
            spectral.Segment(
                1.0, 2.0, -0.9237154469199463, 0.0920383834908358, -0.0017116165091641822
            ),
        )
        assert spectral.RadialMeasure((), segs).issues("ray") == []

    @pytest.mark.parametrize("k, valid", [(1.0, True), (1.2, False)])
    def test_log_form_and_power_terms_of_one_exponent(self, k, valid):
        # r^0.3 (log(3/r) - k (1 - r/3)) on (0.5, 3): zero at hi, and
        # log(3/r) >= 1 - r/3, so nonnegative for k <= 1; for k = 1.2 it
        # dips below zero just under hi
        segs = (
            spectral.Segment(0.5, 3.0, 1.0, 0.3, 0.0),
            spectral.Segment(0.5, 3.0, -k, 0.3),
            spectral.Segment(0.5, 3.0, k / 3.0, 1.3),
        )
        assert self.measure(*segs).is_valid is valid


class TestRequireValid:
    def test_valid_measure_checks_issues_once(self, monkeypatch):
        m = SpectralMeasure(1, (ray(1.0, atoms=[(2.0, 1.0)]),))
        m.require_valid()
        monkeypatch.setattr(SpectralMeasure, "issues", lambda self: pytest.fail("re-checked"))
        m.require_valid()

    def test_invalid_measure_names_its_issues(self):
        m = SpectralMeasure(1, (ray(1.0, atoms=[(2.0, -1.0)]),))
        with pytest.raises(InvalidMeasureError, match="negative mass"):
            m.require_valid()


def test_triplet_exponent_does_not_import_mpmath():
    code = (
        "import math, sys\n"
        "import numpy as np\n"
        "from idlaw.spectral import SpectralMeasure, ray\n"
        "from idlaw.triplet import LevyTriplet\n"
        "levy = SpectralMeasure(1, (ray(-1.0, segments=[(1.5, math.inf, 0.3, -1.6)]),))\n"
        "vals = LevyTriplet(1, [0.1], [[0.2]], levy).exponent_grid(np.array([[0.7], [-2.0]]))\n"
        "assert np.all(np.isfinite(vals))\n"
        "print('mpmath' in sys.modules)\n"
    )
    src = str(Path(idlaw.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


class TestMeasureAlgebra:
    def test_addition_merges_and_sums_exponents(self):
        m1 = SpectralMeasure(1, (ray(1.0, atoms=[(2.0, 1.0)]),))
        m2 = SpectralMeasure(1, (ray(1.0, atoms=[(0.5, 0.3)]), ray(-1.0, atoms=[(1.2, 0.4)])))
        W = np.linspace(-2.0, 2.0, 7)[:, None]
        both = jump_exponent(m1 + m2, W)
        parts = jump_exponent(m1, W) + jump_exponent(m2, W)
        assert np.max(np.abs(both - parts)) < 1e-13

    def test_scaling_scales_tails_and_exponent(self):
        m = SpectralMeasure(1, (ray(1.0, atoms=[(2.0, 1.0)], segments=[(0.5, 1.5, 0.4, -1.0)]),))
        half = m.scaled(0.5)
        assert abs(half.rays[0].radial.tail(0.7) - 0.5 * m.rays[0].radial.tail(0.7)) < 1e-15
        W = np.array([[1.1]])
        assert abs(jump_exponent(half, W)[0] - 0.5 * jump_exponent(m, W)[0]) < 1e-12
