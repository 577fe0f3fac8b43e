"""End-to-end acceptance criteria for the toolkit.

Each test freezes one acceptance check: integrator accuracy against a
symbolic piecewise oracle, norm evaluations against closed forms, the
embedding inequality sweep, envelope fitting and lifting, the pairwise
propagation bounds, the three certificate checkers, boundary behavior of
a kinked history, and the falsification wiring of the command line.
Criteria with a stated runtime budget assert elapsed wall time too.
"""
import json
import math
import subprocess
import sys
import time

import numpy as np
import sympy as sp

from delaystab import (
    MonotoneGridFn,
    SamplerConfig,
    Segment,
    SpaceSpec,
    check_envelope_lift,
    check_exponential_certificate,
    check_growth_certificate,
    check_pointwise_dissipation,
    fit_kl_envelope,
    hoelder_seminorm,
    lp_deriv_norm,
    make_system,
    sample_one,
    scaled_abs_rate,
    segment_at,
    simulate,
    space_norm,
    sup_norm,
    verify_pair_bounds,
    weighted_sup,
)

SUP = SpaceSpec.sup()
SOB2 = SpaceSpec.sobolev(2.0)


def test_criterion_01_integrator_accuracy():
    """Max error <= 1e-8 against the interval-by-interval closed form;
    the integration alone, not the oracle's construction, takes under a
    second."""
    sys_lin = make_system("linear_scalar", 1.0, {"a": -1.0, "b": 0.5})
    x0 = Segment.constant(1.0, np.array([1.0]), 201)
    start = time.perf_counter()
    traj = simulate(sys_lin, x0, 3.0, 1.0 / 200.0)
    elapsed = time.perf_counter() - start

    # On [k, k+1] the delayed term is known data, so the solution is
    # x(t) = e^{-(t-k)} x(k) + (1/2) int_k^t e^{-(t-u)} x(u-1) du,
    # built symbolically interval by interval from the constant history.
    t, tau = sp.symbols("t tau")
    pieces = [sp.Integer(1)]
    xk = sp.Integer(1)
    for k in range(3):
        integrand = sp.exp(-(t - tau)) * pieces[-1].subs(t, tau - 1)
        expr = sp.exp(-(t - k)) * xk \
            + sp.Rational(1, 2) * sp.integrate(integrand, (tau, k, t))
        pieces.append(sp.expand(expr))
        xk = expr.subs(t, k + 1)

    ft = traj.forward_times
    fx = traj.forward_values[:, 0]
    err = 0.0
    for k in range(3):
        mask = (ft >= k - 1e-12) & (ft <= k + 1 + 1e-12)
        oracle = sp.lambdify(t, pieces[k + 1], "numpy")
        err = max(err, float(np.max(np.abs(oracle(ft[mask]) - fx[mask]))))

    assert err <= 1e-8
    assert elapsed < 1.0


def _cubic_norm_case(rng):
    # derivative q = sgn*(alpha - beta*(s-sv)^2) peaks strictly inside,
    # so the pairwise grid chord resolves max|q| to second order
    sv = rng.uniform(-0.75, -0.25)
    alpha = rng.uniform(1.0, 2.0)
    beta = rng.uniform(0.5, 1.5)
    sgn = rng.choice([-1.0, 1.0])
    c0 = rng.uniform(-1.0, 1.0)
    shift = np.polynomial.Polynomial([-sv, 1.0])
    q = sgn * (alpha - beta * shift ** 2)
    p = q.integ()
    p = p + (c0 - p(-0.5))
    seg = Segment.from_callable(1.0, lambda s: np.atleast_1d(p(s)),
                                lambda s: np.atleast_1d(q(s)), 201)
    cands = [-1.0, 0.0]
    for root in (sv - math.sqrt(alpha / beta), sv + math.sqrt(alpha / beta)):
        if -1.0 < root < 0.0:
            cands.append(root)
    o_sup = max(abs(p(s)) for s in cands)
    o_lp2 = float((q ** 2).integ()(0.0) - (q ** 2).integ()(-1.0)) ** 0.5
    o_lp4 = float((q ** 4).integ()(0.0) - (q ** 4).integ()(-1.0)) ** 0.25
    return seg, o_sup, o_lp2, o_lp4, alpha, (lambda s: float(p(s)))


def _trig_norm_case(rng):
    # phase chosen so the cosine peak lands strictly inside the interval
    s_star = rng.uniform(-0.8, -0.2)
    w = rng.uniform(1.0, 2.5)
    ph = int(rng.integers(-1, 2)) * math.pi - w * s_star
    A = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
    B = rng.uniform(-1.0, 1.0)
    f = lambda s: np.atleast_1d(A * np.sin(w * s + ph) + B)
    df = lambda s: np.atleast_1d(A * w * np.cos(w * s + ph))
    seg = Segment.from_callable(1.0, f, df, 201)
    cands = [-1.0, 0.0]
    for m in range(-6, 7):
        s = (math.pi / 2 + m * math.pi - ph) / w
        if -1.0 < s < 0.0:
            cands.append(s)
    o_sup = max(abs(A * math.sin(w * s + ph) + B) for s in cands)
    F2 = lambda th: th / 2 + math.sin(2 * th) / 4
    F4 = lambda th: 3 * th / 8 + math.sin(2 * th) / 4 + math.sin(4 * th) / 32
    o_lp2 = (abs(A * w) ** 2 * (F2(ph) - F2(ph - w)) / w) ** 0.5
    o_lp4 = (abs(A * w) ** 4 * (F4(ph) - F4(ph - w)) / w) ** 0.25
    return seg, o_sup, o_lp2, o_lp4, abs(A) * w, (lambda s: float(f(s)[0]))


def test_criterion_02_norm_oracles():
    """50 closed-form segments, relative error 1e-6 (1e-3 for a=1/2)."""
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    refine = 64
    held = []
    for i in range(50):
        case = _cubic_norm_case if i % 2 == 0 else _trig_norm_case
        seg, o_sup, o_lp2, o_lp4, o_dinf, f = case(rng)
        assert abs(sup_norm(seg, refine) - o_sup) <= 1e-6 * o_sup
        assert abs(lp_deriv_norm(seg, 2.0, refine) - o_lp2) <= 1e-6 * o_lp2
        assert abs(lp_deriv_norm(seg, 4.0, refine) - o_lp4) <= 1e-6 * o_lp4
        assert abs(lp_deriv_norm(seg, math.inf, refine) - o_dinf) \
            <= 1e-6 * o_dinf
        assert abs(hoelder_seminorm(seg, 1.0, refine=refine) - o_dinf) \
            <= 1e-6 * o_dinf
        if len(held) < 10:
            held.append((seg, f))

    # a = 1/2 has no closed form here; compare against an independent
    # dense-grid chord maximization, both grid-limited from below
    for seg, f in held:
        s = np.linspace(-1.0, 0.0, 2001)
        v = np.array([f(si) for si in s])
        brute = 0.0
        for lag in range(1, 2001):
            chord = np.abs(v[lag:] - v[:-lag]).max() / (lag / 2000.0) ** 0.5
            brute = max(brute, chord)
        pkg = hoelder_seminorm(seg, 0.5, refine=refine)
        assert abs(pkg - brute) <= 1e-3 * brute
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0


def test_criterion_03_embedding_suite():
    """All inequality families hold on 1000 sampled segments."""
    start = time.perf_counter()
    fams = ("fourier", "polynomial", "piecewise_linear")
    rs = (0.5, 1.0, 2.0)
    configs = {}
    for fam in fams:
        for r in rs:
            for dim in (1, 2):
                configs[fam, r, dim] = SamplerConfig(
                    family=fam, order=3, target_space=SUP, target_norm=1.0,
                    dimension=dim, delay_r=r, seed=7, n_nodes=64)
    violations = 0
    for i in range(1000):
        fam = fams[i % 3]
        r = rs[(i // 3) % 3]
        dim = 1 + (i // 9) % 2
        seg = sample_one(configs[fam, r, dim], i)
        lp = {p: lp_deriv_norm(seg, p) for p in (2.0, 4.0, math.inf)}
        lp_fine = {p: lp_deriv_norm(seg, p, 512)
                   for p in (2.0, 4.0, math.inf)}
        hs = {p: hoelder_seminorm(seg, 1.0 - 1.0 / p) for p in (2.0, 4.0)}
        hs[math.inf] = hoelder_seminorm(seg, 1.0)
        d_fine = lp_fine[math.inf]
        for p in (2.0, 4.0, math.inf):
            violations += hs[p] > lp_fine[p] + 1e-6
            violations += lp[p] > r ** (1.0 / p) * d_fine + 1e-6
            violations += hs[p] > r ** (1.0 / p) * d_fine + 1e-6
        for p, q in ((2.0, 4.0), (2.0, math.inf), (4.0, math.inf)):
            fac = r ** (1.0 / p - (1.0 / q if math.isfinite(q) else 0.0))
            violations += lp[p] > fac * lp[q] + 1e-6
            violations += hs[p] > fac * hs[q] + 1e-6
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 30.0


def test_criterion_04_envelope_decay_bound():
    """Fitted envelope stays under 1.05*s*e^{-t} with valid shape."""
    start = time.perf_counter()
    sys_lin = make_system("linear_scalar", 0.04, {"a": -1.0, "b": 0.0})
    env = fit_kl_envelope(sys_lin, SUP, 2.0, 8, None, 400, h=0.04 / 100.0,
                          horizon=1.5, seed=0)
    env.assert_kl_shape()
    for j, s in enumerate(env.s_grid):
        limit = 1.05 * s * np.exp(-env.t_grid) + 1e-9
        assert np.all(env.sigma[j] <= limit)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0


def test_criterion_05_lifted_envelope_domination():
    """Lifted full-norm envelope dominates 200 sampled trajectories."""
    sys_lin = make_system("linear_scalar", 1.0, {"a": -1.0, "b": 0.3})
    rep = check_envelope_lift(sys_lin, SOB2, 1.5, 4, 200,
                              lipschitz_modulus=lambda R: 1.3,
                              horizon=8.0, h=0.02, grid_points=50, seed=0)
    assert rep.verdict == "consistent"
    assert rep.margins["trajectories_checked"] == 200.0
    assert rep.margins["worst_ratio"] <= 1.0 + 1e-6


def test_criterion_06_pairwise_propagation_bounds():
    """Sup growth bound and full-norm propagation bound on 200 pairs."""
    sys_sat = make_system("saturating", 1.0, {"c": 1.0, "k": 0.5})
    rep = verify_pair_bounds(sys_sat, SOB2, 1.0, 2.0, 200, seed=0)
    assert rep.verdict == "consistent"
    assert rep.margins["worst_sup_ratio"] <= 1.0 + 1e-6
    assert rep.margins["worst_full_ratio"] <= 1.0 + 1e-6


def test_criterion_07_exponential_certificate():
    sys_lin = make_system("linear_scalar", 1.0, {"a": -1.0, "b": 0.0})
    V = weighted_sup(1.0)
    a1 = MonotoneGridFn.linear(math.exp(-1.0))
    a2 = MonotoneGridFn.linear(1.0)
    rep = check_exponential_certificate(sys_lin, V, a1, a2, SUP, 100, 3.0,
                                        seed=0)
    assert rep.verdict == "consistent"
    assert rep.margins["worst_envelope_ratio"] <= 1.0 + 1e-6

    # constant histories ride the decay limit exactly
    rep_c = check_exponential_certificate(sys_lin, V, a1, a2, SUP, 20, 3.0,
                                          family="polynomial", order=0,
                                          seed=0)
    assert rep_c.verdict == "consistent"
    assert abs(rep_c.margins["worst_decay_ratio"] - 1.0) <= 1e-6


def test_criterion_08_dissipation_certificate():
    sys_lin = make_system("linear_scalar", 1.0, {"a": -1.0, "b": 0.0})
    V = weighted_sup(1.0)
    a1 = MonotoneGridFn.linear(math.exp(-1.0))
    a2 = MonotoneGridFn.linear(1.0)
    Q = scaled_abs_rate(math.exp(-1.0))
    rep = check_pointwise_dissipation(sys_lin, V, a1, a2, Q, SUP, 100,
                                      integral_trajectories=20, seed=0)
    assert rep.verdict == "consistent"
    assert rep.margins["worst_dini_excess"] <= 0.0
    assert rep.margins["worst_integral_excess"] <= 0.0


def test_criterion_09_growth_certificate():
    # unstable but forward complete: feedback through the delay only
    sys_fwd = make_system("linear_scalar", 1.0, {"a": 0.0, "b": 1.0})
    U = weighted_sup(1.0)
    a = MonotoneGridFn.linear(1.0)
    rep = check_growth_certificate(sys_fwd, U, a, math.e, 200,
                                   traj_check=200, T=2.0, seed=0)
    assert rep.verdict == "consistent"
    assert rep.margins["worst_quotient_excess"] <= 0.0
    assert rep.margins["worst_trajectory_ratio"] <= 1.001


def test_criterion_10_kinked_history_boundary():
    """Full-norm distance shrinks while the derivative gap persists."""
    r = 1.0
    sys_zero = make_system("linear_scalar", r, {"a": 0.0, "b": 0.0})
    n_nodes = 1601
    kink = -r / 2.0
    f = lambda s: np.atleast_1d(np.where(s <= kink, 0.25, 0.25 + (s - kink)))
    df = lambda s: np.atleast_1d(np.where(s <= kink, 0.0, 1.0))
    x0 = Segment.from_callable(r, f, df, n_nodes)
    traj = simulate(sys_zero, x0, 0.2 * r, r / 100.0)
    d_full = []
    d_deriv = []
    for t in (0.1 * r, 0.05 * r, 0.025 * r):
        diff = segment_at(traj, t, n_nodes=n_nodes) - x0
        d_full.append(space_norm(diff, SOB2))
        d_deriv.append(lp_deriv_norm(diff, math.inf))
    assert d_full[0] > d_full[1] > d_full[2]
    assert all(d >= 0.9 for d in d_deriv)


def _run_cli(cfg, out_dir):
    cfg_path = out_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return subprocess.run(
        [sys.executable, "-m", "delaystab", "check",
         "--config", str(cfg_path), "--out", str(out_dir)],
        capture_output=True, text=True)


def test_criterion_11_falsification_wiring(tmp_path):
    ga_cfg = {"property": "ga",
              "system": {"name": "linear_scalar", "r": 1.0,
                         "params": {"a": 0.0, "b": 0.0}},
              "space": {"kind": "sup"}, "rho": 1.0, "eps": 0.01,
              "budget": 10, "family": "polynomial", "order": 0}
    reports = []
    for sub in ("ga1", "ga2"):
        d = tmp_path / sub
        d.mkdir()
        proc = _run_cli(ga_cfg, d)
        assert proc.returncode == 3
        reports.append((d / "report.json").read_bytes())
    assert reports[0] == reports[1]
    witness = json.loads(reports[0])["report"]["witness"]
    values = np.asarray(witness["segment"]["values"], dtype=float)
    assert np.all(values == values.flat[0])

    rfc_cfg = {"property": "rfc",
               "system": {"name": "quadratic", "r": 1.0,
                          "params": {"c": 1.0}},
               "space": {"kind": "sup"}, "rho": 2.0, "T": 1.0,
               "budget": 5, "h": 0.002, "family": "polynomial", "order": 0}
    d = tmp_path / "rfc"
    d.mkdir()
    proc = _run_cli(rfc_cfg, d)
    assert proc.returncode == 3
    report = json.loads((d / "report.json").read_text())["report"]
    assert report["verdict"] == "falsified"
    assert 0.49 <= report["witness"]["time"] <= 0.51
