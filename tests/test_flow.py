"""Time integration: scalar reductions on round spheres, stability, stopping.

On a constant-in-angle profile every discrete operator is exact, so the PDE
collapses to the radius ODE and hand-computed RK2 arithmetic is a bitwise
oracle for the stepper.
"""

from pathlib import Path

import numpy as np
import pytest

from starflow import cli, flow, symfunc
from starflow.flow import (
    PSI_IDENTITY,
    PSI_NEG_RECIPROCAL,
    STATUS_CONE_EXIT,
    STATUS_CONVERGED,
    STATUS_DIVERGED,
    STATUS_TIME_CAP,
    Constant,
    FlowAbort,
    FlowConfig,
    FlowState,
    Perturbed,
    Spheroid,
    cfl_dt,
    diffusivity,
    initial_gamma,
    run,
    speed_field,
    step,
)
from starflow.diagnostics import check_barriers
from starflow.speed import PsiTerm, SpeedSpec, barrier_radii, radius_root
from starflow.spheregrid import axisym_grid, full_s2_grid, solve_phi_rows
from starflow.symfunc import SigmaKRoot

EZ = (0.0, 0.0, 1.0)


def setup1(m_theta=16, **overrides):
    """Expanding unit-sphere problem: Q = 1/R on round profiles."""
    base = dict(
        grid=axisym_grid(n=2, m_theta=m_theta),
        F=SigmaKRoot(k=2),
        G=SpeedSpec(c=1.0, a=0.0, b=-2.0),
        beta=1.0,
        dt_safety=0.5,
        t_max=50.0,
    )
    base.update(overrides)
    return FlowConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        setup1(beta=0.0)
    with pytest.raises(ValueError):
        setup1(dt_safety=0.0)
    with pytest.raises(ValueError):
        setup1(dt_safety=1.5)
    with pytest.raises(ValueError):
        setup1(cadence=0)
    with pytest.raises(ValueError):
        setup1(psi_mode="squared")
    # axisym grids cannot carry an off-axis anisotropy
    with pytest.raises(ValueError):
        setup1(G=SpeedSpec(c=1.0, a=0.0, b=-2.0, psi=(PsiTerm(s=0.1, v=(1.0, 0.0, 0.0)),)))


def test_speed_field_psi_contrast():
    # sphere R = 2: Q = R^{-2} * R = 1/2
    gamma = np.full(16, np.log(2.0))
    speed, q, f_val, _, geom = speed_field(setup1(), gamma)
    assert np.max(np.abs(q - 0.5)) <= 1e-13
    assert np.max(np.abs(speed + 0.5)) <= 1e-13
    assert np.max(np.abs(f_val - 0.5)) <= 1e-13

    speed, q, _, _, _ = speed_field(setup1(psi_mode=PSI_NEG_RECIPROCAL), gamma)
    # Psi(s) = -1/s: speed = 1 - 1/Q = -1
    assert np.max(np.abs(q - 0.5)) <= 1e-13
    assert np.max(np.abs(speed + 1.0)) <= 1e-13


def test_speed_field_zero_at_stationary_radius():
    cfg = setup1()
    r_star = radius_root(cfg.G, cfg.F, cfg.grid.n, cfg.beta)
    speed = speed_field(cfg, np.full(16, np.log(r_star)))[0]
    assert np.max(np.abs(speed)) <= 1e-10


def test_speed_field_cone_exit():
    cfg = setup1()
    wild = initial_gamma(Perturbed(R=1.0, amplitude=10.0), cfg.grid)
    with pytest.raises(FlowAbort) as info:
        speed_field(cfg, wild)
    assert info.value.status == STATUS_CONE_EXIT
    assert "node" in info.value.detail


def test_step_matches_scalar_rk2():
    """One RK2 step of dγ/dt = e^{-γ} - 1 from R = 1.3, dt = 0.1."""
    g0 = np.log(1.3)
    k1 = np.exp(-g0) - 1.0
    gm = g0 + 0.05 * k1
    k2 = np.exp(-gm) - 1.0
    r_oracle = np.exp(g0 + 0.1 * k2)

    cfg = setup1()
    s0 = FlowState(t=0.0, step=0, gamma=np.full(16, g0))
    s1 = step(cfg, s0, 0.1)
    r1 = np.exp(s1.gamma)
    assert np.max(np.abs(r1 - r_oracle)) <= 1e-12
    assert np.ptp(r1) <= 1e-13  # constant fields stay constant
    assert s1.t == pytest.approx(0.1) and s1.step == 1
    # the same step in the radius variable gives 1.2715; the log-variable
    # integrator lands a few 1e-5 away, converging to the same ODE
    assert abs(float(r1[0]) - 1.2715) < 5e-5


def test_step_zero_speed_is_identity():
    cfg = setup1()
    gamma = np.zeros(16)  # unit sphere is stationary for setup 1
    s1 = step(cfg, FlowState(t=0.0, step=0, gamma=gamma), 0.01)
    assert np.array_equal(s1.gamma, gamma)


def test_first_step_sign_at_barrier_radii():
    grid = full_s2_grid(m_theta=16, m_phi=32)
    cfg = FlowConfig(
        grid=grid,
        F=SigmaKRoot(k=2),
        G=SpeedSpec(c=1.0, a=0.0, b=-2.0, psi=(PsiTerm(s=0.2, v=EZ),)),
        beta=1.0,
    )
    radii = barrier_radii(cfg.G, cfg.F, grid.n, cfg.beta)
    assert radii.ok
    speed_lo, *_ = speed_field(cfg, np.full(grid.shape, np.log(radii.r1)))
    speed_hi, *_ = speed_field(cfg, np.full(grid.shape, np.log(radii.r2)))
    assert float(np.min(speed_lo)) >= 0.0
    assert float(np.max(speed_hi)) <= 0.0
    # strictly inside the gap both signs appear
    mid = np.sqrt(radii.r1 * radii.r2)
    speed_mid, *_ = speed_field(cfg, np.full(grid.shape, np.log(mid)))
    assert float(np.min(speed_mid)) < 0.0 < float(np.max(speed_mid))


def test_isotropic_barriers_pin_stationary_sphere():
    cfg = setup1()
    radii = barrier_radii(cfg.G, cfg.F, cfg.grid.n, cfg.beta)
    assert radii.ok and radii.equality
    speed = speed_field(cfg, np.full(16, np.log(radii.r1)))[0]
    assert np.max(np.abs(speed)) <= 1e-12


def test_run_from_stationary_data_converges_immediately():
    cfg = setup1()
    res = run(cfg, np.zeros(16))
    assert res.status == STATUS_CONVERGED
    assert res.steps == 0
    assert len(res.history) == 1
    assert res.residual <= cfg.tol_residual


def test_run_converges_to_unit_sphere():
    cfg = setup1()
    res = run(cfg, initial_gamma(Constant(R=1.3), cfg.grid))
    assert res.status == STATUS_CONVERGED
    assert res.residual <= cfg.tol_residual
    assert np.max(np.abs(np.exp(res.state.gamma) - 1.0)) <= 1e-4
    assert res.history[-1].cone_ok
    # residual decreased overall
    assert res.history[-1].residual < res.history[0].residual


def test_run_diverges_under_growing_forcing():
    cfg = setup1(G=SpeedSpec(c=1.0, a=0.0, b=1.0))  # Q = R^2 on spheres
    res = run(cfg, initial_gamma(Constant(R=1.1), cfg.grid))
    assert res.status == STATUS_DIVERGED
    assert res.detail != ""
    assert res.history[-1].rho_max > 1e3


def test_run_time_cap():
    cfg = setup1(t_max=0.5)
    res = run(cfg, initial_gamma(Constant(R=1.3), cfg.grid))
    assert res.status == STATUS_TIME_CAP
    assert res.state.t == pytest.approx(0.5, abs=1e-12)


def test_perturbed_with_huge_amplitude_aborts_at_once():
    # the graph itself is still star-shaped (u = rho/omega > 0 for any finite
    # field), so construction succeeds; the run dies on the cone guard instead
    cfg = setup1()
    gamma = initial_gamma(Perturbed(R=1.0, amplitude=10.0), cfg.grid)
    res = run(cfg, gamma)
    assert res.status == STATUS_CONE_EXIT
    assert res.steps == 0


@pytest.mark.parametrize("fail_at", [3, 4, 7, 8])
def test_abort_reports_last_state_that_passed_every_guard(monkeypatch, fail_at):
    # odd calls of speed_field are the loop-top checks of accepted states,
    # even ones the second stage of a step; either kind of abort must hand
    # back the last state whose loop-top check passed
    cfg = setup1(t_max=1.0)
    seen = []
    real = flow.speed_field

    def flaky(config, gamma):
        seen.append(np.array(gamma))
        if len(seen) == fail_at:
            raise FlowAbort(STATUS_CONE_EXIT, "injected")
        return real(config, gamma)

    monkeypatch.setattr(flow, "speed_field", flaky)
    res = run(cfg, initial_gamma(Constant(R=1.3), cfg.grid))
    assert res.status == STATUS_CONE_EXIT and res.detail == "injected"
    passed = fail_at - 2 if fail_at % 2 else fail_at - 1  # 1-based call number
    assert res.steps == res.state.step == (passed - 1) // 2
    assert np.array_equal(res.state.gamma, seen[passed - 1])


def test_rk2_order_against_exact_ode():
    # R(t) = 1 + 0.3 e^{-t}; halving dt_safety should cut the error ~4x
    errs = []
    for safety in (0.4, 0.2):
        cfg = setup1(dt_safety=safety, t_max=1.0, tol_residual=1e-14)
        res = run(cfg, initial_gamma(Constant(R=1.3), cfg.grid))
        assert res.status == STATUS_TIME_CAP
        want = 1.0 + 0.3 * np.exp(-1.0)
        errs.append(float(np.max(np.abs(np.exp(res.state.gamma) - want))))
    assert errs[1] < errs[0] / 2.6, f"errors {errs}"
    assert errs[0] < 1e-3


def test_run_is_deterministic():
    cfg = setup1(t_max=0.3)
    a = run(cfg, initial_gamma(Constant(R=1.2), cfg.grid))
    b = run(cfg, initial_gamma(Constant(R=1.2), cfg.grid))
    assert np.array_equal(a.state.gamma, b.state.gamma)
    assert a.steps == b.steps
    assert a.history == b.history


def test_cfl_dt_scalings():
    def dt_for(m, safety=0.5):
        cfg = setup1(m_theta=m, dt_safety=safety)
        gamma = np.full(m, np.log(1.3))
        _, q, f_val, lam, geom = speed_field(cfg, gamma)
        return cfl_dt(cfg, geom, diffusivity(cfg, geom, q, f_val, lam))

    dt16 = dt_for(16)
    dt32 = dt_for(32)
    assert dt16 > 0.0
    assert dt16 / dt32 == pytest.approx(4.0, rel=1e-12)  # ds^2 scaling
    assert dt_for(16, safety=0.25) == pytest.approx(0.5 * dt16, rel=1e-12)


def test_axisym_and_full_s2_integrate_identically():
    """An axis-aligned problem run in both modes must produce the same profile."""
    psi = (PsiTerm(s=0.2, v=EZ),)
    configs = [
        FlowConfig(
            grid=grid,
            F=SigmaKRoot(k=2),
            G=SpeedSpec(c=1.0, a=0.0, b=-2.0, psi=psi),
            beta=1.0,
            dt_safety=0.5,
        )
        for grid in (axisym_grid(n=2, m_theta=16), full_s2_grid(m_theta=16, m_phi=16))
    ]
    ax, s2 = (run(cfg, initial_gamma(Spheroid(a=1.1, b=0.9), cfg.grid)) for cfg in configs)
    assert ax.status == s2.status == STATUS_CONVERGED
    # the phi solve leaves phi-constant increments alone, so the step bound,
    # every step and the stopping step agree
    assert s2.steps == ax.steps > 100
    assert s2.state.t == pytest.approx(ax.state.t, rel=1e-12)
    assert np.max(np.abs(s2.state.gamma - ax.state.gamma[:, None])) <= 1e-12
    assert np.max(np.abs(s2.state.gamma - s2.state.gamma[:, :1])) <= 1e-12


def test_phi_row_solve_inverts_the_second_difference():
    grid = full_s2_grid(m_theta=8, m_phi=16)
    rng = np.random.default_rng(5)
    rhs = rng.normal(size=grid.shape)
    # up to ~200 is what pole rows see at 64x128; evaluating coef * second
    # in the check itself rounds at eps * coef, hence the scaled bound
    coef = np.array([0.0, 0.3, 1.0, 7.5, 40.0, 250.0, 1e5, 2.0])
    x = solve_phi_rows(grid, rhs, coef)
    second = np.roll(x, -1, axis=1) - 2.0 * x + np.roll(x, 1, axis=1)
    resid = np.max(np.abs(x - coef[:, None] * second - rhs), axis=1)
    assert np.all(resid <= 1e-13 * np.maximum(1.0, coef))
    assert np.max(resid[coef <= 250.0]) <= 1e-13

    flat = np.repeat(rng.normal(size=(grid.m_theta, 1)), grid.m_phi, axis=1)
    kept = solve_phi_rows(grid, flat, coef)
    assert np.max(np.abs(kept - flat)) <= 4.0 * np.finfo(float).eps * np.max(np.abs(flat))


def test_phi_dependent_start_steps_far_beyond_the_pole_bound():
    grid = full_s2_grid(m_theta=64, m_phi=128)
    cfg = FlowConfig(
        grid=grid,
        F=SigmaKRoot(k=2),
        G=SpeedSpec(c=1.0, a=0.0, b=-2.0, psi=(PsiTerm(s=0.2, v=EZ),)),
        beta=1.0,
        dt_safety=0.5,
        t_max=0.02,
        cadence=1,
    )
    gamma = initial_gamma(Perturbed(R=1.0, amplitude=0.1), grid)
    assert np.ptp(gamma[grid.m_theta // 2]) > 0.1  # genuinely phi-dependent
    _, q, f_val, lam, geom = speed_field(cfg, gamma)
    # the explicit bound set by the pole rows' phi spacing rho sin(theta) dphi
    ds = np.minimum(geom.rho * grid.dtheta, geom.rho * grid.sin_theta * grid.dphi)
    diff = diffusivity(cfg, geom, q, f_val, lam)
    pole_dt = cfg.dt_safety * float(np.min(ds * ds / (2.0 * grid.n * diff)))

    res = run(cfg, gamma)
    assert res.status == STATUS_TIME_CAP
    times = [rec.t for rec in res.history]
    assert len(times) == res.steps + 1
    assert min(np.diff(times)[:-1]) >= 100.0 * pole_dt
    radii = barrier_radii(cfg.G, cfg.F, grid.n, cfg.beta)
    assert check_barriers(res.history, radii.r1, radii.r2, 0.0).passed is True
    assert np.ptp(res.state.gamma[grid.m_theta // 2]) > 0.05  # still phi-dependent


def test_sigma_sweeps_per_rk2_step(monkeypatch):
    # one sigma sweep per stage: two per step plus one at the final state
    setup = cli.parse_config(Path(__file__).parent.parent / "configs" / "sphere_contract.cfg")
    calls = []
    sweep = symfunc.sigma_all

    def counting(*args, **kwargs):
        calls.append(args)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(symfunc, "sigma_all", counting)
    cfg = setup.config
    res = run(cfg, initial_gamma(setup.initial, cfg.grid))
    assert res.status == STATUS_CONVERGED and res.steps > 1000
    assert len(calls) <= 2 * res.steps + 1


def test_configs_sharing_a_grid_keep_their_own_tables():
    def config(grid, s):
        G = SpeedSpec(c=1.0, a=0.0, b=-2.0, psi=(PsiTerm(s=s, v=EZ),))
        return FlowConfig(grid=grid, F=SigmaKRoot(k=2), G=G, beta=1.0, t_max=0.1)

    shared = full_s2_grid(m_theta=8, m_phi=16)
    first, second = config(shared, 0.2), config(shared, -0.3)
    for cfg, s in ((first, 0.2), (second, -0.3), (first, 0.2)):
        fresh = config(full_s2_grid(m_theta=8, m_phi=16), s)
        a = run(cfg, initial_gamma(Spheroid(a=1.1, b=0.9), cfg.grid))
        b = run(fresh, initial_gamma(Spheroid(a=1.1, b=0.9), fresh.grid))
        assert a.steps == b.steps > 10
        assert np.array_equal(a.state.gamma, b.state.gamma)
        assert a.history == b.history


def test_initial_gamma_shapes():
    grid = axisym_grid(n=2, m_theta=16)
    assert np.allclose(initial_gamma(Constant(R=2.0), grid), np.log(2.0), atol=1e-15)
    g = initial_gamma(Spheroid(a=1.5, b=1.0), grid)
    want = np.log(1.5 / np.sqrt(np.sin(grid.theta) ** 2 + 1.5**2 * np.cos(grid.theta) ** 2))
    assert np.allclose(g, want, atol=1e-14)
    g = initial_gamma(Perturbed(R=1.0, amplitude=0.1), grid)
    assert np.allclose(g, 0.1 * np.cos(grid.theta), atol=1e-15)

    s2 = full_s2_grid(m_theta=8, m_phi=8)
    g = initial_gamma(Perturbed(R=1.0, amplitude=0.1), s2)
    want = 0.1 * np.sin(s2.theta)[:, None] * np.cos(s2.phi)[None, :]
    assert np.allclose(g, want, atol=1e-15)

    with pytest.raises(ValueError):
        initial_gamma(Constant(R=0.0), grid)
    with pytest.raises(ValueError):
        initial_gamma(Spheroid(a=-1.0, b=1.0), grid)
