"""Time integration: scalar reductions on round spheres, stability, stopping.

On a constant-in-angle profile every discrete operator is exact, so the PDE
collapses to the radius ODE.  L annihilates constants there and the dilation
derivative Z is the exact Jacobian, so hand-computed ROS2 arithmetic is an
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
    STATUS_STAR_SHAPE_LOST,
    STATUS_TIME_CAP,
    FIRST_STEP_FRACTION,
    ROS2_GAMMA,
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
from starflow.speed import SpeedSpec, barrier_radii, sphere_radius
from starflow.spheregrid import (
    axisym_grid,
    derivatives,
    factor_shifted_laplacian,
    full_s2_grid,
)
from starflow.symfunc import PowerMean, SigmaKRoot, WeightedProduct


def setup1(m_theta=16, **overrides):
    """Expanding unit-sphere problem: Q = 1/R on round profiles."""
    base = dict(
        grid=axisym_grid(n=2, m_theta=m_theta),
        F=SigmaKRoot(k=2),
        G=SpeedSpec(c=1.0, a=0.0, b=-2.0),
        beta=1.0,
        t_max=50.0,
    )
    base.update(overrides)
    return FlowConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        setup1(beta=0.0)
    with pytest.raises(ValueError):
        setup1(cadence=0)
    with pytest.raises(ValueError):
        setup1(psi_mode="squared")
    # axisym grids cannot carry an off-axis anisotropy
    with pytest.raises(ValueError):
        setup1(G=SpeedSpec(c=1.0, a=0.0, b=-2.0, w=(0.1, 0.0, 0.0)))
    # but off-axis factors that cancel leave w = 0, which they accept
    cancelling = cli._parse_psi_terms("0.2 1 0 0; 0.2 -1 0 0")
    cfg = setup1(G=SpeedSpec(c=1.0, a=0.0, b=-2.0, w=cancelling))
    assert np.all(cfg.G_table == 1.0)
    # F must be defined on the grid's n
    with pytest.raises(ValueError):
        setup1(F=SigmaKRoot(k=3))
    # and well formed: a NaN weight sums to no weight, a power mean's p is
    # finite, products do not nest
    with pytest.raises(ValueError, match="sum to 1"):
        setup1(F=WeightedProduct(terms=((SigmaKRoot(k=2), float("nan")),)))
    with pytest.raises(ValueError, match="finite and negative"):
        setup1(F=PowerMean(p=float("-inf")))
    inner = WeightedProduct(terms=((SigmaKRoot(k=1), 1.0),))
    with pytest.raises(ValueError, match="do not nest"):
        setup1(F=WeightedProduct(terms=((inner, 1.0),)))


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


def test_speed_field_is_psi_q_minus_psi_one_bit_for_bit():
    # Ψ(Q) - Ψ(1) with Ψ applied to both terms: (-1/Q) - (-1) for the
    # contracting normalization, Q - 1 for the expanding one
    aniso = SpeedSpec(c=1.0, a=-0.5, b=-1.5, w=(0.1, -0.2, 0.15))
    problems = [setup1(), setup1(grid=full_s2_grid(m_theta=8, m_phi=16), G=aniso)]
    shapes = [Constant(R=1.0), Perturbed(R=1.0, amplitude=1e-9), Perturbed(R=1.0, amplitude=1e-3),
              Constant(R=0.05), Constant(R=20.0)]
    gaps = []
    for base in problems:
        for mode in (PSI_IDENTITY, PSI_NEG_RECIPROCAL):
            cfg = setup1(grid=base.grid, G=base.G, psi_mode=mode)
            for shape in shapes:
                speed, q, *_ = speed_field(cfg, initial_gamma(shape, cfg.grid))
                want = (-1.0 / q) - (-1.0) if mode == PSI_NEG_RECIPROCAL else q - 1.0
                assert speed.tobytes() == want.tobytes()
                gaps.append(np.abs(q - 1.0))
    gaps = np.concatenate([g.ravel() for g in gaps])
    # Q = 1 exactly, Q within 1e-8 of 1 but not 1, and Q far from 1 all occur
    assert np.any(gaps == 0.0)
    assert np.any((gaps > 0.0) & (gaps < 1e-8))
    assert np.max(gaps) > 10.0


def test_diffusivity_evaluates_psi_prime_once_bit_for_bit():
    # (D, Ψ'(Q) Q) from one Ψ'(Q) = 1/Q² equal D = ((β u) Ψ'(Q)) Q λ / F and
    # Ψ'(Q) Q with Ψ'(Q) formed for each, and D = (β u) Q λ / F and Q for
    # the identity, whose Ψ' is 1
    aniso = SpeedSpec(c=1.0, a=-0.5, b=-1.5, w=(0.1, -0.2, 0.15))
    problems = [setup1(), setup1(grid=full_s2_grid(m_theta=8, m_phi=16), G=aniso)]
    shapes = [Constant(R=1.0), Perturbed(R=1.0, amplitude=1e-9), Perturbed(R=1.0, amplitude=0.3),
              Constant(R=1e-3), Constant(R=1e3)]
    gaps = []
    for base in problems:
        for mode in (PSI_IDENTITY, PSI_NEG_RECIPROCAL):
            cfg = setup1(grid=base.grid, G=base.G, psi_mode=mode, beta=1.5)
            for shape in shapes:
                _, q, f_val, lam, geom = speed_field(cfg, initial_gamma(shape, cfg.grid))
                diff, pq = diffusivity(cfg, geom, q, f_val, lam)
                if mode == PSI_NEG_RECIPROCAL:
                    want_diff = ((1.5 * geom.u) * (1.0 / np.asarray(q) ** 2)) * q * lam / f_val
                    want_pq = (1.0 / q**2) * q
                else:
                    want_diff, want_pq = (1.5 * geom.u) * q * lam / f_val, q
                assert diff.tobytes() == want_diff.tobytes()
                assert pq.tobytes() == want_pq.tobytes()
                gaps.append(np.abs(q - 1.0))
    gaps = np.concatenate([g.ravel() for g in gaps])
    # Q within 1e-8 of 1 and Q far from 1 both occur
    assert np.any(gaps < 1e-8)
    assert np.max(gaps) > 10.0


def test_speed_field_zero_at_stationary_radius():
    cfg = setup1()
    r_star = sphere_radius(cfg.G, cfg.F, cfg.grid.n, cfg.beta)
    speed = speed_field(cfg, np.full(16, np.log(r_star)))[0]
    assert np.max(np.abs(speed)) <= 1e-10


def test_speed_field_cone_exit():
    cfg = setup1()
    wild = initial_gamma(Perturbed(R=1.0, amplitude=10.0), cfg.grid)
    with pytest.raises(FlowAbort) as info, np.errstate(divide="ignore", invalid="ignore"):
        speed_field(cfg, wild)
    assert info.value.status == STATUS_CONE_EXIT
    assert info.value.detail.startswith("curvature left Gamma_2^+ at node (")


def test_speed_field_star_shape_lost():
    cfg = setup1()
    gamma = np.zeros(16)
    gamma[9] = -800.0  # e^gamma underflows to 0: u = 0 at node 9
    with pytest.raises(FlowAbort) as info, np.errstate(divide="ignore", invalid="ignore"):
        speed_field(cfg, gamma)
    assert info.value.status == STATUS_STAR_SHAPE_LOST
    assert info.value.detail.startswith("not a star-shaped graph at node (9,): u = 0,")


def test_step_matches_scalar_ros2():
    """One ROS2 step of dγ/dt = e^{-γ} - 1 from R = 1.3, h = 0.1."""
    g0, h = np.log(1.3), 0.1
    m = 1.0 + ROS2_GAMMA * h * np.exp(-g0)  # 1 - g h J with J = -e^{-γ}
    k1 = (np.exp(-g0) - 1.0) / m
    k2 = (np.exp(-(g0 + h * k1)) - 1.0 - 2.0 * k1) / m
    r_oracle = np.exp(g0 + h * (1.5 * k1 + 0.5 * k2))
    err_oracle = 0.5 * h * abs(k1 + k2) / (flow.ERR_TOL * (1.0 + abs(g0)))

    cfg = setup1()
    s0 = FlowState(t=0.0, step=0, gamma=np.full(16, g0))
    s1 = step(cfg, s0, h)
    r1 = np.exp(s1.gamma)
    assert np.max(np.abs(r1 - r_oracle)) <= 1e-15
    assert np.ptp(r1) <= 1e-15  # constant fields stay constant
    assert s1.error == pytest.approx(err_oracle, rel=1e-12)
    assert s1.t == pytest.approx(0.1) and s1.step == 1
    # the exact ODE gives R(0.1) = 1 + 0.3 e^{-0.1} = 1.27145...; one step
    # of size 0.1 lands within its O(h³) local error
    assert abs(float(r1[0]) - (1.0 + 0.3 * np.exp(-0.1))) < 2e-4


def test_step_zero_speed_is_identity():
    cfg = setup1()
    gamma = np.zeros(16)  # unit sphere is stationary for setup 1
    s1 = step(cfg, FlowState(t=0.0, step=0, gamma=gamma), 0.01)
    assert np.array_equal(s1.gamma, gamma)


@pytest.mark.parametrize("mode", ["axisym", "full_s2"])
def test_step_rejects_a_dilation_that_overflows(mode):
    # on the unit sphere Q = c = 1e306: the speed Q - 1 and A = D / rho^2
    # stay finite, but the dilation Q (a + b + beta) = -1000 Q overflows to
    # -inf; solved as it stands, every row of M would have an infinite
    # diagonal, k1 = k2 = 0, and the step would pass with a zero estimate
    grid = axisym_grid(n=2, m_theta=16) if mode == "axisym" else full_s2_grid(8, 16)
    cfg = FlowConfig(
        grid=grid, F=SigmaKRoot(k=2), G=SpeedSpec(c=1e306, a=0.0, b=-1001.0), beta=1.0,
        t_max=1e-3,
    )
    gamma = np.zeros(grid.shape)
    with np.errstate(all="ignore"):
        first = speed_field(cfg, gamma)
        speed, q, f_val, lam, geom = first
        assert np.isfinite(speed).all()
        assert np.isfinite(diffusivity(cfg, geom, q, f_val, lam)[0]).all()
        with pytest.raises(FlowAbort, match=r"overflowed to -inf in latitude row 0$") as abort:
            step(cfg, FlowState(t=0.0, step=0, gamma=gamma), 1e-3, first)
    assert abort.value.status == STATUS_DIVERGED

    res = run(cfg, gamma)
    assert res.status == STATUS_DIVERGED and res.state.step == 0
    assert "overflowed to -inf" in res.detail


def test_first_step_sign_at_barrier_radii():
    grid = full_s2_grid(m_theta=16, m_phi=32)
    cfg = FlowConfig(
        grid=grid,
        F=SigmaKRoot(k=2),
        G=SpeedSpec(c=1.0, a=0.0, b=-2.0, w=(0.0, 0.0, 0.2)),
        beta=1.0,
    )
    r1, r2 = barrier_radii(cfg.G, cfg.F, grid.n, cfg.beta)
    speed_lo, *_ = speed_field(cfg, np.full(grid.shape, np.log(r1)))
    speed_hi, *_ = speed_field(cfg, np.full(grid.shape, np.log(r2)))
    assert float(np.min(speed_lo)) >= 0.0
    assert float(np.max(speed_hi)) <= 0.0
    # strictly inside the gap both signs appear
    mid = np.sqrt(r1 * r2)
    speed_mid, *_ = speed_field(cfg, np.full(grid.shape, np.log(mid)))
    assert float(np.min(speed_mid)) < 0.0 < float(np.max(speed_mid))


def test_isotropic_barriers_pin_stationary_sphere():
    cfg = setup1()
    r1, r2 = barrier_radii(cfg.G, cfg.F, cfg.grid.n, cfg.beta)
    assert r1 == r2
    speed = speed_field(cfg, np.full(16, np.log(r1)))[0]
    assert np.max(np.abs(speed)) <= 1e-12


def test_run_from_stationary_data_converges_immediately():
    cfg = setup1()
    res = run(cfg, np.zeros(16))
    assert res.status == STATUS_CONVERGED
    assert res.state.step == 0
    assert len(res.history) == 1
    assert res.residual <= cfg.tol_residual


def test_run_refuses_an_initial_field_of_another_shape():
    with pytest.raises(ValueError):
        run(setup1(), np.zeros(15))


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
    # three decades below the radius ceiling, so the blow-up takes few steps
    res = run(cfg, initial_gamma(Constant(R=1e3), cfg.grid))
    assert res.status == STATUS_DIVERGED
    # the detail names the first node outside the range, with its rho
    assert res.detail.startswith("radius left [1e-06, 1e+06] at node (")
    node = int(res.detail.split("(")[1].split(",")[0])
    rho = float(res.detail.split("rho = ")[1].split()[0])
    assert rho == pytest.approx(np.exp(res.state.gamma[node]), rel=1e-2) and rho > 1e6
    assert res.history[0].rho_max == pytest.approx(1e3, rel=1e-12)
    assert res.history[-1].rho_max > 1e3 * res.history[0].rho_max


def test_run_whose_every_step_fails_the_error_test_names_a_node(monkeypatch):
    # a tolerance no step can meet: each attempt is rejected on its error
    # estimate alone until h falls below the floor
    monkeypatch.setattr(flow, "ERR_TOL", 1e-300)
    cfg = setup1(t_max=1.0)
    res = run(cfg, initial_gamma(Perturbed(R=1.0, amplitude=0.1), cfg.grid))
    assert res.status == STATUS_DIVERGED
    assert res.state.step == 0 and res.rejected_steps > 0
    assert res.detail.startswith(f"step size fell below {flow.H_FLOOR:g} at t = 0: ")
    assert "times the tolerance at node (" in res.detail
    node = int(res.detail.split("at node (")[1].split(",")[0])
    assert 0 <= node < cfg.grid.m_theta


def test_run_time_cap():
    cfg = setup1(t_max=0.5)
    res = run(cfg, initial_gamma(Constant(R=1.3), cfg.grid))
    assert res.status == STATUS_TIME_CAP
    assert res.state.t == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize(
    "status, overrides, radius",
    [
        (STATUS_CONVERGED, {}, 1.3),
        # 30 steps: the final state is also a cadence step
        (STATUS_TIME_CAP, {"t_max": 0.3}, 1.3),
        # Q = R^2 on spheres, stopped by a radius ceiling of 2
        (STATUS_DIVERGED, {"G": SpeedSpec(c=1.0, a=0.0, b=1.0)}, 1.1),
    ],
    ids=["converged", "time_cap", "diverged"],
)
def test_history_holds_each_cadence_step_and_the_final_one_once(
    monkeypatch, status, overrides, radius
):
    monkeypatch.setattr(flow, "RHO_CEIL", 2.0)
    cfg = setup1(cadence=3, **overrides)
    calls = []
    res = run(
        cfg,
        initial_gamma(Constant(R=radius), cfg.grid),
        on_record=lambda state, rec, geom: calls.append((state.step, rec)),
    )
    assert res.status == status
    assert (res.state.step % 3 == 0) == (status == STATUS_TIME_CAP)
    steps = [rec.step for rec in res.history]
    assert steps == sorted(set(range(0, res.state.step + 1, 3)) | {res.state.step})
    assert [step for step, _ in calls] == steps
    assert all(rec is row for (_, rec), row in zip(calls, res.history))
    assert res.history[-1].residual == res.residual


def test_aborts_record_no_failing_state(monkeypatch):
    cfg = setup1(cadence=3)
    calls = []

    def on_record(state, rec, geom):
        calls.append(rec)

    # the step size falls below its floor before a step is accepted: the
    # initial state is the only row
    with monkeypatch.context() as patch:
        patch.setattr(flow, "ERR_TOL", 1e-300)
        res = run(cfg, initial_gamma(Perturbed(R=1.0, amplitude=0.1), cfg.grid), on_record)
    assert res.status == STATUS_DIVERGED and res.rejected_steps > 0
    assert [rec.step for rec in res.history] == [0] and calls == res.history
    # initial data outside the cone: no row at all
    calls.clear()
    res = run(cfg, initial_gamma(Perturbed(R=1.0, amplitude=10.0), cfg.grid), on_record)
    assert res.status == STATUS_CONE_EXIT and res.history == [] and calls == []
    assert res.residual == float("inf")


def test_perturbed_with_huge_amplitude_aborts_at_once():
    # the graph itself is still star-shaped (u = rho/omega > 0 for any finite
    # field), so construction succeeds; the run dies on the cone guard instead
    cfg = setup1()
    gamma = initial_gamma(Perturbed(R=1.0, amplitude=10.0), cfg.grid)
    res = run(cfg, gamma)
    assert res.status == STATUS_CONE_EXIT
    assert res.state.step == 0


@pytest.mark.parametrize("fail_at", [3, 4, 7, 8])
def test_abort_reports_last_state_that_passed_every_guard(monkeypatch, fail_at):
    # speed_field checks the initial data, then each attempted step calls it
    # at its second stage and, if the error test passes, at its result, which
    # becomes the next step's first stage.  A guard failure at either call
    # rejects the step and shrinks h; the run aborts only below the h floor.
    cfg = setup1(t_max=1.0, cadence=1)
    real = flow.speed_field

    def counted_run(fails):
        seen, accepted = [], []

        def flaky(config, gamma):
            seen.append(np.array(gamma))
            if fails(len(seen)):
                raise FlowAbort(STATUS_CONE_EXIT, "injected")
            return real(config, gamma)

        def on_record(state, rec, geom):
            # the call that just passed is the one that evaluated this state
            accepted.append((len(seen), state))

        monkeypatch.setattr(flow, "speed_field", flaky)
        res = run(cfg, initial_gamma(Constant(R=1.3), cfg.grid), on_record=on_record)
        return res, seen, accepted

    clean, _, clean_accepted = counted_run(lambda call: False)
    assert clean.status == STATUS_TIME_CAP

    # one failure is a rejected step, not an abort
    res, _, _ = counted_run(lambda call: call == fail_at)
    assert res.status == STATUS_TIME_CAP and res.detail == ""
    assert res.rejected_steps == clean.rejected_steps + 1
    assert res.state.t == 1.0

    # failing from then on shrinks h below the floor, and only then aborts
    res, seen, _ = counted_run(lambda call: call >= fail_at)
    assert res.status == STATUS_CONE_EXIT and res.detail.endswith("injected")
    assert f"below {flow.H_FLOOR:g}" in res.detail
    call, last = [(c, st) for c, st in clean_accepted if c < fail_at][-1]
    assert res.state.step == last.step
    assert np.array_equal(res.state.gamma, last.gamma)
    assert np.array_equal(res.state.gamma, seen[call - 1])
    # each shrink is by 5, from a step of order 0.01 down to 1e-12
    assert res.rejected_steps >= 10


def test_step_order_against_exact_ode():
    # R(t) = 1 + 0.3 e^{-t}; halving a fixed h should cut the error ~4x
    cfg = setup1()
    errs = []
    for h in (0.05, 0.025):
        state = FlowState(t=0.0, step=0, gamma=initial_gamma(Constant(R=1.3), cfg.grid))
        for _ in range(round(1.0 / h)):
            state = step(cfg, state, h)
        want = 1.0 + 0.3 * np.exp(-1.0)
        errs.append(float(np.max(np.abs(np.exp(state.gamma) - want))))
    assert 3.5 <= errs[0] / errs[1] <= 4.5, f"errors {errs}"
    assert errs[0] < 1e-3


def test_run_is_deterministic():
    cfg = setup1(t_max=0.3)
    a = run(cfg, initial_gamma(Constant(R=1.2), cfg.grid))
    b = run(cfg, initial_gamma(Constant(R=1.2), cfg.grid))
    assert np.array_equal(a.state.gamma, b.state.gamma)
    assert a.state.step == b.state.step
    assert a.history == b.history


def test_cfl_dt_scalings():
    def dt_for(m):
        cfg = setup1(m_theta=m)
        gamma = np.full(m, np.log(1.3))
        _, q, f_val, lam, geom = speed_field(cfg, gamma)
        return cfl_dt(cfg, geom, diffusivity(cfg, geom, q, f_val, lam)[0])

    dt16 = dt_for(16)
    dt32 = dt_for(32)
    assert dt16 > 0.0
    assert dt16 / dt32 == pytest.approx(4.0, rel=1e-12)  # ds^2 scaling
    # on a round sphere of radius R, D = R/2, so the bound is R dtheta^2 / 2
    dtheta = axisym_grid(n=2, m_theta=16).dtheta
    assert dt16 == pytest.approx(FIRST_STEP_FRACTION * 1.3 * dtheta**2 / 2.0, rel=1e-12)


def test_cfl_dt_names_the_node_whose_bound_degenerates():
    cfg = setup1(grid=full_s2_grid(m_theta=8, m_phi=16))
    _, q, f_val, lam, geom = speed_field(cfg, initial_gamma(Constant(R=1.3), cfg.grid))
    diff = diffusivity(cfg, geom, q, f_val, lam)[0]
    diff[2, 5] = np.nan
    with pytest.raises(FlowAbort) as info:
        cfl_dt(cfg, geom, diff)
    assert info.value.status == STATUS_DIVERGED
    assert info.value.detail == (
        f"step-size bound degenerated to dt = nan at node (2, 5): "
        f"D = nan, rho = {1.3:.6g}"
    )


def test_axisym_and_full_s2_integrate_identically():
    """An axis-aligned problem run in both modes must produce the same profile."""
    configs = [
        FlowConfig(
            grid=grid,
            F=SigmaKRoot(k=2),
            G=SpeedSpec(c=1.0, a=0.0, b=-2.0, w=(0.0, 0.0, 0.2)),
            beta=1.0,
            )
        for grid in (axisym_grid(n=2, m_theta=16), full_s2_grid(m_theta=16, m_phi=16))
    ]
    ax, s2 = (run(cfg, initial_gamma(Spheroid(a=1.1, b=0.9), cfg.grid)) for cfg in configs)
    assert ax.status == s2.status == STATUS_CONVERGED
    # phi-constant data live in phi-mode 0, which the mode solve treats as the
    # axisym system, so every step size, accept decision and the stopping
    # step agree
    assert s2.state.step == ax.state.step > 100
    assert s2.state.t == pytest.approx(ax.state.t, rel=1e-12)
    assert np.max(np.abs(s2.state.gamma - ax.state.gamma[:, None])) <= 1e-12
    assert np.max(np.abs(s2.state.gamma - s2.state.gamma[:, :1])) <= 1e-12


def test_mode_solve_inverts_the_w_matrix():
    # M = I - a_i L - z_i applied in physical space through derivatives(),
    # whose pole ghosts are the mirrored rows rolled by half a period: the
    # (-1)^m ghosts of the mode solve.  full_s2 grids reduce their modes by
    # cyclic reduction and axisym grids by the scalar sweep; for n >= 5 the
    # drift makes lap_lower[1] negative, so M is no M-matrix there, and
    # a = 1e6 makes the coupling dwarf the identity
    rng = np.random.default_rng(5)
    for grid, a_all in (
        (full_s2_grid(m_theta=8, m_phi=16), None),
        (full_s2_grid(m_theta=12, m_phi=24), None),
        (axisym_grid(n=2, m_theta=16), None),
        (axisym_grid(n=3, m_theta=24), None),
        (axisym_grid(n=5, m_theta=16), None),
        (axisym_grid(n=6, m_theta=24), None),
        (axisym_grid(n=6, m_theta=24), 1e6),
        (axisym_grid(n=3, m_theta=24), 1e6),
    ):
        if grid.n >= 5:
            assert grid.lap_lower[1] < 0.0
        rows = (grid.m_theta,) + (1,) * (grid.mode == "full_s2")
        a = rng.uniform(0.0, 1.0, grid.m_theta) * 10.0 ** rng.integers(-3, 1, grid.m_theta)
        if a_all is not None:
            a = np.full(grid.m_theta, a_all)
        z = -rng.uniform(0.0, 3.0, grid.m_theta)
        rhs = rng.normal(size=grid.shape)
        x = factor_shifted_laplacian(grid, a, z)(rhs)
        _, _, f_tt, _, h_pp = derivatives(grid, x)
        lap = f_tt + (grid.n - 1) * h_pp
        a, z = a.reshape(rows), z.reshape(rows)
        resid = np.abs(x - a * lap - z * x - rhs)
        # forming a * lap rounds at eps times its largest term, which the
        # pole rows' phi spacing makes large
        scale = 1.0 + a * np.max(np.abs(grid.lap_diag), axis=-1).reshape(rows) * np.max(
            np.abs(x)
        )
        assert np.max(resid / scale) <= 1e-13, (grid.shape, grid.n, a_all)

        # phi-constant data stay phi-constant and match the axisym solve
        if grid.mode == "full_s2":
            flat = np.repeat(rhs[:, :1], grid.m_phi, axis=1)
            kept = factor_shifted_laplacian(grid, a[:, 0], z[:, 0])(flat)
            assert np.max(np.abs(kept - kept[:, :1])) <= 1e-15 * np.max(np.abs(kept))
            axisym = axisym_grid(n=2, m_theta=grid.m_theta)
            col = factor_shifted_laplacian(axisym, a[:, 0], z[:, 0])(rhs[:, 0])
            assert np.max(np.abs(kept[:, 0] - col)) <= 1e-14 * np.max(np.abs(col))


@pytest.mark.parametrize("mode", ["axisym", "full_s2"])
def test_singular_or_nonfinite_w_gives_a_nonfinite_solve(mode):
    # a rejected step, not an exception: the axisym sweep works in Python
    # floats, where x / 0.0 raises; errstate as run() calls the solver
    grid = axisym_grid(n=2, m_theta=16) if mode == "axisym" else full_s2_grid(8, 16)
    m = grid.m_theta
    rhs = np.random.default_rng(2).normal(size=grid.shape)
    for row in (0, 5, m - 1):
        for name, value in (("a", np.nan), ("z", np.nan), ("a", np.inf), ("z", -np.inf)):
            coeffs = {"a": np.full(m, 0.3), "z": np.full(m, -0.2)}
            coeffs[name][row] = value
            with np.errstate(all="ignore"):
                x = factor_shifted_laplacian(grid, coeffs["a"], coeffs["z"])(rhs)
            if value == -np.inf:
                # an infinite diagonal: the row's unknown is 0, the rest finite
                assert np.isfinite(x).all() and not np.any(x[row]), (row, name)
            else:
                assert not np.isfinite(x).all(), (row, name, value)

    # the row-0 diagonal 1 - z_0 - a_0 lap_diag_0 of M is 0
    grid.lap_diag = grid.lap_diag.copy()
    grid.lap_diag[0] = 1.0
    with np.errstate(all="ignore"):
        x = factor_shifted_laplacian(grid, np.ones(m), np.zeros(m))(rhs)
    assert not np.isfinite(x).all()


def test_phi_dependent_start_steps_far_beyond_the_pole_bound():
    grid = full_s2_grid(m_theta=64, m_phi=128)
    cfg = FlowConfig(
        grid=grid,
        F=SigmaKRoot(k=2),
        G=SpeedSpec(c=1.0, a=0.0, b=-2.0, w=(0.0, 0.0, 0.2)),
        beta=1.0,
        t_max=0.02,
        cadence=1,
    )
    gamma = initial_gamma(Perturbed(R=1.0, amplitude=0.1), grid)
    assert np.ptp(gamma[grid.m_theta // 2]) > 0.1  # genuinely phi-dependent
    _, q, f_val, lam, geom = speed_field(cfg, gamma)
    # the explicit bound set by the pole rows' phi spacing rho sin(theta) dphi
    ds = np.minimum(geom.rho * grid.dtheta, geom.rho * grid.sin_theta * grid.dphi)
    diff = diffusivity(cfg, geom, q, f_val, lam)[0]
    pole_dt = FIRST_STEP_FRACTION * float(np.min(ds * ds / (2.0 * grid.n * diff)))

    res = run(cfg, gamma)
    assert res.status == STATUS_TIME_CAP
    times = [rec.t for rec in res.history]
    assert len(times) == res.state.step + 1
    assert min(np.diff(times)[:-1]) >= 100.0 * pole_dt
    r1, r2 = barrier_radii(cfg.G, cfg.F, grid.n, cfg.beta)
    assert check_barriers(res.history, r1, r2, 0.0).passed is True
    assert np.ptp(res.state.gamma[grid.m_theta // 2]) > 0.05  # still phi-dependent


def test_sigma_sweeps_per_attempted_step(monkeypatch):
    # one sigma sweep per speed evaluation: the second stage and the result
    # of each attempted step, plus one at the initial data
    setup = cli.parse_config(Path(__file__).parent.parent / "configs" / "sphere_contract.cfg")
    calls = []
    sweep = symfunc._sigma_sweep

    def counting(*args, **kwargs):
        calls.append(args)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(symfunc, "_sigma_sweep", counting)
    cfg = setup.config
    res = run(cfg, initial_gamma(setup.initial, cfg.grid))
    assert res.status == STATUS_CONVERGED and res.state.step > 100
    assert len(calls) <= 2 * (res.state.step + res.rejected_steps) + 1


def test_anisotropic_limit_converges_at_second_order():
    # the configs/aniso_s2.cfg problem run to its limit on three grids; the
    # Richardson ratio (q_8 - q_16) / (q_16 - q_32) of a second-order
    # quantity q is 4
    setup = cli.parse_config(Path(__file__).parent.parent / "configs" / "aniso_s2.cfg")
    extremes = []
    for m in (8, 16, 32):
        base = setup.config
        cfg = FlowConfig(
            full_s2_grid(m_theta=m, m_phi=2 * m), base.F, base.G, base.beta,
            base.psi_mode, base.t_max, base.tol_residual, base.cadence,
        )
        res = run(cfg, initial_gamma(setup.initial, cfg.grid))
        assert res.status == STATUS_CONVERGED
        rho = np.exp(res.state.gamma)
        extremes.append((np.min(rho), np.max(rho)))
    q = np.array(extremes)
    ratios = (q[0] - q[1]) / (q[1] - q[2])  # for rho_min and rho_max
    assert np.all((3.5 <= ratios) & (ratios <= 4.5)), ratios


def test_configs_sharing_a_grid_keep_their_own_tables():
    def config(grid, s):
        G = SpeedSpec(c=1.0, a=0.0, b=-2.0, w=(0.0, 0.0, s))
        return FlowConfig(grid=grid, F=SigmaKRoot(k=2), G=G, beta=1.0, t_max=0.1)

    shared = full_s2_grid(m_theta=8, m_phi=16)
    first, second = config(shared, 0.2), config(shared, -0.3)
    for cfg, s in ((first, 0.2), (second, -0.3), (first, 0.2)):
        fresh = config(full_s2_grid(m_theta=8, m_phi=16), s)
        a = run(cfg, initial_gamma(Spheroid(a=1.1, b=0.9), cfg.grid))
        b = run(fresh, initial_gamma(Spheroid(a=1.1, b=0.9), fresh.grid))
        assert a.state.step == b.state.step > 10
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


_NOT_POSITIVE = (0.0, -1.0, float("nan"), float("inf"), float("-inf"))


@pytest.mark.parametrize(
    "grid",
    [axisym_grid(n=2, m_theta=16), axisym_grid(n=4, m_theta=16), full_s2_grid(m_theta=8, m_phi=16)],
    ids=["axisym-n2", "axisym-n4", "full_s2"],
)
def test_initial_gamma_refuses_every_bad_parameter(grid):
    # the kinds are plain records: a radius or axis that is not finite and
    # positive, or an amplitude that is not finite, is refused by the gate,
    # with no RuntimeWarning on the way (pytest turns one into an error)
    cases = [(Constant, {"R": x}) for x in _NOT_POSITIVE]
    cases += [(Perturbed, {"R": x, "amplitude": 0.1}) for x in _NOT_POSITIVE]
    cases += [(Spheroid, {"a": x, "b": 1.0}) for x in _NOT_POSITIVE]
    cases += [(Spheroid, {"a": 1.5, "b": x}) for x in _NOT_POSITIVE]
    cases += [(Perturbed, {"R": 1.0, "amplitude": x}) for x in _NOT_POSITIVE[2:]]
    for kind, fields in cases:
        with pytest.raises(ValueError):
            initial_gamma(kind(**fields), grid)
