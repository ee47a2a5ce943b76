"""History records, structural checks, fits, and persistence round trips."""

import json

import numpy as np
import pytest

from starflow.diagnostics import (
    HISTORY_CSV_MAGIC,
    DiagnosticsRecord,
    check_barriers,
    check_sign_preservation,
    decay_fit,
    evolution_identity_check,
    read_history_csv,
    snapshot,
    uniqueness_crosscheck,
    write_history_csv,
    write_summary_json,
)
from starflow.flow import Constant, FlowConfig, FlowState, initial_gamma, step
from starflow.geometry import assemble
from starflow.speed import SpeedSpec
from starflow.spheregrid import axisym_grid, full_s2_grid
from starflow.symfunc import SigmaKRoot


def rec(t, grad=0.1, **overrides):
    base = dict(
        step=int(round(t * 100)),
        t=t,
        residual=1e-3,
        rho_min=1.0,
        rho_max=1.0,
        u_min=1.0,
        q_min=1.0,
        q_max=1.0,
        grad_gamma_max=grad,
        kappa_min=1.0,
        kappa_max=1.0,
        f_min=1.0,
        f_max=1.0,
        sphere_gap=0.0,
        cone_ok=True,
    )
    base.update(overrides)
    return DiagnosticsRecord(**base)


def test_snapshot_reduces_a_round_sphere():
    grid = axisym_grid(n=2, m_theta=16)
    geom = assemble(grid, np.full(16, np.log(2.0)))
    row = snapshot(
        step=7,
        t=0.25,
        geom=geom,
        q=np.full(16, 0.5),
        f_val=np.full(16, 0.5),
        residual=0.5,
    )
    assert row.step == 7 and row.t == 0.25
    assert row.rho_min == row.rho_max == pytest.approx(2.0, abs=1e-15)
    assert row.u_min == pytest.approx(2.0, abs=1e-15)
    assert row.q_min == row.q_max == 0.5
    assert row.grad_gamma_max <= 1e-13
    assert row.kappa_min == row.kappa_max == pytest.approx(0.5, abs=1e-14)
    assert row.sphere_gap <= 1e-15
    assert row.cone_ok is True
    # every numeric field is a plain float, safe to serialize
    assert all(
        isinstance(getattr(row, name), float)
        for name in ("t", "residual", "rho_min", "sphere_gap")
    )


@pytest.mark.parametrize(
    "grid", [axisym_grid(n=3, m_theta=24), full_s2_grid(m_theta=12, m_phi=24)], ids=["axisym", "full_s2"]
)
def test_snapshot_sphere_gap_on_a_spheroid(grid):
    # equatorial radius 1.5, polar radius 0.8
    rho = 1.2 / np.sqrt(0.64 * grid.sin_theta**2 + 2.25 * grid.cos_theta**2)
    geom = assemble(grid, np.log(np.broadcast_to(rho, grid.shape)))
    ones = np.ones(grid.shape)
    row = snapshot(step=0, t=0.0, geom=geom, q=ones, f_val=ones, residual=0.0)
    want = (np.max(geom.rho) - np.min(geom.rho)) / np.mean(geom.rho)
    assert want > 0.5
    assert row.sphere_gap.hex() == float(want).hex()


def test_check_barriers_pass_fail_skip():
    inside = [rec(t, rho_min=0.9, rho_max=1.1) for t in np.linspace(0.0, 1.0, 5)]
    res = check_barriers(inside, 0.8, 1.2, tol=1e-6)
    assert res.passed is True

    escaped = inside + [rec(2.0, rho_min=0.9, rho_max=1.3)]
    res = check_barriers(escaped, 0.8, 1.2, tol=1e-6)
    assert res.passed is False
    assert "record 5" in res.message

    # a tol-sized excursion is absorbed
    grazing = inside + [rec(2.0, rho_min=0.8 - 5e-7, rho_max=1.1)]
    assert check_barriers(grazing, 0.8, 1.2, tol=1e-6).passed is True

    # initial data outside the barriers: hypothesis fails, check skipped
    res = check_barriers([rec(0.0, rho_min=0.5, rho_max=1.1)], 0.8, 1.2, tol=1e-6)
    assert res.passed is None
    assert check_barriers([], 0.8, 1.2, tol=1e-6).passed is None


def test_check_sign_preservation():
    pos = [rec(t, q_min=1.2 - 0.1 * t, q_max=1.5) for t in np.linspace(0.0, 1.0, 5)]
    assert check_sign_preservation(pos, tol=1e-8).passed is True

    flipped = pos + [rec(2.0, q_min=0.7, q_max=1.5)]
    res = check_sign_preservation(flipped, tol=1e-8)
    assert res.passed is False and "record 5" in res.message

    neg = [rec(t, q_min=0.5, q_max=0.9) for t in np.linspace(0.0, 1.0, 5)]
    assert check_sign_preservation(neg, tol=1e-8).passed is True
    res = check_sign_preservation(neg + [rec(2.0, q_min=0.5, q_max=1.1)], tol=1e-8)
    assert res.passed is False

    # wobble within tol at the stationary state is fine
    settling = pos + [rec(2.0, q_min=1.0 - 1e-9, q_max=1.0)]
    assert check_sign_preservation(settling, tol=1e-8).passed is True

    mixed = [rec(0.0, q_min=0.9, q_max=1.1)]
    assert check_sign_preservation(mixed, tol=1e-8).passed is None
    assert check_sign_preservation([], tol=1e-8).passed is None


def test_check_sign_preservation_messages():
    pos = [rec(0.0, q_min=1.2, q_max=1.5), rec(1.0, q_min=1.1, q_max=1.5)]
    neg = [rec(0.0, q_min=0.5, q_max=0.9), rec(1.0, q_min=0.5, q_max=0.95)]
    cases = [
        (pos, True, "Q - 1 stayed >= -1e-08 over 2 records"),
        (pos + [rec(2.0, q_min=0.7, q_max=1.5)], False,
         "record 2: Q - 1 dropped to -0.3 after starting positive"),
        # the other end may cross without a violation
        (pos + [rec(2.0, q_min=1.1, q_max=0.5)], True, "Q - 1 stayed >= -1e-08 over 3 records"),
        (neg, True, "Q - 1 stayed <= 1e-08 over 2 records"),
        (neg + [rec(2.0, q_min=0.5, q_max=1.25)], False,
         "record 2: Q - 1 rose to 0.25 after starting negative"),
        (neg + [rec(2.0, q_min=1.5, q_max=0.9)], True, "Q - 1 stayed <= 1e-08 over 3 records"),
        ([rec(0.0, q_min=0.9, q_max=1.1)], None,
         "initial Q - 1 has mixed sign ([-0.1, 0.1]); nothing to preserve"),
        ([rec(0.0, q_min=np.nan, q_max=np.nan)], None,
         "initial Q - 1 has mixed sign ([nan, nan]); nothing to preserve"),
        ([], None, "empty history"),
    ]
    for history, passed, message in cases:
        res = check_sign_preservation(history, tol=1e-8)
        assert (res.passed, res.message) == (passed, message)


def test_decay_fit_recovers_synthetic_rate():
    ts = np.linspace(0.0, 5.0, 60)
    hist = [rec(t, grad=0.5 * np.exp(-2.0 * t)) for t in ts]
    fit = decay_fit(hist)
    assert fit.rate == pytest.approx(2.0, rel=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert not fit.machine_converged
    # the window is the trailing half by default: a head decaying at rate 1
    # up to t = 2.4 stays out of the fit of a tail decaying at rate 2
    kinked = [rec(t, grad=0.5 * np.exp(-t - max(t - 2.4, 0.0))) for t in ts]
    assert decay_fit(kinked).rate == pytest.approx(2.0, rel=1e-10)
    assert 1.0 < decay_fit(kinked, tail_fraction=1.0).rate < 1.9


def test_decay_fit_edge_cases():
    flat = [rec(t, grad=0.3) for t in np.linspace(0.0, 5.0, 30)]
    fit = decay_fit(flat)
    assert fit.rate == pytest.approx(0.0, abs=1e-12)

    ts = np.linspace(0.0, 5.0, 30)
    collapsed = [rec(t, grad=max(1e-16, 0.5 * np.exp(-20.0 * t))) for t in ts]
    fit = decay_fit(collapsed)
    assert fit.machine_converged
    assert fit.rate == float("inf") and fit.r_squared == 1.0

    with pytest.raises(ValueError):
        decay_fit([rec(t) for t in np.linspace(0.0, 1.0, 19)])
    with pytest.raises(ValueError):
        decay_fit(flat, tail_fraction=0.0)


def setup1_config(m_theta=32):
    return FlowConfig(
        grid=axisym_grid(n=2, m_theta=m_theta),
        F=SigmaKRoot(k=2),
        G=SpeedSpec(c=1.0, a=0.0, b=-2.0),
        beta=1.0,
    )


def test_evolution_identity_stationary_and_moving():
    cfg = setup1_config()
    # stationary sphere: both sides vanish identically
    s0 = FlowState(t=0.0, step=0, gamma=np.zeros(32))
    s1 = FlowState(t=1e-3, step=1, gamma=np.zeros(32))
    assert evolution_identity_check(cfg, s0, s1) <= 1e-13

    # moving sphere: residual is O(dt) (the spatial part is exact on
    # constant profiles), so shrinking dt tenfold shrinks it accordingly
    g0 = initial_gamma(Constant(R=1.3), cfg.grid)
    residuals = []
    for dt in (1e-3, 1e-4):
        a = FlowState(t=0.0, step=0, gamma=g0)
        b = step(cfg, a, dt)
        residuals.append(evolution_identity_check(cfg, a, b))
    assert residuals[0] <= 5e-3
    assert residuals[0] / residuals[1] > 5.0

    with pytest.raises(ValueError):
        evolution_identity_check(cfg, s1, s0)


def test_uniqueness_crosscheck():
    grid = axisym_grid(n=2, m_theta=16)
    a = assemble(grid, np.zeros(16))
    b = assemble(grid, np.full(16, np.log(1.1)))
    assert uniqueness_crosscheck(a, a) == 0.0
    assert uniqueness_crosscheck(a, b) == pytest.approx(0.1, rel=1e-12)
    c = assemble(axisym_grid(n=2, m_theta=32), np.zeros(32))
    with pytest.raises(ValueError):
        uniqueness_crosscheck(a, c)


def test_history_csv_round_trip(tmp_path):
    hist = [
        rec(0.0, grad=0.1, cone_ok=True),
        rec(0.731, grad=1.2345678901234567e-9, q_min=0.9999999999999, cone_ok=False),
        rec(1.5e3, grad=7.2e222, rho_min=1e-300),
    ]
    path = tmp_path / "history.csv"
    write_history_csv(path, hist)
    text = path.read_text()
    assert text.splitlines()[0] == HISTORY_CSV_MAGIC
    assert "np.float64" not in text
    back = read_history_csv(path)
    assert back == hist
    assert isinstance(back[1].cone_ok, bool) and back[1].cone_ok is False

    bad = tmp_path / "other.csv"
    bad.write_text("some,other,file\n1,2,3\n")
    with pytest.raises(ValueError):
        read_history_csv(bad)

    wrong_cols = tmp_path / "cols.csv"
    wrong_cols.write_text(HISTORY_CSV_MAGIC + "\nstep,t\n0,0.0\n")
    with pytest.raises(ValueError):
        read_history_csv(wrong_cols)


@pytest.mark.parametrize(
    "row",
    ["3,0.03,0.001,1.0,1.0,1.0,1.0,1.0,0.1,1.0,1.0,1.0,1.0,0.0,1,9.9,7",
     "3,0.03,0.001,1.0,1.0,1.0,1.0,1.0,0.1,1.0,1.0,1.0,1.0,0.0"],
    ids=["two-extra-cells", "one-cell-short"],
)
def test_history_csv_refuses_a_row_of_another_width(tmp_path, row):
    # a long row must not read cone_ok from a stray last cell, and a short
    # one must not depend on int() failing to be refused
    path = tmp_path / "history.csv"
    write_history_csv(path, [rec(0.0), rec(0.01)])
    path.write_text(path.read_text() + row + "\n")
    with pytest.raises(ValueError, match=f"row '{row}' has"):
        read_history_csv(path)


def test_history_csv_skips_blank_lines_before_its_header(tmp_path):
    hist = [rec(0.0), rec(0.01)]
    path = tmp_path / "history.csv"
    write_history_csv(path, hist)
    # one blank line after the LF of the version line, as the field reader allows
    path.write_bytes(path.read_bytes().replace(b"\n", b"\n\r\n", 1))
    assert read_history_csv(path) == hist


def test_history_csv_version_line_is_compared_exactly(tmp_path):
    path = tmp_path / "history.csv"
    write_history_csv(path, [rec(0.0)])
    path.write_bytes(path.read_bytes().replace(b"v1\n", b"v1  \n", 1))
    with pytest.raises(ValueError) as info:
        read_history_csv(path)
    assert str(info.value) == (
        f"{path} begins {HISTORY_CSV_MAGIC + '  '!r}; a history file begins {HISTORY_CSV_MAGIC!r}"
    )


def test_write_summary_json(tmp_path):
    path = tmp_path / "summary.json"
    write_summary_json(path, {"b": 2, "a": [1.5, "x"], "nested": {"k": None}})
    loaded = json.loads(path.read_text())
    assert loaded == {"b": 2, "a": [1.5, "x"], "nested": {"k": None}}
    # keys come out sorted so diffs between runs are stable
    assert path.read_text().index('"a"') < path.read_text().index('"b"')
