"""Monitored estimates: history records, structural checks, and fits.

Everything in this module observes a run; nothing here feeds back into the
stepping.  The run loop emits one DiagnosticsRecord per cadence interval, and
the checks below consume those records:

- check_barriers: radii stay inside the initial sphere barriers,
- check_sign_preservation: Q - 1 keeps the sign it started with,
- decay_fit: the sup-norm of Dγ (which equals |Dρ|/ρ) decays exponentially,
- evolution_identity_check: two consecutive states satisfy the support-value
  transport identity ∂_t u = u·(𝓕 - ⟨X, ∇𝓕⟩) up to O(dt + Δθ²),
- uniqueness_crosscheck: two converged states agree pointwise.

Each check returns a small result object instead of asserting, and each is
skipped (never silently passed) when its hypothesis fails on the supplied
history.  History files are spheregrid tables, written by write_table and
read by read_table under the fixed version line ``starflow-history-v1``:
another version line, another column header or a row with more or fewer
cells than the header is refused when read.
"""

import json
import math
from typing import NamedTuple

import numpy as np

from .geometry import GeometryState, assemble
from .spheregrid import derivatives, read_table, write_table

HISTORY_CSV_MAGIC = "starflow-history-v1"


class DiagnosticsRecord(NamedTuple):
    """One row of a run history; column order is the field order here."""

    step: int
    t: float
    residual: float
    rho_min: float
    rho_max: float
    u_min: float
    q_min: float
    q_max: float
    grad_gamma_max: float
    kappa_min: float
    kappa_max: float
    f_min: float
    f_max: float
    sphere_gap: float
    cone_ok: bool


def snapshot(
    step: int,
    t: float,
    geom: GeometryState,
    q: np.ndarray,
    f_val: np.ndarray,
    residual: float,
) -> DiagnosticsRecord:
    """Reduce one assembled state to a history row.

    All reductions are plain min/max over the fixed node ordering, so repeated
    runs of the same configuration produce identical rows; like np.min and
    np.max they return NaN when any entry is NaN.  sphere_gap is the spread
    (ρ_max - ρ_min)/mean(ρ).  run() records only states that have just passed
    its cone guard, so cone_ok is always True.
    """
    lo, hi = np.minimum.reduce, np.maximum.reduce
    rho = geom.rho
    rho_min, rho_max = lo(rho, axis=None), hi(rho, axis=None)
    return DiagnosticsRecord(
        step=step,
        t=float(t),
        residual=float(residual),
        rho_min=float(rho_min),
        rho_max=float(rho_max),
        u_min=float(lo(geom.u, axis=None)),
        q_min=float(lo(q, axis=None)),
        q_max=float(hi(q, axis=None)),
        grad_gamma_max=math.sqrt(hi(geom.grad_sq, axis=None)),
        kappa_min=float(lo(geom.kappa, axis=None)),
        kappa_max=float(hi(geom.kappa, axis=None)),
        f_min=float(lo(f_val, axis=None)),
        f_max=float(hi(f_val, axis=None)),
        sphere_gap=float((rho_max - rho_min) / (np.add.reduce(rho, axis=None) / rho.size)),
        cone_ok=True,
    )


class CheckResult(NamedTuple):
    """Outcome of a structural check.

    passed is None exactly when the check was skipped because its hypothesis
    does not hold for the supplied history; message says why.
    """

    passed: bool | None
    message: str


def check_barriers(history, r1: float, r2: float, tol: float) -> CheckResult:
    """Every record keeps ρ within [r1 - tol, r2 + tol].

    Skipped when the initial record already violates r1 <= ρ <= r2: the
    comparison argument assumes the starting surface sits between the
    barriers.
    """
    if not history:
        return CheckResult(None, "empty history")
    first = history[0]
    if first.rho_min < r1 or first.rho_max > r2:
        return CheckResult(
            None,
            f"initial radii [{first.rho_min:.6g}, {first.rho_max:.6g}] are not "
            f"inside the barrier interval [{r1:.6g}, {r2:.6g}]",
        )
    for idx, rec in enumerate(history):
        if rec.rho_min < r1 - tol or rec.rho_max > r2 + tol:
            return CheckResult(
                False,
                f"record {idx} (t = {rec.t:.6g}) left the barriers: "
                f"[{rec.rho_min:.6g}, {rec.rho_max:.6g}] vs "
                f"[{r1:.6g} - {tol:.2g}, {r2:.6g} + {tol:.2g}]",
            )
    return CheckResult(True, f"{len(history)} records inside barriers")


def check_sign_preservation(history, tol: float) -> CheckResult:
    """Q - 1 keeps its initial sign along the whole history.

    Skipped when the initial record has mixed sign (the preservation argument
    needs a definite sign to start with).  A tolerance of tol absorbs the
    discrete wobble right at the stationary state.
    """
    if not history:
        return CheckResult(None, "empty history")
    first = history[0]
    lo0, hi0 = first.q_min - 1.0, first.q_max - 1.0
    if not (lo0 > 0.0 or hi0 < 0.0):
        return CheckResult(
            None,
            f"initial Q - 1 has mixed sign ([{lo0:.3g}, {hi0:.3g}]); nothing to preserve",
        )
    # one pass keyed by the sign of record 0, watching the end of Q - 1 that
    # would cross zero first
    if lo0 > 0.0:
        sign, moved, start, bound = 1.0, "dropped", "positive", ">= -"
    else:
        sign, moved, start, bound = -1.0, "rose", "negative", "<= "
    for idx, rec in enumerate(history):
        far = (rec.q_min if sign > 0.0 else rec.q_max) - 1.0
        if sign * far < -tol:
            return CheckResult(
                False, f"record {idx}: Q - 1 {moved} to {far:.3g} after starting {start}"
            )
    return CheckResult(True, f"Q - 1 stayed {bound}{tol:g} over {len(history)} records")


def evolution_identity_check(config, state_a, state_b) -> float:
    """Max-norm residual of the support-value transport identity.

    For two consecutive states at times t and t + dt the discrete quotient
    (u(t+dt) - u(t))/dt is compared against u·(𝓕 - ⟨X, ∇𝓕⟩) evaluated at the
    earlier state, where 𝓕 = Ψ(Q) - Ψ(1) and ⟨X, ∇𝓕⟩ reduces on radial graphs
    to ⟨b, D𝓕⟩ / ω², both gradients in the frame of spheregrid.derivatives.
    The residual is O(dt + Δθ²) on smooth flows.
    """
    from .flow import speed_field  # flow imports this module

    dt = state_b.t - state_a.t
    if dt <= 0.0:
        raise ValueError("states must be time-ordered with distinct times")
    grid = config.grid
    speed, _, _, _, geom_a = speed_field(config, state_a.gamma)
    geom_b = assemble(grid, state_b.gamma)
    lhs = (geom_b.u - geom_a.u) / dt

    # both φ terms are zero arrays on axisym grids
    s_t, s_p = derivatives(grid, speed)[:2]
    pairing = geom_a.b_t * s_t + geom_a.b_p * s_p
    x_dot_grad = pairing / geom_a.omega**2
    rhs = geom_a.u * (speed - x_dot_grad)
    return float(np.max(np.abs(lhs - rhs)))


class DecayFit(NamedTuple):
    """Least-squares exponential fit to the gradient sup-norm tail."""

    rate: float
    r_squared: float
    machine_converged: bool = False


def decay_fit(history, tail_fraction: float = 0.5) -> DecayFit:
    """Fit grad_gamma_max ~ C e^{-rate t} over the trailing fraction of a run.

    The fit is linear least squares on log(grad_gamma_max).  Records whose
    gradient has collapsed below 1e-14 make the fit meaningless; if any such
    record appears in the window the result is flagged machine_converged with
    rate = +inf and r² = 1 by convention.
    """
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must lie in (0, 1]")
    if len(history) < 20:
        raise ValueError(
            f"need at least 20 records to fit a decay, got {len(history)}"
        )
    t0, t1 = history[0].t, history[-1].t
    cutoff = t1 - tail_fraction * (t1 - t0)
    window = [rec for rec in history if rec.t >= cutoff]
    if len(window) < 20:
        window = history[-20:]
    t = np.array([rec.t for rec in window])
    g = np.array([rec.grad_gamma_max for rec in window])
    if np.any(g <= 1e-14):
        return DecayFit(
            rate=float("inf"),
            r_squared=1.0,
            machine_converged=True,
        )
    y = np.log(g)
    slope, intercept = np.polyfit(t, y, 1)
    fit = slope * t + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(
        rate=float(-slope),
        r_squared=float(r2),
    )


def uniqueness_crosscheck(geom_a: GeometryState, geom_b: GeometryState) -> float:
    """Largest pointwise relative radius gap between two states on one grid."""
    if geom_a.grid != geom_b.grid:
        raise ValueError("states live on different grids")
    ra, rb = geom_a.rho, geom_b.rho
    return float(np.max(np.abs(ra - rb) / np.minimum(ra, rb)))


# ---------------------------------------------------------------------------
# persistence


def write_history_csv(path, history) -> None:
    """Write records under the fixed ``starflow-history-v1`` version line
    through spheregrid.write_table: one block, a row per record."""
    rows = ((f"{int(step)}", *map(repr, map(float, floats)), f"{int(cone_ok)}")
            for step, *floats, cone_ok in history)
    write_table(path, HISTORY_CSV_MAGIC, DiagnosticsRecord._fields, [rows])


def read_history_csv(path) -> list:
    """Inverse of write_history_csv through spheregrid.read_table, which
    refuses another version line, another column header or a row of
    another width."""
    rows = read_table(path, HISTORY_CSV_MAGIC, DiagnosticsRecord._fields, "a history file")
    return [DiagnosticsRecord(int(step), *map(float, floats), bool(int(cone_ok)))
            for step, *floats, cone_ok in rows]


def write_summary_json(path, summary: dict) -> None:
    """Write strict JSON: a NaN or infinity raises instead of being written."""
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
