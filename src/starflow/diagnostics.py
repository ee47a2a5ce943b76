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
history.  History files begin with the fixed version line
``starflow-history-v1`` followed by a column header.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, asdict, fields

import numpy as np

from .geometry import GeometryState, sphere_gap

__all__ = [
    "HISTORY_CSV_MAGIC",
    "DiagnosticsRecord",
    "snapshot",
    "CheckResult",
    "check_barriers",
    "check_sign_preservation",
    "evolution_identity_check",
    "DecayFit",
    "decay_fit",
    "uniqueness_crosscheck",
    "write_history_csv",
    "read_history_csv",
    "write_summary_json",
]

HISTORY_CSV_MAGIC = "starflow-history-v1"


@dataclass(frozen=True)
class DiagnosticsRecord:
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
    runs of the same configuration produce identical rows.  run() records only
    states that have just passed its cone guard, so cone_ok is always True.
    """
    return DiagnosticsRecord(
        step=step,
        t=float(t),
        residual=float(residual),
        rho_min=float(np.min(geom.rho)),
        rho_max=float(np.max(geom.rho)),
        u_min=float(np.min(geom.u)),
        q_min=float(np.min(q)),
        q_max=float(np.max(q)),
        grad_gamma_max=float(np.sqrt(np.max(geom.grad_sq))),
        kappa_min=float(np.min(geom.kappa)),
        kappa_max=float(np.max(geom.kappa)),
        f_min=float(np.min(f_val)),
        f_max=float(np.max(f_val)),
        sphere_gap=float(sphere_gap(geom)),
        cone_ok=True,
    )


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a structural check.

    passed is None exactly when the check was skipped because its hypothesis
    does not hold for the supplied history; message says why.
    """

    passed: bool | None
    message: str
    first_violation: int | None = None

    @property
    def skipped(self) -> bool:
        return self.passed is None


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
                first_violation=idx,
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
    if lo0 > 0.0:
        for idx, rec in enumerate(history):
            if rec.q_min - 1.0 < -tol:
                return CheckResult(
                    False,
                    f"record {idx}: Q - 1 dropped to {rec.q_min - 1.0:.3g} "
                    f"after starting positive",
                    first_violation=idx,
                )
        return CheckResult(True, f"Q - 1 stayed >= -{tol:g} over {len(history)} records")
    if hi0 < 0.0:
        for idx, rec in enumerate(history):
            if rec.q_max - 1.0 > tol:
                return CheckResult(
                    False,
                    f"record {idx}: Q - 1 rose to {rec.q_max - 1.0:.3g} "
                    f"after starting negative",
                    first_violation=idx,
                )
        return CheckResult(True, f"Q - 1 stayed <= {tol:g} over {len(history)} records")
    return CheckResult(
        None,
        f"initial Q - 1 has mixed sign ([{lo0:.3g}, {hi0:.3g}]); nothing to preserve",
    )


def evolution_identity_check(config, state_a, state_b) -> float:
    """Max-norm residual of the support-value transport identity.

    For two consecutive states at times t and t + dt the discrete quotient
    (u(t+dt) - u(t))/dt is compared against u·(𝓕 - ⟨X, ∇𝓕⟩) evaluated at the
    earlier state, where 𝓕 = Ψ(Q) - Ψ(1) and ⟨X, ∇𝓕⟩ reduces on radial graphs
    to ⟨Dγ, D𝓕⟩_e / ω².  The residual is O(dt + Δθ²) on smooth flows.
    """
    from .flow import speed_field
    from .geometry import assemble
    from .spheregrid import grad, grad_norm_sq

    dt = state_b.t - state_a.t
    if dt <= 0.0:
        raise ValueError("states must be time-ordered with distinct times")
    grid = config.grid
    speed, _, _, _, geom_a = speed_field(config, state_a.gamma)
    geom_b = assemble(grid, state_b.gamma)
    lhs = (geom_b.u - geom_a.u) / dt

    s_t, s_p = grad(grid, speed)
    if grid.mode == "axisym":
        pairing = geom_a.gamma_t * s_t
    else:
        pairing = geom_a.gamma_t * s_t + geom_a.gamma_p * s_p / grid.sin_theta**2
    x_dot_grad = pairing / geom_a.omega**2
    rhs = geom_a.u * (speed - x_dot_grad)
    return float(np.max(np.abs(lhs - rhs)))


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential fit to the gradient sup-norm tail."""

    rate: float
    r_squared: float
    n_records: int
    t_start: float
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
            n_records=len(window),
            t_start=float(t[0]),
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
        n_records=len(window),
        t_start=float(t[0]),
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
    """Write records under the fixed ``starflow-history-v1`` version line."""
    cols = [f.name for f in fields(DiagnosticsRecord)]
    with open(path, "w", newline="") as fh:
        fh.write(HISTORY_CSV_MAGIC + "\n")
        writer = csv.writer(fh)
        writer.writerow(cols)
        for rec in history:
            row = asdict(rec)
            writer.writerow(
                [int(row["step"])]
                + [repr(float(row[c])) for c in cols[1:-1]]
                + [int(row["cone_ok"])]
            )


def read_history_csv(path) -> list:
    """Inverse of write_history_csv."""
    with open(path, "r", newline="") as fh:
        magic = fh.readline().strip()
        if magic != HISTORY_CSV_MAGIC:
            raise ValueError(f"not a {HISTORY_CSV_MAGIC} file: {path}")
        reader = csv.reader(fh)
        cols = next(reader)
        expected = [f.name for f in fields(DiagnosticsRecord)]
        if cols != expected:
            raise ValueError(f"unexpected columns {cols}")
        out = []
        for row in reader:
            if not row:
                continue
            out.append(
                DiagnosticsRecord(
                    step=int(row[0]),
                    **{c: float(v) for c, v in zip(cols[1:-1], row[1:-1])},
                    cone_ok=bool(int(row[-1])),
                )
            )
    return out


def write_summary_json(path, summary: dict) -> None:
    """Write strict JSON: a NaN or infinity raises instead of being written."""
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
