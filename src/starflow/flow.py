"""The time stepper: evolve γ = log ρ until the curvature residual dies.

The evolution law is

    ∂_t γ = Ψ(Q) - Ψ(1),      Q = G(X, ν) · F(κ)^{-β},

with Ψ either the identity (expanding normalization) or s ↦ -1/s (the
contracting form; the two agree about where the flow is stationary because
both vanish at Q = 1).  Stationary states solve the prescribed-curvature
equation F^β = G.

Stepping is the midpoint rule (RK2), made linearly implicit in the φφ term
on full_s2 grids (an IMEX scheme in the sense of Ascher, Ruuth & Spiteri,
Appl. Numer. Math. 25, 1997).  Each stage increment c·dt·k, with c = ½ for
the midpoint and c = 1 for the full step, is replaced along every latitude by

    (I - c·dt·D̄·δ_φφ)⁻¹ (c·dt·k),

where δ_φφ is the unscaled periodic second difference in φ and D̄ is the
row's largest D / (ρ sinθ Δφ)², frozen at the start of the step.  The
correction vanishes when γ stops moving, so the stationary states are those
of the explicit scheme.  The φ spacing ρ sinθ Δφ, which collapses at the
poles, then no longer limits the step:

    dt = dt_safety · min over nodes of (ρΔθ)² / (2 n D),
    D  = β · u · Ψ'(Q) · Q · λ_max(∂F/∂κ) / F.

Axisym grids have no φ direction and step fully explicitly.  There is no
filtering and no clamping: when curvatures leave the admissibility cone, or
a node stops being star-shaped, the run aborts with a status saying which
guard fired and where.  A run therefore ends in exactly
one of five states: converged, diverged, cone_exit, star_shape_lost, or
time_cap (which also covers detected stalls).

run() is deterministic: identical configs and initial data reproduce
identical histories bit for bit.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics
from .geometry import GeometryState, assemble, star_shape_check
from .speed import G_from_table, SpeedSpec, psi_eval
from .spheregrid import Grid, solve_phi_rows
from .symfunc import Cone, F_fused, cone_failure, natural_cone

__all__ = [
    "PSI_IDENTITY",
    "PSI_NEG_RECIPROCAL",
    "psi_apply",
    "psi_prime",
    "FlowConfig",
    "FlowState",
    "FlowAbort",
    "RunResult",
    "speed_field",
    "diffusivity",
    "cfl_dt",
    "step",
    "run",
    "Constant",
    "Spheroid",
    "Perturbed",
    "initial_gamma",
]

PSI_IDENTITY = "identity"
PSI_NEG_RECIPROCAL = "neg_reciprocal"

STATUS_CONVERGED = "converged"
STATUS_DIVERGED = "diverged"
STATUS_CONE_EXIT = "cone_exit"
STATUS_STAR_SHAPE_LOST = "star_shape_lost"
STATUS_TIME_CAP = "time_cap"

# a run diverges once some radius leaves [RHO_FLOOR, RHO_CEIL]
RHO_FLOOR, RHO_CEIL = 1e-6, 1e6
# accepted steps over which tol_stall demands a residual decrease
STALL_WINDOW = 200


def psi_apply(mode: str, s):
    """Ψ(s): identity, or -1/s for the contracting normalization."""
    if mode == PSI_IDENTITY:
        return s
    if mode == PSI_NEG_RECIPROCAL:
        return -1.0 / s
    raise ValueError(f"unknown psi mode {mode!r}")


def psi_prime(mode: str, s):
    """Ψ'(s); strictly positive on s > 0 for both modes."""
    if mode == PSI_IDENTITY:
        return np.ones_like(np.asarray(s, dtype=float))
    if mode == PSI_NEG_RECIPROCAL:
        return 1.0 / (np.asarray(s, dtype=float) ** 2)
    raise ValueError(f"unknown psi mode {mode!r}")


@dataclass
class FlowConfig:
    """Everything run() needs besides the initial profile."""

    grid: Grid
    F: object
    G: SpeedSpec
    beta: float
    psi_mode: str = PSI_IDENTITY
    dt_safety: float = 0.2
    t_max: float = 50.0
    tol_residual: float = 1e-6
    # minimum residual decrease demanded over each STALL_WINDOW of accepted
    # steps; 0 disables stall detection entirely
    tol_stall: float = 0.0
    cadence: int = 50
    guard: Cone = field(init=False)  # always natural_cone(F)

    def __post_init__(self):
        if self.beta <= 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.psi_mode not in (PSI_IDENTITY, PSI_NEG_RECIPROCAL):
            raise ValueError(f"unknown psi mode {self.psi_mode!r}")
        if not 0.0 < self.dt_safety <= 1.0:
            raise ValueError("dt_safety must lie in (0, 1]")
        if self.cadence < 1:
            raise ValueError("cadence must be a positive step count")
        self.guard = natural_cone(self.F)
        # c ψ(ξ) at the grid nodes: the part of G that no step changes
        self.G_table = self.G.c * psi_eval(self.G, self.grid.xi)
        if self.grid.mode == "axisym" and not self.G.axis_aligned():
            raise ValueError(
                "axisym grids require every anisotropy direction to be the polar axis"
            )


@dataclass(frozen=True)
class FlowState:
    t: float
    step: int
    gamma: np.ndarray


class FlowAbort(RuntimeError):
    """Internal signal carrying the abort status and a human-readable detail."""

    def __init__(self, status: str, detail: str):
        super().__init__(detail)
        self.status = status
        self.detail = detail


@dataclass
class RunResult:
    status: str
    state: FlowState
    history: list
    residual: float
    steps: int
    wall_seconds: float
    stalled: bool = False
    detail: str = ""


def speed_field(config: FlowConfig, gamma: np.ndarray):
    """Pointwise speed Ψ(Q) - Ψ(1) plus what it was computed from.

    Returns (speed, Q, F values, λ_max(∂F/∂κ), geometry); the cone test, F
    and λ_max come from one σ sweep.  Raises FlowAbort when the profile stops
    being an admissible star-shaped graph; the detail names the first
    offending node.
    """
    grid = config.grid
    geom = assemble(grid, gamma, check=False)
    if not np.all(np.isfinite(geom.kappa)) or np.any(geom.u <= 0.0):
        u_min = float(np.min(geom.u)) if np.all(np.isfinite(geom.u)) else float("nan")
        raise FlowAbort(
            STATUS_STAR_SHAPE_LOST,
            f"non-finite state or u <= 0 (min u = {u_min:.6g})",
        )
    ok, f_val, lam = F_fused(config.F, geom.kappa)
    if not np.all(ok):
        bad = int(np.argmin(ok.reshape(-1)))
        node = np.unravel_index(bad, grid.shape)
        kappa_bad = geom.kappa.reshape(-1, geom.kappa.shape[-1])[bad]
        raise FlowAbort(
            STATUS_CONE_EXIT,
            f"curvature left {config.guard.describe()} at node {tuple(int(i) for i in node)}: "
            f"{cone_failure(kappa_bad, config.guard)}",
        )
    g = G_from_table(config.G, config.G_table, geom.u, geom.rho)
    q = g * f_val ** (-config.beta)
    speed = psi_apply(config.psi_mode, q) - psi_apply(config.psi_mode, 1.0)
    return speed, q, f_val, lam, geom


def diffusivity(
    config: FlowConfig,
    geom: GeometryState,
    q: np.ndarray,
    f_val: np.ndarray,
    lam: np.ndarray,
) -> np.ndarray:
    """Per-node D = β · u · Ψ'(Q) · Q · λ_max(∂F/∂κ) / F, the factor of the
    speed's second derivatives in arc length."""
    return config.beta * geom.u * psi_prime(config.psi_mode, q) * q * lam / f_val


def cfl_dt(config: FlowConfig, geom: GeometryState, diff: np.ndarray) -> float:
    """Parabolic step bound dt = dt_safety · min((ρΔθ)² / (2 n D)) for D = diff.

    The φ spacing does not enter: step() treats the φφ term implicitly.
    """
    ds = geom.rho * config.grid.dtheta
    dt = config.dt_safety * float(np.min(ds * ds / (2.0 * config.grid.n * diff)))
    if not (np.isfinite(dt) and dt > 0.0):
        raise FlowAbort(STATUS_DIVERGED, f"step-size bound degenerated to dt = {dt}")
    return dt


def step(
    config: FlowConfig,
    state: FlowState,
    dt: float,
    k1: np.ndarray | None = None,
    diff: np.ndarray | None = None,
) -> FlowState:
    """One midpoint (RK2) update of γ, linearly implicit in φφ on full_s2 grids.

    k1 and diff, when both given, must be the speed field and diffusivity()
    already evaluated at state.gamma; passing them avoids recomputing the
    first stage.
    """
    grid = config.grid
    if k1 is None or diff is None:
        speed, q, f_val, lam, geom = speed_field(config, state.gamma)
        k1, diff = speed, diffusivity(config, geom, q, f_val, lam)
    d_bar = None
    if grid.mode == "full_s2":
        ds_phi = np.exp(state.gamma) * grid.sin_theta * grid.dphi
        d_bar = np.max(diff / (ds_phi * ds_phi), axis=1)

    def increment(c, k):
        inc = c * dt * k
        return inc if d_bar is None else solve_phi_rows(grid, inc, c * dt * d_bar)

    half = state.gamma + increment(0.5, k1)
    k2 = speed_field(config, half)[0]
    return FlowState(
        t=state.t + dt, step=state.step + 1, gamma=state.gamma + increment(1.0, k2)
    )


def run(config: FlowConfig, gamma0: np.ndarray, on_record=None) -> RunResult:
    """Drive the flow from gamma0 until one of the five terminal states.

    The history receives one record at step 0, one every config.cadence
    accepted steps, and one for the final state.  Every abort (cone exit,
    star shape loss, a degenerate step bound) reports the last state at which
    speed_field passed its guards, or the initial data when none did; the
    state that failed is never returned.  on_record,
    when given, is called as on_record(state, record, geometry) right after
    each history row is appended; it must not mutate anything it is handed.
    """
    gamma0 = np.asarray(gamma0, dtype=float)
    if gamma0.shape != config.grid.shape:
        raise ValueError(
            f"initial field shape {gamma0.shape} does not match grid {config.grid.shape}"
        )
    t_start = time.perf_counter()
    # trial becomes state once speed_field's guards pass at it
    state = trial = FlowState(t=0.0, step=0, gamma=gamma0)
    history: list = []
    window: deque = deque(maxlen=STALL_WINDOW + 1)
    last_recorded = -1
    residual = float("inf")
    stalled = False
    detail = ""

    def record(geom, q, f_val, res):
        nonlocal last_recorded
        if state.step != last_recorded:
            history.append(
                diagnostics.snapshot(state.step, state.t, geom, q, f_val, res)
            )
            last_recorded = state.step
            if on_record is not None:
                on_record(state, history[-1], geom)

    while True:
        try:
            speed, q, f_val, lam, geom = speed_field(config, trial.gamma)
        except FlowAbort as abort:
            status = abort.status
            detail = abort.detail
            break
        state = trial
        residual = float(np.max(np.abs(speed)))

        if state.step % config.cadence == 0:
            record(geom, q, f_val, residual)

        if residual <= config.tol_residual:
            status = STATUS_CONVERGED
            record(geom, q, f_val, residual)
            break
        if np.min(geom.rho) < RHO_FLOOR or np.max(geom.rho) > RHO_CEIL:
            status = STATUS_DIVERGED
            detail = (
                f"radius left [{RHO_FLOOR:g}, {RHO_CEIL:g}] "
                f"(range [{float(np.min(geom.rho)):.3g}, {float(np.max(geom.rho)):.3g}])"
            )
            record(geom, q, f_val, residual)
            break
        if state.t >= config.t_max:
            status = STATUS_TIME_CAP
            record(geom, q, f_val, residual)
            break

        window.append(residual)
        if (
            config.tol_stall > 0.0
            and len(window) == STALL_WINDOW + 1
            and window[0] - residual < config.tol_stall
        ):
            status = STATUS_TIME_CAP
            stalled = True
            detail = (
                f"residual stalled: decrease over {STALL_WINDOW} steps was "
                f"{window[0] - residual:.3g} < {config.tol_stall:g}"
            )
            record(geom, q, f_val, residual)
            break

        try:
            diff = diffusivity(config, geom, q, f_val, lam)
            dt = min(cfl_dt(config, geom, diff), config.t_max - state.t)
            trial = step(config, state, dt, k1=speed, diff=diff)
        except FlowAbort as abort:
            status = abort.status
            detail = abort.detail
            break

    wall = time.perf_counter() - t_start
    return RunResult(
        status=status,
        state=state,
        history=history,
        residual=residual,
        steps=state.step,
        wall_seconds=wall,
        stalled=stalled,
        detail=detail,
    )


# ---------------------------------------------------------------------------
# initial data


@dataclass(frozen=True)
class Constant:
    """Round sphere of radius R."""

    R: float


@dataclass(frozen=True)
class Spheroid:
    """Spheroid with equatorial semi-axis a and polar semi-axis b."""

    a: float
    b: float


@dataclass(frozen=True)
class Perturbed:
    """Sphere of radius R with a single low-mode bump of the given amplitude."""

    R: float
    amplitude: float


def initial_gamma(kind, grid: Grid) -> np.ndarray:
    """Build a starting profile γ and validate it is a star-shaped graph.

    Constant:  γ = log R.
    Spheroid:  ρ(θ) = ab / sqrt(b² sin²θ + a² cos²θ).
    Perturbed: γ = log R + amplitude · cosθ on axisym grids,
               γ = log R + amplitude · sinθ cosφ on full_s2 grids.

    Raises ValueError (with the offending minimum of u) when the profile
    fails the star-shape check.
    """
    theta = grid.theta
    if grid.mode == "full_s2":
        theta = theta[:, None]
    if isinstance(kind, Constant):
        if kind.R <= 0.0:
            raise ValueError("radius must be positive")
        gamma = np.full(grid.shape, np.log(kind.R))
    elif isinstance(kind, Spheroid):
        if kind.a <= 0.0 or kind.b <= 0.0:
            raise ValueError("spheroid semi-axes must be positive")
        rho = (
            kind.a
            * kind.b
            / np.sqrt(kind.b**2 * np.sin(theta) ** 2 + kind.a**2 * np.cos(theta) ** 2)
        )
        gamma = np.broadcast_to(np.log(rho), grid.shape).copy()
    elif isinstance(kind, Perturbed):
        if kind.R <= 0.0:
            raise ValueError("radius must be positive")
        if grid.mode == "axisym":
            bump = np.cos(theta)
        else:
            bump = np.sin(theta) * np.cos(grid.phi[None, :])
        gamma = np.log(kind.R) + kind.amplitude * bump
    else:
        raise TypeError(f"unknown initial-data kind {kind!r}")

    ok, u_min = star_shape_check(grid, gamma)
    if not ok:
        raise ValueError(
            f"initial profile is not a star-shaped graph (min u = {u_min:.6g})"
        )
    return gamma

