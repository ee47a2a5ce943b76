"""The time stepper: evolve γ = log ρ until the curvature residual dies.

The evolution law is

    ∂_t γ = Ψ(Q) - Ψ(1),      Q = G(X, ν) · F(κ)^{-β},

with Ψ either the identity (expanding normalization) or s ↦ -1/s (the
contracting form; the two agree about where the flow is stationary because
both vanish at Q = 1).  Stationary states solve the prescribed-curvature
equation F^β = G.

Time stepping is ROS2 (Verwer, Spee, Blom & Hundsdorfer, SIAM J. Sci.
Comput. 20, 1999), a linearly implicit second-order W-method in the sense of
Steihaug & Wolfbrandt (Math. Comp. 33, 1979): with g = 1 + 1/√2 and
M = I - g·h·W,

    M k1 = 𝓕(γ),   M k2 = 𝓕(γ + h k1) - 2 k1,   γ⁺ = γ + h (3/2 k1 + 1/2 k2).

It is second order for any matrix W; W = A_i L + Z_i only has to be close
enough to the Jacobian of 𝓕 to keep the step stable.  L is the discrete
Laplace–Beltrami operator, A_i the row maximum of D/ρ² with

    D = β · u · Ψ'(Q) · Q · λ_max(∂F/∂κ) / F,

and Z_i the row mean of the dilation derivative Ψ'(Q)·Q·(a + b + β).  Z_i is
negative exactly when a + b + β < 0 (p > q in the paper's terms) and is
clipped to <= 0, which keeps M non-singular outside that regime.  M is
factored once per attempted step (spheregrid.factor_shifted_laplacian).
Stationary states are exact: 𝓕 = 0 gives k1 = k2 = 0.

The step size h follows the local error estimate (h/2)(k1 + k2), measured as
max |est| / (ERR_TOL · (1 + |γ|)) and controlled as in Hairer & Wanner,
Solving ODEs II.  The first step is half of the explicit parabolic bound
min over nodes of (ρΔθ)² / (2 n D).  A guard failure at a trial stage or at
γ⁺ (geometry.star_shape_failure, then symfunc.cone_failure once F_fused's
cone mask fails) is not a state of the flow: the step is rejected like one
whose error is too large, and h shrinks.  Only when h falls below H_FLOOR
does the run abort, with the status and detail of the guard that fired last
(or diverged, when the error estimate alone forced h down).  Guard and radius
details name the first failing node.  γ is never filtered or clamped;
clipping Z changes only W, which a W-method leaves free.  A run therefore
ends in exactly one of five states: converged, diverged, cone_exit,
star_shape_lost, or time_cap.

run() is deterministic: identical configs and initial data reproduce
identical histories bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import diagnostics
from .geometry import GeometryState, assemble, star_shape_failure
from .speed import RHO_CEIL, RHO_FLOOR, G_from_table, SpeedSpec, psi_eval
from .spheregrid import Grid, factor_shifted_laplacian
from .symfunc import F_fused, _validate_spec, cone_failure, natural_cone

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

# local error tolerance of a step, relative to 1 + |γ|
ERR_TOL = 2e-5
# a run whose step size falls below this aborts
H_FLOOR = 1e-12
# ROS2's γ; L-stable for W equal to the Jacobian
ROS2_GAMMA = 1.0 + 1.0 / np.sqrt(2.0)
# the first step, as a fraction of the explicit bound
FIRST_STEP_FRACTION = 0.5


def psi_apply(mode: str, s):
    """Ψ(s): identity, or -1/s for the contracting normalization."""
    if mode == PSI_NEG_RECIPROCAL:
        return -1.0 / s
    return s


def psi_prime(mode: str, s):
    """Ψ'(s); strictly positive on s > 0 for both modes (the scalar 1.0 for
    the identity, which broadcasts against s)."""
    if mode == PSI_NEG_RECIPROCAL:
        return 1.0 / (np.asarray(s, dtype=float) ** 2)
    return 1.0


@dataclass
class FlowConfig:
    """Everything run() needs besides the initial profile."""

    grid: Grid
    F: object
    G: SpeedSpec
    beta: float
    psi_mode: str = PSI_IDENTITY
    t_max: float = 50.0
    tol_residual: float = 1e-6
    cadence: int = 50

    def __post_init__(self):
        for key in ("beta", "t_max", "tol_residual"):
            if not getattr(self, key) > 0.0:  # NaN fails too
                raise ValueError(f"{key} must be positive, got {getattr(self, key)}")
        # the scaling exponent of G / F^beta; the barrier radii divide by it
        if not np.isfinite(self.G.a + self.G.b + self.beta):
            raise ValueError(
                f"a + b + beta must be finite, got {self.G.a} + {self.G.b} + {self.beta}"
            )
        if self.psi_mode not in (PSI_IDENTITY, PSI_NEG_RECIPROCAL):
            raise ValueError(f"unknown psi mode {self.psi_mode!r}")
        if self.cadence < 1:
            raise ValueError("cadence must be a positive step count")
        _validate_spec(self.F, self.grid.n)
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
    # scaled error estimate of the step that produced this state; <= 1 passes
    error: float = 0.0
    # flat index of the node where that estimate is largest
    error_at: int = 0


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
    rejected_steps: int = 0
    detail: str = ""


def speed_field(config: FlowConfig, gamma: np.ndarray):
    """Pointwise speed Ψ(Q) - Ψ(1) plus what it was computed from.

    Returns (speed, Q, F values, λ_max(∂F/∂κ), geometry); the cone test, F
    and λ_max come from one σ sweep.  Raises FlowAbort when the profile stops
    being an admissible star-shaped graph, with the detail of
    star_shape_failure or cone_failure, which names the first offending node.
    """
    geom = assemble(config.grid, gamma)
    failure = star_shape_failure(geom)
    if failure is not None:
        raise FlowAbort(STATUS_STAR_SHAPE_LOST, failure)
    ok, f_val, lam = F_fused(config.F, geom.kappa)
    if not ok.all():
        raise FlowAbort(STATUS_CONE_EXIT, cone_failure(geom.kappa, natural_cone(config.F)))
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
    """First step FIRST_STEP_FRACTION · min((ρΔθ)² / (2 n D)) for D = diff, of
    the bound an explicit scheme would obey in θ.  Raises FlowAbort naming the
    first node whose bound is not a positive number when that minimum is not."""
    ds = geom.rho * config.grid.dtheta
    bound = ds * ds / (2.0 * config.grid.n * diff)
    dt = FIRST_STEP_FRACTION * float(bound.min())
    if not (np.isfinite(dt) and dt > 0.0):
        bad = ~(np.isfinite(bound) & (bound > 0.0))
        node = tuple(int(i) for i in np.unravel_index(int(bad.argmax()), bound.shape))
        detail = f"step-size bound degenerated to dt = {dt} at node {node}: "
        detail += f"D = {diff[node]:.6g}, rho = {geom.rho[node]:.6g}"
        raise FlowAbort(STATUS_DIVERGED, detail)
    return dt


def _step_factor(error: float) -> float:
    """Next h over this h: 0.9/√error, the controller of Hairer & Wanner for an
    error estimate of order h², kept within [0.2, 5]."""
    if not error > 0.0:
        return 5.0
    return min(5.0, max(0.2, 0.9 / float(np.sqrt(error))))


def step(config: FlowConfig, state: FlowState, h: float, first=None) -> FlowState:
    """One ROS2 W-step of size h; the result carries its scaled error estimate.

    first, when given, must be speed_field(config, state.gamma); passing it
    avoids recomputing the first stage.  Raises FlowAbort when the second
    stage fails a guard.
    """
    grid = config.grid
    speed, q, f_val, lam, geom = first if first is not None else speed_field(config, state.gamma)
    rows = grid.m_theta, -1
    a = (diffusivity(config, geom, q, f_val, lam) / geom.rho**2).reshape(rows).max(axis=1)
    G = config.G
    dilation = psi_prime(config.psi_mode, q) * q * (G.a + G.b + config.beta)
    z = np.minimum(dilation.reshape(rows).mean(axis=1), 0.0)
    gh = ROS2_GAMMA * h
    solve = factor_shifted_laplacian(grid, gh * a, gh * z)
    k1 = solve(speed)
    k2 = solve(speed_field(config, state.gamma + h * k1)[0] - 2.0 * k1)
    gamma = state.gamma + h * (1.5 * k1 + 0.5 * k2)
    est = (0.5 * h) * np.abs(k1 + k2) / (ERR_TOL * (1.0 + np.abs(state.gamma)))
    at = int(est.argmax())  # the first NaN, when there is one
    error = float(est.flat[at])
    if np.isnan(error):  # fails the error test like an infinite estimate
        error = float("inf")
    return FlowState(t=state.t + h, step=state.step + 1, gamma=gamma, error=error, error_at=at)


def run(config: FlowConfig, gamma0: np.ndarray, on_record=None) -> RunResult:
    """Drive the flow from gamma0 until one of the five terminal states.

    Each accepted state is tested for convergence, then for a radius outside
    [RHO_FLOOR, RHO_CEIL], then for the time cap.  The history holds one row
    for every step that is a multiple of config.cadence and one for a state
    that ends the run this way, each step at most once.  An abort (cone
    exit, star shape loss, a step size below H_FLOOR) reports the last
    accepted state, or the initial data when none was accepted, and records
    nothing more; a state that failed a guard is never returned.  on_record,
    when given, is called as on_record(state, record, geometry) right after
    each history row is appended; it must not mutate anything it is handed.
    """
    gamma0 = np.asarray(gamma0, dtype=float)
    if gamma0.shape != config.grid.shape:
        raise ValueError(
            f"initial field shape {gamma0.shape} does not match grid {config.grid.shape}"
        )
    t_start = time.perf_counter()
    state = FlowState(t=0.0, step=0, gamma=gamma0)
    history: list = []
    residual = float("inf")
    rejected = 0
    status, detail = None, ""

    # a forcing that overflows or underflows makes D inf, NaN or 0 at any
    # state: cfl_dt reports the step-0 bound that degenerates with it, and
    # after step 0 the guards and the error test reject such a step
    with np.errstate(all="ignore"):
        try:
            # the speed at the current state: its guard check and the next
            # step's first stage
            current = speed_field(config, gamma0)
            speed, q, f_val, lam, geom = current
            h = cfl_dt(config, geom, diffusivity(config, geom, q, f_val, lam))
        except FlowAbort as abort:
            status, detail = abort.status, abort.detail

        while status is None:
            speed, q, f_val, lam, geom = current
            residual = float(np.abs(speed).max())
            rho = geom.rho
            if residual <= config.tol_residual:
                status = STATUS_CONVERGED
            elif rho.min() < RHO_FLOOR or rho.max() > RHO_CEIL:
                status = STATUS_DIVERGED
                outside = (rho < RHO_FLOOR) | (rho > RHO_CEIL)
                node = tuple(int(i) for i in np.unravel_index(int(np.argmax(outside)), rho.shape))
                detail = (
                    f"radius left [{RHO_FLOOR:g}, {RHO_CEIL:g}] at node {node}: "
                    f"rho = {rho[node]:.3g} (range [{rho.min():.3g}, {rho.max():.3g}])"
                )
            elif state.t >= config.t_max:
                status = STATUS_TIME_CAP
            if status is not None or state.step % config.cadence == 0:
                history.append(diagnostics.snapshot(state.step, state.t, geom, q, f_val, residual))
                if on_record is not None:
                    on_record(state, history[-1], geom)
            if status is not None:
                break

            # attempt steps from state until one passes the error test and the
            # guards at γ⁺, whose speed is then the next step's first stage
            while True:
                last = h >= config.t_max - state.t
                h_try = config.t_max - state.t if last else h
                try:
                    trial = step(config, state, h_try, current)
                    error = trial.error
                    if error <= 1.0:
                        current = speed_field(config, trial.gamma)
                    else:
                        node = tuple(map(int, np.unravel_index(trial.error_at, config.grid.shape)))
                        reason = f"error estimate {error:.3g} times the tolerance at node {node}"
                        failure = STATUS_DIVERGED, reason
                except FlowAbort as abort:
                    error, failure = float("inf"), (abort.status, abort.detail)
                h = h_try * _step_factor(error)
                if error <= 1.0:
                    break
                rejected += 1
                if h < H_FLOOR:
                    break
            if error > 1.0:
                status = failure[0]
                detail = f"step size fell below {H_FLOOR:g} at t = {state.t:.6g}: {failure[1]}"
            else:
                state = replace(trial, t=config.t_max) if last else trial

    wall = time.perf_counter() - t_start
    return RunResult(
        status=status,
        state=state,
        history=history,
        residual=residual,
        steps=state.step,
        wall_seconds=wall,
        rejected_steps=rejected,
        detail=detail,
    )


# ---------------------------------------------------------------------------
# initial data


def _require_positive(**values) -> None:
    for name, value in values.items():
        if not (np.isfinite(value) and value > 0.0):  # NaN fails too
            raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class Constant:
    """Round sphere of radius R."""

    R: float

    def __post_init__(self):
        _require_positive(radius=self.R)


@dataclass(frozen=True)
class Spheroid:
    """Spheroid with equatorial semi-axis a and polar semi-axis b."""

    a: float
    b: float

    def __post_init__(self):
        _require_positive(a_axis=self.a, b_axis=self.b)


@dataclass(frozen=True)
class Perturbed:
    """Sphere of radius R with a single low-mode bump of the given amplitude."""

    R: float
    amplitude: float

    def __post_init__(self):
        _require_positive(radius=self.R)
        if not np.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude}")


def initial_gamma(kind, grid: Grid) -> np.ndarray:
    """Build a starting profile γ and validate it is a star-shaped graph.

    Constant:  γ = log R.
    Spheroid:  ρ(θ) = ab / sqrt(b² sin²θ + a² cos²θ).
    Perturbed: γ = log R + amplitude · ⟨ξ, v⟩, with v = e_z on axisym grids
               (cosθ) and v = e_x on full_s2 grids (sinθ cosφ).

    Raises ValueError, naming the first node and its u, when the profile is
    not a star-shaped graph.
    """
    if isinstance(kind, Constant):
        gamma = np.full(grid.shape, np.log(kind.R))
    elif isinstance(kind, Spheroid):
        st, ct = grid.sin_theta, grid.cos_theta
        rho = kind.a * kind.b / np.sqrt(kind.b**2 * st**2 + kind.a**2 * ct**2)
        gamma = np.broadcast_to(np.log(rho), grid.shape).copy()
    elif isinstance(kind, Perturbed):
        bump = grid.xi[..., 2 if grid.mode == "axisym" else 0]
        gamma = np.log(kind.R) + kind.amplitude * bump
    else:
        raise TypeError(f"unknown initial-data kind {kind!r}")

    # a huge γ overflows e^γ or |Dγ|²; the verdict reports it, not a warning
    with np.errstate(all="ignore"):
        failure = star_shape_failure(assemble(grid, gamma))
    if failure is not None:
        raise ValueError(f"initial profile is {failure}")
    return gamma
