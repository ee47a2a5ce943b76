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
clipped to <= 0, which keeps M non-singular outside that regime.  A Z_i that
overflowed to -inf rejects the step (status diverged): it would decouple row
i and freeze γ there with a zero error estimate.  M is
factored once per attempted step (spheregrid.factor_shifted_laplacian): on
axisym grids by one scalar Thomas sweep, since an axisym step is dominated by
per-call overhead and a vectorised solve spends ~100 numpy calls on a few
dozen rows, and on full_s2 grids by parallel cyclic reduction over all
φ-modes at once, where a scalar sweep would loop over every mode and row.
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

import math
import time
from typing import NamedTuple

import numpy as np

from . import diagnostics
from .geometry import GeometryState, assemble, star_shape_failure
from .speed import RHO_CEIL, RHO_FLOOR, SpeedSpec
from .spheregrid import Grid, factor_shifted_laplacian
from .symfunc import F_fused, check_spec, cone_failure, natural_cone

__all__ = [
    "PSI_IDENTITY",
    "PSI_NEG_RECIPROCAL",
    "psi_prime",
    "FlowConfig",
    "FlowState",
    "FlowAbort",
    "RunResult",
    "speed_terms",
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
# ROS2's γ, a root of γ² − 2γ + ½ = 0.  On a linear mode z = hλ with W equal
# to the Jacobian a step multiplies by R(z) = (1 + (1 − 2γ)z)/(1 − γz)².  Both
# roots give R(∞) = 0, but only 1 + 1/√2 keeps R(z) > 0 for every z < 0: with
# 1 − 1/√2 a step carries a decaying mode past zero once z < −2.414.
ROS2_GAMMA = 1.0 + 1.0 / math.sqrt(2.0)
# the first step, as a fraction of the explicit bound
FIRST_STEP_FRACTION = 0.5


def psi_prime(s):
    """Ψ'(s) = 1/s² of the contracting normalization Ψ(s) = -1/s, strictly
    positive on s > 0.  The identity's Ψ' is 1, so its callers skip it."""
    return 1.0 / (np.asarray(s, dtype=float) ** 2)


class FlowConfig:
    """Everything run() needs besides the initial profile."""

    grid: Grid
    F: object
    G: SpeedSpec
    beta: float
    psi_mode: str
    t_max: float
    tol_residual: float
    cadence: int

    def __init__(self, grid: Grid, F, G: SpeedSpec, beta: float, psi_mode: str = PSI_IDENTITY,
                 t_max: float = 50.0, tol_residual: float = 1e-6, cadence: int = 50):
        self.grid, self.F, self.G, self.beta, self.psi_mode = grid, F, G, beta, psi_mode
        self.t_max, self.tol_residual, self.cadence = t_max, tol_residual, cadence
        for key in ("beta", "t_max", "tol_residual"):
            if not getattr(self, key) > 0.0:  # NaN fails too
                raise ValueError(f"{key} must be positive, got {getattr(self, key)}")
        # a run would end at t = inf, which JSON cannot hold, and an infinite
        # tolerance would call any profile converged at step 0
        for key in ("t_max", "tol_residual"):
            if getattr(self, key) == math.inf:
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        # the scaling exponent of G / F^beta; the barrier radii divide by it
        if not np.isfinite(self.G.a + self.G.b + self.beta):
            raise ValueError(
                f"a + b + beta must be finite, got {self.G.a} + {self.G.b} + {self.beta}"
            )
        if self.psi_mode not in (PSI_IDENTITY, PSI_NEG_RECIPROCAL):
            raise ValueError(f"unknown psi mode {self.psi_mode!r}")
        if self.cadence < 1:
            raise ValueError("cadence must be a positive step count")
        check_spec(self.F, self.grid.n)
        # c ψ(ξ) at the grid nodes: the part of G that no step changes
        self.G_table = self.G.c * np.exp(self.grid.xi @ self.G.w)
        if self.grid.mode == "axisym" and not self.G.axis_aligned():
            raise ValueError(
                "axisym grids require every anisotropy direction to be the polar axis"
            )


class FlowState(NamedTuple):
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


class RunResult(NamedTuple):
    status: str
    state: FlowState
    history: list
    residual: float
    wall_seconds: float
    rejected_steps: int = 0
    detail: str = ""


def speed_terms(config: FlowConfig, geom: GeometryState):
    """(cone mask, F, λ_max(∂F/∂κ), Q = G·F^{-β}) at the nodes of geom, from
    one σ sweep and G = c ψ(ξ) u^a ρ^b with c ψ(ξ) from config.G_table; F,
    λ_max and Q mean nothing where the mask fails."""
    ok, f_val, lam = F_fused(config.F, geom.kappa)
    g = config.G_table
    if config.G.a != 0.0:
        g = g * geom.u**config.G.a
    if config.G.b != 0.0:
        g = g * geom.rho**config.G.b
    return ok, f_val, lam, g * f_val ** (-config.beta)


def speed_field(config: FlowConfig, gamma: np.ndarray):
    """Pointwise speed Ψ(Q) - Ψ(1) plus what it was computed from.

    Returns (speed, Q, F values, λ_max(∂F/∂κ), geometry), with Q, F and λ_max
    from speed_terms.  Raises FlowAbort when the profile stops being an
    admissible star-shaped graph, with the detail of star_shape_failure or
    cone_failure, which names the first offending node.
    """
    geom = assemble(config.grid, gamma)
    failure = star_shape_failure(geom)
    if failure is not None:
        raise FlowAbort(STATUS_STAR_SHAPE_LOST, failure)
    ok, f_val, lam, q = speed_terms(config, geom)
    if not np.logical_and.reduce(ok, axis=None):
        raise FlowAbort(STATUS_CONE_EXIT, cone_failure(geom.kappa, natural_cone(config.F)))
    # Ψ(Q) - Ψ(1), with Ψ(s) = -1/s read as 1 - 1/Q: the same bits
    speed = 1.0 - 1.0 / q if config.psi_mode == PSI_NEG_RECIPROCAL else q - 1.0
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
    d = config.beta * geom.u
    if config.psi_mode != PSI_IDENTITY:  # the identity's Ψ' is 1
        d = d * psi_prime(q)
    return d * q * lam / f_val


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
    return min(5.0, max(0.2, 0.9 / math.sqrt(error)))


def step(config: FlowConfig, state: FlowState, h: float, first=None) -> FlowState:
    """One ROS2 W-step of size h; the result carries its scaled error estimate.

    first, when given, must be speed_field(config, state.gamma); passing it
    avoids recomputing the first stage.  Raises FlowAbort when the second
    stage fails a guard, or when some Z_i is -inf (status diverged).
    """
    grid = config.grid
    speed, q, f_val, lam, geom = first if first is not None else speed_field(config, state.gamma)
    a = diffusivity(config, geom, q, f_val, lam) / geom.rho**2
    G = config.G
    pq = q if config.psi_mode == PSI_IDENTITY else psi_prime(q) * q
    dilation = pq * (G.a + G.b + config.beta)
    if grid.mode == "full_s2":  # one coefficient pair per latitude row
        a = np.maximum.reduce(a, axis=1)
        dilation = np.add.reduce(dilation, axis=1) / grid.m_phi
    z = np.minimum(dilation, 0.0)
    # an infinite Z_i would give row i an infinite diagonal in M and a finite
    # solve that freezes γ there with a zero error estimate
    z_rows = z.tolist()
    if -math.inf in z_rows:
        row = z_rows.index(-math.inf)
        raise FlowAbort(
            STATUS_DIVERGED,
            f"dilation Psi'(Q) Q (a + b + beta) overflowed to -inf in latitude row {row}",
        )
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
            residual = float(np.maximum.reduce(np.abs(speed), axis=None))
            rho = geom.rho
            rho_min = np.minimum.reduce(rho, axis=None)
            rho_max = np.maximum.reduce(rho, axis=None)
            if residual <= config.tol_residual:
                status = STATUS_CONVERGED
            elif rho_min < RHO_FLOOR or rho_max > RHO_CEIL:
                status = STATUS_DIVERGED
                outside = (rho < RHO_FLOOR) | (rho > RHO_CEIL)
                node = tuple(int(i) for i in np.unravel_index(int(np.argmax(outside)), rho.shape))
                detail = (
                    f"radius left [{RHO_FLOOR:g}, {RHO_CEIL:g}] at node {node}: "
                    f"rho = {rho[node]:.3g} (range [{rho_min:.3g}, {rho_max:.3g}])"
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
                state = trial._replace(t=config.t_max) if last else trial

    wall = time.perf_counter() - t_start
    return RunResult(
        status=status,
        state=state,
        history=history,
        residual=residual,
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


# the fields of each kind of initial data; the public class checks them in
# __new__, which a NamedTuple body may not define
class _Constant(NamedTuple):
    R: float


class Constant(_Constant):
    """Round sphere of radius R."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _require_positive(radius=self.R)
        return self


class _Spheroid(NamedTuple):
    a: float
    b: float


class Spheroid(_Spheroid):
    """Spheroid with equatorial semi-axis a and polar semi-axis b."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _require_positive(a_axis=self.a, b_axis=self.b)
        return self


class _Perturbed(NamedTuple):
    R: float
    amplitude: float


class Perturbed(_Perturbed):
    """Sphere of radius R with a single low-mode bump of the given amplitude."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _require_positive(radius=self.R)
        if not np.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude}")
        return self


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
