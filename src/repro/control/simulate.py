"""Batched worst-case tracking simulation with intersample checking.

Simulates the switched closed loop an application experiences under a
given schedule timing (paper Fig. 5), for a whole swarm of candidate
gain sets at once.  The scenario is the paper's most conservative one
(Section II-A/V): the reference step happens right after the sensing
instant of the application's *last* consecutive task, so the controller
only reacts after the long idle gap.

Exactness: state propagation uses the exact ZOH/delayed-ZOH matrices; in
between samples the continuous output is checked on a configurable
sub-grid whose observation maps are also exact (``y(t) = w·x_k +
s1·u_prev + s2·u_curr`` with precomputed ``w, s1, s2``), so settling is
measured on the continuous output, not only at sampling instants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ControlError
from .discretize import zoh_delayed
from .lifted import build_segments


@dataclass(frozen=True)
class _SegmentSim:
    """Full-step dynamics plus exact sub-grid observation maps."""

    ad: np.ndarray          # (l, l)
    b1: np.ndarray          # (l,)
    b2: np.ndarray          # (l,)
    obs_times: np.ndarray   # (s,) offsets within the segment, ascending
    obs_w: np.ndarray       # (s, l): y(t) state weights
    obs_s1: np.ndarray      # (s,): y(t) weight on u_prev
    obs_s2: np.ndarray      # (s,): y(t) weight on u_curr


@dataclass(frozen=True)
class SimulationPlan:
    """Precomputed timing-dependent data for tracking simulations.

    Building the plan is the expensive part (matrix exponentials); it is
    independent of the controller gains, so one plan serves a whole
    design search.
    """

    segments: tuple[_SegmentSim, ...]
    periods: tuple[float, ...]
    delays: tuple[float, ...]
    c: np.ndarray
    order: int

    @property
    def n_phases(self) -> int:
        """Number of tasks per hyperperiod (m)."""
        return len(self.segments)

    @property
    def hyperperiod(self) -> float:
        """Duration of one schedule hyperperiod for this application."""
        return float(sum(self.periods))

    @property
    def idle_gap(self) -> float:
        """The long sampling period ``h(m)`` preceding the first sample."""
        return self.periods[-1]

    def n_steps(self, horizon: float) -> int:
        """Sampling steps simulated for ``horizon``: whole hyperperiods
        covering it past the idle gap, at least one."""
        n_hyper = max(1, math.ceil((horizon - self.idle_gap) / self.hyperperiod))
        return n_hyper * self.n_phases


def build_simulation_plan(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    periods: list[float],
    delays: list[float],
    nsub: int = 4,
) -> SimulationPlan:
    """Precompute per-segment propagation and observation matrices.

    ``nsub`` intersample observation points are placed per segment (the
    actuation instant ``tau`` is always included as an extra point).
    """
    if nsub < 1:
        raise ControlError(f"nsub must be >= 1, got {nsub}")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    segments = build_segments(a, b, periods, delays)
    sims = []
    for seg in segments:
        grid = {seg.h * i / nsub for i in range(1, nsub + 1)}
        if 0.0 < seg.tau < seg.h:
            grid.add(seg.tau)
        times = np.array(sorted(grid))
        obs_w = np.empty((len(times), a.shape[0]))
        obs_s1 = np.empty(len(times))
        obs_s2 = np.empty(len(times))
        for i, t in enumerate(times):
            ad_t, b1_t, b2_t = zoh_delayed(a, b, t, min(seg.tau, t))
            obs_w[i] = c @ ad_t
            obs_s1[i] = c @ b1_t
            obs_s2[i] = c @ b2_t
        sims.append(
            _SegmentSim(seg.ad, seg.b1, seg.b2, times, obs_w, obs_s1, obs_s2)
        )
    return SimulationPlan(
        segments=tuple(sims),
        periods=tuple(float(h) for h in periods),
        delays=tuple(float(t) for t in delays),
        c=c,
        order=a.shape[0],
    )


@dataclass
class TrackingResult:
    """Batched outcome of a worst-case tracking simulation.

    ``settling`` is measured from the reference-step instant (i.e. it
    includes the idle gap before the first reacting sample) and is
    ``inf`` for trajectories still outside the band at the horizon.
    """

    settling: np.ndarray       # (P,)
    u_peak: np.ndarray         # (P,)
    final_error: np.ndarray    # (P,) |y - r| at the horizon
    times: np.ndarray | None = None    # (T,) absolute times (step = 0)
    outputs: np.ndarray | None = None  # (P, T)
    input_times: np.ndarray | None = None  # (S,) actuation instants
    inputs: np.ndarray | None = None       # (P, S) applied input levels

    def scalar_settling(self) -> float:
        """Settling time when the batch holds a single design."""
        if self.settling.shape[0] != 1:
            raise ControlError("scalar_settling() needs a single-design batch")
        return float(self.settling[0])


def simulate_tracking(
    plan: SimulationPlan,
    gains: np.ndarray,
    feedforward: np.ndarray,
    r: float,
    x0: np.ndarray,
    u0: float,
    horizon: float,
    band: float,
    clamp: float | None = None,
    record: bool = False,
) -> TrackingResult:
    """Simulate the worst-case tracking scenario for a batch of designs.

    Parameters
    ----------
    plan:
        Precomputed simulation plan for the application's timing.
    gains:
        Feedback gains, shape ``(P, m, l)`` (or ``(m, l)`` for one design).
    feedforward:
        Feedforward gains, shape ``(P, m)`` (or ``(m,)``).
    r:
        New reference value (the step target).
    x0:
        Plant state at the step instant (the old equilibrium).
    u0:
        Input level held when the step occurs (the old equilibrium input).
    horizon:
        Simulated duration *after* the step, in seconds.
    band:
        Absolute settling band: settled when ``|y - r| <= band``.
    clamp:
        When given, inputs are saturated to ``[-clamp, clamp]`` before
        application (the paper instead *designs* for non-saturation; the
        clamp supports robustness experiments).
    record:
        Keep full output/input trajectories (memory ~ P × steps).
    """
    gains = np.asarray(gains, dtype=float)
    feedforward = np.asarray(feedforward, dtype=float)
    if gains.ndim == 2:
        gains = gains[None, :, :]
    if feedforward.ndim == 1:
        feedforward = feedforward[None, :]
    n_batch, m, order = gains.shape
    if m != plan.n_phases or order != plan.order:
        raise ControlError(
            f"gains shape {gains.shape} does not match plan "
            f"(m={plan.n_phases}, l={plan.order})"
        )
    if feedforward.shape != (n_batch, m):
        raise ControlError(
            f"feedforward shape {feedforward.shape} does not match gains"
        )

    gap = plan.idle_gap
    x = np.tile(np.asarray(x0, dtype=float).reshape(1, -1), (n_batch, 1))
    u_prev = np.full(n_batch, float(u0))

    y_start = x @ plan.c
    violating0 = np.abs(y_start - r) > band
    # The step occurred `gap` seconds before the first sample; during the
    # gap the output sat at y_start.  Encode "violating through the gap"
    # as a last-violation time of 0 (first-sample instant).
    last_violation = np.where(violating0, 0.0, -gap)
    u_peak = np.zeros(n_batch)

    times_acc: list[np.ndarray] = []
    outputs_acc: list[np.ndarray] = []
    input_times_acc: list[float] = []
    inputs_acc: list[np.ndarray] = []
    if record:
        times_acc.append(np.array([0.0]))
        outputs_acc.append(y_start[:, None])

    t_segment_start = 0.0
    for step in range(plan.n_steps(horizon)):
        phase = step % m
        seg = plan.segments[phase]
        u_curr = np.einsum("pl,pl->p", gains[:, phase, :], x) + feedforward[:, phase] * r
        if clamp is not None:
            u_curr = np.clip(u_curr, -clamp, clamp)
        u_peak = np.maximum(u_peak, np.abs(u_curr))

        # Exact intersample outputs at the observation grid.
        y_sub = (
            x @ seg.obs_w.T
            + u_prev[:, None] * seg.obs_s1[None, :]
            + u_curr[:, None] * seg.obs_s2[None, :]
        )
        t_abs = t_segment_start + seg.obs_times
        violating = np.abs(y_sub - r) > band
        candidate = np.where(violating, t_abs[None, :], -np.inf).max(axis=1)
        last_violation = np.maximum(last_violation, candidate)

        if record:
            times_acc.append(t_abs)
            outputs_acc.append(y_sub)
            input_times_acc.append(t_segment_start + plan.delays[phase])
            inputs_acc.append(u_curr.copy())

        x = x @ seg.ad.T + np.outer(u_prev, seg.b1) + np.outer(u_curr, seg.b2)
        u_prev = u_curr
        t_segment_start += plan.periods[phase]

    final_y = x @ plan.c
    final_error = np.abs(final_y - r)
    t_final = t_segment_start
    # A trajectory still violating at the last grid instant (== t_final,
    # every segment's grid ends on its boundary) has not provably settled
    # within the horizon.
    settled = last_violation < t_final - 1e-15
    settling = np.where(settled, last_violation + gap, np.inf)

    result = TrackingResult(
        settling=settling,
        u_peak=u_peak,
        final_error=final_error,
    )
    if record:
        # Shift recorded times so t = 0 is the reference step.
        result.times = np.concatenate([t + gap for t in times_acc])
        result.times[0] = 0.0  # the pre-gap equilibrium point
        result.outputs = np.concatenate(outputs_acc, axis=1)
        result.input_times = np.asarray(input_times_acc) + gap
        result.inputs = np.stack(inputs_acc, axis=1) if inputs_acc else None
    return result
