"""Vectorized batch controller design (lockstep across design units).

The schedule search spends essentially all of its time inside
:func:`repro.control.design.design_controller`: PSO over pole targets,
Ackermann placement per task, a lifted-eigenvalue stability check and a
switched closed-loop simulation, all repeated per (application, timing)
pair and per restart.  This module runs *many* of those design problems
at once: one "design unit" per (problem, restart), all swarms advanced
in lockstep by :func:`repro.control.pso.pso_minimize_many`, and every
per-particle numerical stage replaced by a stacked-array twin that
processes the whole unit batch per call.

Serial-oracle contract
----------------------
The serial path (``design_controller`` and everything under it) is the
oracle; this module never replaces it and must reproduce it exactly.
The batched twins re-execute the *same* floating-point operations in the
same order: every BLAS/LAPACK call is issued with the same shapes the
serial path uses (per-unit ``(P, l)`` blocks, stacked gufunc batches
whose per-slice kernels match the serial calls), element-wise work is
fused across units (single-rounded IEEE ops are shape-independent), and
the two steps of stage A that are not a single BLAS or ufunc call —
the continuous poles of a parameter vector and the characteristic
polynomial of a pole set — are shared helpers that the serial path
calls with a batch of one.  The polynomial helper evaluates
``np.poly``'s convolution recurrence element-wise: each output of
``np.convolve(a, [1, -z])`` is a complex dot product against
``(-z, 1 + 0j)``, and since every product in it except ``a' (-z)``
has a factor of exactly 1 or 0, the dot kernel's fused multiply-adds
reduce to separately rounded operations that element-wise NumPy
arithmetic reproduces (see
:func:`repro.control.ackermann._poly_recurrence`).  On any one machine
the two paths therefore agree bit-for-bit; tests assert exact equality,
not tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ControlError, DesignInfeasibleError
from .ackermann import _real_coefficients_batch, controllability_matrix
from .design import (
    ControllerDesign,
    DesignOptions,
    TrackingSpec,
    _continuous_poles_batch,
    _GainEvaluator,
    _StageA,
    design_controller,
)
from .lifted import Segment, build_segments
from .lti import LtiPlant
from .pso import pso_minimize_many
from .simulate import build_simulation_plan


@dataclass(frozen=True)
class DesignRequest:
    """One (plant, timing, spec) controller-design problem."""

    plant: LtiPlant
    periods: tuple[float, ...]
    delays: tuple[float, ...]
    spec: TrackingSpec
    options: DesignOptions


class _SegmentPlacer:
    """Hoisted Ackermann constants for one (unit, segment).

    Everything in :func:`place_poles_siso` that does not depend on the
    pole targets — the controllability matrix, its conditioning test,
    the powers of ``A`` and the solve against ``e_l`` — is constant per
    segment, so it is computed once and reused for every particle.
    """

    def __init__(self, segment: Segment, rcond: float = 1e-12) -> None:
        a = np.atleast_2d(np.asarray(segment.ad, dtype=float))
        b = np.asarray(segment.b1 + segment.b2, dtype=float).reshape(-1)
        self.h = segment.h
        order = a.shape[0]
        ctrb = controllability_matrix(a, b)
        scale = np.abs(ctrb).max()
        self.uncontrollable = bool(
            scale == 0 or 1.0 / np.linalg.cond(ctrb) < rcond
        )
        # Zero placeholders keep uncontrollable segments stackable; their
        # particles are all marked bad.
        self.powers = np.zeros((order + 1, order, order))
        self.k_solve = np.zeros(order)
        if self.uncontrollable:
            return
        # Powers eye, A, A^2, ... exactly as the serial phi(A) loop
        # generates them (eye @ A, then repeated right-multiplication).
        self.powers[0] = np.eye(order)
        for i in range(order):
            self.powers[i + 1] = self.powers[i] @ a
        last_row = np.zeros(order)
        last_row[-1] = 1.0
        self.k_solve = np.linalg.solve(ctrb.T, last_row)


class _PlacementGroup:
    """Stacked stage-A pole placement across units of one plant order.

    Every (unit, segment, particle) triple is one row: the continuous
    poles of all particles, their discrete images ``exp(s h)``, the
    characteristic coefficients (through the same helper the serial
    :func:`place_poles_siso` uses), ``phi(A)`` in the serial power order
    and one stacked ``k_solve @ phi`` product whose per-slice kernel is
    the serial vector-matrix call.
    """

    def __init__(self, stage_as: list[_StageA], unit_indices: list[int]) -> None:
        self.unit_indices = unit_indices
        self.order = stage_as[0].order
        self.m_list = [stage_a.m for stage_a in stage_as]
        offsets = [0]
        for m in self.m_list:
            offsets.append(offsets[-1] + m)
        self.offsets = offsets
        placers = [
            _SegmentPlacer(seg)
            for stage_a in stage_as
            for seg in stage_a.evaluator.segments
        ]
        # Unit owning each flat segment, for gathering its particles' poles.
        self.segment_unit = np.repeat(np.arange(len(stage_as)), self.m_list)
        self.h = np.array([placer.h for placer in placers])[:, None, None]
        self.uncontrollable = np.array(
            [placer.uncontrollable for placer in placers]
        )[:, None]
        self.powers = np.stack([placer.powers for placer in placers])
        self.k_solve = np.stack([placer.k_solve for placer in placers])

    def run(self, thetas: list[np.ndarray], gains_out: list, bad_out: list) -> None:
        n_batch = thetas[0].shape[0]
        poles = _continuous_poles_batch(np.concatenate(thetas), self.order)
        poles = poles.reshape(len(thetas), n_batch, self.order)
        placed, bad = self.place(np.exp(poles[self.segment_unit] * self.h))
        for u, lo in enumerate(self.offsets[:-1]):
            hi = lo + self.m_list[u]
            unit_bad = bad[lo:hi].any(axis=0)
            gains = placed[lo:hi].transpose(1, 0, 2).copy()
            gains[unit_bad] = 0.0
            gains_out[self.unit_indices[u]] = gains
            bad_out[self.unit_indices[u]] = unit_bad

    def place(self, desired: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gain rows ``(S, P, l)`` for discrete pole sets ``(S, P, l)``.

        ``S`` runs over the group's flat segments.  Returns the rows and
        the ``(S, P)`` mask of placements the serial path rejects.
        """
        order = self.order
        n_segments, n_batch = desired.shape[:2]
        coefficients, bad = _real_coefficients_batch(
            desired.reshape(n_segments * n_batch, order)
        )
        coefficients = coefficients.reshape(n_segments, n_batch, order + 1)
        bad = bad.reshape(n_segments, n_batch) | self.uncontrollable
        # phi(A) = A^l + c_1 A^{l-1} + ... + c_l I, summed from c_l I up.
        phi = np.zeros((n_segments, n_batch, order, order))
        for i in range(order + 1):
            phi += (
                coefficients[:, :, order - i, None, None]
                * self.powers[:, None, i, :, :]
            )
        k_rows = np.ascontiguousarray(
            np.broadcast_to(
                self.k_solve[:, None, None, :], (n_segments, n_batch, 1, order)
            )
        )
        return -np.matmul(k_rows, phi)[:, :, 0, :], bad


class _StackedStageA:
    """Order-grouped dispatcher over :class:`_PlacementGroup`.

    Stacked twin of ``_StageA``'s per-particle gain construction: one
    call yields every unit's gains ``(P, m, l)`` and infeasible-particle
    mask, with bad particles' gains zeroed.
    """

    def __init__(self, stage_as: list[_StageA]) -> None:
        self.n_units = len(stage_as)
        by_order: dict[int, list[int]] = {}
        for i, stage_a in enumerate(stage_as):
            by_order.setdefault(stage_a.order, []).append(i)
        self.groups = [
            _PlacementGroup([stage_as[i] for i in indices], indices)
            for indices in by_order.values()
        ]

    def gains_batch(self, thetas: list[np.ndarray]):
        gains: list = [None] * self.n_units
        bad: list = [None] * self.n_units
        for group in self.groups:
            group.run([thetas[i] for i in group.unit_indices], gains, bad)
        return gains, bad


class _FeedforwardGroup:
    """Fused feedforward gains (paper eq. 17) across units of one order.

    Stacks every (unit, segment) pair into one flat axis so the whole
    batch needs a single outer product, one stacked determinant, one
    stacked solve and one stacked matrix-vector product — all gufuncs
    whose per-slice kernels are exactly the serial
    ``_GainEvaluator.feedforward_batch`` calls.
    """

    def __init__(self, evaluators: list[_GainEvaluator], unit_indices: list[int]) -> None:
        self.unit_indices = unit_indices
        self.m_list = [ge.m for ge in evaluators]
        offsets = [0]
        for m in self.m_list:
            offsets.append(offsets[-1] + m)
        self.offsets = offsets
        order = evaluators[0].order
        self.order = order
        self.ff_a = np.concatenate([ge._ff_a for ge in evaluators], axis=0)
        self.ff_b = np.concatenate([ge._ff_b for ge in evaluators], axis=0)
        self.c = np.concatenate(
            [
                np.ascontiguousarray(
                    np.broadcast_to(ge.plant.c, (m, order))
                )
                for ge, m in zip(evaluators, self.m_list)
            ],
            axis=0,
        )
        self.eye = np.eye(order)

    def run(self, gains: list[np.ndarray], f_out: list, invalid_out: list) -> None:
        order = self.order
        n_flat = self.ff_a.shape[0]
        n_batch = gains[0].shape[0]
        g = np.empty((n_flat, n_batch, order))
        for u, lo in enumerate(self.offsets[:-1]):
            g[lo:lo + self.m_list[u]] = gains[u].transpose(1, 0, 2)
        # M = I - Ad - Gamma K per (unit, segment, particle); the einsum
        # is a pure outer product, element-wise identical to the serial
        # per-segment call.
        mats = self.ff_a[:, None, :, :] - np.einsum(
            "fl,fpk->fplk", self.ff_b, g
        )
        dets = np.linalg.det(mats)
        bad = np.abs(dets) < 1e-12
        safe = mats.copy()
        safe[bad] = self.eye
        rhs = np.broadcast_to(
            self.ff_b[:, None, :, None], (n_flat, n_batch, order, 1)
        )
        solved = np.linalg.solve(safe, rhs)[..., 0]
        denom = np.matmul(solved, self.c[:, :, None])[..., 0]
        bad |= np.abs(denom) < 1e-12
        f_flat = np.where(bad, 0.0, 1.0 / np.where(bad, 1.0, denom))
        for u, lo in enumerate(self.offsets[:-1]):
            hi = lo + self.m_list[u]
            out = self.unit_indices[u]
            f_out[out] = np.ascontiguousarray(f_flat[lo:hi].T)
            invalid_out[out] = bad[lo:hi].any(axis=0)


class _LiftedBatch:
    """Stacked construction of the lifted ``A_hol`` for a particle batch.

    Mirrors :func:`repro.control.lifted.lifted_closed_loop` term by term:
    matrix products become stacked gufunc matmuls (per-slice kernels
    identical to the serial 2-D calls), outer products and additions stay
    element-wise and fuse across particles.
    """

    def __init__(self, segments: list[Segment]) -> None:
        self.segments = segments
        self.m = len(segments)
        self.order = segments[0].ad.shape[0]
        self.dim = self.order + 1 if self.m == 1 else self.m * self.order
        # Gain-independent stacks (broadcast A_d copies, basis selectors)
        # keyed by particle count; they are only ever read, so reuse
        # across evaluate calls is safe.
        self._static: dict[int, tuple] = {}

    def _static_for(self, n_batch: int) -> tuple:
        cached = self._static.get(n_batch)
        if cached is not None:
            return cached
        m, order, dim = self.m, self.order, self.dim
        ad_b = [
            np.ascontiguousarray(
                np.broadcast_to(seg.ad, (n_batch, order, order))
            )
            for seg in self.segments
        ]
        basis = []
        for j in range(m):
            coeff = np.zeros((n_batch, order, dim))
            coeff[:, :, j * order:(j + 1) * order] = np.eye(order)
            basis.append(coeff)
        cached = (ad_b, basis)
        self._static[n_batch] = cached
        return cached

    def build(self, gains: np.ndarray) -> np.ndarray:
        """Stacked ``A_hol`` ``(P, dim, dim)`` for gains ``(P, m, l)``.

        Only the state coefficients of the serial expressions are built:
        the reference terms feed ``G``, which the stability check never
        reads.
        """
        m, order = self.m, self.order
        n_batch = gains.shape[0]
        segments = self.segments
        if m == 1:
            seg = segments[0]
            k = gains[:, 0, :]
            a_hol = np.zeros((n_batch, order + 1, order + 1))
            a_hol[:, :order, :order] = (
                seg.ad[None, :, :] + seg.b2[None, :, None] * k[:, None, :]
            )
            a_hol[:, :order, order] = seg.b1[None, :]
            a_hol[:, order, :order] = k
            return a_hol

        dim = self.dim
        ad_b, basis = self._static_for(n_batch)
        g_rows = [
            np.ascontiguousarray(gains[:, j, :])[:, None, :] for j in range(m)
        ]

        def input_coeff(j, coeff):
            return np.matmul(g_rows[j], coeff)[:, 0, :]

        u_prev_hp = [input_coeff(j, basis[j]) for j in range(m)]

        seg_long = segments[m - 1]
        coeff = (
            np.matmul(ad_b[m - 1], basis[m - 1])
            + seg_long.b1[None, :, None] * u_prev_hp[m - 2][:, None, :]
            + seg_long.b2[None, :, None] * u_prev_hp[m - 1][:, None, :]
        )
        new_coeffs = [coeff]

        new_inputs = [input_coeff(0, coeff)]
        for j in range(m - 1):
            seg = segments[j]
            active = u_prev_hp[m - 1] if j == 0 else new_inputs[j - 1]
            coeff = (
                np.matmul(ad_b[j], new_coeffs[j])
                + seg.b1[None, :, None] * active[:, None, :]
            )
            if seg.has_inner_actuation:
                coeff = coeff + seg.b2[None, :, None] * new_inputs[j][:, None, :]
            new_coeffs.append(coeff)
            if j + 2 < m:  # the last input only acts next hyperperiod
                new_inputs.append(input_coeff(j + 1, coeff))

        a_hol = np.empty((n_batch, dim, dim))
        for j, coeff in enumerate(new_coeffs):
            a_hol[:, j * order:(j + 1) * order, :] = coeff
        return a_hol


class _TrackingGroup:
    """Fused tracking simulation for units sharing one plant order.

    One global time loop advances every unit's trajectory batch at once:
    the two per-segment matrix products keep their serial shapes (issued
    per active unit on its contiguous ``(P, l)`` block), while the input
    law, intersample band checks, state updates and settling bookkeeping
    fuse across all units via gathered per-step coefficient tables.
    Units that reach their own horizon are frozen by masking.
    """

    def __init__(self, evaluators: list[_GainEvaluator], unit_indices: list[int]) -> None:
        self.evaluators = evaluators
        self.unit_indices = unit_indices
        n_units = len(evaluators)
        order = evaluators[0].plan.order
        self.order = order
        self.m_list = [ge.plan.n_phases for ge in evaluators]
        # Flat slot 0 is a dedicated all-zero segment for frozen units:
        # zero gains/coefficients and t = -inf observation times make the
        # fused update a no-op there without per-array masking.
        offsets = [1]
        for m in self.m_list:
            offsets.append(offsets[-1] + m)
        self.offsets = offsets
        total_m = offsets[-1]

        self.r = np.array([float(ge.spec.r) for ge in evaluators])
        self.band = np.array([ge.spec.band for ge in evaluators])
        self.gap = np.array([ge.plan.idle_gap for ge in evaluators])
        self.u0 = np.array([float(ge.u0) for ge in evaluators])
        self.x0 = np.stack(
            [np.asarray(ge.x0, dtype=float).reshape(-1) for ge in evaluators]
        )
        self.c_list = [ge.plan.c for ge in evaluators]

        steps = []
        for ge in evaluators:
            gap = ge.plan.idle_gap
            hyper = ge.plan.hyperperiod
            n_hyper = max(1, math.ceil((ge.horizon - gap) / hyper))
            steps.append(n_hyper * ge.plan.n_phases)
        self.steps = steps
        self.max_steps = max(steps)

        segment_objs = [None]
        for ge in evaluators:
            segment_objs.extend(ge.plan.segments)
        self.segment_objs = segment_objs
        self.n_obs = [0] + [
            len(seg.obs_times) for seg in segment_objs[1:]
        ]
        s_max = max(self.n_obs)
        self.s_max = s_max
        self.b1 = np.zeros((total_m, order))
        self.b2 = np.zeros((total_m, order))
        self.s1 = np.zeros((total_m, s_max))
        self.s2 = np.zeros((total_m, s_max))
        # Padded observation slots carry t = -inf so whatever garbage the
        # padded output columns hold can never become a violation time.
        self.obs_t = np.full((total_m, s_max), -np.inf)
        self.periods = np.zeros(total_m)
        flat = 1
        for u, ge in enumerate(evaluators):
            for j, seg in enumerate(ge.plan.segments):
                count = len(seg.obs_times)
                self.b1[flat] = seg.b1
                self.b2[flat] = seg.b2
                self.s1[flat, :count] = seg.obs_s1
                self.s2[flat, :count] = seg.obs_s2
                self.obs_t[flat, :count] = seg.obs_times
                self.periods[flat] = ge.plan.periods[j]
                flat += 1

        # Per-step gather tables: flat segment index per unit (slot 0 for
        # frozen units) plus the active mask.
        self.seg_index = np.zeros((self.max_steps, n_units), dtype=np.intp)
        self.active = np.zeros((self.max_steps, n_units), dtype=bool)
        for k in range(self.max_steps):
            for u in range(n_units):
                if k < steps[u]:
                    self.seg_index[k, u] = offsets[u] + k % self.m_list[u]
                    self.active[k, u] = True

        # The step-k coefficient pattern is static, so expand it once:
        # stacked A_d per step (identity for frozen units — the result is
        # masked out anyway) used through a transpose view so each slice
        # presents the same layout as the serial ``x @ ad.T`` call, and
        # observation-map stacks sub-grouped by grid size so the fused
        # matmul never pads a GEMM shape.
        ad_steps = np.empty((self.max_steps, n_units, order, order))
        self.obs_groups: list[list[tuple[np.ndarray, np.ndarray, int]]] = []
        for k in range(self.max_steps):
            by_size: dict[int, list[int]] = {}
            for u in range(n_units):
                if self.active[k, u]:
                    flat = self.seg_index[k, u]
                    ad_steps[k, u] = self.segment_objs[flat].ad
                    by_size.setdefault(self.n_obs[flat], []).append(u)
                else:
                    ad_steps[k, u] = np.eye(order)
            groups = []
            for count, members in by_size.items():
                stack = np.stack(
                    [
                        self.segment_objs[self.seg_index[k, u]].obs_w
                        for u in members
                    ]
                )
                groups.append(
                    (np.array(members), stack.transpose(0, 2, 1), count)
                )
            self.obs_groups.append(groups)
        self.ad_t_steps = [
            ad_steps[k].transpose(0, 2, 1) for k in range(self.max_steps)
        ]
        self.s1_steps = self.s1[self.seg_index][:, :, None, :]
        self.s2_steps = self.s2[self.seg_index][:, :, None, :]
        self.b1_steps = self.b1[self.seg_index][:, :, None, :]
        self.b2_steps = self.b2[self.seg_index][:, :, None, :]
        self.obs_t_steps = self.obs_t[self.seg_index]
        self.period_steps = self.periods[self.seg_index]

    def run(
        self,
        gains: list[np.ndarray],
        feedforwards: list[np.ndarray],
        settling_out: list,
        u_peak_out: list,
        final_error_out: list,
    ) -> None:
        n_units = len(self.evaluators)
        order = self.order
        n_batch = gains[0].shape[0]
        total = n_units * n_batch
        total_m = self.b1.shape[0]

        g_flat = np.empty((total_m, n_batch, order))
        f_flat = np.empty((total_m, n_batch))
        g_flat[0] = 0.0
        f_flat[0] = 0.0
        for u in range(n_units):
            lo, m = self.offsets[u], self.m_list[u]
            g_flat[lo:lo + m] = gains[u].transpose(1, 0, 2)
            f_flat[lo:lo + m] = feedforwards[u].transpose(1, 0)

        x = np.empty((n_units, n_batch, order))
        x[:] = self.x0[:, None, :]
        u_prev = np.empty((n_units, n_batch))
        u_prev[:] = self.u0[:, None]
        y_start = np.empty((n_units, n_batch))
        for u in range(n_units):
            y_start[u] = x[u] @ self.c_list[u]
        violating0 = np.abs(y_start - self.r[:, None]) > self.band[:, None]
        last_violation = np.where(violating0, 0.0, (-self.gap)[:, None])
        u_peak = np.zeros((n_units, n_batch))
        t_start = np.zeros(n_units)
        y_buf = np.empty((n_units, n_batch, self.s_max))
        r3 = self.r[:, None, None]
        band3 = self.band[:, None, None]

        # Frozen/padded rows legitimately produce inf/nan garbage that the
        # masks discard; silence only those spurious warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(self.max_steps):
                seg_idx = self.seg_index[k]
                active = self.active[k]
                active2 = active[:, None]
                g_step = g_flat[seg_idx]
                f_step = f_flat[seg_idx]
                u_curr = (
                    np.einsum(
                        "pl,pl->p",
                        g_step.reshape(total, order),
                        x.reshape(total, order),
                    ).reshape(n_units, n_batch)
                    + f_step * self.r[:, None]
                )
                u_peak = np.where(
                    active2, np.maximum(u_peak, np.abs(u_curr)), u_peak
                )

                for members, obs_w_t, count in self.obs_groups[k]:
                    y_buf[members, :, :count] = np.matmul(x[members], obs_w_t)
                y_sub = (
                    y_buf
                    + u_prev[:, :, None] * self.s1_steps[k]
                    + u_curr[:, :, None] * self.s2_steps[k]
                )
                t_abs = t_start[:, None] + self.obs_t_steps[k]
                violating = np.abs(y_sub - r3) > band3
                candidate = np.where(
                    violating, t_abs[:, None, :], -np.inf
                ).max(axis=2)
                # Frozen units gather slot 0, whose t = -inf observation
                # times make their candidate -inf — no mask needed here.
                last_violation = np.maximum(last_violation, candidate)

                x_new = (
                    np.matmul(x, self.ad_t_steps[k])
                    + u_prev[:, :, None] * self.b1_steps[k]
                    + u_curr[:, :, None] * self.b2_steps[k]
                )
                x = np.where(active2[:, :, None], x_new, x)
                u_prev = np.where(active2, u_curr, u_prev)
                # Slot 0 has period 0.0, so frozen clocks stay put.
                t_start = t_start + self.period_steps[k]

        for u in range(n_units):
            final_y = x[u] @ self.c_list[u]
            final_error = np.abs(final_y - self.r[u])
            t_final = float(t_start[u])
            settled = last_violation[u] < t_final - 1e-15
            settling = np.where(
                settled, last_violation[u] + self.gap[u], np.inf
            )
            out = self.unit_indices[u]
            settling_out[out] = settling
            u_peak_out[out] = u_peak[u].copy()
            final_error_out[out] = final_error


class _StackedTracking:
    """Order-grouped dispatcher over :class:`_TrackingGroup`."""

    def __init__(self, evaluators: list[_GainEvaluator]) -> None:
        self.n_units = len(evaluators)
        by_order: dict[int, list[int]] = {}
        for i, ge in enumerate(evaluators):
            by_order.setdefault(ge.plan.order, []).append(i)
        self.groups = [
            _TrackingGroup([evaluators[i] for i in indices], indices)
            for indices in by_order.values()
        ]

    def run(self, gains: list[np.ndarray], feedforwards: list[np.ndarray]):
        settling = [None] * self.n_units
        u_peak = [None] * self.n_units
        final_error = [None] * self.n_units
        for group in self.groups:
            group.run(
                [gains[i] for i in group.unit_indices],
                [feedforwards[i] for i in group.unit_indices],
                settling,
                u_peak,
                final_error,
            )
        return settling, u_peak, final_error


class BatchGainEvaluator:
    """Fused twin of ``_GainEvaluator.evaluate`` across design units.

    Takes one gain batch per unit (all with the same particle count) and
    returns one result dict per unit, identical to what each unit's own
    ``_GainEvaluator.evaluate`` would have produced.  Feedforward gains
    reuse the serial per-unit batch routine; the stability check batches
    the lifted-matrix eigenvalue problems across units of equal lifted
    dimension; the tracking simulations run through one fused time loop
    per plant order.  Evaluation counters on the unit evaluators advance
    exactly as in serial runs.
    """

    def __init__(self, evaluators: list[_GainEvaluator]) -> None:
        self.evaluators = evaluators
        self._tracking = _StackedTracking(evaluators)
        self._lifts = [_LiftedBatch(ge.segments) for ge in evaluators]
        by_dim: dict[int, list[int]] = {}
        for i, lift in enumerate(self._lifts):
            by_dim.setdefault(lift.dim, []).append(i)
        self._dim_groups = list(by_dim.values())
        by_order: dict[int, list[int]] = {}
        for i, ge in enumerate(evaluators):
            by_order.setdefault(ge.order, []).append(i)
        self._ff_groups = [
            _FeedforwardGroup([evaluators[i] for i in indices], indices)
            for indices in by_order.values()
        ]

    def _spectral_radii(self, gains: list[np.ndarray]):
        radii = [None] * len(self.evaluators)
        for group in self._dim_groups:
            stacked = np.concatenate(
                [self._lifts[i].build(gains[i]) for i in group], axis=0
            )
            magnitudes = np.abs(np.linalg.eigvals(stacked))
            rho = magnitudes.max(axis=1)
            offset = 0
            for i in group:
                count = gains[i].shape[0]
                radii[i] = rho[offset:offset + count]
                offset += count
        return radii

    def evaluate(self, gains_list: list[np.ndarray]) -> list[dict[str, np.ndarray]]:
        gains_list = [np.asarray(gains, dtype=float) for gains in gains_list]
        for ge, gains in zip(self.evaluators, gains_list):
            ge.n_evaluations += gains.shape[0]
        feedforwards: list = [None] * len(self.evaluators)
        invalids: list = [None] * len(self.evaluators)
        for group in self._ff_groups:
            group.run(
                [gains_list[i] for i in group.unit_indices],
                feedforwards,
                invalids,
            )
        radii = self._spectral_radii(gains_list)
        settling, u_peak, _final_error = self._tracking.run(
            gains_list, feedforwards
        )
        results = []
        for i, ge in enumerate(self.evaluators):
            objective = np.where(
                np.isfinite(settling[i]), settling[i], ge.big
            )
            unstable = radii[i] >= 1.0
            objective = objective + np.where(
                unstable,
                ge.big * (1.0 + np.minimum(radii[i] - 1.0, 10.0)),
                0.0,
            )
            saturated = u_peak[i] > ge.spec.u_max
            with np.errstate(divide="ignore", invalid="ignore"):
                excess = np.where(
                    saturated,
                    np.minimum(u_peak[i] / ge.spec.u_max - 1.0, 100.0),
                    0.0,
                )
            objective = objective + np.where(
                saturated, 0.2 * ge.big * (1.0 + excess), 0.0
            )
            objective = objective + np.where(invalids[i], 2.0 * ge.big, 0.0)
            results.append(
                {
                    "objective": objective,
                    "settling": settling[i],
                    "u_peak": u_peak[i],
                    "rho": radii[i],
                    "feedforward": feedforwards[i],
                    "invalid": invalids[i],
                }
            )
        return results


class _DesignUnit:
    """One (request, restart) pair advancing through the lockstep stages."""

    def __init__(self, request_index, restart, request, segments, plan, horizon):
        self.request_index = request_index
        self.restart = restart
        self.plant = request.plant
        self.options = request.options
        self.rng = np.random.default_rng(
            request.options.seed + 104729 * restart
        )
        self.evaluator = _GainEvaluator(
            request.plant, segments, plan, request.spec, horizon
        )
        self.stage_a = _StageA(self.evaluator, request.options)
        self.gains: np.ndarray | None = None
        self.refined: np.ndarray | None = None
        self.design: ControllerDesign | None = None


def _design_lockstep_group(
    requests: list[DesignRequest],
    indices: list[int],
    designs_out: list[ControllerDesign | None],
) -> None:
    units: list[_DesignUnit] = []
    for i in indices:
        request = requests[i]
        plant = request.plant
        options = request.options
        segments = build_segments(
            plant.a, plant.b, list(request.periods), list(request.delays)
        )
        plan = build_simulation_plan(
            plant.a,
            plant.b,
            plant.c,
            list(request.periods),
            list(request.delays),
            nsub=options.nsub,
        )
        horizon = options.horizon_factor * request.spec.deadline + plan.idle_gap
        for restart in range(options.restarts):
            units.append(
                _DesignUnit(i, restart, request, segments, plan, horizon)
            )
    options = units[0].options
    batch_eval = BatchGainEvaluator([unit.evaluator for unit in units])
    placement = _StackedStageA([unit.stage_a for unit in units])

    def stage_a_objective(positions_list):
        gains, bad = placement.gains_batch(positions_list)
        results = batch_eval.evaluate(gains)
        values = []
        for unit, unit_bad, result in zip(units, bad, results):
            objective = result["objective"]
            objective[unit_bad] = 4.0 * unit.evaluator.big
            values.append(objective)
        return values

    problems = [
        (
            unit.stage_a.lower,
            unit.stage_a.upper,
            unit.rng,
            unit.stage_a.default_seeds(),
        )
        for unit in units
    ]
    results_a = pso_minimize_many(stage_a_objective, problems, options.stage_a)

    for unit, result in zip(units, results_a):
        unit.gains = unit.stage_a.gains_for(result.best_position)
    for unit in units:
        if unit.gains is None:
            raise DesignInfeasibleError(
                f"no pole target is realizable for plant {unit.plant.name!r}"
            )

    if options.engine == "hybrid":
        refine_problems = []
        for unit in units:
            flat = unit.gains.reshape(-1)
            spread = 2.5 * np.abs(flat) + 0.5 * (np.abs(flat).mean() + 1e-9)
            refine_problems.append(
                (flat - spread, flat + spread, unit.rng, flat[None, :])
            )

        def stage_b_objective(positions_list):
            batches = [
                positions.reshape(-1, unit.evaluator.m, unit.evaluator.order)
                for unit, positions in zip(units, positions_list)
            ]
            return [
                result["objective"] for result in batch_eval.evaluate(batches)
            ]

        results_b = pso_minimize_many(
            stage_b_objective, refine_problems, options.stage_b
        )
        pairs = []
        for unit, result in zip(units, results_b):
            unit.refined = result.best_position.reshape(
                unit.evaluator.m, unit.evaluator.order
            )
            pairs.append(np.stack([unit.gains, unit.refined]))
        comparisons = batch_eval.evaluate(pairs)
        for unit, both in zip(units, comparisons):
            if both["objective"][1] <= both["objective"][0]:
                unit.gains = unit.refined

    finals = batch_eval.evaluate([unit.gains[None] for unit in units])
    for unit, result in zip(units, finals):
        unit.design = ControllerDesign(
            gains=unit.gains,
            feedforward=result["feedforward"][0],
            settling=float(result["settling"][0]),
            u_peak=float(result["u_peak"][0]),
            spectral_radius=float(result["rho"][0]),
            objective=float(result["objective"][0]),
            n_evaluations=unit.evaluator.n_evaluations,
            engine=options.engine,
        )

    by_request: dict[int, list[_DesignUnit]] = {}
    for unit in units:
        by_request.setdefault(unit.request_index, []).append(unit)
    for i, request_units in by_request.items():
        # Serial restarts share one evaluator, so each restart's design
        # records the cumulative evaluation count up to that restart.
        best: ControllerDesign | None = None
        cumulative = 0
        for unit in request_units:
            cumulative += unit.evaluator.n_evaluations
            unit.design.n_evaluations = cumulative
            if best is None or unit.design.objective < best.objective:
                best = unit.design
        designs_out[i] = best


def design_controllers_batch(
    requests: list[DesignRequest],
) -> list[ControllerDesign]:
    """Design controllers for many problems at once, serial-identical.

    Problems whose engines support the lockstep path (``hybrid`` and
    ``seeded``) are grouped by swarm budget and advanced together; the
    rest fall back to per-problem :func:`design_controller` calls.  The
    returned designs — gains, feedforwards, diagnostics and evaluation
    counts — are bitwise identical to serial ``design_controller``
    results for the same requests.
    """
    for request in requests:
        options = request.options
        if options.engine not in ("hybrid", "seeded", "uniform", "poles"):
            raise ControlError(f"unknown design engine {options.engine!r}")
        if options.restarts < 1:
            raise ControlError(
                f"restarts must be >= 1, got {options.restarts}"
            )
    designs: list[ControllerDesign | None] = [None] * len(requests)
    groups: dict[tuple, list[int]] = {}
    for i, request in enumerate(requests):
        options = request.options
        if options.engine not in ("hybrid", "seeded"):
            designs[i] = design_controller(
                request.plant,
                list(request.periods),
                list(request.delays),
                request.spec,
                options,
            )
            continue
        key = (options.engine, options.restarts, options.stage_a, options.stage_b)
        groups.setdefault(key, []).append(i)
    for indices in groups.values():
        _design_lockstep_group(requests, indices, designs)
    return designs
