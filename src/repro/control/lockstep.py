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

Only work whose result is kept is done.  The tracking loop orders each
group's units by step count, longest first, so the units still running
at a step are a prefix of the group and every per-step operation runs
on that prefix alone; the spectral check builds the lifted matrices
once per ``(m, order)`` group from stacked per-row statics.  Both keep
every kernel's per-slice shape, and the stacked matmul, einsum and
eigvals kernels are batch-composition invariant, so neither changes a
bit.
"""

from __future__ import annotations

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


class _LiftedGroup:
    """Stacked lifted ``A_hol`` for every unit sharing ``(m, order)``.

    Mirrors :func:`repro.control.lifted.lifted_closed_loop` term by term
    over all (unit, particle) rows of the group at once: matrix products
    become stacked gufunc matmuls (per-slice kernels identical to the
    serial 2-D calls), outer products and additions stay element-wise
    and fuse across rows.  Inner segments with their own actuation
    (``tau < h``) add their ``b2`` term on exactly their rows.
    """

    def __init__(self, evaluators: list[_GainEvaluator], unit_indices: list[int]) -> None:
        self.unit_indices = unit_indices
        self.m = evaluators[0].m
        self.order = evaluators[0].order
        self.dim = self.order + 1 if self.m == 1 else self.m * self.order
        self.ad = np.stack([[seg.ad for seg in ge.segments] for ge in evaluators])
        self.b1 = np.stack([[seg.b1 for seg in ge.segments] for ge in evaluators])
        self.b2 = np.stack([[seg.b2 for seg in ge.segments] for ge in evaluators])
        self.inner = np.array(
            [
                [seg.has_inner_actuation for seg in ge.segments[:-1]]
                for ge in evaluators
            ],
            dtype=bool,
        )
        # Gain-independent per-row stacks keyed by the units' particle
        # counts; they are only ever read, so reuse across evaluate calls
        # is safe.
        self._static: dict[tuple[int, ...], tuple] = {}

    def _static_for(self, counts: tuple[int, ...]) -> tuple:
        cached = self._static.get(counts)
        if cached is not None:
            return cached
        m, order, dim = self.m, self.order, self.dim

        def rows(table: np.ndarray) -> list[np.ndarray]:
            table = np.repeat(table, counts, axis=0)
            return [np.ascontiguousarray(table[:, j]) for j in range(m)]

        basis = []
        for j in range(m):
            coeff = np.zeros((sum(counts), order, dim))
            coeff[:, :, j * order:(j + 1) * order] = np.eye(order)
            basis.append(coeff)
        inner = np.repeat(self.inner, counts, axis=0)
        inner_rows = [np.flatnonzero(inner[:, j]) for j in range(m - 1)]
        cached = (rows(self.ad), rows(self.b1), rows(self.b2), basis, inner_rows)
        self._static[counts] = cached
        return cached

    def build(self, gains_list: list[np.ndarray]) -> np.ndarray:
        """Stacked ``A_hol`` for the group's gain batches ``(P_u, m, l)``.

        Rows run unit by unit in ``unit_indices`` order.  Only the state
        coefficients of the serial expressions are built: the reference
        terms feed ``G``, which the stability check never reads.
        """
        m, order = self.m, self.order
        gains = np.concatenate(gains_list)
        n_rows = gains.shape[0]
        ad, b1, b2, basis, inner_rows = self._static_for(
            tuple(g.shape[0] for g in gains_list)
        )
        if m == 1:
            k = gains[:, 0, :]
            a_hol = np.zeros((n_rows, order + 1, order + 1))
            a_hol[:, :order, :order] = ad[0] + b2[0][:, :, None] * k[:, None, :]
            a_hol[:, :order, order] = b1[0]
            a_hol[:, order, :order] = k
            return a_hol

        g_rows = [
            np.ascontiguousarray(gains[:, j, :])[:, None, :] for j in range(m)
        ]

        def input_coeff(j, coeff):
            return np.matmul(g_rows[j], coeff)[:, 0, :]

        u_prev_hp = [input_coeff(j, basis[j]) for j in range(m)]

        coeff = (
            np.matmul(ad[m - 1], basis[m - 1])
            + b1[m - 1][:, :, None] * u_prev_hp[m - 2][:, None, :]
            + b2[m - 1][:, :, None] * u_prev_hp[m - 1][:, None, :]
        )
        new_coeffs = [coeff]

        new_inputs = [input_coeff(0, coeff)]
        for j in range(m - 1):
            active = u_prev_hp[m - 1] if j == 0 else new_inputs[j - 1]
            coeff = (
                np.matmul(ad[j], new_coeffs[j])
                + b1[j][:, :, None] * active[:, None, :]
            )
            own = inner_rows[j]
            if own.size:
                coeff[own] = (
                    coeff[own]
                    + b2[j][own][:, :, None] * new_inputs[j][own][:, None, :]
                )
            new_coeffs.append(coeff)
            if j + 2 < m:  # the last input only acts next hyperperiod
                new_inputs.append(input_coeff(j + 1, coeff))

        a_hol = np.empty((n_rows, self.dim, self.dim))
        for j, coeff in enumerate(new_coeffs):
            a_hol[:, j * order:(j + 1) * order, :] = coeff
        return a_hol


class _TrackingGroup:
    """Fused tracking simulation for units sharing one plant order.

    One global time loop advances every unit's trajectory batch at once:
    the two per-segment matrix products keep their serial shapes (issued
    per unit on its contiguous ``(P, l)`` block), while the input law,
    intersample band checks, state updates and settling bookkeeping
    fuse across units via gathered per-step coefficient tables.  Units
    are ordered by step count, longest first (a stable sort), so the
    units still running at step ``k`` are a prefix of the group; every
    per-step operation runs on that prefix only, and a finished unit's
    state stays where its last step left it.
    """

    def __init__(self, evaluators: list[_GainEvaluator], unit_indices: list[int]) -> None:
        steps = [ge.plan.n_steps(ge.horizon) for ge in evaluators]
        ranked = sorted(range(len(evaluators)), key=lambda u: -steps[u])
        evaluators = [evaluators[u] for u in ranked]
        steps = [steps[u] for u in ranked]
        self.evaluators = evaluators
        self.unit_indices = [unit_indices[u] for u in ranked]
        self.order = evaluators[0].plan.order
        self.r = np.array([float(ge.spec.r) for ge in evaluators])
        self.band = np.array([ge.spec.band for ge in evaluators])
        self.gap = np.array([ge.plan.idle_gap for ge in evaluators])
        self.u0 = np.array([float(ge.u0) for ge in evaluators])
        self.x0 = np.stack(
            [np.asarray(ge.x0, dtype=float).reshape(-1) for ge in evaluators]
        )
        self.c_list = [ge.plan.c for ge in evaluators]

        m_list = [ge.plan.n_phases for ge in evaluators]
        offsets = np.cumsum([0] + m_list[:-1])
        segment_objs = [seg for ge in evaluators for seg in ge.plan.segments]
        periods = np.array([h for ge in evaluators for h in ge.plan.periods])
        self.s_max = max(len(seg.obs_times) for seg in segment_objs)

        # The step-k coefficient pattern is static, so expand it once per
        # step over the active prefix: flat segment indices for gathering
        # gains, stacked A_d used through a transpose view so each slice
        # presents the same layout as the serial ``x @ ad.T`` call, and
        # observation-map stacks sub-grouped by grid size so the fused
        # matmul never pads a GEMM shape.  Padded observation slots carry
        # t = -inf so whatever the padded output columns hold can never
        # become a violation time.
        self.step_tables = []
        for k in range(steps[0]):
            n_active = sum(1 for s in steps if s > k)
            flat = np.array(
                [offsets[u] + k % m_list[u] for u in range(n_active)]
            )
            segs = [segment_objs[f] for f in flat]
            s1 = np.zeros((n_active, 1, self.s_max))
            s2 = np.zeros((n_active, 1, self.s_max))
            obs_t = np.full((n_active, self.s_max), -np.inf)
            by_size: dict[int, list[int]] = {}
            for u, seg in enumerate(segs):
                count = len(seg.obs_times)
                s1[u, 0, :count] = seg.obs_s1
                s2[u, 0, :count] = seg.obs_s2
                obs_t[u, :count] = seg.obs_times
                by_size.setdefault(count, []).append(u)
            obs_groups = [
                (
                    np.array(members),
                    np.stack([segs[u].obs_w for u in members]).transpose(0, 2, 1),
                    count,
                )
                for count, members in by_size.items()
            ]
            self.step_tables.append(
                (
                    n_active,
                    flat,
                    np.stack([seg.ad for seg in segs]).transpose(0, 2, 1),
                    np.stack([seg.b1 for seg in segs])[:, None, :],
                    np.stack([seg.b2 for seg in segs])[:, None, :],
                    s1,
                    s2,
                    obs_t,
                    periods[flat],
                    obs_groups,
                )
            )

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
        g_flat = np.concatenate([g.transpose(1, 0, 2) for g in gains])
        f_flat = np.concatenate([f.transpose(1, 0) for f in feedforwards])

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
        r2 = self.r[:, None]
        r3 = self.r[:, None, None]
        band3 = self.band[:, None, None]

        # Padded observation columns hold stale or uninitialized values
        # that the t = -inf slots discard; silence only their warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            for (
                n, seg_idx, ad_t, b1, b2, s1, s2, obs_t, period, obs_groups
            ) in self.step_tables:
                x_act = x[:n]
                u_prev_act = u_prev[:n]
                u_curr = (
                    np.einsum(
                        "pl,pl->p",
                        g_flat[seg_idx].reshape(n * n_batch, order),
                        x_act.reshape(n * n_batch, order),
                    ).reshape(n, n_batch)
                    + f_flat[seg_idx] * r2[:n]
                )
                np.maximum(u_peak[:n], np.abs(u_curr), out=u_peak[:n])

                for members, obs_w_t, count in obs_groups:
                    y_buf[members, :, :count] = np.matmul(x_act[members], obs_w_t)
                y_sub = (
                    y_buf[:n]
                    + u_prev_act[:, :, None] * s1
                    + u_curr[:, :, None] * s2
                )
                t_abs = t_start[:n, None] + obs_t
                violating = np.abs(y_sub - r3[:n]) > band3[:n]
                candidate = np.where(
                    violating, t_abs[:, None, :], -np.inf
                ).max(axis=2)
                np.maximum(last_violation[:n], candidate, out=last_violation[:n])

                x[:n] = (
                    np.matmul(x_act, ad_t)
                    + u_prev_act[:, :, None] * b1
                    + u_curr[:, :, None] * b2
                )
                u_prev[:n] = u_curr
                t_start[:n] = t_start[:n] + period

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
    run through one fused solve per plant order; the stability check
    builds the lifted matrices once per ``(m, order)`` group and solves
    their eigenvalue problems in one stacked call per lifted dimension;
    the tracking simulations run through one fused time loop per plant
    order.  Evaluation counters on the unit evaluators advance exactly as
    in serial runs.
    """

    def __init__(self, evaluators: list[_GainEvaluator]) -> None:
        self.evaluators = evaluators
        self._tracking = _StackedTracking(evaluators)
        by_lift: dict[tuple[int, int], list[int]] = {}
        for i, ge in enumerate(evaluators):
            by_lift.setdefault((ge.m, ge.order), []).append(i)
        by_dim: dict[int, list[_LiftedGroup]] = {}
        for indices in by_lift.values():
            lift = _LiftedGroup([evaluators[i] for i in indices], indices)
            by_dim.setdefault(lift.dim, []).append(lift)
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
        for lifts in self._dim_groups:
            stacked = np.concatenate(
                [lift.build([gains[i] for i in lift.unit_indices]) for lift in lifts]
            )
            rho = np.abs(np.linalg.eigvals(stacked)).max(axis=1)
            offset = 0
            for lift in lifts:
                for i in lift.unit_indices:
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
