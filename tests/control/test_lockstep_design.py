"""Bitwise identity of the lockstep batch designer vs the serial oracle.

``design_controllers_batch`` must reproduce serial ``design_controller``
results *exactly* — same gains, feedforwards, objectives, settling times
and evaluation counts — because the schedule search compares overall
performances across candidates and any drift would reorder them.
"""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.control.ackermann import (
    _poly_recurrence,
    _real_characteristic_coefficients,
    _real_coefficients_batch,
    place_poles_siso,
)
from repro.control.design import (
    DesignOptions,
    TrackingSpec,
    _continuous_poles,
    _continuous_poles_batch,
    _GainEvaluator,
    _StageA,
    design_controller,
)
from repro.control.lifted import build_segments
from repro.control.lockstep import (
    BatchGainEvaluator,
    DesignRequest,
    _PlacementGroup,
    _StackedStageA,
    design_controllers_batch,
)
from repro.control.lti import LtiPlant
from repro.control.pso import PsoOptions, pso_minimize, pso_minimize_many
from repro.control.simulate import build_simulation_plan
from repro.errors import ControlError
from repro.apps import build_case_study
from repro.sched import PeriodicSchedule, derive_timing, enumerate_idle_feasible


def _assert_designs_identical(serial, batched):
    assert np.array_equal(serial.gains, batched.gains)
    assert np.array_equal(serial.feedforward, batched.feedforward)
    assert serial.objective == batched.objective
    assert serial.settling == batched.settling
    assert serial.u_peak == batched.u_peak
    assert serial.spectral_radius == batched.spectral_radius
    assert serial.n_evaluations == batched.n_evaluations


def _case_requests(case_study, options, counts_list):
    """One DesignRequest per (app, schedule) with the evaluator's seeding."""
    wcets = [app.wcets for app in case_study.apps]
    requests = []
    for counts in counts_list:
        timing = derive_timing(
            PeriodicSchedule(counts), wcets, case_study.clock
        )
        for i, app in enumerate(case_study.apps):
            app_timing = timing.for_app(i)
            requests.append(
                DesignRequest(
                    plant=app.plant,
                    periods=app_timing.periods,
                    delays=app_timing.delays,
                    spec=app.spec,
                    options=replace(options, seed=options.seed + 7919 * i),
                )
            )
    return requests


def _serial_designs(requests):
    return [
        design_controller(
            r.plant, list(r.periods), list(r.delays), r.spec, r.options
        )
        for r in requests
    ]


def _complex(real, imag) -> np.ndarray:
    """Roots with exactly these parts (no arithmetic on the way)."""
    roots = np.empty(len(real), dtype=complex)
    roots.real = real
    roots.imag = imag
    return roots


def _np_poly_complex(roots: np.ndarray) -> np.ndarray:
    """``np.poly``'s recurrence before its cast to real."""
    coefficients = np.ones((1,), dtype=complex)
    for zero in roots:
        coefficients = np.convolve(
            coefficients, np.array([1, -zero], dtype=complex), mode="full"
        )
    return coefficients


def _reference_poles(theta: np.ndarray, order: int) -> np.ndarray:
    """Scalar math-module form of the stage-A pole map."""
    poles = np.empty(order, dtype=complex)
    for i in range(order // 2):
        wn, zeta = theta[2 * i], theta[2 * i + 1]
        if zeta < 1.0:
            wd = wn * math.sqrt(1.0 - zeta * zeta)
            poles[2 * i] = complex(-zeta * wn, wd)
            poles[2 * i + 1] = complex(-zeta * wn, -wd)
        else:
            spread = wn * math.sqrt(zeta * zeta - 1.0)
            poles[2 * i] = complex(-zeta * wn + spread, 0.0)
            poles[2 * i + 1] = complex(-zeta * wn - spread, 0.0)
    if order % 2:
        poles[-1] = complex(-theta[-1], 0.0)
    return poles


_PART = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
_DAMPING = st.one_of(
    st.floats(0.35, 1.4), st.sampled_from([0.35, 1.0, 1.4, np.nextafter(1.0, 0.0)])
)


@st.composite
def _root_set(draw, order):
    """One root set: conjugate-closed, real, arbitrary complex, or the
    ``exp(s h)`` image of stage-A continuous poles."""
    kind = draw(st.sampled_from(["conjugate", "real", "complex", "exp"]))
    if kind == "real":
        return _complex(draw(st.lists(_PART, min_size=order, max_size=order)), 0.0)
    if kind == "complex":
        parts = st.lists(_PART, min_size=order, max_size=order)
        return _complex(draw(parts), draw(parts))
    if kind == "conjugate":
        n_pairs = draw(st.integers(0, order // 2))
        parts = st.lists(_PART, min_size=n_pairs, max_size=n_pairs)
        pairs = _complex(draw(parts), draw(parts))
        singles = draw(
            st.lists(_PART, min_size=order - 2 * n_pairs, max_size=order - 2 * n_pairs)
        )
        roots = np.concatenate([pairs, pairs.conjugate(), _complex(singles, 0.0)])
        return roots[draw(st.permutations(range(order)))]
    theta = []
    for _ in range(order // 2):
        theta += [draw(st.floats(1.0, 3000.0)), draw(_DAMPING)]
    if order % 2:
        theta.append(draw(st.floats(1.0, 3000.0)))
    h = draw(st.floats(1e-4, 5e-3))
    return np.exp(_continuous_poles(np.array(theta), order) * h)


@st.composite
def _root_batch(draw):
    order = draw(st.integers(1, 6))
    return np.stack(draw(st.lists(_root_set(order), min_size=1, max_size=6)))


class TestPolyFromRoots:
    """Fixed-seed checks of the stage-A coefficient path against np.poly."""

    def test_matches_np_poly_conjugate_roots(self, rng):
        for _ in range(20):
            real = rng.normal(size=2)
            imag = rng.normal(size=2)
            roots = np.concatenate(
                [real + 1j * imag, (real + 1j * imag).conj()]
            )
            coefficients, bad = _real_coefficients_batch(roots[None, :])
            assert not bad[0]
            assert np.array_equal(coefficients[0], np.poly(roots))

    def test_matches_np_poly_non_conjugate_roots(self, rng):
        for _ in range(20):
            roots = rng.normal(size=3) + 1j * rng.normal(size=3)
            expected = np.poly(roots)
            got = _poly_recurrence(roots[None, :])[0]
            assert got.dtype == expected.dtype == complex
            assert np.array_equal(got, expected)
            _, bad = _real_coefficients_batch(roots[None, :])
            assert bad[0]

    def test_real_roots(self, rng):
        roots = rng.normal(size=4)
        coefficients, bad = _real_coefficients_batch(
            roots.astype(complex)[None, :]
        )
        assert not bad[0]
        assert np.array_equal(coefficients[0], np.poly(roots))


class TestCharacteristicRecurrence:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(_root_set))
    def test_matches_np_poly(self, roots):
        got = _poly_recurrence(roots[None, :])[0]
        expected = _np_poly_complex(roots)
        assert np.array_equal(got.real, expected.real)
        assert np.array_equal(got.imag, expected.imag)
        reference = np.poly(roots)
        if np.iscomplexobj(reference):
            assert np.array_equal(got.imag, reference.imag)
        assert np.array_equal(got.real, reference.real)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(_root_set))
    def test_real_coefficients_follow_np_poly(self, roots):
        reference = np.poly(roots)
        rejected = np.iscomplexobj(reference) and np.abs(
            reference.imag
        ).max() > 1e-8 * max(1.0, np.abs(reference).max())
        if rejected:
            with pytest.raises(ControlError):
                _real_characteristic_coefficients(roots)
        else:
            assert np.array_equal(
                _real_characteristic_coefficients(roots), reference.real
            )

    @settings(max_examples=150, deadline=None)
    @given(_root_batch())
    def test_batch_equals_rows(self, batch):
        coefficients = _poly_recurrence(batch)
        real, bad = _real_coefficients_batch(batch)
        for i in range(batch.shape[0]):
            row = _poly_recurrence(batch[i:i + 1])[0]
            assert np.array_equal(coefficients[i].real, row.real)
            assert np.array_equal(coefficients[i].imag, row.imag)
            row_real, row_bad = _real_coefficients_batch(batch[i:i + 1])
            assert np.array_equal(real[i], row_real[0])
            assert bad[i] == row_bad[0]


class TestContinuousPoles:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_batch_equals_scalar(self, order, rng):
        zetas = [0.35, 0.7, np.nextafter(1.0, 0.0), 1.0, 1.2, 1.4]
        thetas = []
        for zeta in zetas:
            for _ in range(4):
                theta = []
                for _ in range(order // 2):
                    theta += [rng.uniform(1.0, 3000.0), zeta]
                if order % 2:
                    theta.append(rng.uniform(1.0, 3000.0))
                thetas.append(theta)
        thetas = np.array(thetas)
        batch = _continuous_poles_batch(thetas, order)
        assert batch.shape == (len(thetas), order)
        for theta, row in zip(thetas, batch):
            for expected in (_reference_poles(theta, order), _continuous_poles(theta, order)):
                assert np.array_equal(row.real, expected.real)
                assert np.array_equal(row.imag, expected.imag)


_SPEC = TrackingSpec(r=0.2, y0=0.0, u_max=12.0, deadline=0.05)


def _mixed_order_plants():
    """Controllable plants of orders 1, 2 and 3."""
    return [
        LtiPlant("lag", np.array([[-40.0]]), np.array([400.0]), np.array([1.0])),
        LtiPlant(
            "resonant",
            np.array([[0.0, 1.0], [-250.0 ** 2, -2 * 0.15 * 250.0]]),
            np.array([0.0, 2500.0]),
            np.array([1.0, 0.0]),
        ),
        LtiPlant(
            "servo_lag",
            np.array([[0.0, 1.0, 0.0], [-2500.0, -30.0, 900.0], [0.0, 0.0, -400.0]]),
            np.array([0.0, 0.0, 400.0]),
            np.array([1.0, 0.0, 0.0]),
        ),
    ]


#: An ``m = 1`` timing (the augmented ``(x, u_prev)`` lift) and an
#: ``m = 3`` one.
_TIMINGS = [
    ((2000e-6,), (800e-6,)),
    ((800e-6, 400e-6, 2400e-6), (800e-6, 400e-6, 300e-6)),
]


def _stage_a(plant, periods, delays, options, spec=_SPEC):
    segments = build_segments(plant.a, plant.b, list(periods), list(delays))
    plan = build_simulation_plan(
        plant.a, plant.b, plant.c, list(periods), list(delays), nsub=options.nsub
    )
    horizon = options.horizon_factor * spec.deadline + plan.idle_gap
    evaluator = _GainEvaluator(plant, segments, plan, spec, horizon)
    return _StageA(evaluator, options)


def _particles(stage_a, n_particles, rng):
    span = stage_a.upper - stage_a.lower
    return stage_a.lower + rng.random((n_particles, span.shape[0])) * span


class TestStackedPlacement:
    """The stacked stage-A path against ``_StageA``'s serial path."""

    options = DesignOptions(restarts=1)

    def test_uncontrollable_segment_marks_particles_bad(self, rng):
        omega = 1000.0
        oscillator = LtiPlant(
            "oscillator",
            np.array([[0.0, omega], [-omega, 0.0]]),
            np.array([0.0, omega]),
            np.array([1.0, 0.0]),
        )
        # Sampling at half the oscillation period makes A_d = -I, so that
        # segment alone loses controllability.
        timing = ((math.pi / omega, 600e-6), (500e-6, 300e-6))
        resonant = _mixed_order_plants()[1]
        stacked_units = [
            _stage_a(oscillator, *timing, self.options),
            _stage_a(resonant, *timing, self.options),
        ]
        serial_units = [
            _stage_a(oscillator, *timing, self.options),
            _stage_a(resonant, *timing, self.options),
        ]
        thetas = [_particles(unit, 7, rng) for unit in stacked_units]
        stacked = _StackedStageA(stacked_units)
        (group,) = stacked.groups
        assert group.uncontrollable[:, 0].tolist() == [True, False, False, False]

        gains, bad = stacked.gains_batch(thetas)
        assert bad[0].all()
        assert not bad[1].any()
        objectives = BatchGainEvaluator(
            [unit.evaluator for unit in stacked_units]
        ).evaluate(gains)
        for unit, unit_thetas, unit_gains, unit_bad, result in zip(
            serial_units, thetas, gains, bad, objectives
        ):
            for theta, row, row_bad in zip(unit_thetas, unit_gains, unit_bad):
                expected = unit.gains_for(theta)
                if expected is None:
                    assert row_bad
                    assert not row.any()
                else:
                    assert not row_bad
                    assert np.array_equal(row, expected)
            objective = result["objective"]
            objective[unit_bad] = 4.0 * unit.evaluator.big
            assert np.array_equal(objective, unit.objective(unit_thetas))

    def test_rows_that_are_not_conjugate_closed(self):
        stage_a = _stage_a(_mixed_order_plants()[1], *_TIMINGS[1], self.options)
        group = _PlacementGroup([stage_a], [0])
        pole_sets = [
            [0.5 + 0.2j, 0.5 - 0.2j],
            # Not closed, imaginary residue far above the 1e-8 bound.
            [0.5 + 0.2j, 0.4 - 0.2j],
            # Not closed, residue below the bound: placed on the real part.
            [0.5 + 0.1j, complex(0.5, -0.1 * (1.0 + 1e-12))],
            [0.3, 0.6],
        ]
        segments = stage_a.evaluator.segments
        desired = np.array([pole_sets] * len(segments), dtype=complex)
        placed, bad = group.place(desired)
        assert bad.tolist() == [[False, True, False, False]] * len(segments)
        for seg, seg_rows, seg_bad in zip(segments, placed, bad):
            for poles, row, row_bad in zip(desired[0], seg_rows, seg_bad):
                if row_bad:
                    with pytest.raises(ControlError):
                        place_poles_siso(seg.ad, seg.b1 + seg.b2, poles)
                else:
                    assert np.array_equal(
                        row, place_poles_siso(seg.ad, seg.b1 + seg.b2, poles)
                    )


class TestPsoMinimizeMany:
    def _problems(self, dims, seed):
        problems = []
        for i, dim in enumerate(dims):
            lower = -np.ones(dim) * (i + 1)
            upper = np.ones(dim) * (i + 2)
            problems.append(
                (lower, upper, np.random.default_rng(seed + i), None)
            )
        return problems

    @staticmethod
    def _objective(positions):
        return np.sum(positions**2, axis=1) + 0.1 * np.sin(positions[:, 0])

    def test_lockstep_matches_individual_runs(self):
        options = PsoOptions(n_particles=8, n_iterations=12)
        many = pso_minimize_many(
            lambda batches: [self._objective(p) for p in batches],
            self._problems([2, 3, 2], seed=7),
            options,
        )
        for i, dim in enumerate([2, 3, 2]):
            lower = -np.ones(dim) * (i + 1)
            upper = np.ones(dim) * (i + 2)
            alone = pso_minimize(
                self._objective,
                lower,
                upper,
                options,
                np.random.default_rng(7 + i),
            )
            assert np.array_equal(many[i].best_position, alone.best_position)
            assert many[i].best_value == alone.best_value
            assert many[i].n_evaluations == alone.n_evaluations

    def test_seed_positions_respected(self):
        options = PsoOptions(n_particles=6, n_iterations=8)
        seeds = np.array([[0.1, -0.2], [0.3, 0.4]])
        lower, upper = -np.ones(2), np.ones(2)
        many = pso_minimize_many(
            lambda batches: [self._objective(p) for p in batches],
            [(lower, upper, np.random.default_rng(3), seeds)],
            options,
        )
        alone = pso_minimize(
            self._objective,
            lower,
            upper,
            options,
            np.random.default_rng(3),
            seeds=seeds,
        )
        assert np.array_equal(many[0].best_position, alone.best_position)
        assert many[0].best_value == alone.best_value


class TestBatchDesignIdentity:
    def test_single_restart_case_study(self, case_study, tiny_design_options):
        requests = _case_requests(
            case_study, tiny_design_options, [(1, 1, 1), (2, 1, 1)]
        )
        batched = design_controllers_batch(requests)
        for serial, got in zip(_serial_designs(requests), batched):
            _assert_designs_identical(serial, got)

    def test_multi_restart_case_study(self, case_study):
        options = DesignOptions(
            restarts=2, stage_a=PsoOptions(8, 6), stage_b=PsoOptions(10, 7)
        )
        requests = _case_requests(case_study, options, [(2, 2, 2)])
        batched = design_controllers_batch(requests)
        for serial, got in zip(_serial_designs(requests), batched):
            _assert_designs_identical(serial, got)

    def test_mixed_engines_fall_back_serially(self, case_study):
        """Engines without a lockstep path defer to design_controller."""
        lockstep = DesignOptions(
            restarts=1, stage_a=PsoOptions(6, 6), stage_b=PsoOptions(6, 6)
        )
        fallback = DesignOptions(
            engine="uniform",
            restarts=1,
            stage_a=PsoOptions(6, 6),
            stage_b=PsoOptions(6, 6),
        )
        wcets = [app.wcets for app in case_study.apps]
        timing = derive_timing(
            PeriodicSchedule((1, 1, 1)), wcets, case_study.clock
        )
        app = case_study.apps[0]
        app_timing = timing.for_app(0)
        requests = [
            DesignRequest(
                plant=app.plant,
                periods=app_timing.periods,
                delays=app_timing.delays,
                spec=app.spec,
                options=options,
            )
            for options in (lockstep, fallback)
        ]
        batched = design_controllers_batch(requests)
        for serial, got in zip(_serial_designs(requests), batched):
            _assert_designs_identical(serial, got)

    def test_empty_batch(self):
        assert design_controllers_batch([]) == []

    def test_unknown_engine_rejected(self, case_study, tiny_design_options):
        request = _case_requests(
            case_study, tiny_design_options, [(1, 1, 1)]
        )[0]
        bad = DesignRequest(
            plant=request.plant,
            periods=request.periods,
            delays=request.delays,
            spec=request.spec,
            options=DesignOptions(engine="gradient"),
        )
        with pytest.raises(ControlError):
            design_controllers_batch([bad])

    def test_invalid_restarts_rejected(self, case_study, tiny_design_options):
        request = _case_requests(
            case_study, tiny_design_options, [(1, 1, 1)]
        )[0]
        bad = DesignRequest(
            plant=request.plant,
            periods=request.periods,
            delays=request.delays,
            spec=request.spec,
            options=DesignOptions(restarts=0),
        )
        with pytest.raises(ControlError):
            design_controllers_batch([bad])

    def test_mixed_plant_orders_and_lifts(self):
        """Orders 1-3 share one lockstep group, split into per-order
        placements; m = 1 and m = 3 timings take both lifts."""
        options = DesignOptions(
            restarts=2, stage_a=PsoOptions(6, 5), stage_b=PsoOptions(6, 5)
        )
        requests = [
            DesignRequest(
                plant=plant,
                periods=periods,
                delays=delays,
                spec=_SPEC,
                options=replace(options, seed=options.seed + 31 * i),
            )
            for i, (plant, (periods, delays)) in enumerate(
                (plant, timing)
                for plant in _mixed_order_plants()
                for timing in _TIMINGS
            )
        ]
        batched = design_controllers_batch(requests)
        for serial, got in zip(_serial_designs(requests), batched):
            _assert_designs_identical(serial, got)

    def test_inner_actuation_rows_in_one_lift_group(self):
        """m = 3 timings with ``tau < h`` on an inner segment share one
        (m, order) lift group with ``tau == h`` timings, so only some of
        the group's rows take the inner ``b2`` term."""
        options = DesignOptions(
            restarts=2, stage_a=PsoOptions(6, 5), stage_b=PsoOptions(6, 5)
        )
        periods = (800e-6, 400e-6, 2400e-6)
        timings = [
            (periods, (800e-6, 400e-6, 300e-6)),
            (periods, (500e-6, 400e-6, 300e-6)),
            (periods, (800e-6, 250e-6, 300e-6)),
        ]
        plant = _mixed_order_plants()[1]
        inner = [
            [
                seg.has_inner_actuation
                for seg in build_segments(
                    plant.a, plant.b, list(periods), list(delays)
                )[:-1]
            ]
            for periods, delays in timings
        ]
        assert inner == [[False, False], [True, False], [False, True]]
        requests = [
            DesignRequest(
                plant=plant,
                periods=periods,
                delays=delays,
                spec=_SPEC,
                options=replace(options, seed=options.seed + 31 * i),
            )
            for i, (periods, delays) in enumerate(timings)
        ]
        batched = design_controllers_batch(requests)
        for serial, got in zip(_serial_designs(requests), batched):
            _assert_designs_identical(serial, got)


@functools.cache
def _composition_pool():
    """Design units over case-study timings from the shortest to the
    longest hyperperiod, at several horizon factors: their tracking
    step counts differ widely."""
    case_study = build_case_study()
    wcets = [app.wcets for app in case_study.apps]
    space = sorted(
        (
            derive_timing(schedule, wcets, case_study.clock)
            for schedule in enumerate_idle_feasible(
                case_study.apps, case_study.clock
            )
        ),
        key=lambda timing: timing.hyperperiod,
    )
    return [
        _stage_a(
            app.plant,
            timing.for_app(i).periods,
            timing.for_app(i).delays,
            DesignOptions(restarts=1, horizon_factor=factor),
            app.spec,
        )
        for timing in (space[0], space[len(space) // 2], space[-1])
        for i, app in enumerate(case_study.apps)
        for factor in (0.5, 2.2, 6.0)
    ]


class TestBatchGainEvaluatorComposition:
    """A unit's evaluation bits do not depend on which other units share
    its batch, in what order, or how long their horizons are."""

    def test_pool_step_counts_differ_widely(self):
        steps = [
            stage_a.evaluator.plan.n_steps(stage_a.evaluator.horizon)
            for stage_a in _composition_pool()
        ]
        assert max(steps) >= 5 * min(steps)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(0, 26), min_size=1, max_size=8),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
    )
    def test_units_match_their_serial_evaluation(self, picks, n_particles, seed):
        pool = _composition_pool()
        rng = np.random.default_rng(seed)
        units = [pool[k] for k in picks]
        gains = []
        for stage_a in units:
            rows = [
                row
                for row in map(stage_a.gains_for, _particles(stage_a, 4 * n_particles, rng))
                if row is not None
            ][:n_particles]
            assume(len(rows) == n_particles)
            gains.append(np.stack(rows))
        results = BatchGainEvaluator(
            [stage_a.evaluator for stage_a in units]
        ).evaluate(gains)
        for stage_a, unit_gains, result in zip(units, gains, results):
            expected = stage_a.evaluator.evaluate(unit_gains)
            for name in (
                "objective", "settling", "u_peak", "rho", "feedforward", "invalid"
            ):
                assert np.array_equal(result[name], expected[name]), name
