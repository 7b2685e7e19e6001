"""Utility substrate: RNG helpers, timer, error hierarchy, gradcheck."""

import time

import numpy as np
import pytest

from repro import errors
from repro.tensor import check_gradients, numeric_gradient
from repro.utils import Timer, ensure_rng, spawn_rngs


class TestEnsureRng:
    def test_passthrough_generator(self):
        rng = np.random.default_rng(0)
        assert ensure_rng(rng) is rng

    def test_int_seed_deterministic(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)


class TestSpawnRngs:
    def test_children_independent_and_deterministic(self):
        children_a = spawn_rngs(7, 3)
        children_b = spawn_rngs(7, 3)
        for a, b in zip(children_a, children_b):
            np.testing.assert_array_equal(a.random(4), b.random(4))
        streams = [tuple(c.random(4)) for c in spawn_rngs(7, 3)]
        assert len(set(streams)) == 3

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_zero_count(self):
        assert spawn_rngs(0, 0) == []


class TestTimer:
    def test_measures_elapsed(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.009

    def test_reusable(self):
        t = Timer()
        with t:
            pass
        first = t.elapsed
        with t:
            time.sleep(0.01)
        assert t.elapsed >= first


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "cls",
        [
            errors.ShapeError,
            errors.GraphError,
            errors.BudgetError,
            errors.ConfigError,
            errors.DatasetError,
            errors.ConvergenceError,
        ],
    )
    def test_all_derive_from_repro_error(self, cls):
        assert issubclass(cls, errors.ReproError)

    def test_value_errors_catchable_as_builtin(self):
        assert issubclass(errors.ConfigError, ValueError)
        assert issubclass(errors.ConvergenceError, RuntimeError)


class TestGradcheck:
    def test_passes_for_correct_gradient(self):
        check_gradients(lambda a: (a * a).sum(), [np.array([1.0, 2.0])])

    def test_fails_for_wrong_gradient(self):
        from repro.tensor.tensor import _unary

        def buggy_square(x):
            return _unary(x, lambda a: a * a, lambda g, a, out: g * a)  # missing 2x

        with pytest.raises(AssertionError, match="gradient mismatch"):
            check_gradients(lambda a: buggy_square(a).sum(), [np.array([1.0, 2.0])])

    def test_numeric_gradient_of_quadratic(self):
        grad = numeric_gradient(
            lambda a: (a * a).sum(), [np.array([3.0, -1.0])], index=0
        )
        np.testing.assert_allclose(grad, [6.0, -2.0], atol=1e-5)
