"""Memory safeguard, two-loop direction, line search, and the full optimizer."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from numopt import (
    LBFGS,
    CallbackDecision,
    Diagnostic,
    EvaluateCalled,
    LbfgsMemory,
    ObjectiveAdapter,
    TerminationReason,
    TraceRecorder,
    backtracking_line_search,
)
from numopt.optimizers import lbfgs as lbfgs_module
from numopt.problems import (
    LinearRegression,
    LogisticRegression,
    Rosenbrock,
    generate_noisy_linear,
)


class Quadratic:
    def evaluate(self, x):
        return float(np.vdot(x, x))

    def gradient(self, x):
        return 2.0 * x


def dense_bfgs_direction(pairs, gradient, gamma=None):
    """Independent oracle: explicit inverse-Hessian recursion.

    H starts as gamma*I, gamma by default s.y / y.y of the newest pair, then
    applies
    H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T
    oldest to newest; with no pairs H stays gamma*I.  The memory's direction
    must be -H g.
    """
    dim = gradient.size
    if gamma is None:
        s_new, y_new = pairs[-1]
        gamma = float(s_new @ y_new) / float(y_new @ y_new)
    H = gamma * np.eye(dim)
    identity = np.eye(dim)
    for s, y in pairs:
        rho = 1.0 / float(y @ s)
        left = identity - rho * np.outer(s, y)
        H = left @ H @ left.T + rho * np.outer(s, s)
    return -(H @ gradient)


class TestLbfgsMemory:
    def test_capacity_evicts_oldest(self):
        """After five pairs, a memory of three gives the dense BFGS direction
        of the last three."""
        # Each pair comes from its own SPD matrix, so the direction depends
        # on which pairs are kept: only the last three may shape it.
        rng = np.random.default_rng(5)
        memory = LbfgsMemory(3)
        pairs = []
        for _ in range(5):
            root = rng.uniform(-1, 1, (4, 4))
            s = rng.uniform(-1, 1, 4)
            y = (root @ root.T + 4.0 * np.eye(4)) @ s
            assert memory.push(s, y)
            pairs.append((s, y))
        assert len(memory) == 3
        g = rng.uniform(-1, 1, 4)
        direction = memory.direction(g)
        assert_allclose(direction, dense_bfgs_direction(pairs[-3:], g), rtol=1e-12, atol=1e-14)
        for older in (pairs[-4:], pairs):
            assert not np.allclose(direction, dense_bfgs_direction(older, g), rtol=1e-6)

    def test_zero_curvature_pair_rejected(self):
        memory = LbfgsMemory(3)
        assert not memory.push(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert len(memory) == 0

    def test_negative_curvature_pair_rejected(self):
        memory = LbfgsMemory(3)
        assert not memory.push(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        assert len(memory) == 0

    def test_small_relative_curvature_rejected(self):
        memory = LbfgsMemory(3)
        s = np.array([1.0, 0.0])
        y = np.array([0.5e-14, 1.0])  # y.s = 0.5e-14 <= 1e-14 * |s||y|
        assert not memory.push(s, y)

    def test_nan_curvature_pair_rejected(self):
        memory = LbfgsMemory(3)
        assert memory.push(np.array([1.0, 0.0]), np.array([1.0, 0.5]))
        assert not memory.push(np.array([1.0, 1.0]), np.array([np.nan, 1.0]))
        assert len(memory) == 1

    def test_curvature_floor_is_the_dtype_eps_where_larger(self):
        # y.s / (|s||y|) = 2e-14: above the 1e-14 floor for float64, far
        # below float32's eps (1.2e-7).
        s, y = np.array([1.0, 0.0]), np.array([2e-14, 1.0])
        assert LbfgsMemory(3).push(s, y)
        assert not LbfgsMemory(3).push(s.astype(np.float32), y.astype(np.float32))

    def test_float32_pairs_below_eps_leave_directions_finite(self):
        # Pairs whose y is all but orthogonal to s (cosine ~1e-8) overflow
        # R^-1 in float32 when stored.  Over-filling the memory included.
        rng = np.random.default_rng(8)
        for _ in range(200):
            memory = LbfgsMemory(10)
            for _ in range(12):
                s = rng.standard_normal(2)
                y = np.array([-s[1], s[0]]) * rng.uniform(0.5, 2.0) + 1e-8 * s
                memory.push(s.astype(np.float32), y.astype(np.float32))
            g = rng.standard_normal(2).astype(np.float32)
            assert np.all(np.isfinite(memory.direction(g)))

    def test_rho_is_reciprocal_curvature(self):
        """One pair with y = 2s gives exactly -g/2 for every gradient g."""
        # One pair with y = 2 s: gamma = rho = 1/2 and H = I/2 on the whole
        # space, so every direction is exactly -g/2.
        memory = LbfgsMemory(2)
        memory.push(np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        rng = np.random.default_rng(12)
        for g in [np.array([2.0, 0.0]), np.array([3.0, -1.0]), *rng.uniform(-1, 1, (5, 2))]:
            assert_array_equal(memory.direction(g), -0.5 * g)

    def test_capacity_validated(self):
        with pytest.raises(Diagnostic, match="memory_size"):
            LbfgsMemory(0)

    def test_memory_owns_its_pairs(self):
        """Writing to a pushed s or y does not change the next direction."""
        # push copies s and y, so writes to the pushed arrays leave the
        # memory's directions untouched.
        rng = np.random.default_rng(11)
        memory = LbfgsMemory(3)
        pushed = []
        for _ in range(4):
            s = rng.uniform(-1, 1, 4)
            y = 2.0 * s + 0.1 * rng.uniform(-1, 1, 4)
            assert memory.push(s, y)
            pushed.append((s, y))
        g = rng.uniform(-1, 1, 4)
        before = memory.direction(g)
        for s, y in pushed:
            s *= -3.0
            y[0] = 1e6
        assert np.array_equal(memory.direction(g), before)

    @pytest.mark.parametrize(
        "s, y, shapes",
        [
            (np.ones(3), np.ones(3), r"\(2,\).*\(3,\).*\(3,\)"),
            (np.ones((3, 1)), np.ones(2), r"\(2,\).*\(3, 1\).*\(2,\)"),
        ],
        ids=["another-size", "s-and-y-disagree"],
    )
    def test_pair_of_another_size_is_diagnostic(self, s, y, shapes):
        """A pair of another size, or whose s and y disagree, raises a
        Diagnostic naming the memory's width and both shapes, and the memory
        keeps its pair."""
        memory = LbfgsMemory(3)
        memory.push(np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        with pytest.raises(Diagnostic, match=shapes):
            memory.push(s, y)
        assert len(memory) == 1

    def test_first_pair_of_disagreeing_sizes_is_diagnostic(self):
        with pytest.raises(Diagnostic, match=r"\(2,\).*\(3,\)"):
            LbfgsMemory(3).push(np.ones(2), np.ones(3))


def curved_pair(rng, dtype, dim=4):
    """A pair (s, y) with y.s > 0 well above the curvature floor."""
    s = rng.uniform(-1, 1, dim)
    return s.astype(dtype), (2.0 * s + 0.1 * rng.uniform(-1, 1, dim)).astype(dtype)


def stretched_pair(rng, hessian, stretch):
    """A pair (s, H s) of the SPD matrix ``hessian``.

    With stretch > 0, about half the pairs come near the curvature floor: s
    is zero on some coordinates and y gains up to 10**stretch there, so s.y
    stays exact while s.y / (|s| |y|) falls towards 10**-stretch.
    """
    dim = len(hessian)
    s = rng.uniform(-1, 1, dim)
    free = np.zeros(dim, bool)
    if stretch and dim > 1 and rng.random() < 0.5:
        free = rng.permutation(dim) < rng.integers(1, dim)
    s[free] = 0.0
    y = hessian @ s
    y[free] += 10.0 ** rng.uniform(0, stretch) * rng.uniform(-1, 1, free.sum())
    return s, y


def drawn_memory(rng, memory_size, shape, dtype, stretch, before_clear, after_clear, refused):
    """A memory given ``stretched_pair``s of one random SPD matrix in ``dtype``
    and ``shape``, and cleared after the first ``before_clear`` of them; 0
    clears it before any pair, which leaves it as new.

    With ``refused``, each of the ``after_clear`` pairs pushed after the clear
    is (s, -y), whose negative curvature the memory refuses.  Returns the
    memory, the pairs it accepted since the clear and the newest accepted
    pair's s.y / y.y, all in float64; that gamma is None while no pair has
    been accepted.
    """
    dim = shape[0]
    root = rng.uniform(-1, 1, (dim, dim))
    hessian = root @ root.T + dim * np.eye(dim)
    memory = LbfgsMemory(memory_size)
    stored, gamma = [], None
    for index in range(before_clear + after_clear):
        if index == before_clear:
            memory.clear()
            stored.clear()
        s, y = stretched_pair(rng, hessian, stretch)
        if refused and index >= before_clear:
            y = -y
        s, y = s.astype(dtype), y.astype(dtype)
        if memory.push(s.reshape(shape), y.reshape(shape)):
            s, y = s.astype(np.float64), y.astype(np.float64)
            stored.append((s, y))
            gamma = float(s @ y) / float(y @ y)
    return memory, stored, gamma


class TestDoubleBufferedMemory:
    """The memory keeps its arrays in two banks and makes the spare one its own
    on each accepted push; no bank may show through where it should not."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pushes", [2, 7], ids=["partial", "full"])
    @pytest.mark.parametrize("refused", ["nan", "below-floor"])
    def test_a_refused_pair_swaps_no_bank(self, dtype, pushes, refused):
        # A memory of 3: two pairs leave it partial; seven fill it and swap
        # its banks seven times.  The refused pair must change no direction,
        # now or after the next accepted pair, against a twin that never saw it.
        rng = np.random.default_rng(41)
        memory, twin = LbfgsMemory(3), LbfgsMemory(3)
        for _ in range(pushes):
            pair = curved_pair(rng, dtype)
            assert memory.push(*pair) and twin.push(*pair)
        gradients = [rng.uniform(-1, 1, 4).astype(dtype) for _ in range(3)]
        before = [memory.direction(g) for g in gradients]
        s = rng.uniform(-1, 1, 4)
        # Below the floor: y orthogonal to s, so y.s is exactly 0.
        orthogonal = s[[1, 0, 3, 2]] * [-1.0, 1.0, -1.0, 1.0]
        y = np.array([np.nan, 1.0, 0.5, 2.0]) if refused == "nan" else orthogonal
        assert not memory.push(s.astype(dtype), y.astype(dtype))
        assert len(memory) == min(pushes, 3)
        for g, direction in zip(gradients, before):
            assert_array_equal(memory.direction(g), direction)
        pair = curved_pair(rng, dtype)
        assert memory.push(*pair) and twin.push(*pair)
        for g in gradients:
            assert_array_equal(memory.direction(g), twin.direction(g))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_clear_leaves_no_stale_row(self, dtype):
        # After a clear, each pair pushed gives the directions of a fresh
        # memory given the same pairs, until both are full and past it.
        rng = np.random.default_rng(43)
        memory = LbfgsMemory(3)
        for _ in range(5):
            assert memory.push(*curved_pair(rng, dtype))
        memory.clear()
        fresh = LbfgsMemory(3)
        gradients = [rng.uniform(-1, 1, 4).astype(dtype) for _ in range(3)]
        for _ in range(4):
            pair = curved_pair(rng, dtype)
            assert memory.push(*pair) and fresh.push(*pair)
            for g in gradients:
                assert_array_equal(memory.direction(g), fresh.direction(g))

    def test_memory_owns_its_pairs_past_both_banks(self):
        # As test_memory_owns_its_pairs, with more than twice the memory's
        # size in pushes, so each bank has been written and swapped in.
        rng = np.random.default_rng(47)
        memory = LbfgsMemory(3)
        pushed = []
        for _ in range(7):
            s, y = curved_pair(rng, np.float64)
            assert memory.push(s, y)
            pushed.append((s, y))
        g = rng.uniform(-1, 1, 4)
        before = memory.direction(g)
        for s, y in pushed:
            s *= -3.0
            y[0] = 1e6
        assert np.array_equal(memory.direction(g), before)


class TestClearKeepsTheScale:
    """``clear`` drops the pairs but keeps gamma, the newest accepted pair's
    s.y / y.y, and the pairs' size and dtype, and zeroes its bank in place: a
    cleared memory's direction is -gamma g, where a memory that has never
    accepted a pair gives -g / max(1, |g|_2), and the next pair builds no bank."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(4,), (4, 1)])
    def test_a_cleared_memory_gives_minus_gamma_g(self, dtype, shape):
        rng = np.random.default_rng(53)
        memory = LbfgsMemory(3)
        # |(0, 3, 0, -4)| = 5, so the fresh direction is (0, -0.6, 0, 0.8) bitwise.
        fresh = memory.direction(np.array([0.0, 3.0, 0.0, -4.0], dtype).reshape(shape))
        assert fresh.dtype == dtype
        assert_array_equal(fresh, np.array([0.0, -0.6, 0.0, 0.8], dtype).reshape(shape))
        for _ in range(5):
            s, y = curved_pair(rng, dtype)
            assert memory.push(s, y)
        gamma = float(s.dot(y)) / float(y.dot(y))
        memory.clear()
        assert len(memory) == 0
        g = rng.uniform(-1, 1, 4).astype(dtype).reshape(shape)
        direction = memory.direction(g)
        assert direction.dtype == dtype
        assert direction.shape == shape
        assert_array_equal(direction, -gamma * g)
        # A refused pair leaves the memory empty and its gamma as it was.
        assert not memory.push(s, -y)
        assert_array_equal(memory.direction(g), -gamma * g)

    @pytest.mark.parametrize(
        "dim, dtype", [(4, np.float64), (3, np.float64), (4, np.float32)],
        ids=["same", "another-size", "another-dtype"],
    )
    def test_the_first_pair_after_a_clear_fixes_size_and_dtype(self, monkeypatch, dim, dtype):
        # A clear keeps the size and dtype that the memory's first pair fixed,
        # and builds no bank: a pair of another size is refused, and one of
        # another dtype is cast.  The pair pushed after the clear has
        # s.y / (|s| |y|) near 1e-9, above float64's curvature floor and below
        # float32's, so the float64 memory takes it in float32 too, where a
        # float32 memory refuses it, and gives the directions of a new memory
        # given it in float64.
        built = []

        class CountedBank(lbfgs_module._Bank):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(lbfgs_module, "_Bank", CountedBank)
        rng = np.random.default_rng(59)
        memory = LbfgsMemory(3)
        for _ in range(5):
            assert memory.push(*curved_pair(rng, np.float64))
        memory.clear()
        before = len(built)
        s, y = np.zeros(dim, dtype), np.zeros(dim, dtype)
        s[0], y[:2] = 1.0, (2.0**-20, 1024.0)
        if dim != 4:
            with pytest.raises(Diagnostic, match=r"\(4,\).*\(3,\).*\(3,\)"):
                memory.push(s, y)
            assert len(memory) == 0 and len(built) == before
            return
        assert memory.push(s, y)
        assert len(built) == before
        assert LbfgsMemory(3).push(s, y) == (dtype == np.float64)
        fresh = LbfgsMemory(3)
        assert fresh.push(s.astype(np.float64), y.astype(np.float64))
        for g in (rng.uniform(-1, 1, dim).astype(dtype) for _ in range(3)):
            direction = memory.direction(g)
            assert direction.dtype == dtype
            assert_array_equal(direction, fresh.direction(g))


class TestTwoLoopDirection:
    def test_empty_memory_is_negated_gradient_bitwise(self):
        # A memory that has never accepted a pair gives -g / max(1, |g|_2).
        g = np.array([3.0, -1.0])
        d = LbfgsMemory(5).direction(g)
        assert np.array_equal(d, [-3.0 / np.sqrt(10.0), 1.0 / np.sqrt(10.0)])
        assert d is not g
        small = np.array([0.5, -0.25])
        assert np.array_equal(LbfgsMemory(5).direction(small), [-0.5, 0.25])

    def test_empty_memory_preserves_dtype(self):
        g = np.array([3.0, -1.0], dtype=np.float32)
        assert LbfgsMemory(5).direction(g).dtype == np.float32

    def test_one_pair_hand_example(self):
        # s=(1,0), y=(2,0), g=(2,0): gamma=1/2, the correction restores the
        # s direction, giving exactly (-1, 0).
        memory = LbfgsMemory(5)
        memory.push(np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        d = memory.direction(np.array([2.0, 0.0]))
        assert_allclose(d, [-1.0, 0.0], atol=1e-15)

    def test_matches_dense_bfgs_oracle(self):
        rng = np.random.default_rng(31)
        for dim in (2, 5, 9):
            root = rng.uniform(-1, 1, (dim, dim))
            hessian = root @ root.T + dim * np.eye(dim)
            memory = LbfgsMemory(10)
            pairs = []
            for _ in range(6):
                s = rng.uniform(-1, 1, dim)
                y = hessian @ s
                if memory.push(s, y):
                    pairs.append((s, y))
            g = rng.uniform(-1, 1, dim)
            expected = dense_bfgs_direction(pairs, g)
            assert_allclose(memory.direction(g), expected, rtol=1e-11, atol=1e-13)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(
        memory_size=st.sampled_from([1, 3, 10]),
        dim=st.integers(1, 9),
        pairs_before_clear=st.integers(0, 12),
        pairs_past_capacity=st.integers(1, 12),
        column=st.booleans(),
        dtype=st.sampled_from([np.float32, np.float64]),
        stretch=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
        # Drawn examples accept pairs after the clear; the @examples refuse
        # them all, after accepted pairs and with none accepted at all.
        refuse_after_clear=st.just(False),
    )
    @example(3, 4, 2, 1, False, np.float64, 0, 7, True)
    @example(3, 4, 2, 1, True, np.float32, 0, 7, True)
    @example(3, 4, 0, 1, False, np.float64, 0, 7, True)
    def test_matches_dense_bfgs_oracle_past_capacity(
        self,
        memory_size,
        dim,
        pairs_before_clear,
        pairs_past_capacity,
        column,
        dtype,
        stretch,
        seed,
        refuse_after_clear,
    ):
        """The compact-form direction matches an explicit dense BFGS recursion
        over the pairs still stored, after more pairs than the memory holds
        (memory 1, 3 and 10) and a clear() at a drawn point, with flat and
        column gradients in float32 and float64, pairs near the curvature floor
        (s.y / (|s| |y|) falling towards 1e-12) included.  The @examples clear
        the memory and then refuse every pair, so the direction is -gamma g
        with gamma from the last pair before the clear, or -g / max(1, |g|_2)
        when no pair was accepted."""
        # More pairs than the memory holds, after a clear at a drawn point:
        # the direction must match the oracle over the pairs still stored,
        # with gamma from the newest pair accepted, before the clear if none
        # came after it, in the gradient's dtype and shape.
        #
        # Stretched further than 10**4 (see stretched_pair), float32 pairs
        # give non-finite directions here and in the two-loop recursion
        # alike, so float32 stops there.
        if dtype == np.float32:
            stretch = min(stretch, 4)
        rng = np.random.default_rng(seed)
        shape = (dim, 1) if column else (dim,)
        memory, stored, gamma = drawn_memory(
            rng, memory_size, shape, dtype, stretch,
            pairs_before_clear, memory_size + pairs_past_capacity, refuse_after_clear,
        )
        g = rng.uniform(-1, 1, dim).astype(dtype)
        direction = memory.direction(g.reshape(shape))
        assert direction.dtype == dtype
        assert direction.shape == shape
        if gamma is None:
            gamma = 1.0 / max(1.0, float(np.linalg.norm(g.astype(np.float64))))
        kept = stored[-memory_size:]
        expected = dense_bfgs_direction(kept, g.astype(np.float64), gamma)
        eps = np.finfo(dtype).eps
        scale = eps / np.finfo(np.float64).eps
        atol = 1e-13 * scale
        if stretch and kept:
            # Near the floor every float evaluation of H.g, the oracle's
            # included, loses digits in proportion to 1 / min cos(s, y).
            # Over 20000 such draws per dtype the compact form's normwise
            # error stayed below 50 eps / min cos, as did the two-loop
            # recursion's.  One draw of another 20000 reached 1720 there,
            # where the recursion and the oracle stayed near 0.1.
            min_cos = min(float(s @ y) / np.linalg.norm(s) / np.linalg.norm(y) for s, y in kept)
            atol = max(atol, 1e4 * eps / min_cos * np.max(np.abs(expected)))
        assert_allclose(direction.ravel(), expected, rtol=1e-11 * scale, atol=atol)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(
        memory_size=st.sampled_from([1, 3, 10]),
        dim=st.integers(2, 9),
        pairs_before_clear=st.integers(0, 12),
        pairs_after_clear=st.integers(1, 22),
        dtype=st.sampled_from([np.float32, np.float64]),
        stretch=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_near_floor_directions_are_finite_and_downhill(
        self, memory_size, dim, pairs_before_clear, pairs_after_clear, dtype, stretch, seed
    ):
        """Memories drawn near the curvature floor, with and without a clear,
        give a finite and downhill direction (g.d < 0) in float32 and float64."""
        # Near the curvature floor the compact form loses more digits than
        # the two-loop recursion; the direction must still be finite and
        # downhill by the line search's own slope, float64 pairs stretched
        # to 10**12 and float32 pairs to 10**4.
        if dtype == np.float32:
            stretch = min(stretch, 4)
        rng = np.random.default_rng(seed)
        memory, _, _ = drawn_memory(
            rng, memory_size, (dim,), dtype, stretch, pairs_before_clear, pairs_after_clear, False
        )
        g = rng.uniform(-1, 1, dim).astype(dtype)
        direction = memory.direction(g)
        assert np.all(np.isfinite(direction))
        assert float(g.dot(direction)) < 0.0

    def test_direction_is_descent(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            dim = int(rng.integers(2, 8))
            memory = LbfgsMemory(10)
            for _ in range(int(rng.integers(1, 6))):
                s = rng.uniform(-1, 1, dim)
                y = s * rng.uniform(0.5, 3.0) + 0.1 * rng.uniform(-1, 1, dim)
                memory.push(s, y)
            g = rng.uniform(-1, 1, dim)
            if len(memory) and np.max(np.abs(g)) > 0:
                assert float(memory.direction(g) @ g) < 0.0

    @pytest.mark.parametrize(
        "memory_dtype, gradient_dtype", [(np.float32, np.float64), (np.float64, np.float32)]
    )
    @pytest.mark.parametrize("shape", [(4,), (4, 1)])
    def test_mixed_dtype_direction_has_the_gradient_dtype(
        self, memory_dtype, gradient_dtype, shape
    ):
        """A float32 memory asked for the direction of a float64 gradient, and
        the reverse, gives a direction of the gradient's dtype that agrees with
        the direction of the same gradient in the memory's own dtype."""
        # The memory's products come out in the wider of the two dtypes;
        # the direction must still take the gradient's, and agree with the
        # direction of the same gradient in the memory's own dtype.
        rng = np.random.default_rng(17)
        root = rng.uniform(-1, 1, (4, 4))
        hessian = root @ root.T + 4 * np.eye(4)
        memory = LbfgsMemory(3)
        for _ in range(5):
            s = rng.uniform(-1, 1, 4)
            assert memory.push(s.astype(memory_dtype), (hessian @ s).astype(memory_dtype))
        g = rng.uniform(-1, 1, 4).astype(np.float32).reshape(shape)
        mixed = memory.direction(g.astype(gradient_dtype))
        same = memory.direction(g.astype(memory_dtype))
        assert mixed.dtype == gradient_dtype
        assert mixed.shape == shape
        eps = float(np.finfo(np.float32).eps)
        assert_allclose(mixed, same, rtol=100 * eps, atol=100 * eps * np.max(np.abs(same)))


class NanRegion:
    """Quadratic with a NaN half-plane, for exercising trial rejection."""

    def evaluate(self, x):
        if x[0] < 0:
            return float("nan")
        return float(np.vdot(x, x))

    def gradient(self, x):
        return 2.0 * x


class AlwaysNan:
    def evaluate(self, x):
        return float("nan")

    def gradient(self, x):
        return np.ones_like(x)


class InfEverywhere:
    """+inf everywhere, with Rosenbrock's gradient: inf <= inf + c1 a g.d holds
    at every trial, so only the line search's finiteness test rejects one."""

    def evaluate(self, x):
        return float("inf")

    def gradient(self, x):
        return Rosenbrock().gradient(x)


class TestBacktrackingLineSearch:
    def test_unit_step_accepted_when_it_satisfies_armijo(self):
        adapter = ObjectiveAdapter(Quadratic())
        x = np.array([1.0, 0.0])
        direction = np.array([-1.0, 0.0])
        found = backtracking_line_search(adapter, x, 1.0, 2.0 * x, direction, LBFGS())
        assert found.failure is None
        assert found.step == 1.0
        assert found.value == 0.0
        assert found.point.tobytes() == (x + direction).tobytes()
        assert adapter.evaluate_calls == 1

    def test_overshoot_backtracks_to_the_first_sufficient_step(self):
        # Trials along d=(-4,0) from x=(1,0): alpha=1 lands at f=9 (reject),
        # alpha=0.5 lands at f=1 which misses the Armijo bound
        # 1 - 4e-4 (reject), alpha=0.25 lands at f=0 (accept).
        adapter = ObjectiveAdapter(Quadratic())
        x = np.array([1.0, 0.0])
        direction = np.array([-4.0, 0.0])
        found = backtracking_line_search(adapter, x, 1.0, 2.0 * x, direction, LBFGS())
        assert found.failure is None
        assert found.step == 0.25
        assert found.value == 0.0
        assert found.point.tobytes() == (x + 0.25 * direction).tobytes()
        assert adapter.evaluate_calls == 3

    def test_nan_trials_rejected_and_search_continues(self):
        adapter = ObjectiveAdapter(NanRegion())
        x = np.array([1.0, 0.0])
        found = backtracking_line_search(adapter, x, 1.0, 2.0 * x, np.array([-4.0, 0.0]), LBFGS())
        assert found.failure is None
        assert found.step == 0.25
        assert adapter.evaluate_calls == 3

    def test_failure_after_max_trials(self):
        adapter = ObjectiveAdapter(AlwaysNan())
        x = np.array([1.0])
        found = backtracking_line_search(
            adapter, x, 1.0, np.array([2.0]), np.array([-1.0]), LBFGS(max_line_search_trials=50)
        )
        assert found.failure == TerminationReason.LINE_SEARCH_FAILURE
        assert found.value == 1.0
        assert found.point is None
        assert adapter.evaluate_calls == 50

    def test_underflow_before_exhausting_generous_trial_budget(self):
        # 0.5^67 < 1e-20, so trial 68 underflows after 67 evaluations.
        adapter = ObjectiveAdapter(AlwaysNan())
        x = np.array([1.0])
        found = backtracking_line_search(
            adapter, x, 1.0, np.array([2.0]), np.array([-1.0]), LBFGS(max_line_search_trials=200)
        )
        assert found.failure == TerminationReason.STEP_SIZE_UNDERFLOW
        assert found.point is None
        assert adapter.evaluate_calls == 67

    def test_inf_trials_rejected_from_an_inf_start(self):
        """A +inf trial is refused even from a +inf value, where the Armijo
        test alone reads inf <= inf and holds: the search fails with no point
        after its 50 trials."""
        adapter = ObjectiveAdapter(InfEverywhere())
        x = np.array([1.0])
        found = backtracking_line_search(
            adapter, x, float("inf"), np.array([2.0]), np.array([-1.0]), LBFGS()
        )
        assert found.failure == TerminationReason.LINE_SEARCH_FAILURE
        assert found.point is None
        assert adapter.evaluate_calls == 50

    def test_non_descent_direction_fails_without_evaluating(self):
        adapter = ObjectiveAdapter(Quadratic())
        x = np.array([1.0, 0.0])
        found = backtracking_line_search(adapter, x, 1.0, 2.0 * x, np.array([1.0, 0.0]), LBFGS())
        assert found.failure == TerminationReason.LINE_SEARCH_FAILURE
        assert found.point is None
        assert adapter.evaluate_calls == 0

    def test_nan_slope_fails_without_evaluating(self):
        adapter = ObjectiveAdapter(Quadratic())
        x = np.array([1.0, 0.0])
        found = backtracking_line_search(
            adapter, x, 1.0, 2.0 * x, np.array([np.nan, 0.0]), LBFGS()
        )
        assert found.failure == TerminationReason.LINE_SEARCH_FAILURE
        assert adapter.evaluate_calls == 0

    def test_stop_hook_aborts_between_trials(self):
        # A TERMINATE on the first trial's EvaluateCalled makes the adapter
        # refuse the second trial, although the first one was rejected.
        trials = []

        class Counting(AlwaysNan):
            def evaluate(self, x):
                trials.append(1)
                return float("nan")

        def stop_on_evaluate(event):
            if isinstance(event, EvaluateCalled):
                return CallbackDecision.TERMINATE

        adapter = ObjectiveAdapter(Counting(), callbacks=[stop_on_evaluate])
        with adapter:
            backtracking_line_search(
                adapter, np.array([1.0]), 1.0, np.array([2.0]), np.array([-1.0]), LBFGS()
            )
            pytest.fail("the line search returned after its second trial was refused")
        assert len(trials) == 1
        assert adapter.evaluate_calls == 1


class RecordingRosenbrock(Rosenbrock):
    """Rosenbrock that keeps every argument it was called with, and a copy."""

    def __init__(self):
        self.calls = []  # ("evaluate" or "gradient", argument, copy of argument)

    def evaluate(self, x):
        self.calls.append(("evaluate", x, x.copy()))
        return super().evaluate(x)

    def gradient(self, x):
        self.calls.append(("gradient", x, x.copy()))
        return super().gradient(x)


class TestAcceptedPoint:
    """The gradient is taken at the very array whose value the line search
    accepted."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(5))
    def test_each_gradient_is_taken_at_the_array_just_accepted(self, dtype, seed):
        # Every gradient follows the evaluation whose value was accepted (at
        # x0, the inferred fused call's), and receives that very array,
        # unchanged since it was evaluated; the run returns the last such.
        objective = RecordingRosenbrock()
        x0 = np.random.default_rng(seed).uniform(-2.0, 2.0, 2).astype(dtype)
        x, result = LBFGS().optimize(objective, x0)
        kinds = [kind for kind, _, _ in objective.calls]
        assert kinds.count("gradient") == result.gradient_calls == result.iterations + 1
        for index, (kind, argument, copy) in enumerate(objective.calls):
            if kind != "gradient":
                continue
            previous_kind, accepted, accepted_copy = objective.calls[index - 1]
            assert previous_kind == "evaluate"
            assert argument is accepted
            assert argument.tobytes() == accepted_copy.tobytes() == copy.tobytes()
        assert x is [argument for kind, argument, _ in objective.calls if kind == "gradient"][-1]


class TestLbfgsOptimize:
    def test_quadratic_converges_in_few_iterations(self):
        x, result = LBFGS().optimize(Quadratic(), np.array([10.0, -7.0]))
        assert np.max(np.abs(x)) < 1e-8
        assert result.final_objective <= 1e-12
        assert result.iterations <= 5
        assert result.termination == TerminationReason.GRADIENT_NORM_TOLERANCE

    def test_matches_normal_equations(self):
        X, y, _ = generate_noisy_linear(3, 200, 1.0, seed=0)
        x, result = LBFGS().optimize(LinearRegression(X, y), np.zeros((3, 1)))
        oracle = np.linalg.solve(X @ X.T, X @ y)
        assert np.max(np.abs(x.ravel() - oracle)) < 1e-4

    def test_iteration_cap_reported_honestly(self):
        _, result = LBFGS(max_iterations=10).optimize(Rosenbrock(), np.array([-1.2, 1.0]))
        assert result.iterations == 10
        assert result.termination == TerminationReason.MAX_ITERATIONS

    def test_accepted_objectives_non_increasing(self):
        recorder = TraceRecorder()
        LBFGS().optimize(Rosenbrock(), np.array([-1.2, 1.0]), callbacks=[recorder])
        values = [f for _, f in recorder.trace]
        assert all(later <= earlier for earlier, later in zip(values, values[1:]))

    def test_stationary_start_terminates_immediately(self):
        _, result = LBFGS().optimize(Quadratic(), np.zeros(3))
        assert result.iterations == 0
        assert result.termination == TerminationReason.GRADIENT_NORM_TOLERANCE
        assert result.evaluate_calls == 1
        assert result.gradient_calls == 1

    def test_gradient_norm_reason_is_consistent(self):
        objective = Quadratic()
        x, result = LBFGS().optimize(objective, np.array([2.0, 3.0]))
        if result.termination == TerminationReason.GRADIENT_NORM_TOLERANCE:
            assert np.max(np.abs(objective.gradient(x))) <= 1e-6

    def test_call_counters_match_loop_structure(self):
        x, result = LBFGS().optimize(Quadratic(), np.array([10.0, -7.0]))
        # One gradient at x0 plus one per accepted step.
        assert result.gradient_calls == 1 + result.iterations
        # One evaluation at x0 plus at least one line-search trial per step.
        assert result.evaluate_calls >= 1 + result.iterations

    def test_fused_objective_used_for_initial_point(self):
        calls = {"fused": 0}

        class Fused(Quadratic):
            def evaluate_with_gradient(self, x):
                calls["fused"] += 1
                return self.evaluate(x), self.gradient(x)

        LBFGS().optimize(Fused(), np.array([10.0, -7.0]))
        assert calls["fused"] == 1

    def test_the_fused_call_is_made_at_the_starting_point_only(self):
        """On an objective with all three methods, each line-search trial
        calls evaluate and each accepted point gradient; the fused call is
        made once, at x0.  Each step here is accepted at its first trial."""
        calls = []

        class Probe:
            def evaluate(self, x):
                calls.append("evaluate")
                return 0.25 * float(x @ x)

            def gradient(self, x):
                calls.append("gradient")
                return 0.5 * x

            def evaluate_with_gradient(self, x):
                calls.append("fused")
                return 0.25 * float(x @ x), 0.5 * x

        _, result = LBFGS(max_iterations=2).optimize(Probe(), np.array([3.0, -1.0]))
        assert result.iterations == 2
        assert calls == ["fused", "evaluate", "gradient", "evaluate", "gradient"]

    def test_line_search_failure_returns_last_accepted_state(self):
        class Cliff:
            """Finite at the start, NaN everywhere the search can reach."""

            def evaluate(self, x):
                if np.array_equal(x, np.array([1.0])):
                    return 1.0
                return float("nan")

            def gradient(self, x):
                return np.array([2.0])

        x, result = LBFGS().optimize(Cliff(), np.array([1.0]))
        assert result.termination == TerminationReason.LINE_SEARCH_FAILURE
        assert result.iterations == 0
        assert x[0] == 1.0
        assert result.final_objective == 1.0

    def test_an_objective_inf_everywhere_ends_where_it_started(self):
        """L-BFGS on an objective that is +inf everywhere ends with
        LINE_SEARCH_FAILURE after no step, at x0 bitwise, reporting +inf."""
        x0 = np.array([-1.2, 1.0])
        x, result = LBFGS().optimize(InfEverywhere(), x0)
        assert result.termination == TerminationReason.LINE_SEARCH_FAILURE
        assert result.iterations == 0
        assert x.tobytes() == x0.tobytes()
        assert result.final_objective == float("inf")
        assert (result.evaluate_calls, result.gradient_calls) == (51, 1)

    def test_nan_gradient_ends_the_run_without_spending_trials(self):
        # The first step lands where the gradient is NaN; the NaN pair is
        # refused and the NaN slope ends the next line search unevaluated.
        class NanGradientBowl(Quadratic):
            def gradient(self, x):
                return np.full_like(x, np.nan) if abs(x[0]) <= 0.3 else 2.0 * x

        x, result = LBFGS().optimize(NanGradientBowl(), np.array([1.0, 1.0]))
        assert result.termination == TerminationReason.LINE_SEARCH_FAILURE
        assert result.evaluate_calls == 2
        assert np.all(np.isfinite(x))

    def test_float32_run_stays_float32_and_converges(self):
        x, result = LBFGS().optimize(
            Quadratic(), np.array([10.0, -7.0], dtype=np.float32)
        )
        assert x.dtype == np.float32
        assert np.max(np.abs(x)) < 1e-3
        assert result.final_objective < 1e-3

    def test_missing_gradient_is_diagnostic_before_any_call(self):
        calls = {"evaluate": 0}

        class EvaluateOnly:
            def evaluate(self, x):
                calls["evaluate"] += 1
                return 0.0

        with pytest.raises(Diagnostic, match="gradient"):
            LBFGS().optimize(EvaluateOnly(), np.ones(2))
        assert calls["evaluate"] == 0

    def test_config_validation(self):
        with pytest.raises(Diagnostic, match="memory_size"):
            LBFGS(memory_size=0)
        with pytest.raises(Diagnostic, match="armijo"):
            LBFGS(armijo_constant=1.5)
        with pytest.raises(Diagnostic, match="backtrack"):
            LBFGS(backtrack_factor=1.0)
        with pytest.raises(Diagnostic, match="min_gradient_norm must be >= 0, got -1.0"):
            LBFGS(min_gradient_norm=-1.0)
        with pytest.raises(Diagnostic, match="max_iterations"):
            LBFGS(max_iterations=-1)
        with pytest.raises(Diagnostic, match="max_line_search_trials"):
            LBFGS(max_line_search_trials=0)

    def test_unlimited_iterations_allowed(self):
        _, result = LBFGS(max_iterations=0).optimize(Quadratic(), np.array([4.0]))
        assert result.termination == TerminationReason.GRADIENT_NORM_TOLERANCE


class WeightedQuadratic:
    """f(x) = sum(w * x^2): uneven curvature, so -g is not the Newton step."""

    weights = np.array([0.3, 1.7, 0.05])

    def evaluate(self, x):
        return float(np.sum(self.weights * x * x))

    def gradient(self, x):
        return 2.0 * self.weights * x


class TestUnitSteepestDescent:
    """Until the run's first pair is accepted, the direction -g is scaled to at
    most unit 2-norm.  After a restart the memory's gamma sizes it instead
    (``TestRestartStep``)."""

    @pytest.mark.parametrize("seed", range(20))
    def test_regression_takes_one_trial_per_line_search(self, seed):
        X, y, _ = generate_noisy_linear(20, 2000, 10.0, seed=seed)
        x0 = np.random.default_rng([seed, 1]).uniform(-1.0, 1.0, size=(20, 1))
        _, result = LBFGS().optimize(LinearRegression(X, y), x0)
        assert result.termination in (
            TerminationReason.GRADIENT_NORM_TOLERANCE,
            TerminationReason.OBJECTIVE_IMPROVEMENT_TOLERANCE,
        )
        assert result.evaluate_calls == 1 + result.iterations

    def test_small_gradient_step_is_plain_negated_gradient_bitwise(self):
        objective = WeightedQuadratic()
        x0 = np.array([0.9, -0.2, 1.5])
        g0 = objective.gradient(x0)
        assert np.linalg.norm(g0) <= 1.0
        reference = backtracking_line_search(
            ObjectiveAdapter(objective), x0, objective.evaluate(x0), g0, -g0, LBFGS()
        )
        x, result = LBFGS(max_iterations=1).optimize(objective, x0)
        assert result.iterations == 1
        assert np.array_equal(x, x0 + reference.step * -g0)
        assert result.final_objective == reference.value

    def test_large_gradient_first_step_has_at_most_unit_length(self):
        objective = WeightedQuadratic()
        x0 = np.array([10.0, -7.0, 30.0])
        g0 = objective.gradient(x0)
        assert np.linalg.norm(g0) > 1.0
        x, result = LBFGS(max_iterations=1).optimize(objective, x0)
        assert result.iterations == 1
        assert result.evaluate_calls == 2  # x0 plus one accepted trial
        assert np.linalg.norm(x - x0) <= 1.0 + 4 * np.finfo(np.float64).eps
        assert_allclose(x - x0, -g0 / np.linalg.norm(g0), rtol=1e-12)


class TestRestartStep:
    """After a rejected pair restarts the memory, the first trial is x - gamma
    g bitwise, gamma being s.y / y.y of the newest pair accepted before the
    clear, on Rosenbrock runs whose pushes and clears are recorded."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_the_first_trial_after_a_restart_is_x_minus_gamma_g(self, monkeypatch, dtype):
        # The memory's pushes and clears are recorded through its class, so
        # gamma, s.y / y.y of the newest pair accepted before each clear, is
        # computed here from the pairs.  The clear comes after the gradient
        # at the accepted x; the next call is the restart's first trial.
        objective = RecordingRosenbrock()
        accepted, restarts = [], []
        push, clear = LbfgsMemory.push, LbfgsMemory.clear

        def recorded_push(memory, s, y):
            stored = push(memory, s, y)
            if stored:
                accepted.append((s.ravel().copy(), y.ravel().copy()))
            return stored

        def recorded_clear(memory):
            restarts.append((len(objective.calls), accepted[-1] if accepted else None))
            clear(memory)

        monkeypatch.setattr(LbfgsMemory, "push", recorded_push)
        monkeypatch.setattr(LbfgsMemory, "clear", recorded_clear)
        checked = 0
        for seed in range(20):
            objective.calls.clear()
            accepted.clear()
            restarts.clear()
            LBFGS().optimize(objective, np.random.default_rng(seed).uniform(-2, 2, 2).astype(dtype))
            for index, pair in restarts:
                if pair is None or index == len(objective.calls):
                    continue
                kind, x, _ = objective.calls[index - 1]
                assert kind == "gradient"
                s, y = pair
                gamma = float(s.dot(y)) / float(y.dot(y))
                kind, trial, _ = objective.calls[index]
                assert kind == "evaluate"
                assert trial.tobytes() == (x - gamma * Rosenbrock().gradient(x)).tobytes()
                checked += 1
        assert checked >= 3


class ScaledQuadratic:
    """Random SPD quadratic whose gradient at its start has a chosen 2-norm.

    Arithmetic stays in the start's dtype, and every call is counted.
    """

    def __init__(self, dim, seed, gradient_norm, dtype):
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        hessian = basis @ np.diag(rng.uniform(0.5, 20.0, dim)) @ basis.T
        self.center = rng.uniform(-1.0, 1.0, dim).astype(dtype)
        self.start = rng.uniform(-1.0, 1.0, dim).astype(dtype)
        g0 = hessian @ (self.start - self.center)
        self.hessian = (hessian * (gradient_norm / np.linalg.norm(g0))).astype(dtype)
        self.evaluate_calls = 0
        self.gradient_calls = 0

    def evaluate(self, x):
        self.evaluate_calls += 1
        offset = x - self.center
        return 0.5 * float(offset @ (self.hessian @ offset))

    def gradient(self, x):
        self.gradient_calls += 1
        return self.hessian @ (x - self.center)


class TestGradientScaleProperties:
    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(
        dim=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        log_gradient_norm=st.floats(-3.0, 6.0),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    def test_run_invariants_hold_across_gradient_scales(
        self, dim, seed, log_gradient_norm, dtype
    ):
        objective = ScaledQuadratic(dim, seed, 10.0**log_gradient_norm, dtype)
        x0 = objective.start.copy()
        x, result = LBFGS().optimize(objective, objective.start)
        assert np.array_equal(objective.start, x0)
        assert x.dtype == dtype
        assert np.all(np.isfinite(x))
        assert result.evaluate_calls == objective.evaluate_calls
        assert result.gradient_calls == objective.gradient_calls
        if dtype is np.float64:
            assert result.termination not in (
                TerminationReason.LINE_SEARCH_FAILURE,
                TerminationReason.STEP_SIZE_UNDERFLOW,
            )


def golden_problem(name, dtype):
    """(objective, x0) of a golden case, built from seeded data in ``dtype``."""
    if name.startswith("rosenbrock-"):
        starts = np.random.default_rng(1101).uniform(-2.0, 2.0, size=(10, 2))
        return Rosenbrock(), starts[int(name.split("-")[1])].astype(dtype)
    X, y, _ = generate_noisy_linear(5, 200, 1.0, seed=1102)
    if name == "linear":
        objective = LinearRegression(X.astype(dtype), y.astype(dtype))
    else:
        labels = (y > 0).astype(dtype)
        objective = LogisticRegression(X.astype(dtype), labels, ridge=0.1)
    return objective, np.zeros((5, 1), dtype)


# LBFGS() on each case: iterations, evaluate calls, gradient calls,
# termination and the returned x, its elements as float.hex.  A change that
# moves any bit of an L-BFGS run (a reordered product, a fused update) fails
# here; such a change must say so and renew the table on purpose.
GOLDEN_RUNS = [
    ("rosenbrock-0", np.float32, 31, 34, 32, "GRADIENT_NORM_TOLERANCE", [
        "0x1.0000000000000p+0", "0x1.0000000000000p+0",
    ]),
    ("rosenbrock-1", np.float32, 17, 27, 18, "GRADIENT_NORM_TOLERANCE", [
        "0x1.0000000000000p+0", "0x1.0000000000000p+0",
    ]),
    ("rosenbrock-2", np.float32, 26, 38, 27, "GRADIENT_NORM_TOLERANCE", [
        "0x1.0000000000000p+0", "0x1.0000000000000p+0",
    ]),
    ("rosenbrock-3", np.float32, 20, 24, 21, "GRADIENT_NORM_TOLERANCE", [
        "0x1.0000000000000p+0", "0x1.0000000000000p+0",
    ]),
    ("rosenbrock-4", np.float32, 25, 31, 26, "GRADIENT_NORM_TOLERANCE", [
        "0x1.fffffe0000000p-1", "0x1.fffffc0000000p-1",
    ]),
    ("rosenbrock-5", np.float32, 20, 24, 21, "OBJECTIVE_IMPROVEMENT_TOLERANCE", [
        "0x1.0000000000000p+0", "0x1.fffffe0000000p-1",
    ]),
    ("rosenbrock-6", np.float32, 27, 33, 28, "OBJECTIVE_IMPROVEMENT_TOLERANCE", [
        "0x1.fffffe0000000p-1", "0x1.fffffe0000000p-1",
    ]),
    ("rosenbrock-7", np.float32, 30, 41, 31, "GRADIENT_NORM_TOLERANCE", [
        "0x1.0000000000000p+0", "0x1.0000000000000p+0",
    ]),
    ("rosenbrock-8", np.float32, 28, 36, 29, "GRADIENT_NORM_TOLERANCE", [
        "0x1.0000000000000p+0", "0x1.0000000000000p+0",
    ]),
    ("rosenbrock-9", np.float32, 24, 26, 25, "OBJECTIVE_IMPROVEMENT_TOLERANCE", [
        "0x1.0000020000000p+0", "0x1.0000060000000p+0",
    ]),
    ("linear", np.float32, 5, 22, 6, "OBJECTIVE_IMPROVEMENT_TOLERANCE", [
        "0x1.45b3100000000p-1", "0x1.a749380000000p-3", "0x1.c1f1d80000000p-1",
        "0x1.cc62000000000p-3", "0x1.09ea5c0000000p-4",
    ]),
    ("logistic", np.float32, 11, 28, 12, "OBJECTIVE_IMPROVEMENT_TOLERANCE", [
        "0x1.10d6e60000000p+0", "0x1.96b39a0000000p-3", "0x1.819b420000000p+0",
        "0x1.42f4b00000000p-2", "0x1.8702dc0000000p-2",
    ]),
    ("rosenbrock-0", np.float64, 31, 34, 32, "GRADIENT_NORM_TOLERANCE", [
        "0x1.ffffffb77318dp-1", "0x1.ffffff63df012p-1",
    ]),
    ("rosenbrock-1", np.float64, 17, 28, 18, "GRADIENT_NORM_TOLERANCE", [
        "0x1.0000006dbdae6p+0", "0x1.000000d34a9d5p+0",
    ]),
    ("rosenbrock-2", np.float64, 26, 39, 27, "OBJECTIVE_IMPROVEMENT_TOLERANCE", [
        "0x1.0000004f794e9p+0", "0x1.0000015b6f5ebp+0",
    ]),
    ("rosenbrock-3", np.float64, 20, 25, 21, "GRADIENT_NORM_TOLERANCE", [
        "0x1.00000000f66bcp+0", "0x1.00000001b1e49p+0",
    ]),
    ("rosenbrock-4", np.float64, 25, 31, 26, "OBJECTIVE_IMPROVEMENT_TOLERANCE", [
        "0x1.fffff90c10526p-1", "0x1.fffff182ab038p-1",
    ]),
    ("rosenbrock-5", np.float64, 20, 24, 21, "GRADIENT_NORM_TOLERANCE", [
        "0x1.ffffff6219f8ap-1", "0x1.fffffec3d9f93p-1",
    ]),
    ("rosenbrock-6", np.float64, 26, 32, 27, "GRADIENT_NORM_TOLERANCE", [
        "0x1.ffffffff453e5p-1", "0x1.fffffffde0abcp-1",
    ]),
    ("rosenbrock-7", np.float64, 28, 38, 29, "OBJECTIVE_IMPROVEMENT_TOLERANCE", [
        "0x1.fffffbf5d68abp-1", "0x1.fffff7a730790p-1",
    ]),
    ("rosenbrock-8", np.float64, 29, 37, 30, "GRADIENT_NORM_TOLERANCE", [
        "0x1.ffffffe682ad2p-1", "0x1.ffffffca02a4bp-1",
    ]),
    ("rosenbrock-9", np.float64, 24, 26, 25, "OBJECTIVE_IMPROVEMENT_TOLERANCE", [
        "0x1.000002a34367cp+0", "0x1.0000052b758c4p+0",
    ]),
    ("linear", np.float64, 7, 8, 8, "OBJECTIVE_IMPROVEMENT_TOLERANCE", [
        "0x1.45a1c1d7fd94ap-1", "0x1.a7919d09686fbp-3", "0x1.c1f913ed5b814p-1",
        "0x1.cc7e60197505ep-3", "0x1.098d42bb0151bp-4",
    ]),
    ("logistic", np.float64, 7, 8, 8, "OBJECTIVE_IMPROVEMENT_TOLERANCE", [
        "0x1.10d645d8a637dp+0", "0x1.96af2468006b3p-3", "0x1.819be965bc549p+0",
        "0x1.42f20e8e61cb7p-2", "0x1.86fff38168c65p-2",
    ]),
]


@pytest.mark.parametrize(
    "name, dtype, iterations, evaluate_calls, gradient_calls, termination, x_hex",
    GOLDEN_RUNS,
    ids=[f"{row[0]}-{row[1].__name__}" for row in GOLDEN_RUNS],
)
def test_golden_lbfgs_numerics(
    name, dtype, iterations, evaluate_calls, gradient_calls, termination, x_hex
):
    """24 LBFGS() runs (10 Rosenbrock starts, a d=5 linear and a d=5 logistic
    problem with ridge, each in float32 and float64) keep their iteration and
    call counts exactly and their returned x bit for bit, so a change that
    moves any bit of an L-BFGS run fails here."""
    objective, x0 = golden_problem(name, dtype)
    x, result = LBFGS().optimize(objective, x0)
    assert (result.iterations, result.evaluate_calls, result.gradient_calls) == (
        iterations,
        evaluate_calls,
        gradient_calls,
    )
    assert result.termination == TerminationReason[termination]
    assert x.dtype == dtype
    assert x.shape == x0.shape
    expected = np.array([float.fromhex(h) for h in x_hex], dtype=dtype).reshape(x0.shape)
    assert_array_equal(x, expected)


def test_rosenbrock_call_totals_over_300_starts():
    """The total evaluate and gradient calls of LBFGS() on Rosenbrock from 300
    seeded starts stay as pinned."""
    # LBFGS() on Rosenbrock from 300 seeded starts: total evaluate and
    # gradient calls.  A change that moves any solve's call count fails here;
    # like the golden table, it must say so and renew the totals on purpose.
    evaluations = gradients = 0
    for seed in range(1, 301):
        x0 = np.random.default_rng(seed).uniform(-2.0, 2.0, 2)
        _, result = LBFGS().optimize(Rosenbrock(), x0)
        evaluations += result.evaluate_calls
        gradients += result.gradient_calls
    assert (evaluations, gradients) == (10078, 8659)
