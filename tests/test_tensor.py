"""Tests for the autodiff core: op values, gradients, tape semantics."""

import gc
import math
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_kernels import DTYPES, PROPERTY, _assert_bitwise, _rows_of, _within_summation_bound

from mtformer import kernels
from mtformer import tensor as T
from mtformer.errors import DataError, DimensionError, OracleError
from mtformer.tensor import Tape, Tensor


def _rand(rng, *shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


# ---------------------------------------------------------------- op values

def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 5)))
    eye = Tensor(np.eye(5))
    np.testing.assert_array_equal(T.matmul(a, eye).data, a.data)


def test_matmul_one_by_one():
    out = T.matmul(Tensor([[2.0]]), Tensor([[3.0]]))
    assert out.shape == (1, 1) and float(out.data[0, 0]) == 6.0


def test_matmul_mismatch_names_both_shapes():
    with pytest.raises(DimensionError) as err:
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)


def test_softmax_known_triple():
    # independent oracle: direct evaluation of exp(x) / sum(exp(x))
    x = np.array([1.0, 2.0, 3.0])
    expected = np.exp(x) / np.exp(x).sum()
    got = T.softmax_lastdim(Tensor(x)).data
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        got, [0.09003057, 0.24472847, 0.66524096], rtol=0, atol=1e-8)


def test_softmax_rows_sum_to_one_including_extremes():
    rng = np.random.default_rng(1)
    for scale in (1.0, 1e2, 1e4):
        x = Tensor(rng.normal(size=(7, 11)) * scale)
        rows = T.softmax_lastdim(x).data.sum(axis=-1)
        np.testing.assert_allclose(rows, 1.0, rtol=0, atol=1e-9)


def test_softmax_extreme_gap_concentrates_mass():
    y = T.softmax_lastdim(Tensor([0.0, 1e4])).data
    assert y[1] > 1.0 - 1e-12 and y[0] < 1e-12


def test_softmax_empty_last_axis_raises():
    with pytest.raises(DimensionError):
        T.softmax_lastdim(Tensor(np.zeros((3, 0))))


def test_layer_norm_two_point_row():
    # mean 2, population variance 1, so +-1 / sqrt(1 + eps)
    out = T.layer_norm(Tensor([1.0, 3.0]), Tensor([1.0, 1.0]), Tensor([0.0, 0.0]))
    want = 1.0 / math.sqrt(1.0 + 1e-5)
    np.testing.assert_allclose(out.data, [-want, want], rtol=0, atol=1e-12)


def test_layer_norm_constant_row_is_beta():
    out = T.layer_norm(Tensor([4.0, 4.0, 4.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
    np.testing.assert_allclose(out.data, 0.0, rtol=0, atol=1e-12)


def test_layer_norm_mismatched_scale_rejected():
    with pytest.raises(DimensionError):
        T.layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(3)))


def test_gelu_reference_points():
    # oracle: scalar x * Phi(x) via math.erf, independent of the vector code
    for x in (0.0, 1.0, -2.0, 0.31):
        expected = x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
        got = T.gelu(Tensor([x])).data[0]
        assert got == pytest.approx(expected, abs=1e-12)
    assert T.gelu(Tensor([1.0])).data[0] == pytest.approx(0.841345, abs=1e-6)


def test_sigmoid_matches_closed_form():
    x = np.linspace(-6, 6, 13)
    np.testing.assert_allclose(
        T.sigmoid(Tensor(x)).data, 1.0 / (1.0 + np.exp(-x)), rtol=0, atol=1e-12)


def test_sigmoid_saturates_to_exact_bounds_without_warning():
    for dtype in (np.float64, np.float32):
        with np.errstate(all="raise"):
            y = T.sigmoid(Tensor(np.array([-1000.0, 1000.0], dtype=dtype))).data
        assert y.dtype == dtype
        assert y[0] == 0.0 and y[1] == 1.0


# ------------------------------------------------------------- gradient checks

def test_grad_check_quadratic_is_tight():
    # central differences are exact on quadratics up to roundoff
    rng = np.random.default_rng(2)
    x = _rand(rng, 4, 3)
    err = T.grad_check(lambda t: T.sum_(T.mul(t, t)), x)
    assert err < 1e-9


def test_grad_check_flags_doubled_gradient():
    # negative control: an op whose backward reports twice the true gradient
    def broken_square_sum(t):
        data = np.array((t.data * t.data).sum())

        def backward(g):
            return (g * 4.0 * t.data,)  # true gradient is 2x

        return T._from_op(data, (t,), backward)

    rng = np.random.default_rng(3)
    x = _rand(rng, 5, lo=0.5, hi=1.5)
    err = T.grad_check(broken_square_sum, x)
    assert err == pytest.approx(0.5, abs=1e-3)


def test_grad_check_restores_probe_when_f_raises():
    # the first call is the taped pass, the second the first perturbed one
    x = _rand(np.random.default_rng(3), 3, 2)
    before = x.data.copy()
    calls = []

    def f(t):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("probe failed")
        return T.sum_(T.mul(t, t))

    with pytest.raises(RuntimeError, match="probe failed"):
        T.grad_check(f, x)
    assert x.data.tobytes() == before.tobytes()


def test_grad_check_rejects_non_finite():
    with pytest.raises(OracleError):
        T.grad_check(lambda t: Tensor(float("nan")), _rand(np.random.default_rng(4), 2))


def test_grad_check_rejects_non_scalar():
    with pytest.raises(OracleError):
        T.grad_check(lambda t: t, _rand(np.random.default_rng(5), 2))


def _probe_cases():
    rng = np.random.default_rng(6)
    w = rng.normal(size=(3, 3))
    w2 = rng.normal(size=(4, 6, 3))
    labels = rng.integers(0, 3, size=(4, 6))
    rows = np.array([0, 2, 2, 1])
    order = rng.permutation(6)
    return [
        ("add_broadcast", lambda x: T.sum_(T.mul(T.add(x, Tensor(w[0])), Tensor(w2))), (4, 6, 3)),
        ("sub", lambda x: T.sum_(T.sub(Tensor(w2), x)), (4, 6, 3)),
        ("mul_broadcast", lambda x: T.sum_(T.mul(x, Tensor(w2))), (1, 6, 3)),
        ("div", lambda x: T.sum_(T.div(Tensor(w2), T.add(x, 3.0))), (4, 6, 3)),
        ("neg", lambda x: T.sum_(T.neg(x)), (5,)),
        ("matmul_left", lambda x: T.sum_(T.matmul(x, Tensor(w))), (5, 3)),
        ("matmul_batched", lambda x: T.sum_(T.matmul(T.reshape(x, (2, 2, 3)), Tensor(w))), (4, 3)),
        ("linear_broadcast_bias", lambda x: T.sum_(T.mul(
            T.linear(x, Tensor(w), Tensor(w2[:2, :1])), Tensor(w2[:2, :5]))), (5, 3)),
        ("linear_bias", lambda b: T.sum_(T.mul(
            T.linear(Tensor(w2[0, :5]), Tensor(w), b), Tensor(w2[:2, :5]))), (2, 1, 3)),
        ("reshape", lambda x: T.sum_(T.mul(T.reshape(x, (2, 6)), 1.5)), (3, 4)),
        ("transpose", lambda x: T.sum_(T.mul(T.transpose(x, (1, 0, 2)), Tensor(w2))), (6, 4, 3)),
        ("permute_tokens", lambda x: T.sum_(T.mul(
            T.permute_tokens(x, order, np.argsort(order)), Tensor(w2))), (4, 6, 3)),
        ("sum_axis", lambda x: T.sum_(T.mul(T.sum_(x, axis=1), 2.0)), (3, 4)),
        ("sum_keepdims", lambda x: T.sum_(T.sum_(x, axis=(0, 1), keepdims=True)), (3, 4)),
        ("mean", lambda x: T.mean(T.mul(x, x)), (3, 4)),
        ("log", lambda x: T.sum_(T.log(T.add(x, 2.0))), (4, 4)),
        ("sqrt", lambda x: T.sum_(T.sqrt(T.add(x, 2.0))), (4, 4)),
        ("abs", lambda x: T.sum_(T.abs_(T.add(x, 2.0))), (4, 4)),
        ("sigmoid", lambda x: T.sum_(T.sigmoid(x)), (4, 4)),
        ("gelu", lambda x: T.sum_(T.gelu(x)), (4, 4)),
        ("softmax", lambda x: T.sum_(T.mul(T.softmax_lastdim(x), Tensor(w2))), (4, 6, 3)),
        ("layer_norm_x", lambda x: T.sum_(T.mul(
            T.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3))), Tensor(w2))), (4, 6, 3)),
        ("take_rows", lambda x: T.sum_(T.mul(T.take_rows(x, rows), Tensor(w[rows % 3]))), (3, 3)),
        ("gather_lastdim", lambda x: T.sum_(T.gather_lastdim(x, labels)), (4, 6, 3)),
    ]


@pytest.mark.parametrize("name,fn,shape", _probe_cases(), ids=lambda c: c if isinstance(c, str) else "")
def test_per_op_gradients_match_central_differences(name, fn, shape):
    rng = np.random.default_rng(hash(name) % (2 ** 32))
    x = _rand(rng, *shape)
    assert T.grad_check(fn, x) < 1e-4


def test_layer_norm_gamma_beta_gradients():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(5, 4)))
    w = Tensor(rng.normal(size=(5, 4)))

    gamma = _rand(rng, 4)
    err = T.grad_check(lambda g: T.sum_(T.mul(T.layer_norm(x, g, Tensor(np.zeros(4))), w)), gamma)
    assert err < 1e-4

    beta = _rand(rng, 4)
    err = T.grad_check(lambda b: T.sum_(T.mul(T.layer_norm(x, Tensor(np.ones(4)), b), w)), beta)
    assert err < 1e-4


def test_layer_norm_stacked_gamma_beta_gradients():
    # one [1, C] scale/shift per leading slice, as the task-stacked decoders use
    rng = np.random.default_rng(17)
    x = Tensor(rng.normal(size=(3, 5, 4)))
    w = Tensor(rng.normal(size=(3, 5, 4)))
    beta0 = rng.normal(size=(3, 1, 4))

    gamma = _rand(rng, 3, 1, 4)
    err = T.grad_check(lambda g: T.sum_(T.mul(T.layer_norm(x, g, Tensor(beta0)), w)), gamma)
    assert err < 1e-4
    out = T.layer_norm(x, gamma, Tensor(beta0)).data
    for k in range(3):
        want = T.layer_norm(Tensor(x.data[k]), Tensor(gamma.data[k, 0]), Tensor(beta0[k, 0])).data
        np.testing.assert_array_equal(out[k], want)

    beta = _rand(rng, 3, 1, 4)
    err = T.grad_check(lambda b: T.sum_(T.mul(T.layer_norm(x, Tensor(np.ones((3, 1, 4))), b), w)),
                       beta)
    assert err < 1e-4
    with pytest.raises(DimensionError):
        T.layer_norm(x, Tensor(np.ones((2, 1, 4))), Tensor(np.zeros(4)))


def test_matmul_right_operand_gradient_with_broadcast():
    rng = np.random.default_rng(8)
    a = Tensor(rng.normal(size=(4, 5, 3)))
    b = _rand(rng, 3, 2)
    err = T.grad_check(lambda t: T.sum_(T.matmul(a, t)), b)
    assert err < 1e-4


def test_take_rows_duplicate_indices_accumulate():
    table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    idx = np.array([1, 1, 0])
    with Tape() as tape:
        out = T.sum_(T.take_rows(table, idx))
        tape.backward(out)
    np.testing.assert_array_equal(table.grad, [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])


def test_gather_lastdim_rejects_out_of_range_labels():
    with pytest.raises(DataError):
        T.gather_lastdim(Tensor(np.zeros((2, 3))), np.array([0, 3]))


# ---------------------------------------------------------------- tape semantics

def test_tape_reverse_replay_visits_every_record_once():
    rng = np.random.default_rng(9)
    x = _rand(rng, 3, 3)
    with Tape() as tape:
        y = T.sum_(T.gelu(T.matmul(x, x)))
        visited = tape.backward(y)
    assert visited == len(tape) and len(tape) == 3


def test_backward_accumulates_additively():
    x = Tensor([1.0, 2.0], requires_grad=True)

    def sweep():  # the same computation, on a new tape each time
        with Tape() as tape:
            y = T.sum_(T.mul(x, x))
            tape.backward(y)

    sweep()
    once = x.grad.copy()
    sweep()
    np.testing.assert_array_equal(x.grad, 2.0 * once)
    T.zero_grad([x])
    assert x.grad is None


def test_second_backward_accumulates_into_grad_bitwise():
    rng = np.random.default_rng(14)
    x = _rand(rng, 3, 4)
    w = Tensor(rng.normal(size=(4, 4)))

    def sweep():  # the same computation, on a new tape each time
        with Tape() as tape:
            loss = T.sum_(T.gelu(T.matmul(x, w)))
            tape.backward(loss)

    sweep()
    g1 = x.grad.copy()
    held = x.grad
    sweep()
    assert x.grad is held, ".grad is an accumulator, updated in place"
    assert x.grad.tobytes() == (g1 + g1).tobytes()


def test_one_gradient_array_reaching_two_leaves_gives_distinct_grads():
    # add hands the same upstream array to both operands; each leaf must
    # still get its own .grad, or accumulation would add into both at once
    a = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    b = Tensor(np.array([0.5, 0.25, -1.0]), requires_grad=True)
    up = Tensor(np.array([2.0, -1.0, 0.5]))
    for _ in range(2):  # the same computation on two tapes
        with Tape() as tape:
            loss = T.sum_(T.mul(T.add(a, b), up))
            tape.backward(loss)
        assert a.grad is not b.grad and not np.shares_memory(a.grad, b.grad)
    np.testing.assert_array_equal(a.grad, 2.0 * up.data)
    np.testing.assert_array_equal(b.grad, 2.0 * up.data)


def test_a_tape_is_swept_once():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = T.sum_(T.mul(x, x))
        tape.backward(y)
        with pytest.raises(DataError, match="swept once"):
            tape.backward(y)
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])  # the refused sweep added nothing


def test_the_sweep_frees_each_record_it_passes():
    # gelu's record holds the product it reads; the sweep drops that record,
    # so the product dies while the tape object still lives
    rng = np.random.default_rng(18)
    x = _rand(rng, 3, 4)
    w = _rand(rng, 4, 4)
    with Tape() as tape:
        h = T.matmul(x, w)
        loss = T.sum_(T.gelu(h))
    product = weakref.ref(h.data)
    del h
    assert product() is not None, "the gelu record reads the product"
    tape.backward(loss)
    assert product() is None
    assert len(tape) == 3, "len counts the records made, also once freed"


def test_two_threads_record_on_their_own_tapes():
    # each thread records on the tape it opened, even while the other
    # thread's tape is open; the barrier interleaves their ops
    rng = np.random.default_rng(19)
    w = _rand(rng, 4, 4)
    inputs = [Tensor(rng.normal(size=(3, 4))) for _ in range(2)]
    barrier = threading.Barrier(2)

    def taped(x, wait=barrier.wait):
        with Tape() as tape:
            h = x
            for _ in range(3):
                wait()
                h = T.gelu(T.matmul(h, w))
            loss = T.sum_(h)
        return tape, loss

    with ThreadPoolExecutor(max_workers=2) as pool:
        tapes = list(pool.map(taped, inputs))
    assert [len(tape) for tape, _ in tapes] == [7, 7]
    for tape, loss in tapes:
        tape.backward(loss)
    threaded = w.grad.copy()
    w.grad = None
    for x in inputs:  # the serial run
        tape, loss = taped(x, wait=lambda: None)
        tape.backward(loss)
    assert threaded.tobytes() == w.grad.tobytes()


def test_replay_is_bitwise_deterministic():
    def run():
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        with Tape() as tape:
            y = T.sum_(T.softmax_lastdim(T.matmul(x, Tensor(rng.normal(size=(6, 6))))))
            tape.backward(y)
        return x.grad

    first, second = run(), run()
    assert np.array_equal(first, second)


def test_ops_on_constants_are_not_recorded():
    with Tape() as tape:
        T.mul(Tensor([1.0]), Tensor([2.0]))
        assert len(tape) == 0


def test_backward_rejects_non_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = T.mul(x, 2.0)
        with pytest.raises(DimensionError):
            tape.backward(y)


def test_backward_rejects_loss_nothing_differentiable_feeds():
    with Tape() as tape:
        y = T.sum_(T.mul(Tensor([1.0, 2.0]), 2.0))
        with pytest.raises(DataError, match="requires grad"):
            tape.backward(y)


def test_scalar_loss_grad_is_one():
    x = Tensor([3.0], requires_grad=True)
    with Tape() as tape:
        y = T.sum_(T.mul(x, x))
        tape.backward(y)
    assert y.grad == np.ones(1)


def test_backward_writes_grad_to_leaves_and_loss_only():
    rng = np.random.default_rng(13)
    x = _rand(rng, 3, 4)
    w = _rand(rng, 4, 2)
    with Tape() as tape:
        h = T.matmul(x, w)
        a = T.gelu(h)
        sq = T.mul(a, a)
        loss = T.sum_(sq)
        tape.backward(loss)
    assert len(tape) == 4, "h, a, sq and loss are every taped output"
    assert x.grad is not None and w.grad is not None
    assert loss.grad == np.ones(1)
    assert all(out.grad is None for out in (h, a, sq))


@pytest.mark.parametrize("n", [10, 100])
def test_backward_peak_memory_does_not_grow_with_chain_length(n):
    # each consumed gradient is freed, so the sweep holds O(1) arrays, not O(n)
    x = Tensor(np.linspace(-1.0, 1.0, 1 << 16), requires_grad=True)
    with Tape() as tape:
        y = x
        for i in range(n):
            y = T.mul(y, 0.99) if i % 2 else T.sigmoid(y)
        loss = T.sum_(y)
    tracemalloc.start()
    try:
        tape.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * x.data.nbytes


# ------------------------------------------------------------ tape memory plan

def test_add_inputs_die_once_no_later_record_reads_them():
    # add's backward needs only shapes, and mul by a constant and neg keep
    # nothing of their outputs, so no record holds u, v or s
    x = Tensor(np.linspace(-1.0, 1.0, 8), requires_grad=True)
    with Tape() as tape:
        u = T.mul(x, 2.0)
        v = T.neg(x)
        s = T.add(u, v)
        loss = T.sum_(s)
    refs = [weakref.ref(t.data) for t in (u, v, s)]
    del u, v, s
    assert [r() for r in refs] == [None, None, None]
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, np.ones(8))


def test_gradients_hold_while_freed_intermediates_hand_their_ids_on():
    # every pass frees intermediates and then creates a new leaf, so CPython
    # hands a freed intermediate's id to a leaf mid-forward; a sweep keyed
    # by id() of tensors the tape no longer holds would add that leaf's
    # gradient into the freed intermediate's and corrupt x's
    rng = np.random.default_rng(15)
    x = _rand(rng, 3, 4)
    w = Tensor(rng.normal(size=(4, 4)))
    seen, reused = set(), []

    def f(t):
        h = t
        for i in range(6):
            scale = Tensor(np.full((1, 4), 0.5 + 0.1 * i), requires_grad=True)
            z = T.add(T.matmul(h, w), scale)
            h = T.gelu(T.mul(z, scale))
            for made in (scale, z, h):
                reused.append(id(made) in seen)
                seen.add(id(made))
            del z, scale
        return T.sum_(T.mul(h, h))

    err = T.grad_check(f, x)
    assert any(reused), "no id was handed on, so the hazard was not exercised"
    assert err < 1e-6


def test_dropping_a_taped_graph_frees_it_without_the_cycle_collector():
    # a reference cycle through a Tensor, a closure and the tape would keep
    # every activation alive until the cyclic collector ran
    rng = np.random.default_rng(16)
    x = _rand(rng, 64, 64)
    w = Tensor(rng.normal(size=(64, 64)) / 8.0, requires_grad=True)
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            h = x
            for _ in range(6):
                h = T.gelu(T.layer_norm(T.matmul(h, w), Tensor(np.ones(64)), Tensor(np.zeros(64))))
            loss = T.mean(T.softmax_lastdim(h))
        del h
        pinned = tracemalloc.get_traced_memory()[0] - base
        tape.backward(loss)
        T.zero_grad([x, w])
        del tape, loss
        left = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        gc.enable()
    assert pinned > 20 * x.data.nbytes
    assert left < x.data.nbytes, (pinned, left)


NOT_OPS = {"Tensor", "Tape", "central_difference", "grad_check", "zero_grad"}


def _held_tensors(fn):
    """Every Tensor reachable through ``fn``'s closure cells, following nested
    closures and containers."""
    found, stack = [], [fn]
    while stack:
        obj = stack.pop()
        if isinstance(obj, Tensor):
            found.append(obj)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif callable(obj) and getattr(obj, "__closure__", None):
            stack.extend(cell.cell_contents for cell in obj.__closure__)
    return found


def test_every_op_records_only_what_its_backward_reads():
    rng = np.random.default_rng(17)
    leaf = _rand(rng, 3, 4)
    square = _rand(rng, 4, 4)
    row = _rand(rng, 4)
    cases = {
        "add": lambda a, m, r, pos: T.add(a, r),
        "sub": lambda a, m, r, pos: T.sub(a, r),
        "mul": lambda a, m, r, pos: T.mul(a, r),
        "div": lambda a, m, r, pos: T.div(a, pos),
        "neg": lambda a, m, r, pos: T.neg(a),
        "matmul": lambda a, m, r, pos: T.matmul(a, m),
        "linear": lambda a, m, r, pos: T.linear(a, m, r),
        "reshape": lambda a, m, r, pos: T.reshape(a, (4, 3)),
        "transpose": lambda a, m, r, pos: T.transpose(a, (1, 0)),
        "swapaxes": lambda a, m, r, pos: T.swapaxes(a, 0, 1),
        "permute_tokens": lambda a, m, r, pos: T.permute_tokens(a, [2, 0, 1], [1, 2, 0]),
        "sum_": lambda a, m, r, pos: T.sum_(a, axis=0),
        "mean": lambda a, m, r, pos: T.mean(a),
        "log": lambda a, m, r, pos: T.log(pos),
        "sqrt": lambda a, m, r, pos: T.sqrt(pos),
        "abs_": lambda a, m, r, pos: T.abs_(a),
        "sigmoid": lambda a, m, r, pos: T.sigmoid(a),
        "softmax_lastdim": lambda a, m, r, pos: T.softmax_lastdim(a),
        "layer_norm": lambda a, m, r, pos: T.layer_norm(a, r, T.neg(r)),
        "gelu": lambda a, m, r, pos: T.gelu(a),
        "take_rows": lambda a, m, r, pos: T.take_rows(a, np.array([0, 2, 2])),
        "gather_lastdim": lambda a, m, r, pos: T.gather_lastdim(a, np.array([0, 3, 1])),
    }
    assert set(cases) == set(T.__all__) - NOT_OPS, "a new op needs a case here"
    for name, op in cases.items():
        for leaf_operand in (False, True):  # intermediate operands, then a leaf one
            with Tape() as tape:
                a = leaf if leaf_operand else T.mul(leaf, 1.0)
                pos = T.add(T.abs_(a), 0.5)
                out = op(a, T.mul(square, 1.0), T.mul(row, 1.0), pos)
                loss = T.sum_(T.mul(out, out))
            for index, (parents, backward) in enumerate(tape._records):
                assert _held_tensors(backward) == [], (name, index)
                for parent in parents:
                    if isinstance(parent, Tensor):  # a leaf: never produced on this tape
                        assert parent.requires_grad and parent._node is None, (name, index)
                    else:
                        assert parent is None or 0 <= parent < index, (name, index)
            tape.backward(loss)
            assert leaf.grad is not None and np.isfinite(leaf.grad).all(), name
            T.zero_grad([leaf, square, row])


# ---------------------------------------------------------------- dtype handling

def test_float32_stays_float32_through_the_stack():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(4, 4)).astype(np.float32), requires_grad=True)
    gamma = Tensor(np.ones(4, np.float32))
    beta = Tensor(np.zeros(4, np.float32))
    with Tape() as tape:
        h = T.layer_norm(x, gamma, beta)
        h = T.gelu(T.matmul(h, Tensor(np.eye(4, dtype=np.float32))))
        h = T.softmax_lastdim(h)
        h = T.mean(T.sigmoid(h))
        assert h.dtype == np.float32
        tape.backward(h)
    assert x.grad.dtype == np.float32


def test_integer_input_promotes_to_float64():
    t = Tensor([1, 2, 3])
    assert t.dtype == np.float64


# ------------------------------------------- kernels against their plain form
# Each kernel must compute bitwise what its plain numpy expression computes,
# forward and backward; the oracles below are those expressions, written
# out without in-place updates or reused buffers.  A sum or mean over the
# last axis is one matrix-vector product with ones (_rows), as the kernels
# compute it, and a sum over the tokens under a bias or layer-norm scale is
# numpy's sum (_tokens).

def _rows(x):
    """Sum over the last axis, keepdims: ``x.reshape(-1, n) @ ones(n)``."""
    n = x.shape[-1]
    return (x.reshape(-1, n) @ np.ones(n, x.dtype)).reshape(*x.shape[:-1], 1)


def _tokens(g, shape):
    """Sum ``g`` down to ``shape`` in numpy's two steps: every leading axis
    ``shape`` lacks, then, with keepdims, the token axis of a stacked
    [k, n, c] under a [k, 1, c] parameter.  A step with no axis to sum is
    skipped: a sum over no axes would turn -0.0 into 0.0."""
    lead = tuple(range(g.ndim - len(shape)))
    if lead:
        g = g.sum(axis=lead)
    tokens = tuple(i for i, n in enumerate(shape) if n != g.shape[i])
    return g.sum(axis=tokens, keepdims=True) if tokens else g


def _value_and_grads(fn, inputs, upstream):
    """``fn(*inputs)`` and each input's gradient when the op's own backward
    receives exactly ``upstream`` (the loss is sum(out * upstream))."""
    leaves = [Tensor(a, requires_grad=True) for a in inputs]
    with Tape() as tape:
        out = fn(*leaves)
        tape.backward(T.sum_(T.mul(out, Tensor(upstream))))
    return out.data, [t.grad for t in leaves]


def _normal(rng, shape, dtype):
    return rng.normal(size=shape).astype(dtype)


@PROPERTY
@given(st.lists(st.integers(1, 3), max_size=3), st.integers(1, 33), st.floats(0.0, 0.5),
       DTYPES, st.integers(0, 2 ** 16))
def test_softmax_matches_plain_expression(lead, n, masked, dtype, seed):
    rng = np.random.default_rng(seed)
    shape = tuple(lead) + (n,)
    x = _normal(rng, shape, dtype) * dtype(4.0)
    x[rng.uniform(size=shape) < masked] = -1e9  # the shift mask's blocked logits
    g = _normal(rng, shape, dtype)
    y, (gx,) = _value_and_grads(T.softmax_lastdim, [x], g)

    e = np.exp(x - x.max(axis=-1, keepdims=True))
    want = e / _rows(e)
    _assert_bitwise(y, want)
    _assert_bitwise(gx, (g - _rows(g * want)) * want)


@PROPERTY
@given(st.integers(1, 3), st.integers(1, 9), st.integers(1, 17), st.booleans(), DTYPES,
       st.integers(0, 2 ** 16))
def test_layer_norm_matches_plain_expression(k, n, c, stacked, dtype, seed):
    rng = np.random.default_rng(seed)
    x = _normal(rng, (k, n, c), dtype)
    pshape = (k, 1, c) if stacked else (c,)
    gamma, beta = _normal(rng, pshape, dtype), _normal(rng, pshape, dtype)
    g = _normal(rng, x.shape, dtype)
    eps = T.NORM_EPS
    y, (gx, ggamma, gbeta) = _value_and_grads(T.layer_norm, [x, gamma, beta], g)

    mu = _rows(x) / c
    centered = x - mu
    var = _rows(centered * centered) / c
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    _assert_bitwise(y, xhat * gamma + beta)
    dxhat = g * gamma
    m1 = _rows(dxhat) / c
    m2 = _rows(dxhat * xhat) / c
    _assert_bitwise(gx, inv * (dxhat - m1 - xhat * m2))
    _assert_bitwise(ggamma, _tokens(g * xhat, pshape))
    _assert_bitwise(gbeta, _tokens(g, pshape))


@PROPERTY
@given(st.integers(1, 3), st.integers(1, 9), st.integers(1, 9), st.integers(1, 9), st.booleans(),
       st.sampled_from(["plain", "stacked"]), DTYPES, st.integers(0, 2 ** 16))
def test_linear_matches_matmul_then_add(k, n, c_in, c_out, stacked_w, bias, dtype, seed):
    # an unstacked x against a stacked weight is the decoders' fuse layer; a
    # stacked bias on an unstacked product widens the result past the product
    rng = np.random.default_rng(seed)
    x = _normal(rng, (n, c_in), dtype)
    w = _normal(rng, (k, c_in, c_out) if stacked_w else (c_in, c_out), dtype)
    b = _normal(rng, (k, 1, c_out) if bias == "stacked" else (c_out,), dtype)
    product = x @ w
    want = product + b
    g = _normal(rng, want.shape, dtype)
    y, grads = _value_and_grads(T.linear, [x, w, b], g)

    _assert_bitwise(y, want)
    gp = _tokens(g, product.shape)
    _assert_bitwise(grads[0], _tokens(gp @ w.swapaxes(-1, -2), x.shape))
    _assert_bitwise(grads[1], _tokens(x.swapaxes(-1, -2) @ gp, w.shape))
    _assert_bitwise(grads[2], _tokens(g, b.shape))


@PROPERTY
@given(st.lists(st.integers(1, 5), min_size=1, max_size=3), DTYPES, st.integers(0, 2 ** 16))
def test_gelu_matches_plain_expression(shape, dtype, seed):
    rng = np.random.default_rng(seed)
    x = _normal(rng, tuple(shape), dtype) * dtype(3.0)
    g = _normal(rng, x.shape, dtype)
    y, (gx,) = _value_and_grads(T.gelu, [x], g)

    phi = kernels.ndtr(x)
    _assert_bitwise(y, x * phi)
    density = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
    _assert_bitwise(gx, g * (phi + x * density))


def test_kernels_promote_like_their_plain_expressions():
    # mixed dtypes promote part way through the plain expressions; in-place
    # steps must not round the wider intermediate back to the narrow dtype
    rng = np.random.default_rng(21)
    x = _normal(rng, (5, 7), np.float32)
    g = rng.normal(size=(5, 7))
    # float32 GELU under a float64 gradient that flows on through mul
    _, (gx,) = _value_and_grads(lambda a: T.gelu(T.mul(a, 3.0)), [x], g)
    xs = x * np.float32(3.0)
    phi = kernels.ndtr(xs)
    density = np.exp(-0.5 * xs * xs) * (1.0 / math.sqrt(2.0 * math.pi))
    _assert_bitwise(gx, (g * (phi + xs * density) * np.float32(3.0)).astype(np.float32))

    # float32 input, float64 scale and shift
    gamma, beta = rng.normal(size=7), rng.normal(size=7)
    y = T.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta)).data
    centered = x - _rows(x) / 7
    xhat = centered * (1.0 / np.sqrt(_rows(centered * centered) / 7 + 1e-5))
    _assert_bitwise(y, xhat * gamma + beta)

    # float32 product, float64 bias
    w = _normal(rng, (7, 3), np.float32)
    b = rng.normal(size=3)
    _assert_bitwise(T.linear(Tensor(x), Tensor(w), Tensor(b)).data, x @ w + b)


def test_take_rows_single_row_gradient_matches_scatter_add():
    # a 0-d index (a task slice) writes its row; np.add.at would add it to 0
    g = np.array([[-0.0, 1.5], [2.0, -3.0]])
    _, (gt,) = _value_and_grads(lambda t: T.take_rows(t, np.int64(1)), [np.ones((3, 2, 2))], g)
    want = np.zeros((3, 2, 2))
    np.add.at(want, np.int64(1), g)
    _assert_bitwise(gt, want)


# ------------------------------------------------- token sums
# the sums under a bias or scale are numpy's sums, held to the same bound
# as the row sums (see test_kernels.py)

@PROPERTY
@given(_rows_of(), st.booleans())
def test_token_sums_are_within_the_summation_bound(g, stacked):
    # a [c] bias or scale sums every leading axis, a stacked [k, 1, c] one
    # the token axis, a [1] one the only axis
    if g.ndim == 1:
        shape, axis = (1,), (0,)
    elif stacked and g.ndim == 3:
        shape, axis = (g.shape[0], 1, g.shape[2]), (1,)
    else:
        shape, axis = g.shape[-1:], tuple(range(g.ndim - 1))
    got = T._unbroadcast(g, shape)
    assert got.shape == shape
    _within_summation_bound(got, g, axis)


# ------------------------------------------------- broadcasting gradients

@st.composite
def _broadcast_shapes(draw):
    """Two operand shapes: each drops 0-2 leading axes of one common shape
    and sets any of the remaining axes to 1."""
    full = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))

    def operand():
        drop = draw(st.integers(0, min(2, len(full) - 1)))
        return tuple(1 if draw(st.booleans()) else n for n in full[drop:])

    return operand(), operand()


def _sum_onto(full, shape):
    """Sum every element of ``full`` onto the element of ``shape`` it was
    broadcast from, in float64; returns the sums and the sums of magnitudes."""
    size = math.prod(shape)
    src = np.broadcast_to(np.arange(size).reshape(shape), full.shape).ravel()
    terms = full.ravel().astype(np.float64)
    return (np.bincount(src, terms, size).reshape(shape),
            np.bincount(src, np.abs(terms), size).reshape(shape))


# each op's gradients before they are summed back to the operand shapes
BROADCAST_GRADS = {
    "add": (T.add, lambda g, a, b: (g, g)),
    "sub": (T.sub, lambda g, a, b: (g, -g)),
    "mul": (T.mul, lambda g, a, b: (g * b, g * a)),
    "div": (T.div, lambda g, a, b: (g / b, -g * a / (b * b))),
}


@PROPERTY
@given(st.sampled_from(sorted(BROADCAST_GRADS)), _broadcast_shapes(), DTYPES,
       st.integers(0, 2 ** 16))
def test_broadcast_gradients_sum_over_broadcast_axes(op, shapes, dtype, seed):
    fn, full_grads = BROADCAST_GRADS[op]
    rng = np.random.default_rng(seed)
    a = _normal(rng, shapes[0], dtype)
    # a divisor away from zero, of either sign
    b = (rng.uniform(0.5, 2.0, shapes[1]) * rng.choice([-1.0, 1.0], shapes[1])).astype(dtype)
    g = _normal(rng, np.broadcast_shapes(a.shape, b.shape), dtype)
    _, grads = _value_and_grads(fn, [a, b], g)

    rtol = 1e-12 if dtype == np.float64 else 1e-5
    for got, x, full in zip(grads, (a, b), full_grads(g, a, b)):
        assert got.dtype == x.dtype and got.shape == x.shape, (got.dtype, got.shape, x.shape)
        want, magnitude = _sum_onto(full, x.shape)
        assert np.all(np.abs(got - want) <= rtol * magnitude), np.abs(got - want).max()
