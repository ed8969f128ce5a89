"""Tests for the autodiff core: op values, gradients, tape semantics."""

import math
import tracemalloc

import numpy as np
import pytest

from mtformer import tensor as T
from mtformer.errors import ConfigurationError, DataError, DimensionError, OracleError
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
    assert out.item() == 6.0


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


def test_layer_norm_two_point_row_eps_zero():
    out = T.layer_norm(Tensor([1.0, 3.0]), Tensor([1.0, 1.0]), Tensor([0.0, 0.0]), eps=0.0)
    np.testing.assert_allclose(out.data, [-1.0, 1.0], rtol=0, atol=1e-12)


def test_layer_norm_constant_row_is_beta():
    out = T.layer_norm(Tensor([4.0, 4.0, 4.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)), eps=1e-5)
    np.testing.assert_allclose(out.data, 0.0, rtol=0, atol=1e-12)


def test_layer_norm_negative_eps_rejected():
    with pytest.raises(ConfigurationError):
        T.layer_norm(Tensor([1.0, 2.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=-1e-6)


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


# ------------------------------------------------------------- gradient checks

def test_grad_check_quadratic_is_tight():
    # central differences are exact on quadratics up to roundoff
    rng = np.random.default_rng(2)
    x = _rand(rng, 4, 3)
    err = T.grad_check(lambda t: T.sum_(T.mul(t, t)), x, eps=1e-5)
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
    err = T.grad_check(broken_square_sum, x, eps=1e-5)
    assert err == pytest.approx(0.5, abs=1e-3)


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
    return [
        ("add_broadcast", lambda x: T.sum_(T.mul(T.add(x, Tensor(w[0])), Tensor(w2))), (4, 6, 3)),
        ("sub", lambda x: T.sum_(T.sub(Tensor(w2), x)), (4, 6, 3)),
        ("mul_broadcast", lambda x: T.sum_(T.mul(x, Tensor(w2))), (1, 6, 3)),
        ("div", lambda x: T.sum_(T.div(Tensor(w2), T.add(x, 3.0))), (4, 6, 3)),
        ("neg", lambda x: T.sum_(T.neg(x)), (5,)),
        ("pow", lambda x: T.sum_(T.pow_(T.add(x, 2.0), 1.5)), (4, 3)),
        ("matmul_left", lambda x: T.sum_(T.matmul(x, Tensor(w))), (5, 3)),
        ("matmul_batched", lambda x: T.sum_(T.matmul(T.reshape(x, (2, 2, 3)), Tensor(w))), (4, 3)),
        ("reshape", lambda x: T.sum_(T.mul(T.reshape(x, (2, 6)), 1.5)), (3, 4)),
        ("transpose", lambda x: T.sum_(T.mul(T.transpose(x, (1, 0, 2)), Tensor(w2))), (6, 4, 3)),
        ("roll", lambda x: T.sum_(T.mul(T.roll(x, (1, 2), (0, 1)), Tensor(w2))), (4, 6, 3)),
        ("sum_axis", lambda x: T.sum_(T.mul(T.sum_(x, axis=1), 2.0)), (3, 4)),
        ("sum_keepdims", lambda x: T.sum_(T.sum_(x, axis=(0, 1), keepdims=True)), (3, 4)),
        ("mean_axis", lambda x: T.sum_(T.mean(x, axis=0)), (3, 4)),
        ("exp", lambda x: T.sum_(T.exp(x)), (4, 4)),
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
    assert T.grad_check(fn, x, eps=1e-5) < 1e-4


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
    with Tape() as tape:
        y = T.sum_(T.mul(x, x))
        tape.backward(y)
        once = x.grad.copy()
        tape.backward(y)
    np.testing.assert_array_equal(x.grad, 2.0 * once)
    T.zero_grad([x])
    assert x.grad is None


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


def test_no_tape_means_no_records_and_no_backward():
    x = Tensor([1.0], requires_grad=True)
    y = T.mul(x, x)
    assert y.requires_grad
    with pytest.raises(ValueError):
        y.backward()


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
        loss = T.sum_(T.mul(a, a))
        tape.backward(loss)
    assert x.grad is not None and w.grad is not None
    assert loss.grad == np.ones(1)
    assert all(out.grad is None for out, _, _ in tape._records if out is not loss)


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


def test_operator_sugar_matches_functions():
    rng = np.random.default_rng(12)
    a = Tensor(rng.normal(size=(3, 3)))
    b = Tensor(rng.normal(size=(3, 3)))
    np.testing.assert_array_equal((a + b).data, T.add(a, b).data)
    np.testing.assert_array_equal((a - b).data, T.sub(a, b).data)
    np.testing.assert_array_equal((a * 2.0).data, T.mul(a, 2.0).data)
    np.testing.assert_array_equal((2.0 * a).data, T.mul(a, 2.0).data)
    np.testing.assert_array_equal((a / 2.0).data, T.div(a, 2.0).data)
    np.testing.assert_array_equal((-a).data, T.neg(a).data)
    np.testing.assert_array_equal((a @ b).data, T.matmul(a, b).data)
    np.testing.assert_array_equal((a ** 2).data, T.pow_(a, 2).data)
    np.testing.assert_array_equal(a.sum().data, T.sum_(a).data)
    np.testing.assert_array_equal(a.mean(axis=0).data, T.mean(a, axis=0).data)
