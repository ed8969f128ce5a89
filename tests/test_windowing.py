"""Window geometry tests: partition layout, shifts, masks, position bias."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtformer import tensor as T
from mtformer.decoder import patch_expand
from mtformer.encoder import patch_embed, patch_merge
from mtformer.errors import ConfigurationError, DimensionError
from mtformer.layers import (apply_attention, linear, norm, shifted_windows,
                             window_order)
from mtformer.tensor import Tape, Tensor
from mtformer.windowing import (MASK_VALUE, WindowGrid, cyclic_shift,
                                cyclic_unshift, rel_pos_bias, rel_pos_index,
                                shift_mask, window_partition, window_reverse)


def _tokens(h, w, c=1, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=(h, w, c)))


# ------------------------------------------------------------------ partition

def test_partition_layout_matches_brute_force():
    # oracle: token (i, j) lands in window (i//win)*(W//win) + j//win at
    # in-window position (i%win)*win + j%win
    h = w = 4
    win = 2
    x = Tensor(np.arange(h * w, dtype=float).reshape(h, w, 1))
    got = window_partition(x, win).data[..., 0]
    expected = np.zeros(((h // win) * (w // win), win * win))
    for i in range(h):
        for j in range(w):
            expected[(i // win) * (w // win) + j // win, (i % win) * win + j % win] = i * w + j
    np.testing.assert_array_equal(got, expected)
    # spec'd corner case: window 0 holds (0,0), (0,1), (1,0), (1,1)
    np.testing.assert_array_equal(got[0], [0.0, 1.0, 4.0, 5.0])


@pytest.mark.parametrize("h,w,win", [(4, 4, 2), (6, 4, 2), (8, 8, 4), (4, 8, 4), (3, 3, 3)])
def test_partition_reverse_roundtrip_exact(h, w, win):
    x = _tokens(h, w, 5, seed=h * w + win)
    back = window_reverse(window_partition(x, win), h, w)
    np.testing.assert_array_equal(back.data, x.data)


def test_reverse_partition_roundtrip_exact():
    rng = np.random.default_rng(3)
    wins = Tensor(rng.normal(size=(4, 4, 3)))
    again = window_partition(window_reverse(wins, 4, 4), 2)
    np.testing.assert_array_equal(again.data, wins.data)


def test_partition_rejects_non_dividing_window():
    with pytest.raises(DimensionError) as err:
        window_partition(_tokens(6, 6), 4)
    assert "4" in str(err.value) and "6" in str(err.value)


def test_partition_gradient_flows():
    x = Tensor(np.random.default_rng(4).normal(size=(4, 4, 2)), requires_grad=True)
    w = np.random.default_rng(5).normal(size=(4, 4, 2))
    err = T.grad_check(
        lambda t: T.sum_(T.mul(window_reverse(window_partition(t, 2), 4, 4), Tensor(w))), x)
    assert err < 1e-4


# ------------------------------------------------------------------ cyclic shift

def test_cyclic_shift_two_by_two():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])[..., None])
    np.testing.assert_array_equal(
        cyclic_shift(x, 1).data[..., 0], [[4.0, 3.0], [2.0, 1.0]])


def test_cyclic_shift_matches_definition():
    h, w, s = 6, 8, 2
    x = _tokens(h, w, 3, seed=6)
    got = cyclic_shift(x, s).data
    for i in range(h):
        for j in range(w):
            np.testing.assert_array_equal(got[i, j], x.data[(i + s) % h, (j + s) % w])


def test_cyclic_shift_round_trips():
    x = _tokens(5, 5, 2, seed=7)
    np.testing.assert_array_equal(cyclic_unshift(cyclic_shift(x, 2), 2).data, x.data)
    np.testing.assert_array_equal(cyclic_shift(x, 0).data, x.data)


# ------------------------------------------------------- random shapes, leading axes

@st.composite
def _maps(draw):
    """A random [*lead, H, W, C] map (zero to two leading axes) and a window
    dividing both sides."""
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    win = draw(st.integers(1, 4))
    h, w = win * draw(st.integers(1, 3)), win * draw(st.integers(1, 3))
    c = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2 ** 16))
    return Tensor(np.random.default_rng(seed).normal(size=lead + (h, w, c))), win


def _each_slice(fn, x):
    """``fn`` applied to every [H, W, C] slice of x, restacked."""
    lead = x.shape[:-3]
    flat = x.data.reshape((-1,) + x.shape[-3:])
    out = np.stack([fn(Tensor(m)).data for m in flat])
    return out.reshape(lead + out.shape[1:])


PROPERTY = settings(max_examples=60, deadline=None, database=None)


@PROPERTY
@given(_maps())
def test_partition_reverse_round_trips_over_random_shapes(case):
    x, win = case
    h, w = x.shape[-3:-1]
    wins = window_partition(x, win)
    assert wins.shape == x.shape[:-3] + ((h // win) * (w // win), win * win, x.shape[-1])
    np.testing.assert_array_equal(window_reverse(wins, h, w).data, x.data)
    np.testing.assert_array_equal(window_partition(window_reverse(wins, h, w), win).data,
                                  wins.data)
    # leading axes are carried through: every slice is windowed on its own
    np.testing.assert_array_equal(wins.data, _each_slice(lambda m: window_partition(m, win), x))


@PROPERTY
@given(_maps(), st.integers(0, 7))
def test_shift_unshift_round_trips_over_random_shapes(case, shift):
    x, _ = case
    np.testing.assert_array_equal(cyclic_unshift(cyclic_shift(x, shift), shift).data, x.data)
    np.testing.assert_array_equal(cyclic_shift(x, shift).data,
                                  _each_slice(lambda m: cyclic_shift(m, shift), x))


@settings(PROPERTY, derandomize=True)
@given(_maps(), st.data())
def test_window_order_gathers_what_shift_and_partition_compute(case, data):
    # the production layout is one gather; shift then partition (and reverse
    # then unshift) are its oracle, on the same maps as the round trips above
    x, win = case
    shift = data.draw(st.integers(0, win - 1))
    *lead, h, w, c = x.shape
    grid = WindowGrid(h, w, win, shift)
    tokens = Tensor(x.data.reshape(tuple(lead) + (h * w, c)))
    wins = shifted_windows(tokens, grid)
    np.testing.assert_array_equal(wins.data, window_partition(cyclic_shift(x, shift), win).data)
    # identity attention and identity v/out projections leave apply_attention
    # only its closing gather back to map order
    t = grid.tokens_per_window
    identity = {f"id.{k}.{field}": Tensor(value) for k in ("v", "out")
                for field, value in (("weight", np.eye(c)), ("bias", np.zeros((1, c))))}
    weights = Tensor(np.broadcast_to(np.eye(t), (h * w // t, 1, t, t)))
    back = apply_attention(weights, wins, identity, "id", grid)
    np.testing.assert_array_equal(back.data.reshape(x.shape),
                                  cyclic_unshift(window_reverse(wins, h, w), shift).data)
    np.testing.assert_array_equal(back.data, tokens.data)
    order, inverse = window_order(grid)
    assert order.dtype == inverse.dtype == np.intp
    assert not order.flags.writeable and not inverse.flags.writeable


def test_patch_layouts_equal_their_reshape_transpose_expressions():
    # patch_embed and patch_merge cut 2x2 / patch x patch blocks row major,
    # patch_expand spreads each token's four chunks over its 2x2 block: the
    # numpy expressions below are those layouts written out
    rng = np.random.default_rng(12)
    c, side, patch = 6, 4, 4
    img = rng.normal(size=(side * patch, side * patch, 3))
    p = {"pe.weight": Tensor(rng.normal(size=(patch * patch * 3, c))),
         "pe.bias": Tensor(rng.normal(size=(1, c))),
         "pm.ln.gamma": Tensor(rng.normal(size=(1, 4 * c))),
         "pm.ln.beta": Tensor(rng.normal(size=(1, 4 * c))),
         "pm.weight": Tensor(rng.normal(size=(4 * c, 2 * c)))}
    cut = img.reshape(side, patch, side, patch, 3).transpose(0, 2, 1, 3, 4)
    expected = linear(Tensor(cut.reshape(side * side, patch * patch * 3)), p, "pe")
    np.testing.assert_array_equal(patch_embed(Tensor(img), p, "pe", patch).data, expected.data)

    x = rng.normal(size=(side * side, c))
    quads = x.reshape(side // 2, 2, side // 2, 2, c).transpose(0, 2, 1, 3, 4)
    expected = T.matmul(norm(Tensor(quads.reshape(side * side // 4, 4 * c)), p, "pm.ln"),
                        p["pm.weight"])
    np.testing.assert_array_equal(patch_merge(Tensor(x), side, p, "pm").data, expected.data)

    stack = Tensor(rng.normal(size=(2, side * side, c)))
    weight = Tensor(rng.normal(size=(c, 2 * c)))
    chunks = T.matmul(stack, weight).data.reshape(2, side, side, 2, 2, c // 2)
    expected = chunks.swapaxes(-4, -3).reshape(2, 4 * side * side, c // 2)
    np.testing.assert_array_equal(patch_expand(stack, side, weight).data, expected)


@PROPERTY
@given(st.lists(st.integers(1, 3), max_size=2), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2 ** 16))
def test_stacked_bias_table_gives_per_slice_bias(lead, win, heads, seed):
    lead = tuple(lead)
    rows = (2 * win - 1) ** 2
    table = np.random.default_rng(seed).normal(size=lead + (rows, heads))
    got = rel_pos_bias(Tensor(table), win).data
    assert got.shape == lead + (heads, win * win, win * win)
    for idx in np.ndindex(*lead):
        np.testing.assert_array_equal(got[idx], rel_pos_bias(Tensor(table[idx]), win).data)


# ------------------------------------------------------------------ shift mask

def _oracle_mask(h, w, win, shift):
    """Independent derivation: a shifted position wraps when source index
    (p + shift) crosses the far edge; pairs may attend only if both their
    row-wrap and col-wrap states agree."""
    nwh, nww = h // win, w // win
    t = win * win
    mask = np.zeros((nwh * nww, t, t))
    for wi in range(nwh):
        for wj in range(nww):
            flags = []
            for ti in range(win):
                for tj in range(win):
                    i, j = wi * win + ti, wj * win + tj
                    flags.append(((i + shift) >= h, (j + shift) >= w))
            for a in range(t):
                for b in range(t):
                    if flags[a] != flags[b]:
                        mask[wi * nww + wj, a, b] = MASK_VALUE
    return mask


@pytest.mark.parametrize("h,w,win,shift", [(4, 4, 2, 1), (8, 8, 4, 2), (8, 8, 4, 1),
                                           (8, 12, 4, 3), (6, 6, 3, 1)])
def test_shift_mask_matches_brute_force_oracle(h, w, win, shift):
    got = shift_mask(WindowGrid(h, w, win, shift)).data
    np.testing.assert_array_equal(got, _oracle_mask(h, w, win, shift))


def test_shift_mask_masked_pair_count_four_grid():
    # 4x4 grid, window 2, shift 1: corner window fully fragmented (12 masked
    # pairs), two edge windows 8 each, interior window 0
    mask = shift_mask(WindowGrid(4, 4, 2, 1)).data
    assert int((mask != 0).sum()) == 28
    oracle = _oracle_mask(4, 4, 2, 1)
    assert int((oracle != 0).sum()) == 28


def test_shift_mask_values_are_zero_or_sentinel():
    mask = shift_mask(WindowGrid(8, 8, 4, 2)).data
    assert set(np.unique(mask)) <= {0.0, MASK_VALUE}


def test_shift_zero_mask_is_identically_zero():
    assert not shift_mask(WindowGrid(8, 8, 4, 0)).data.any()


def test_wrap_windows_have_masked_pairs_interior_do_not():
    h = w = 8
    win, shift = 4, 2
    mask = shift_mask(WindowGrid(h, w, win, shift)).data
    per_window = (mask != 0).reshape(mask.shape[0], -1).any(axis=1)
    # window grid is 2x2; only window 0 avoids the wrap boundary
    np.testing.assert_array_equal(per_window, [False, True, True, True])


def test_masked_logits_get_negligible_probability():
    grid = WindowGrid(4, 4, 2, 1)
    mask = shift_mask(grid)
    rng = np.random.default_rng(8)
    logits = Tensor(rng.normal(size=mask.shape))
    probs = T.softmax_lastdim(T.add(logits, mask)).data
    assert probs[mask.data != 0].max() <= 1e-6
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=0, atol=1e-9)


def test_shift_mask_requires_grad_false():
    assert not shift_mask(WindowGrid(4, 4, 2, 1)).requires_grad


def test_window_grid_validation():
    with pytest.raises(ConfigurationError):
        WindowGrid(6, 6, 4, 1)
    with pytest.raises(ConfigurationError):
        WindowGrid(8, 8, 4, 4)
    with pytest.raises(ConfigurationError):
        WindowGrid(8, 8, 4, -1)


# ------------------------------------------------------------------ position bias

def test_rel_pos_table_row_counts():
    assert rel_pos_index(1).shape == (1, 1) and rel_pos_index(1).max() == 0
    assert rel_pos_index(2).max() == 8  # (2*2-1)^2 = 9 rows
    win = 1
    bias = rel_pos_bias(Tensor(np.array([[3.5]])), win)
    np.testing.assert_array_equal(bias.data, [[[3.5]]])


def test_rel_pos_bias_depends_only_on_displacement():
    # exhaustive at window 3: equal displacements index equal table rows
    win = 3
    t = win * win
    idx = rel_pos_index(win)
    coords = [(i, j) for i in range(win) for j in range(win)]
    seen = {}
    for a in range(t):
        for b in range(t):
            d = (coords[a][0] - coords[b][0], coords[a][1] - coords[b][1])
            if d in seen:
                assert idx[a, b] == seen[d], f"displacement {d} maps to two rows"
            else:
                seen[d] = idx[a, b]
    assert len(seen) == (2 * win - 1) ** 2
    assert sorted(set(seen.values())) == list(range((2 * win - 1) ** 2))

    rng = np.random.default_rng(9)
    table = Tensor(rng.normal(size=((2 * win - 1) ** 2, 4)))
    bias = rel_pos_bias(table, win).data
    for a in range(t):
        for b in range(t):
            np.testing.assert_array_equal(bias[:, a, b], table.data[idx[a, b]])


def test_rel_pos_bias_table_shape_check():
    with pytest.raises(DimensionError):
        rel_pos_bias(Tensor(np.zeros((4, 2))), 2)


def test_rel_pos_bias_gradient_reaches_table():
    rng = np.random.default_rng(10)
    table = Tensor(rng.normal(size=(9, 2)), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 4, 4)))
    err = T.grad_check(lambda t: T.sum_(T.mul(rel_pos_bias(t, 2), w)), table)
    assert err < 1e-4


def test_shifted_attention_pipeline_gradient():
    # shift -> partition -> masked softmax -> reverse -> unshift, end to end
    grid = WindowGrid(4, 4, 2, 1)
    mask = shift_mask(grid)
    rng = np.random.default_rng(11)
    w = Tensor(rng.normal(size=(4, 4, 4)))

    def f(x):
        shifted = cyclic_shift(x, grid.shift)
        wins = window_partition(shifted, grid.win)
        logits = T.matmul(wins, T.transpose(wins, (0, 2, 1)))
        probs = T.softmax_lastdim(T.add(logits, mask))
        ctx = T.matmul(probs, wins)
        out = cyclic_unshift(window_reverse(ctx, grid.h, grid.w), grid.shift)
        return T.sum_(T.mul(out, w))

    x = Tensor(rng.normal(size=(4, 4, 4)), requires_grad=True)
    assert T.grad_check(f, x) < 1e-4
