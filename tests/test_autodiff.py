"""Reverse-mode tape: per-primitive gradients against central differences, and the
scatter and the in-place gradient accumulation against the reference tape, bit for bit."""

import itertools

import numpy as np
import pytest

import catgcn.autodiff as autodiff
import tape_oracle
from catgcn.autodiff import (Tape, Tensor, artificial_propagate, backward, finite_diff_check,
                             masked_ce_mean, replay, softmax_rows)
from catgcn.graph import build_adjacency, normalize_sym

STEP = 1e-5
PRIMITIVE_TOL = 1e-6


def leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def check(f, tensors, tol=PRIMITIVE_TOL):
    worst = finite_diff_check(f, tensors, step=STEP)
    assert worst <= tol, f"gradient mismatch: {worst}"


def scalarize(tape, t, weights):
    # fixed random weights turn any output into a scalar with dense sensitivity
    return tape.total_sum(tape.elementwise_mul(t, Tensor(weights)))


def test_matmul_gradients():
    rng = np.random.default_rng(0)
    a, b = leaf(rng, 5, 4), leaf(rng, 4, 3)
    w = rng.normal(size=(5, 3))

    def f():
        tape = Tape()
        return tape, scalarize(tape, tape.matmul(a, b), w)

    check(f, [a, b])


def test_matmul_batched_left():
    rng = np.random.default_rng(1)
    a, b = leaf(rng, 3, 5, 4), leaf(rng, 4, 2)
    w = rng.normal(size=(3, 5, 2))

    def f():
        tape = Tape()
        return tape, scalarize(tape, tape.matmul(a, b), w)

    check(f, [a, b])


def test_add_bias_gradients():
    rng = np.random.default_rng(2)
    x, b = leaf(rng, 6, 3), leaf(rng, 3)
    w = rng.normal(size=(6, 3))

    def f():
        tape = Tape()
        return tape, scalarize(tape, tape.add_bias(x, b), w)

    check(f, [x, b])


def test_add_and_mul_and_square():
    rng = np.random.default_rng(3)
    a, b = leaf(rng, 4, 4), leaf(rng, 4, 4)
    w = rng.normal(size=(4, 4))

    def f():
        tape = Tape()
        s = tape.add(tape.elementwise_mul(a, b), tape.elementwise_square(a))
        return tape, scalarize(tape, s, w)

    check(f, [a, b])


def test_relu_gradient_away_from_kink():
    rng = np.random.default_rng(4)
    x = leaf(rng, 8, 5)
    x.data[np.abs(x.data) < 1e-3] = 0.5  # keep central differences honest
    w = rng.normal(size=(8, 5))

    def f():
        tape = Tape()
        return tape, scalarize(tape, tape.relu(x), w)

    check(f, [x])


def test_relu_subgradient_at_zero_is_zero():
    x = Tensor(np.array([[0.0, -1.0, 2.0]]), requires_grad=True)
    tape = Tape()
    out = tape.total_sum(tape.relu(x))
    grads = backward(tape, out)
    assert np.array_equal(grads[x], [[0.0, 0.0, 1.0]])


def test_mean_rows_and_sum_rows():
    rng = np.random.default_rng(5)
    x = leaf(rng, 7, 3)
    w = rng.normal(size=3)

    def f_mean():
        tape = Tape()
        return tape, scalarize(tape, tape.mean_rows(x), w)

    def f_sum():
        tape = Tape()
        return tape, scalarize(tape, tape.sum_rows(x), w)

    check(f_mean, [x])
    check(f_sum, [x])


def test_gather_rows_gradients_and_accumulation():
    rng = np.random.default_rng(6)
    table = leaf(rng, 5, 3)
    ids = np.array([[0, 2, 0], [4, 4, 1]])  # repeats must accumulate
    w = rng.normal(size=(2, 3, 3))

    def f():
        tape = Tape()
        return tape, scalarize(tape, tape.gather_rows(table, ids), w)

    check(f, [table])


def test_gather_rows_scatter_is_exact():
    table = Tensor(np.zeros((3, 2)), requires_grad=True)
    ids = np.array([[0, 0], [2, 0]])
    tape = Tape()
    out = tape.total_sum(tape.gather_rows(table, ids))
    grads = backward(tape, out)
    assert np.array_equal(grads[table], [[3.0, 3.0], [0.0, 0.0], [1.0, 1.0]])


def _scatter_cases():
    rng = np.random.default_rng(12)
    skewed = rng.integers(0, 7, size=(40, 8))
    skewed[:, 2] = 3  # one id in every row
    return {  # name: (table rows d, columns k, ids)
        "duplicates": (4, 3, rng.integers(0, 4, size=(50, 6))),
        "skewed": (7, 5, skewed),
        "first_and_last_id": (9, 4, rng.choice([0, 8], size=(30, 5))),
        "one_column": (6, 1, rng.integers(0, 6, size=(25, 4))),
        "one_row_table": (1, 3, np.zeros((20, 4), dtype=np.int64)),
        "3d_ids": (11, 3, rng.integers(0, 11, size=(5, 4, 6))),
    }


SCATTER_CASES = _scatter_cases()


@pytest.mark.parametrize("case", sorted(SCATTER_CASES))
def test_gather_rows_scatter_matches_per_column_bincount(case):
    d, k, ids = SCATTER_CASES[case]
    rng = np.random.default_rng(13)
    shape = ids.shape + (k,)
    # magnitudes spread over 16 decades, so any other summation order changes bits
    upstream = rng.normal(size=shape) * 10.0 ** rng.uniform(-8.0, 8.0, size=shape)

    def table_grad(mod):
        table = mod.Tensor(np.zeros((d, k)), requires_grad=True)
        tape = mod.Tape()
        rows = tape.gather_rows(table, ids)
        loss = tape.total_sum(tape.elementwise_mul(rows, mod.Tensor(upstream)))
        return mod.backward(tape, loss)[table]

    got, want = table_grad(autodiff), table_grad(tape_oracle)
    assert got.shape == want.shape == (d, k)
    assert got.tobytes() == want.tobytes()


def test_scale_and_scale_rows():
    rng = np.random.default_rng(7)
    x = leaf(rng, 4, 6)
    rw = rng.uniform(0.5, 2.0, size=4)  # one weight per row
    w = rng.normal(size=(4, 6))

    def f():
        tape = Tape()
        return tape, scalarize(tape, tape.scale(tape.scale_rows(x, rw), -1.7), w)

    check(f, [x])


def test_biinteraction_gradient_frozen():
    e = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    tape = Tape()
    out = tape.total_sum(tape.biinteraction(e))  # upstream gradient of ones
    assert np.allclose(out.data, 11.0)  # 3 + 8
    grads = backward(tape, out)
    assert np.allclose(grads[e], [[3.0, 4.0], [1.0, 2.0]])


def test_biinteraction_gradient_random():
    rng = np.random.default_rng(8)
    e = leaf(rng, 6, 4)
    w = rng.normal(size=4)

    def f():
        tape = Tape()
        return tape, scalarize(tape, tape.biinteraction(e), w)

    check(f, [e])


def test_artificial_prop_gradient_and_self_adjointness():
    rng = np.random.default_rng(9)
    e = leaf(rng, 5, 3)
    w = rng.normal(size=(5, 3))

    def f():
        tape = Tape()
        return tape, scalarize(tape, tape.artificial_prop(e, 2.5), w)

    check(f, [e])
    # operator is symmetric: backward of g equals forward of g
    tape = Tape()
    out = scalarize(tape, tape.artificial_prop(e, 2.5), w)
    grads = backward(tape, out)
    assert np.abs(grads[e] - artificial_propagate(w, 2.5)).max() < 1e-14


def test_sparse_propagate_gradient():
    rng = np.random.default_rng(10)
    edges = rng.integers(0, 6, size=(10, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    norm, _ = normalize_sym(build_adjacency(edges, 6))
    x = leaf(rng, 6, 3)
    w = rng.normal(size=(6, 3))

    def f():
        tape = Tape()
        return tape, scalarize(tape, tape.sparse_propagate(norm, x, 2), w)

    check(f, [x])


def test_softmax_cross_entropy_value_and_gradient():
    rng = np.random.default_rng(11)
    logits = leaf(rng, 8, 4)
    labels = rng.integers(0, 4, size=8)
    mask = np.array([0, 2, 3, 7])

    tape = Tape()
    out = tape.softmax_cross_entropy(logits, labels, mask)
    # value equals the reporting-path helper
    assert out.item() == pytest.approx(masked_ce_mean(logits.data, labels, mask), abs=1e-15)
    # gradient equals (softmax - onehot) / |mask| on masked rows, zero elsewhere
    grads = backward(tape, out)
    p = softmax_rows(logits.data[mask])
    p[np.arange(len(mask)), labels[mask]] -= 1.0
    expected = np.zeros_like(logits.data)
    expected[mask] = p / len(mask)
    assert np.abs(grads[logits] - expected).max() < 1e-14

    def f():
        tape = Tape()
        return tape, tape.softmax_cross_entropy(logits, labels, mask)

    check(f, [logits])


def test_softmax_cross_entropy_uniform_logits():
    # equal logits: loss is log(C) no matter the labels
    logits = Tensor(np.zeros((5, 7)), requires_grad=True)
    tape = Tape()
    out = tape.softmax_cross_entropy(logits, np.zeros(5, dtype=int), np.arange(5))
    assert out.item() == pytest.approx(np.log(7.0), abs=1e-15)


def test_softmax_cross_entropy_is_shift_stable():
    rng = np.random.default_rng(12)
    z = rng.normal(size=(4, 3))
    labels = np.array([0, 1, 2, 1])
    mask = np.arange(4)
    a = masked_ce_mean(z, labels, mask)
    b = masked_ce_mean(z + 1e6, labels, mask)  # huge common shift must not overflow
    assert np.isfinite(b) and b == pytest.approx(a, rel=1e-9)


def test_softmax_cross_entropy_rejects_empty_mask():
    logits = Tensor(np.zeros((3, 2)), requires_grad=True)
    tape = Tape()
    with pytest.raises(ValueError):
        tape.softmax_cross_entropy(logits, np.zeros(3, dtype=int), np.array([], dtype=int))


def test_backward_accumulates_shared_input():
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    tape = Tape()
    y = tape.add(tape.elementwise_mul(x, x), x)  # y = x^2 + x, dy/dx = 2x + 1
    grads = backward(tape, tape.total_sum(y))
    assert np.array_equal(grads[x], [5.0, 7.0])


def _twin(tape, a, b):
    """a + b through a rule that returns one fresh array as both gradients."""
    def vjp(g):
        fresh = g + 0.0
        return fresh, fresh

    return tape._emit(a.data + b.data, (a, b), vjp)


def _shared_gradient(mod, order, arrays, weights):
    """Gradients of a loss over h = x @ w read by add(h, h), add(add_bias(h, b),
    h2) with h2 = x @ v, mean_rows, a matmul and `_twin(h, h2)`, recorded in
    `order`. Backward meets these in reverse: the upstream `g` passed on twice,
    add_bias passing on a `g` that h2's gradient also is, a read-only broadcast,
    a fresh array, and one fresh array given to two nodes, all summed into h's
    one gradient."""
    tape = mod.Tape()
    leaves = {n: mod.Tensor(a.copy(), requires_grad=True) for n, a in arrays.items()}
    h = tape.matmul(leaves["x"], leaves["w"])
    h2 = tape.matmul(leaves["x"], leaves["v"])
    uses = {
        "add": lambda: tape.add(h, h),
        "add_bias": lambda: tape.add(tape.add_bias(h, leaves["b"]), h2),
        "mean_rows": lambda: tape.mean_rows(h),
        "matmul": lambda: tape.matmul(h, leaves["v"]),
        "twin": lambda: _twin(tape, h, h2),
    }
    loss = None
    for name in order:
        term = tape.total_sum(tape.elementwise_mul(uses[name](), mod.Tensor(weights[name])))
        loss = term if loss is None else tape.add(loss, term)
    grads = mod.backward(tape, loss)
    return leaves, [grads[t] for t in leaves.values()]


def test_backward_accumulates_in_place_only_into_arrays_it_owns():
    rng = np.random.default_rng(14)
    arrays = {n: rng.normal(size=s) for n, s in
              dict(x=(3, 4, 5), w=(5, 5), v=(5, 5), b=(5,)).items()}
    weights = {n: rng.normal(size=(3, 5) if n == "mean_rows" else (3, 4, 5))
               for n in ("add", "add_bias", "mean_rows", "matmul", "twin")}
    for order in itertools.permutations(weights):
        leaves, got = _shared_gradient(autodiff, order, arrays, weights)
        _, want = _shared_gradient(tape_oracle, order, arrays, weights)
        for g, ref in zip(got, want):
            assert g.shape == ref.shape and g.tobytes() == ref.tobytes(), order
        for g, other in itertools.combinations(got, 2):
            assert not np.shares_memory(g, other), order
        for t, a in zip(leaves.values(), arrays.values()):
            assert t.data.tobytes() == a.tobytes(), order
            assert not any(np.shares_memory(t.data, g) for g in got), order


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    tape = Tape()
    y = tape.relu(x)
    with pytest.raises(ValueError):
        backward(tape, y)


def test_replay_is_the_vjp_at_the_seed():
    # a replay seeded with the upstream gradient of one output gives the bits
    # of backward on sum(out * seed), whose upstream gradient is 1.0 * seed
    rng = np.random.default_rng(21)
    table, w = leaf(rng, 6, 4), leaf(rng, 4, 3)
    ids = rng.integers(0, 6, size=(5, 3))
    seed = rng.normal(size=(5, 3))

    def pooled(tape):
        e = tape.gather_rows(table, ids)
        return tape.mean_rows(tape.relu(tape.matmul(tape.artificial_prop(e, 1.5), w)))

    tape = Tape()
    seeded = replay(tape, pooled(tape), seed)
    tape = Tape()
    scalar = backward(tape, tape.total_sum(tape.elementwise_mul(pooled(tape), Tensor(seed))))
    assert list(seeded) == list(scalar) == [w, table]
    for t, g in seeded.items():
        assert g.tobytes() == scalar[t].tobytes()
    tape = Tape()
    with pytest.raises(ValueError, match="seed shape"):
        replay(tape, pooled(tape), seed[:4])


def test_replay_skips_records_whose_output_got_no_gradient():
    # the tape also records a branch the replayed output never reads, one
    # record before the output and two after it; the replay passes over them
    # and gives the gradients of the tape without the branch
    rng = np.random.default_rng(22)
    table, w, v = leaf(rng, 6, 4), leaf(rng, 4, 3), leaf(rng, 4, 2)
    ids = rng.integers(0, 6, size=(5, 3))
    seed = rng.normal(size=(5, 3))

    def grads(branch):
        tape = Tape()
        e = tape.gather_rows(table, ids)
        if branch:
            tape.scale(e, 2.0)
        out = tape.mean_rows(tape.matmul(e, w))
        if branch:
            tape.relu(tape.matmul(e, v))
        assert len(tape._records) == (6 if branch else 3)
        return replay(tape, out, seed)

    with_branch, without = grads(True), grads(False)
    assert list(with_branch) == list(without) == [w, table]
    for t, g in with_branch.items():
        assert g.tobytes() == without[t].tobytes()


def test_backward_rejects_foreign_tensor():
    x = Tensor(np.ones(3), requires_grad=True)
    tape = Tape()
    tape.total_sum(x)
    other = Tape()
    loss = other.total_sum(x)
    with pytest.raises(ValueError):
        backward(tape, loss)


def test_backward_consumes_the_tape():
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    tape = Tape()
    loss = tape.total_sum(tape.elementwise_square(x))
    assert np.array_equal(backward(tape, loss)[x], [4.0, 6.0])
    assert tape._records == []
    with pytest.raises(ValueError, match="tape already replayed"):
        backward(tape, loss)
    with pytest.raises(ValueError, match="tape already replayed"):
        tape.relu(x)


def test_constants_get_no_gradient():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    c = Tensor(np.full((2, 2), 3.0))  # constant
    tape = Tape()
    grads = backward(tape, tape.total_sum(tape.elementwise_mul(x, c)))
    assert c not in grads
    assert np.array_equal(grads[x], c.data)


def test_composite_chain_gradient():
    rng = np.random.default_rng(13)
    a = leaf(rng, 4, 5)
    b = leaf(rng, 5, 3)
    bias = leaf(rng, 3)
    labels = rng.integers(0, 3, size=4)

    def f():
        tape = Tape()
        z = tape.relu(tape.add_bias(tape.matmul(a, b), bias))
        loss = tape.softmax_cross_entropy(z, labels, np.arange(4))
        reg = tape.scale(tape.total_sum(tape.elementwise_square(b)), 0.01)
        return tape, tape.add(loss, reg)

    check(f, [a, b, bias], tol=1e-5)
