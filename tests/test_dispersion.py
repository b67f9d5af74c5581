from dataclasses import asdict, astuple

import numpy as np
import pytest

from dipex.config import ExpansionConfig
from dipex.dispersion import child_child_loss, combine, parent_child_loss
from dipex.geometry import normalize

from reference_train import reference_child_child, reference_parent_child


def fd_gradient(fn, mat, h=1e-5):
    """Central finite differences of a scalar function of a (K, d) matrix."""
    grad = np.zeros_like(mat)
    for k in range(mat.shape[0]):
        for c in range(mat.shape[1]):
            hi = mat.copy()
            lo = mat.copy()
            hi[k, c] += h
            lo[k, c] -= h
            grad[k, c] = (fn(hi) - fn(lo)) / (2.0 * h)
    return grad


def rel_err(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-8)
    return np.max(np.abs(a - b)) / scale


def basis(d, i):
    v = np.zeros(d)
    v[i] = 1.0
    return v


def test_parent_child_closed_forms():
    e0 = basis(4, 0)
    value, grads = parent_child_loss(e0[None, :], e0, tau_p=0.1)
    assert value == pytest.approx(-10.0, abs=1e-9)
    # at the minimum the tangential gradient vanishes
    assert np.allclose(grads, 0.0, atol=1e-12)
    value, _ = parent_child_loss(basis(4, 1)[None, :], e0, tau_p=0.1)
    assert value == pytest.approx(0.0, abs=1e-9)


def test_parent_child_averages_over_children():
    e0 = basis(3, 0)
    kids = np.stack([e0, basis(3, 1)])
    value, grads = parent_child_loss(kids, e0, tau_p=0.5)
    # mean of cos 1 and cos 0, scaled by -1/tau
    assert value == pytest.approx(-1.0, abs=1e-12)
    assert grads.shape == (2, 3)


def test_child_child_closed_forms():
    e0 = basis(4, 0)
    value, _ = child_child_loss(np.stack([e0, e0]), tau_c=0.1)
    assert value == pytest.approx(10.0, abs=1e-9)
    value, _ = child_child_loss(np.stack([e0, basis(4, 1)]), tau_c=0.1)
    assert value == pytest.approx(0.0, abs=1e-9)


def test_child_child_survives_extreme_temperature():
    # log-sum-exp with max subtraction: 1/tau of 1000 must not overflow
    e0 = basis(3, 0)
    near = normalize(np.array([1.0, 1e-3, 0.0]))
    value, grads = child_child_loss(np.stack([e0, near]), tau_c=1e-3)
    assert np.isfinite(value)
    assert np.all(np.isfinite(grads))


def test_input_validation():
    e0 = basis(3, 0)
    with pytest.raises(ValueError):
        parent_child_loss(e0[None, :], e0, tau_p=0.0)
    with pytest.raises(ValueError):
        parent_child_loss(e0[None, :], np.zeros(3), tau_p=0.1)
    with pytest.raises(ValueError):
        parent_child_loss(e0[None, :], basis(4, 0), tau_p=0.1)
    with pytest.raises(ValueError, match="need at least one child"):
        parent_child_loss(np.zeros((0, 3)), e0, tau_p=0.1)
    with pytest.raises(ValueError):
        child_child_loss(e0[None, :], tau_c=0.1)
    with pytest.raises(ValueError):
        child_child_loss(np.zeros((2, 3)), tau_c=0.1)
    with pytest.raises(ValueError, match="temperature must be positive, got 0.0"):
        child_child_loss(np.stack([e0, basis(3, 1)]), tau_c=0.0)


def test_parent_child_gradient_matches_finite_differences():
    rng = np.random.default_rng(101)
    for _ in range(20):
        k = int(rng.integers(1, 6))
        d = int(rng.integers(3, 12))
        kids = np.stack([normalize(rng.normal(size=d)) for _ in range(k)])
        parent = normalize(rng.normal(size=d))
        tau = float(rng.uniform(0.05, 1.0))
        _, grads = parent_child_loss(kids, parent, tau)
        numeric = fd_gradient(lambda m: parent_child_loss(m, parent, tau)[0], kids)
        assert rel_err(grads, numeric) < 1e-4


def test_child_child_gradient_matches_finite_differences():
    rng = np.random.default_rng(202)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        d = int(rng.integers(3, 12))
        kids = np.stack([normalize(rng.normal(size=d)) for _ in range(k)])
        tau = float(rng.uniform(0.05, 1.0))
        _, grads = child_child_loss(kids, tau)
        numeric = fd_gradient(lambda m: child_child_loss(m, tau)[0], kids)
        assert rel_err(grads, numeric) < 1e-4


def test_gradients_defined_off_sphere():
    # callers renormalize after stepping, so intermediate vectors may drift
    rng = np.random.default_rng(303)
    kids = rng.normal(size=(3, 5)) * 2.0
    parent = normalize(rng.normal(size=5))
    _, grads = parent_child_loss(kids, parent, 0.2)
    numeric = fd_gradient(lambda m: parent_child_loss(m, parent, 0.2)[0], kids)
    assert rel_err(grads, numeric) < 1e-4
    _, grads = child_child_loss(kids, 0.2)
    numeric = fd_gradient(lambda m: child_child_loss(m, 0.2)[0], kids)
    assert rel_err(grads, numeric) < 1e-4


def test_losses_match_their_reference_bit_for_bit():
    """The trimmed losses against the same formulas through numpy's generic
    wrappers (np.linalg.norm, np.clip, np.fill_diagonal, np.mean), from one
    child to a default run's largest cohort and beyond, on and off the
    sphere."""
    rng = np.random.default_rng(404)
    for _ in range(200):
        k = int(rng.integers(1, 41))
        d = int(rng.integers(2, 65))
        kids = rng.normal(size=(k, d)) * rng.uniform(0.5, 2.0, size=(k, 1))
        parent = rng.normal(size=d) * rng.uniform(0.5, 2.0)
        if rng.random() < 0.3:  # copies, whose cosines can round past 1
            kids[: max(k // 2, 1)] = parent * rng.uniform(0.5, 2.0)
        tau = float(rng.uniform(0.01, 1.0))
        for got, want in [
            (parent_child_loss(kids, parent, tau), reference_parent_child(kids, parent, tau)),
            (parent_child_loss(kids[:1], parent, tau), reference_parent_child(kids[:1], parent, tau)),
        ] + ([(child_child_loss(kids, tau), reference_child_child(kids, tau))] if k >= 2 else []):
            assert got[0] == want[0]
            assert got[1].tobytes() == want[1].tobytes()


def test_both_losses_check_their_cohort_the_same_way():
    """One check for every dispersion loss: a 2-d cohort of enough children
    (none is too few for the pull, one for the push) and a positive
    temperature; a 1-d child is not a cohort."""
    e0, e1 = basis(3, 0), basis(3, 1)
    pull = lambda kids, tau=0.1: parent_child_loss(kids, e0, tau)
    push = lambda kids, tau=0.1: child_child_loss(kids, tau)
    for loss, too_few in [(pull, np.zeros((0, 3))), (push, e0[None, :])]:
        with pytest.raises(ValueError, match=r"need at least .*got shape \(2, 2, 3\)"):
            loss(np.zeros((2, 2, 3)))
        with pytest.raises(ValueError, match=r"need at least .*got shape \(3,\)"):
            loss(e1)
        with pytest.raises(ValueError, match="need at least"):
            loss(too_few)
        with pytest.raises(ValueError, match="temperature must be positive, got 0.0"):
            loss(np.stack([e0, e1]), 0.0)


def test_combine_weights_every_term():
    breakdown = combine(
        1.0, 2.0, 3.0, 4.0, 5.0,
        ExpansionConfig(gamma=0.1, gamma_bbox=5.0, gamma_giou=2.0, gamma_cls=1.0),
    )
    assert breakdown.total == pytest.approx(1.0 + 0.2 + 15.0 + 8.0 + 5.0)
    assert asdict(breakdown) == {
        "parent_child": 1.0,
        "child_child": 2.0,
        "bbox": 3.0,
        "giou": 4.0,
        "cls": 5.0,
        "total": breakdown.total,
    }
    # each weight scales its own term only
    assert combine(0.0, 0.0, 0.0, 0.0, 5.0, ExpansionConfig(gamma=0.1, gamma_cls=0.5)).total == 2.5
    assert combine(0.0, 2.0, 0.0, 0.0, 0.0, ExpansionConfig(gamma=3.0)).total == 6.0
    assert combine(0.0, 0.0, 3.0, 0.0, 0.0, ExpansionConfig(gamma_bbox=7.0)).total == 21.0
    assert combine(0.0, 0.0, 0.0, 4.0, 0.0, ExpansionConfig(gamma_giou=0.25)).total == 1.0


def test_combine_over_arrays_matches_each_entry():
    """One call over per-batch arrays gives every batch's scalar result."""
    terms = np.random.default_rng(3).normal(size=(5, 7))
    config = ExpansionConfig(gamma=0.3, gamma_bbox=5.0, gamma_giou=2.0, gamma_cls=1.5)
    whole = np.array(astuple(combine(*terms, config)))
    for i in range(terms.shape[1]):
        assert whole[:, i].tolist() == list(astuple(combine(*terms[:, i].tolist(), config)))


def test_combine_without_gradients():
    breakdown = combine(0.0, 0.0, 1.0, 0.5, 0.0, ExpansionConfig(gamma=1.0))
    assert breakdown.total == pytest.approx(5.0 + 1.0)
    # the value path takes no gradient arguments and no weight keywords
    with pytest.raises(TypeError):
        combine(0.0, 0.0, 0.0, 0.0, 0.0, ExpansionConfig(gamma=1.0), grad_cls=np.ones((2, 3)))
    with pytest.raises(TypeError):
        combine(0.0, 0.0, 0.0, 0.0, 0.0, gamma=1.0)
