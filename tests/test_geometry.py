import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dipex.geometry import (
    GivensRotation,
    angular_distance,
    apply_rotation,
    cosine,
    mac,
    normalize,
    pairwise_angle_matrix,
    sample_child_rotations,
)


def dense_rotation_matrix(d, rot):
    """Oracle: the full d x d matrix the plane rotation is shorthand for."""
    m = np.eye(d)
    c, s = math.cos(rot.angle), math.sin(rot.angle)
    m[rot.axis_i, rot.axis_i] = c
    m[rot.axis_j, rot.axis_j] = c
    m[rot.axis_i, rot.axis_j] = -s
    m[rot.axis_j, rot.axis_i] = s
    return m


def brute_force_mac(vectors):
    best = 0.0
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            best = max(best, angular_distance(vectors[i], vectors[j]))
    return best


def test_normalize_basics():
    v = normalize(np.array([3.0, 4.0]))
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(v, [0.6, 0.8])
    again = normalize(v)
    assert np.allclose(again, v, atol=1e-15)


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize(np.zeros(4))
    with pytest.raises(ValueError):
        normalize(np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError):
        normalize(np.array([1.0, np.nan]))


def test_cosine_and_angles():
    e0 = np.array([1.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0])
    assert cosine(e0, 5.0 * e0) == 1.0
    assert cosine(e0, e1) == 0.0
    assert angular_distance(e0, e0) == 0.0
    assert angular_distance(e0, -e0) == pytest.approx(math.pi)
    assert angular_distance(e0, e1) == pytest.approx(math.pi / 2)
    with pytest.raises(ValueError):
        cosine(e0, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        cosine(e0, np.zeros(3))


def test_rotation_validation():
    with pytest.raises(ValueError):
        GivensRotation(2, 2, 0.1)
    with pytest.raises(ValueError):
        GivensRotation(-1, 0, 0.1)
    with pytest.raises(ValueError):
        GivensRotation(0, 1, math.nan)
    with pytest.raises(ValueError):
        apply_rotation(np.ones(3), GivensRotation(0, 5, 0.1))


def test_apply_rotation_matches_dense_matrix():
    rng = np.random.default_rng(42)
    for d in (3, 8, 64):
        for _ in range(100):
            v = normalize(rng.normal(size=d))
            i, j = rng.choice(d, size=2, replace=False)
            rot = GivensRotation(int(i), int(j), float(rng.uniform(-math.pi, math.pi)))
            fast = apply_rotation(v, rot)
            assert np.allclose(fast, v @ dense_rotation_matrix(d, rot), atol=1e-12)
            assert np.linalg.norm(fast) == pytest.approx(1.0, abs=1e-12)


def test_rotation_inverts_with_negated_angle():
    rng = np.random.default_rng(3)
    v = normalize(rng.normal(size=16))
    rot = GivensRotation(2, 11, 0.7)
    back = apply_rotation(apply_rotation(v, rot), GivensRotation(2, 11, -0.7))
    assert np.allclose(back, v, atol=1e-12)


def test_sample_child_rotations_deterministic_and_bounded():
    parent = normalize(np.ones(32))
    a = sample_child_rotations(parent, 9, math.radians(15), rng=77)
    b = sample_child_rotations(parent, 9, math.radians(15), rng=77)
    assert a == b
    assert len(a) == 9
    for rot in a:
        assert rot.axis_i != rot.axis_j
        assert 0 <= rot.axis_i < 32 and 0 <= rot.axis_j < 32
        assert abs(rot.angle) <= math.radians(15)
        child = apply_rotation(parent, rot)
        assert angular_distance(child, parent) <= math.radians(15) + 1e-9


def test_sample_child_rotations_validation():
    parent = np.array([1.0])
    with pytest.raises(ValueError):
        sample_child_rotations(parent, 3, 0.1, rng=0)
    parent = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        sample_child_rotations(parent, 0, 0.1, rng=0)
    with pytest.raises(ValueError):
        sample_child_rotations(parent, 3, -0.1, rng=0)
    with pytest.raises(ValueError):
        sample_child_rotations(parent, 3, 4.0, rng=0)


def test_pairwise_angle_matrix_properties():
    rng = np.random.default_rng(5)
    vecs = [normalize(rng.normal(size=6)) for _ in range(5)]
    mat = pairwise_angle_matrix(vecs)
    assert mat.shape == (5, 5)
    assert np.allclose(mat, mat.T)
    assert np.all(np.diag(mat) == 0.0)
    assert np.all(mat >= 0.0) and np.all(mat <= math.pi)
    for i in range(5):
        for j in range(5):
            if i != j:
                assert mat[i, j] == pytest.approx(
                    angular_distance(vecs[i], vecs[j]), abs=1e-9
                )


def test_mac_matches_brute_force():
    rng = np.random.default_rng(11)
    for d in (3, 16):
        for _ in range(25):
            n = int(rng.integers(2, 11))
            vecs = [normalize(rng.normal(size=d)) for _ in range(n)]
            assert mac(vecs) == pytest.approx(brute_force_mac(vecs), abs=1e-9)
            assert mac(vecs, pairwise_angle_matrix(vecs)) == mac(vecs)


def test_mac_edge_cases():
    e0 = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        mac([e0])
    assert mac([e0, -e0]) == pytest.approx(math.pi)
    assert mac([e0, e0]) == 0.0


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_mac_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    vecs = [normalize(rng.normal(size=4)) for _ in range(4)]
    perm = [vecs[i] for i in rng.permutation(4)]
    assert mac(perm) == pytest.approx(mac(vecs), abs=1e-12)
