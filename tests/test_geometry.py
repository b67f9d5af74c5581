import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dipex.geometry import (
    GivensRotation,
    apply_rotation,
    cosines,
    mac,
    normalize,
    pairwise_angle_matrix,
    sample_child_rotations,
    unit_rows,
)

from reference_geometry import angular_distance, cosine


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


@pytest.mark.parametrize("seed", range(5))
def test_unit_rows_matches_numpy_norm_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(7, 12)) * rng.uniform(1e-3, 1e3, size=(7, 1))
    unit, norms = unit_rows(mat)
    expected = np.linalg.norm(mat, axis=1)
    assert norms.tobytes() == expected.tobytes()
    assert unit.tobytes() == (mat / expected[:, None]).tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_cosines_match_clipped_product_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    unit, _ = unit_rows(rng.normal(size=(9, 6)))
    # unit rows give some products a rounding step past 1; scaled rows give
    # products far past -1 and 1
    scaled = unit * rng.uniform(0.5, 3.0, size=(9, 1))
    assert (unit @ unit.T > 1.0).any() and (scaled @ scaled.T < -1.0).any()
    for a, b in ((unit, unit.T), (scaled, scaled.T), (scaled, unit[0])):
        assert cosines(a, b).tobytes() == np.clip(a @ b, -1.0, 1.0).tobytes()
    # the (scene, prompt, object) form the detector uses
    emb = unit_rows(rng.normal(size=(12, 6)))[0].reshape(3, 4, 6)
    got = cosines(scaled, emb.transpose(0, 2, 1))
    assert got.tobytes() == np.clip(np.matmul(scaled, emb.transpose(0, 2, 1)), -1.0, 1.0).tobytes()


def test_unit_rows_rejects_a_zero_row():
    with pytest.raises(ValueError, match="zero row"):
        unit_rows(np.array([[1.0, 2.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="zero row"):
        pairwise_angle_matrix([np.array([1.0, 0.0]), np.zeros(2)])


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
    a = sample_child_rotations(parent, 9, math.radians(15), np.random.default_rng(77))
    b = sample_child_rotations(parent, 9, math.radians(15), np.random.default_rng(77))
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
    with pytest.raises(ValueError, match="need at least one prompt"):
        pairwise_angle_matrix([])


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
