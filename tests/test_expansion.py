import json
import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dipex.boxes import BBox
from dipex.detector import (
    DetectorParams,
    QueryMode,
    VocabularyConfig,
    build_vocabulary,
    candidate_detections,
    detect_world,
    pack_world,
)
from dipex import expansion
from dipex.expansion import (
    EmptyPseudoLabels,
    ExpansionConfig,
    MacReport,
    PromptNode,
    PromptTree,
    activation_frequency,
    bootstrap_labels,
    expand,
    rebuild_labels,
    run,
    select_parent,
    train_round,
)
from dipex.experiments import ExperimentConfig, _write_json
from dipex.geometry import mac, normalize
from dipex.pseudo_labels import build_pseudo_labels

import reference_detector as ref
import reference_world
from conftest import all_labels, as_arrays, rows_of
from reference_detector import PseudoLabel
from reference_geometry import angular_distance

FAST = ExpansionConfig(
    num_children=2,
    num_expansions=1,
    epochs_per_round=2,
    seed=5,
)


def grow(world, config):
    """``run`` with default detector settings and the default vocabulary
    recipe under ``config``'s seed."""
    return run(world, config, DetectorParams(), build_vocabulary(world, VocabularyConfig(seed=config.seed)))


def unit(d, i=0):
    v = np.zeros(d)
    v[i] = 1.0
    return v


def orthogonal_to_world(world):
    """A unit vector (nearly) orthogonal to every object embedding."""
    q, _ = np.linalg.qr(world.cluster_centers.T)
    u = unit(world.config.dim, 0)
    residual = u - q @ (q.T @ u)
    return normalize(residual)


def test_prompt_node_validation():
    with pytest.raises(ValueError):
        PromptNode(embedding=np.zeros(4))
    with pytest.raises(ValueError):
        PromptNode(embedding=np.ones(4))
    with pytest.raises(ValueError):
        PromptNode(embedding=np.eye(2))
    node = PromptNode(embedding=unit(4))
    with pytest.raises(ValueError):
        node.embedding[0] = 0.5  # locked array


def test_tree_validation():
    root = PromptNode(embedding=unit(4))
    with pytest.raises(ValueError):
        PromptTree(nodes=[])
    with pytest.raises(ValueError):
        PromptTree(nodes={0: root})  # ids are positions, not keys
    with pytest.raises(ValueError, match="earlier node"):
        PromptTree(nodes=[root, PromptNode(unit(4, 1), parent_id=7)])
    with pytest.raises(ValueError, match="earlier node"):
        PromptTree(nodes=[root, PromptNode(unit(4, 1), parent_id=1)])  # its own parent
    with pytest.raises(ValueError, match="earlier node"):
        # a 2-cycle with no root
        PromptTree(nodes=[PromptNode(unit(4), parent_id=1), PromptNode(unit(4, 1), parent_id=0)])
    with pytest.raises(ValueError, match="earlier node"):
        # a list would read index -1 as its last node
        PromptTree(nodes=[root, PromptNode(unit(4, 1), parent_id=-1)])
    with pytest.raises(ValueError, match="not in the tree"):
        PromptTree(nodes=[root], parent_queue=[3])
    with pytest.raises(ValueError, match="not in the tree"):
        PromptTree(nodes=[root], parent_queue=[-1])
    with pytest.raises(ValueError, match="repeats"):
        PromptTree(nodes=[root], parent_queue=[0, 0])  # would count a round twice
    mixed = PromptNode(np.array([1.0, 0.0]), parent_id=0)
    with pytest.raises(ValueError):
        PromptTree(nodes=[root, mixed])
    tree = PromptTree.from_root(unit(4))
    with pytest.raises(ValueError, match="unknown parent"):
        expand(tree, -1, FAST, np.random.default_rng(0))
    assert len(tree.nodes) == 1 and tree.parent_queue == []


def test_tree_round_trips_through_json(tmp_path):
    tree = PromptTree.from_root(normalize(np.arange(1.0, 9.0)))
    expand(tree, 0, FAST, np.random.default_rng(0))
    path = tmp_path / "tree.json"
    _write_json(path, tree.to_dict())
    loaded = json.loads(path.read_text())
    assert loaded == tree.to_dict()
    # every embedding reads back to the tree's exact bytes
    for rec in loaded["nodes"]:
        assert np.array(rec["embedding"]).tobytes() == tree.nodes[rec["id"]].embedding.tobytes()


def test_config_validation_and_degrees():
    with pytest.raises(ValueError):
        ExpansionConfig(num_expansions=-1)
    with pytest.raises(ValueError):
        ExpansionConfig(num_children=1, num_expansions=1)
    with pytest.raises(ValueError):
        ExpansionConfig(max_angle=0.0)
    with pytest.raises(ValueError):
        ExpansionConfig(tau_parent=0.0)
    with pytest.raises(ValueError):
        ExpansionConfig(gamma=-0.1)
    with pytest.raises(ValueError):
        ExpansionConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        ExpansionConfig(label_threshold=1.0)
    # zero expansions permit any non-negative child count
    assert ExpansionConfig(num_children=1, num_expansions=0).num_children == 1
    with pytest.raises(ValueError):
        ExpansionConfig(num_children=-1, num_expansions=0)
    d = ExperimentConfig().as_dict()["expansion"]
    assert d["max_angle_degrees"] == pytest.approx(15.0)
    assert d["mac_threshold_degrees"] == pytest.approx(75.0)


def test_expand_spawns_rotated_children():
    tree = PromptTree.from_root(unit(8))
    config = ExpansionConfig(num_children=4, num_expansions=1, seed=0)
    cohort = expand(tree, 0, config, np.random.default_rng(0))
    assert cohort == (1, 2, 3, 4)
    assert tree.cohort == cohort
    assert tree.round_index == 2
    assert tree.frozen_ids == [0]
    assert tree.parent_queue == [0]
    parent = tree.nodes[0].embedding
    depth = {rec["id"]: rec["depth"] for rec in tree.to_dict()["nodes"]}
    for cid in cohort:
        child = tree.nodes[cid]
        assert depth[cid] == 1
        assert child.parent_id == 0
        assert cid in tree.trainable_ids
        assert angular_distance(child.embedding, parent) <= config.max_angle + 1e-9
    with pytest.raises(ValueError):
        expand(tree, 0, config, np.random.default_rng(0))  # already frozen
    with pytest.raises(ValueError):
        expand(tree, 99, config, np.random.default_rng(0))


@settings(max_examples=30, deadline=None)
@given(picks=st.lists(st.integers(0, 2**16), max_size=4), k=st.integers(2, 4))
def test_tree_state_follows_from_the_parent_queue(picks, k):
    """After every expansion the round, the cohort and the frozen set are
    the ones the parents chosen so far imply, and tree.json's frozen flags
    agree with them; its ids are positions and each depth is one more than
    its parent's."""
    tree = PromptTree.from_root(unit(6))
    config = ExpansionConfig(num_children=k, num_expansions=1)
    rng = np.random.default_rng(0)
    assert (tree.round_index, tree.cohort, tree.frozen_ids) == (1, (), [])
    parents = []
    for calls, pick in enumerate(picks, start=1):
        parents.append(tree.trainable_ids[pick % len(tree.trainable_ids)])
        cohort = expand(tree, parents[-1], config, rng)
        assert tree.round_index == 1 + calls
        assert tree.cohort == cohort == tuple(range(len(tree.nodes) - k, len(tree.nodes)))
        assert tree.frozen_ids == sorted(parents)
        assert tree.trainable_ids == [nid for nid in tree.ids if nid not in parents]
        doc = tree.to_dict()
        assert [rec["id"] for rec in doc["nodes"] if rec["frozen"]] == tree.frozen_ids
        assert (doc["round_index"], doc["cohort"]) == (tree.round_index, list(cohort))
        nodes = doc["nodes"]
        assert [rec["id"] for rec in nodes] == list(range(len(tree.nodes)))
        assert nodes[0]["depth"] == 0
        assert all(rec["depth"] == nodes[rec["parent_id"]]["depth"] + 1 for rec in nodes[1:])


def test_select_parent_prefers_busiest_then_lowest_id():
    counts = np.array([3, 7, 7, 0])  # entry i is prompt i
    assert select_parent(counts, [0, 1, 2]) == 1
    assert select_parent(counts, [0, 2]) == 2
    assert select_parent(counts, [3]) == 3
    with pytest.raises(ValueError):
        select_parent(counts, [])


def test_mac_report_convergence_rules():
    report = MacReport()
    assert not report.converged(1.0, 0.01)
    rng = np.random.default_rng(0)
    vecs = np.stack([normalize(rng.normal(size=4)) for _ in range(3)])
    report.record(vecs)
    assert report.converged(report.alpha_max[-1] - 1e-6, 0.0)  # above threshold
    assert not report.converged(math.pi, 0.0)  # single entry, no plateau yet
    report.record(vecs)  # identical set: zero movement
    assert report.converged(math.pi, 1e-9)


def test_mac_report_value_is_the_matrix_maximum():
    rng = np.random.default_rng(3)
    vecs = np.stack([normalize(rng.normal(size=16)) for _ in range(7)])
    report = MacReport()
    value = report.record(vecs)
    assert value == mac(vecs)
    assert value == report.alpha_max[-1] == np.max(report.matrices[-1])


def test_candidate_grid_matches_public_detector(tiny_world, default_params):
    rng = np.random.default_rng(9)
    prompts = [(i, normalize(rng.normal(size=tiny_world.config.dim))) for i in range(3)]
    V = np.stack([vec for _, vec in prompts])
    unit = V / np.linalg.norm(V, axis=1, keepdims=True)
    packed = pack_world(tiny_world, seed=0)
    scenes = reference_world.scenes_of(tiny_world)
    _, _, scores, boxes = candidate_detections(packed, unit, default_params)
    for row, scene in enumerate(scenes):
        dets = ref.candidate_detections(scene, prompts, default_params, tiny_world, seed=0)
        n_obj = len(scene.object_ids)
        for pi in range(len(prompts)):
            for oi in range(n_obj):
                det = dets[pi * n_obj + oi]
                assert det.score == scores[row, pi, oi]
                assert det.bbox.as_tuple() == tuple(boxes[row, pi, oi])


def test_train_round_root_only(tiny_world, default_params):
    vocab = [tiny_world.cluster_centers[0], tiny_world.cluster_centers[1]]
    labels = bootstrap_labels(vocab, tiny_world, FAST, default_params)
    assert len(labels) > 0
    tree = PromptTree.from_root(normalize(np.sum(np.stack(vocab), axis=0)))
    before = tree.nodes[0].embedding.copy()
    stats = train_round(tree, labels, tiny_world, FAST, default_params, np.random.default_rng(0))
    assert len(stats.epoch_losses) == FAST.epochs_per_round
    # no cohort yet: dispersion terms are identically zero
    assert all(b.parent_child == 0.0 for b in stats.epoch_losses)
    assert all(b.child_child == 0.0 for b in stats.epoch_losses)
    assert max(stats.epoch_norm_error) <= 1e-9
    assert not np.array_equal(tree.nodes[0].embedding, before)
    assert np.linalg.norm(tree.nodes[0].embedding) == pytest.approx(1.0, abs=1e-9)


def test_train_round_freezes_parent_bytes(tiny_world, default_params, monkeypatch):
    """The frozen parent keeps its bytes in the tree and, at every step, in
    the round's working matrix, although its focal gradient is not zero."""
    vocab = [tiny_world.cluster_centers[0], tiny_world.cluster_centers[1]]
    labels = bootstrap_labels(vocab, tiny_world, FAST, default_params)
    tree = PromptTree.from_root(normalize(np.sum(np.stack(vocab), axis=0)))
    train_round(tree, labels, tiny_world, FAST, default_params, np.random.default_rng(0))
    expand(tree, 0, FAST, np.random.default_rng(1))
    frozen_before = tree.nodes[0].embedding.tobytes()
    labels2 = rebuild_labels(tree, tiny_world, FAST, default_params)

    batch_step, working, pulled = expansion._batch_step, [], []

    def spy(scenes, label_boxes, V, params, config):
        assert V[0].tobytes() == frozen_before
        working.append(V)
        terms, grad = batch_step(scenes, label_boxes, V, params, config)
        pulled.append(grad[0].any())
        return terms, grad

    monkeypatch.setattr(expansion, "_batch_step", spy)
    stats = train_round(
        tree, labels2, tiny_world, FAST, default_params, np.random.default_rng(2)
    )
    assert any(pulled)
    assert working[-1][0].tobytes() == frozen_before  # after the last step
    assert tree.nodes[0].embedding.tobytes() == frozen_before
    # the cohort now feels dispersion
    assert any(b.parent_child != 0.0 for b in stats.epoch_losses)
    for cid in tree.cohort:
        assert np.linalg.norm(tree.nodes[cid].embedding) == pytest.approx(1.0, abs=1e-9)


def test_train_round_requires_trainable_prompts(tiny_world, default_params):
    tree = PromptTree(nodes=[PromptNode(unit(tiny_world.config.dim))], parent_queue=[0])
    labels = as_arrays([], labels=True)
    with pytest.raises(ValueError):
        train_round(tree, labels, tiny_world, FAST, default_params, np.random.default_rng(0))


def test_labels_outside_the_world_rejected(tiny_world, default_params):
    tree = PromptTree.from_root(unit(tiny_world.config.dim))
    labels = as_arrays([PseudoLabel(999, BBox(0.0, 0.0, 5.0, 5.0), 0.9, "x")], labels=True)
    with pytest.raises(ValueError, match="outside the world"):
        activation_frequency(tree, labels, tiny_world, default_params, 0.5, 0)


def test_activation_frequency_sums_to_total(tiny_world, default_params):
    vocab = [tiny_world.cluster_centers[0], tiny_world.cluster_centers[1]]
    labels = bootstrap_labels(vocab, tiny_world, FAST, default_params)
    tree = PromptTree.from_root(normalize(np.sum(np.stack(vocab), axis=0)))
    counts = activation_frequency(tree, labels, tiny_world, default_params, 0.5, 0)
    assert counts.dtype.kind == "i"
    assert counts.tolist() == [len(labels)]  # single prompt answers for everything


def _grown_tree(world, rng):
    """A root plus one or two expansions of random children, some frozen,
    and sometimes an exact copy of one prompt (forcing responsibility ties)."""
    tree = PromptTree.from_root(normalize(world.cluster_centers[0] + rng.normal(scale=0.5, size=world.config.dim)))
    config = ExpansionConfig(num_children=int(rng.integers(2, 6)), max_angle=math.radians(60.0))
    expand(tree, 0, config, rng)
    if rng.random() < 0.5:
        expand(tree, int(tree.cohort[0]), config, rng)
    if rng.random() < 0.5:
        twin = int(rng.choice(tree.ids))
        tree.nodes.append(PromptNode(tree.nodes[twin].embedding, parent_id=twin))
    return tree


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), which=st.sampled_from(["tiny", "small"]))
def test_activation_frequency_matches_object_matcher(tiny_world, small_world, seed, which):
    """Responsibility counts from the candidate grid and training's matcher
    equal those of the object-by-object matcher over scalar candidates."""
    rng = np.random.default_rng(seed)
    world = tiny_world if which == "tiny" else small_world
    tree = _grown_tree(world, rng)
    config = ExpansionConfig(label_threshold=float(rng.choice([0.05, 0.2])), seed=int(rng.integers(0, 9)))
    params = DetectorParams(box_noise=float(rng.choice([0.15, 1.0])))
    labels = bootstrap_labels(list(world.cluster_centers), world, config, params)
    iou_min = float(rng.choice([0.3, 0.5, 0.9]))
    counts = activation_frequency(tree, labels, world, params, iou_min, config.seed)
    want, total = ref.activation_counts(tree, all_labels(labels), world, params, iou_min, config.seed)
    assert counts.dtype.kind == "i" and counts.shape == (len(tree.nodes),)
    assert (dict(enumerate(counts.tolist())), int(counts.sum())) == (want, total)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), which=st.sampled_from(["tiny", "small"]))
def test_label_passes_match_per_prompt_detection(tiny_world, small_world, seed, which):
    """rebuild_labels and bootstrap_labels equal the label builder over one
    scalar prediction-merging detection per prompt."""
    rng = np.random.default_rng(seed)
    world = tiny_world if which == "tiny" else small_world
    tree = _grown_tree(world, rng)
    config = ExpansionConfig(label_threshold=float(rng.choice([0.05, 0.2, 0.4])), seed=int(rng.integers(0, 9)))
    params = DetectorParams(nms_floor=float(rng.choice([0.001, 0.3])))
    label_params = DetectorParams(nms_floor=params.nms_floor, score_threshold=config.label_threshold)
    vocab = list(world.cluster_centers)
    cases = [
        (rebuild_labels(tree, world, config, params), tree.prompt_items(), "prompt_{:03d}"),
        (bootstrap_labels(vocab, world, config, params), list(enumerate(vocab)), "vocab_{:02d}"),
    ]
    for labels, prompts, tag in cases:
        sources = ref.label_sources(prompts, world, label_params, config.seed)
        want = build_pseudo_labels(
            {tag.format(pid): as_arrays(dets) for pid, dets in sources.items()},
            threshold=config.label_threshold,
            sigma=params.nms_sigma,
            score_floor=params.nms_floor,
        )
        assert all_labels(labels) == all_labels(want)
        assert labels.meta == want.meta


def test_run_grows_expected_tree(tiny_world):
    result = grow(tiny_world, FAST)
    assert len(result.tree.nodes) == 1 + FAST.num_expansions * FAST.num_children
    assert result.tree.round_index == 1 + FAST.num_expansions
    assert len(result.round_stats) == 1 + FAST.num_expansions
    assert len(result.eval_summaries) == 1 + FAST.num_expansions
    assert len(result.label_counts) == 1 + FAST.num_expansions
    assert len(result.activation_history) == FAST.num_expansions
    assert len(result.mac_report.alpha_max) == len(result.mac_report.matrices) == FAST.num_expansions


def test_run_carries_the_final_trees_detections(tiny_world):
    result = grow(tiny_world, FAST)
    fresh = detect_world(
        tiny_world,
        result.tree.prompt_items(),
        QueryMode.PREDICTION_MERGING,
        DetectorParams(),
        FAST.seed,
    )
    assert rows_of(result.final_detections) == rows_of(fresh)


def test_run_is_deterministic(tiny_world):
    a = grow(tiny_world, FAST)
    b = grow(tiny_world, FAST)
    assert a.tree.to_dict() == b.tree.to_dict()
    assert a.mac_report.alpha_max == b.mac_report.alpha_max
    assert [s.ar_at for s in a.eval_summaries] == [s.ar_at for s in b.eval_summaries]


def test_run_stops_when_mac_clears_the_threshold(tiny_world):
    """MAC reads 25.1 degrees after round 2, so a 1-degree threshold stops
    the run there."""
    config = replace(FAST, num_expansions=3, mac_threshold=math.radians(1.0))
    result = grow(tiny_world, config)
    assert result.stopped_early
    assert len(result.round_stats) == len(result.eval_summaries) == 2
    assert len(result.activation_history) == 1
    assert len(result.mac_report.alpha_max) == 1  # round 2's
    assert len(result.tree.nodes) == 3


def test_run_stops_when_mac_stalls(tiny_world):
    """MAC moves from 25.1 to 53.7 degrees between rounds 2 and 3, less than
    a 180-degree tolerance, while no MAC reaches a 180-degree threshold."""
    config = replace(FAST, num_expansions=3, mac_threshold=math.pi, mac_tolerance=math.pi)
    result = grow(tiny_world, config)
    assert result.stopped_early
    assert len(result.mac_report.alpha_max) == 2  # rounds 2 and 3
    assert len(result.round_stats) == len(result.eval_summaries) == 3


def test_run_with_zero_expansions(tiny_world):
    config = ExpansionConfig(num_expansions=0, epochs_per_round=2, seed=5)
    result = grow(tiny_world, config)
    assert len(result.tree.nodes) == 1
    assert result.tree.round_index == 1
    assert not result.stopped_early
    assert result.mac_report.alpha_max == []


@settings(max_examples=100, deadline=None)
@given(
    expansions=st.integers(1, 3),
    epochs=st.integers(1, 2),
    k=st.integers(2, 6),
    batch_size=st.integers(1, 6),
    gamma=st.floats(0.0, 5.0),
    tau_parent=st.floats(0.02, 1.0),
    tau_child=st.floats(0.02, 1.0),
    seed=st.integers(0, 2**16),
)
# a run whose MAC shrinks from 176.7 to 165.5 degrees between its two rounds
@example(
    expansions=2, epochs=1, k=2, batch_size=1, gamma=5.0, tau_parent=1.0, tau_child=0.5,
    seed=61166,
)
def test_growth_loop_invariants(
    tiny_world, expansions, epochs, k, batch_size, gamma, tau_parent, tau_child, seed
):
    """Random growth runs keep the loop's invariants; running out of
    pseudo-labels is the one failure allowed.

    MAC is not one of them: it can shrink.  An earlier cohort stays
    trainable after a newer one takes over the repulsion, and the focal
    loss alone can pull its far-spread siblings back together.
    """
    config = ExpansionConfig(
        num_children=k,
        num_expansions=expansions,
        epochs_per_round=epochs,
        batch_size=batch_size,
        gamma=gamma,
        tau_parent=tau_parent,
        tau_child=tau_child,
        early_stop=False,
        seed=seed,
    )
    try:
        result = grow(tiny_world, config)
    except EmptyPseudoLabels:
        return
    tree = result.tree
    norms = np.linalg.norm(tree.embedding_matrix(), axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-9
    assert all(0.0 <= alpha <= math.pi for alpha in result.mac_report.alpha_max)
    for summary in result.eval_summaries:
        recall = [summary.ar_at[cap] for cap in sorted(summary.ar_at)]
        assert recall == sorted(recall)
    for stats in result.round_stats:
        assert stats.assignments_final + stats.misses_final == stats.label_count
        assert all(math.isfinite(v) for loss in stats.epoch_losses for v in astuple(loss))
    assert len(tree.nodes) == 1 + (len(result.round_stats) - 1) * k
    # one expansion fewer is the same run cut short: what it froze stays put
    shorter = grow(tiny_world, replace(config, num_expansions=expansions - 1)).tree
    for nid in shorter.frozen_ids:
        assert nid in tree.frozen_ids
        assert tree.nodes[nid].embedding.tobytes() == shorter.nodes[nid].embedding.tobytes()


def test_run_rejects_useless_vocabulary(tiny_world):
    with pytest.raises(ValueError):
        run(tiny_world, FAST, DetectorParams(), [])
    with pytest.raises(EmptyPseudoLabels, match="round 1"):
        run(tiny_world, FAST, DetectorParams(), [orthogonal_to_world(tiny_world)])
