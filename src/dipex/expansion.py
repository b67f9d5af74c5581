"""Prompt-tree growth: spawn rotated children, train with dispersion, stop on
maximum angular coverage.

One run is one round repeated, each round a pass of the same loop body in
``run``.  Round 1 trains the root alone against pseudo-labels bootstrapped
from a zero-shot query vocabulary.  Every later round first expands: it
freezes the busiest current prompt (the one responsible for the largest share
of pseudo-labels, i.e. the coarsest), spawns children by small random plane
rotations of it and rebuilds pseudo-labels from the current prompt set.  Then
every round trains, and ends with an evaluation.  During a round the fresh
cohort feels the dispersion pair (attraction to its parent, log-sum-exp
repulsion among siblings) while every trainable prompt, cohort or not, is
supervised with focal classification loss against the pseudo-labels.  Box
losses are tracked for reporting; the simulated detector's box noise is not
differentiable with respect to the prompts, so they carry no gradient.

Training works on a whole batch of scenes at once.  A round packs its scenes
into the detector's dense (scene, object) arrays and scatters the label
boxes into a (scene, label) table, padded where scenes differ in size.  Each
epoch gathers both once in its scene order, so a batch is a ``SceneArrays``
slice plus the same rows of the table.  It takes one pass over its (scene,
label, prompt, object) grid for the candidate boxes, IoU, responsibility
matching and focal loss, and one matrix product over its objects for the
gradient.  The reported losses (the focal sums and the L1 and GIoU box
losses) carry no gradient, so they are computed once per epoch from what
the batches kept, as arrays with one entry per batch: one weighted total
over those arrays, then each term's mean over the batches.  The same grid
and matcher count how many labels each prompt answers for when the next
parent is picked.  The label passes run the detector once per prompt, each
on its own candidate grid; labels stay arrays from detector to trainer.

Growth stops after the configured number of expansions, or earlier when the
maximum pairwise angle either clears the coverage threshold or stalls between
consecutive rounds.

``ExpansionConfig`` lives in ``dipex.config`` and ``EmptyPseudoLabels`` in
``dipex.pseudo_labels``; both are re-exported here.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from .boxes import box_iou
from .detection_losses import giou_loss, l1_box_loss, sigmoid_focal_loss
from .config import DetectorParams, ExpansionConfig, VocabularyConfig
from .detector import (
    QueryMode,
    SceneArrays,
    build_vocabulary,
    candidate_detections,
    detect_each,
    detect_world,
    pack_world,
    unit_prompts,
)
from .dispersion import LossBreakdown, child_child_loss, combine, parent_child_loss
from .evaluation import DEFAULT_MAX_DETS, EvalSummary, GroundTruthSet, evaluate
from .geometry import (
    apply_rotation, mac, normalize, pairwise_angle_matrix, sample_child_rotations, unit_rows
)
from .pseudo_labels import EmptyPseudoLabels, PseudoLabelSet, ScoredBoxes, build_pseudo_labels
from .world import World


def _lock(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PromptNode:
    embedding: np.ndarray
    parent_id: int | None = None

    def __post_init__(self) -> None:
        emb = _lock(self.embedding)
        if emb.ndim != 1:
            raise ValueError(f"prompt embedding must be 1-d, got shape {emb.shape}")
        if abs(float(np.linalg.norm(emb)) - 1.0) > 1e-6:
            raise ValueError("prompt embedding is not unit norm")
        object.__setattr__(self, "embedding", emb)


@dataclass
class PromptTree:
    """All prompts ever grown, plus the parents frozen so far.

    A prompt's id is its index in ``nodes``, and every parent comes before
    its children, so a node's depth follows from its parent's.
    ``parent_queue`` lists the frozen parents in freeze order and is the one
    record of which prompts are frozen; every other prompt is trainable.
    The rest follows from it: ``cohort`` is the children of the last parent
    (empty before the first expansion), and ``round_index`` counts training
    rounds, 1 for the root-only round and one more per expansion.
    """

    nodes: list[PromptNode]
    parent_queue: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not isinstance(self.nodes, list) or not self.nodes:
            raise ValueError("a prompt tree is a non-empty list of nodes")
        dims = {node.embedding.shape[0] for node in self.nodes}
        if len(dims) != 1:
            raise ValueError(f"inconsistent embedding dimensions: {sorted(dims)}")
        for nid, node in enumerate(self.nodes):
            if node.parent_id is not None and node.parent_id not in range(nid):
                raise ValueError(f"node {nid} has parent {node.parent_id}, which is not an earlier node")
        for pid in self.parent_queue:
            if pid not in range(len(self.nodes)):
                raise ValueError(f"parent queue entry {pid} is not in the tree")
        if len(set(self.parent_queue)) != len(self.parent_queue):
            raise ValueError(f"parent queue repeats an entry: {self.parent_queue}")

    @classmethod
    def from_root(cls, embedding: np.ndarray) -> "PromptTree":
        return cls(nodes=[PromptNode(normalize(np.asarray(embedding, float)))])

    @property
    def ids(self) -> list[int]:
        return list(range(len(self.nodes)))

    @property
    def trainable_ids(self) -> list[int]:
        return [nid for nid in self.ids if nid not in self.parent_queue]

    @property
    def frozen_ids(self) -> list[int]:
        return sorted(self.parent_queue)

    @property
    def cohort(self) -> tuple[int, ...]:
        if not self.parent_queue:
            return ()
        return tuple(nid for nid, node in enumerate(self.nodes) if node.parent_id == self.parent_queue[-1])

    @property
    def round_index(self) -> int:
        return 1 + len(self.parent_queue)

    def prompt_items(self) -> list[tuple[int, np.ndarray]]:
        return [(nid, node.embedding) for nid, node in enumerate(self.nodes)]

    def embedding_matrix(self) -> np.ndarray:
        return np.stack([node.embedding for node in self.nodes])

    def to_dict(self) -> dict:
        """Each node's fields plus its id, depth and ``frozen`` flag, all
        derived from its position and the parent queue."""
        depth: list[int] = []
        for node in self.nodes:
            depth.append(0 if node.parent_id is None else depth[node.parent_id] + 1)
        return {
            "round_index": self.round_index,
            "parent_queue": list(self.parent_queue),
            "cohort": list(self.cohort),
            "nodes": [
                {**asdict(node), "id": nid, "depth": depth[nid], "embedding": node.embedding.tolist(),
                 "frozen": nid in self.parent_queue}
                for nid, node in enumerate(self.nodes)
            ],
        }


@dataclass
class MacReport:
    """Maximum pairwise angle and angle matrix after each multi-prompt round:
    entry i belongs to round i + 2."""

    alpha_max: list[float] = field(default_factory=list)
    matrices: list[np.ndarray] = field(default_factory=list)

    def record(self, embeddings: np.ndarray) -> float:
        matrix = pairwise_angle_matrix(embeddings)
        value = mac(embeddings, matrix)
        self.alpha_max.append(float(value))
        self.matrices.append(matrix)
        return float(value)

    def converged(self, threshold: float, tolerance: float) -> bool:
        if not self.alpha_max:
            return False
        if self.alpha_max[-1] >= threshold:
            return True
        if len(self.alpha_max) >= 2:
            return abs(self.alpha_max[-1] - self.alpha_max[-2]) < tolerance
        return False


@dataclass
class RoundStats:
    """One round's training record; round r is ``RunResult.round_stats[r - 1]``.
    Each epoch visits every label once: the last epoch matched
    ``assignments_final`` of them and missed the rest, ``misses_final``."""

    epoch_losses: list[LossBreakdown]
    epoch_norm_error: list[float]
    label_count: int
    assignments_final: int = 0
    misses_final: int = 0


def _label_table(labels: PseudoLabelSet, num_scenes: int) -> np.ndarray:
    """The label boxes as a (scene, label, 4) xyxy table: row s is scene s,
    each row in its scene's label order.

    Scenes with fewer labels than the widest one are padded with all-zero
    boxes.  A zero box overlaps nothing, so padding (of labels or objects)
    never clears the (positive) IoU floor of matching and is never assigned.
    """
    if not np.isin(labels.scene_ids, np.arange(num_scenes)).all():
        raise ValueError("pseudo-labels reference scenes outside the world")
    order = np.argsort(labels.scene_ids, kind="stable")  # by scene, each in label order
    row = labels.scene_ids[order]
    rank = np.arange(row.size) - np.searchsorted(row, row)
    table = np.zeros((num_scenes, int(np.bincount(row, minlength=num_scenes).max()), 4))
    table[row, rank] = labels.boxes[order]
    return table


@dataclass(frozen=True)
class _Match:
    """Responsibility matching, indexed (scene, label, prompt).

    ``has[s, l, p]``: prompt p has a candidate over the IoU floor for label l;
    ``best_obj`` is that prompt's best-scoring such object (ties to the
    lowest object index); ``responsible[s, l]`` is the best-scoring prompt
    (ties to the lowest row, i.e. the lowest id); ``assigned[s, l]``: label l
    of scene s has at least one matching candidate.
    """

    has: np.ndarray
    best_obj: np.ndarray
    responsible: np.ndarray
    assigned: np.ndarray


def assign_responsibility(
    label_boxes: np.ndarray, scores: np.ndarray, boxes: np.ndarray, iou_min: float
) -> _Match:
    """Match a (scene, label, 4) label table to its scenes' candidate grid.

    A candidate matches a label at IoU >= iou_min; per prompt only its
    best-scoring match counts, and the prompt with the best such score is
    responsible for the label.  Labels with no match at all are misses.
    The grid is laid out (scene, label, prompt, object), so that every
    operation runs over the contiguous (prompt, object) block of a label.
    """
    ious = box_iou(boxes[:, None], label_boxes[:, :, None, None])
    masked = np.where(ious >= iou_min, scores[:, None], -np.inf)
    best_obj = np.argmax(masked, axis=3)
    # each best score picked by index: a max over the short object axis is
    # slower
    best = masked.reshape(-1, masked.shape[3])[np.arange(best_obj.size), best_obj.reshape(-1)]
    has = best.reshape(best_obj.shape) > -np.inf
    return _Match(has, best_obj, np.argmax(best.reshape(has.shape), axis=2), has.any(axis=2))


@dataclass
class _BatchTerms:
    """What one batch leaves for its epoch's loss bookkeeping.

    ``focal`` holds the batch's focal terms in (scene, label, prompt) order
    and ``per_label`` the term count of each assigned label, so
    ``per_label.size`` is the batch's assigned label count.  ``cand``,
    ``target`` and ``size`` hold, per assigned label in (scene, label)
    order, its responsible candidate, its box and its scene's size.
    """

    focal: np.ndarray      # (terms,)
    per_label: np.ndarray  # (assigned,)
    cand: np.ndarray       # (assigned, 4) xyxy
    target: np.ndarray     # (assigned, 4) xyxy
    size: np.ndarray       # (assigned, 2) width, height


def _batch_step(
    scenes: SceneArrays,
    label_boxes: np.ndarray,
    V: np.ndarray,
    params: DetectorParams,
    config: ExpansionConfig,
) -> tuple[_BatchTerms, np.ndarray]:
    """Focal terms and their gradient for the batch ``scenes``, whose label
    table rows are ``label_boxes``; in training both are epoch slices.

    Every (label, matched prompt) pair of the batch is one focal term: target
    1 for the label's responsible prompt, 0 for the others, on the logit of
    the prompt's best matched object; labels with no matched candidate have
    no term.  Every prompt's gradient, frozen or not, is summed over its
    terms, and ``train_round`` moves only the trainable rows.  Returns the
    batch's terms, for ``_tallies`` to sum, and the unnormalized gradient.

    A term on prompt p and object o adds c * (emb_o - cos_po * unit_p), with
    c = dfocal * logit_scale / |V_p|.  So the gradient is one matrix product,
    ``C @ E - w[:, None] * unit``: C holds the summed c of each (prompt,
    batch object), E the batch's object embeddings and w each prompt's sum
    of c * cos.
    """
    unit, norms = unit_rows(V)
    cos, logits, scores, boxes = candidate_detections(scenes, unit, params)
    m = assign_responsibility(label_boxes, scores, boxes, config.label_iou_min)
    s, l = np.nonzero(m.assigned)
    responsible = m.responsible[s, l]
    per_label = m.has.sum(axis=2)[m.assigned]
    cand = boxes[s, responsible, m.best_obj[s, l, responsible]]
    target = label_boxes[s, l]
    size = scenes.size[s]

    # every (scene, label, prompt) pair, in that order; one flat index into
    # the (scene, prompt, object) grid per pair
    s, _, p = np.nonzero(m.has)
    o = m.best_obj[m.has]
    pair = (s * cos.shape[1] + p) * cos.shape[2] + o
    focal, dfocal = sigmoid_focal_loss(
        logits.take(pair), (p == np.repeat(responsible, per_label)).astype(float)
    )
    coeff = dfocal * params.logit_scale / norms[p]
    obj = s * cos.shape[2] + o
    E = scenes.emb.reshape(-1, V.shape[1])  # the batch's objects, scene by scene
    C = np.bincount(p * E.shape[0] + obj, coeff, V.shape[0] * E.shape[0]).reshape(V.shape[0], -1)
    w = np.bincount(p, coeff * cos.take(pair), V.shape[0])
    grad = C @ E - w[:, None] * unit
    return _BatchTerms(focal, per_label, cand, target, size), grad


def _tallies(batches: Sequence[_BatchTerms]) -> np.ndarray:
    """Each batch's focal, L1 and GIoU loss sums as a (batch, 3) array,
    from the terms of any number of batches.

    The per-label focal sums and both box losses are computed once over all
    of them, then summed per batch.
    """
    per_label = np.concatenate([b.per_label for b in batches])
    focal = np.concatenate([b.focal for b in batches])
    cand, target, size = (
        np.concatenate([getattr(b, name) for b in batches]) for name in ("cand", "target", "size")
    )
    # every label has at least one term, so no two starts are equal
    label_losses = np.add.reduceat(focal, np.cumsum(per_label) - per_label)
    batch = np.repeat(np.arange(len(batches)), [b.per_label.size for b in batches])
    return np.stack([
        np.bincount(batch, v, len(batches))
        for v in (label_losses, l1_box_loss(cand, target, size[:, 0], size[:, 1]), giou_loss(cand, target))
    ], axis=1)


def train_round(
    tree: PromptTree,
    labels: PseudoLabelSet,
    world: World,
    config: ExpansionConfig,
    params: DetectorParams,
    rng: np.random.Generator,
) -> RoundStats:
    """Optimize every trainable prompt for one round and write results back.

    Each epoch visits the scenes in a fresh random order, in batches of
    ``batch_size``: the round's scenes and labels are gathered once in that
    order, and each batch is a slice of them.  One ``_batch_step`` call per
    batch gives the focal terms and their gradient over all of the batch's
    (label, matched prompt) pairs.  The loss values are reported, not trained
    on, so they wait for the end of the epoch: one ``_tallies`` call then
    gives every batch's focal, L1 and GIoU sums as one (batch, 3) array.
    Divided by each batch's assigned label count, these and the per-batch
    dispersion values go through one ``combine`` call, and each term of the
    epoch's ``LossBreakdown`` is its mean over the batches.  The newest cohort
    additionally feels attraction to its frozen parent and log-sum-exp
    repulsion among siblings; in the root-only round both terms are zero.
    Updates are projected gradient steps on the trainable rows alone:
    subtract, renormalize, with an exact skip when the step is exactly zero so
    untouched prompts keep their bytes.  Frozen rows never move.
    """
    row_trainable = np.isin(tree.ids, tree.parent_queue, invert=True)
    if not row_trainable.any():
        raise ValueError("no trainable prompts left")
    V = tree.embedding_matrix()  # row i is prompt i

    cohort_rows = np.array(tree.cohort, dtype=int)
    use_dispersion = cohort_rows.size >= 2
    parent_vec = (
        tree.nodes[tree.parent_queue[-1]].embedding if use_dispersion else None
    )

    scenes = pack_world(world, config.seed)
    num_scenes = len(scenes.size)
    table = _label_table(labels, num_scenes)
    stats = RoundStats(epoch_losses=[], epoch_norm_error=[], label_count=len(labels))

    for _ in range(config.epochs_per_round):
        order = rng.permutation(num_scenes)
        epoch, epoch_labels = scenes.take(order), table[order]
        batches: list[_BatchTerms] = []
        dispersion: list[tuple[float, float]] = []
        for start in range(0, num_scenes, config.batch_size):
            b = slice(start, start + config.batch_size)
            terms, grad_cls = _batch_step(epoch.take(b), epoch_labels[b], V, params, config)
            batches.append(terms)
            grad_cls /= max(terms.per_label.size, 1)
            total_grad = config.gamma_cls * grad_cls
            if use_dispersion:
                cohort = V[cohort_rows]
                pc_value, pc_grad = parent_child_loss(cohort, parent_vec, config.tau_parent)
                cc_value, cc_grad = child_child_loss(cohort, config.tau_child)
                dispersion.append((pc_value, cc_value))
                total_grad[cohort_rows] += pc_grad + config.gamma * cc_grad
            else:
                dispersion.append((0.0, 0.0))

            step = config.learning_rate * total_grad
            moved = (step != 0.0).any(axis=1) & row_trainable
            V[moved] = unit_rows(V[moved] - step[moved])[0]

        assigned = np.array([b.per_label.size for b in batches])
        cls, bbox, giou = (_tallies(batches) / np.maximum(assigned, 1)[:, None]).T
        pc, cc = np.array(dispersion).T
        parts = combine(pc, cc, bbox, giou, cls, config)
        stats.epoch_losses.append(LossBreakdown(
            *(float(np.mean(getattr(parts, f.name))) for f in fields(LossBreakdown))
        ))
        stats.epoch_norm_error.append(
            float(np.max(np.abs(unit_rows(V[row_trainable])[1] - 1.0)))
        )
    stats.assignments_final = int(assigned.sum())  # the last epoch's
    stats.misses_final = stats.label_count - stats.assignments_final

    for nid in np.flatnonzero(row_trainable).tolist():
        tree.nodes[nid] = replace(tree.nodes[nid], embedding=V[nid])
    return stats


def activation_frequency(
    tree: PromptTree,
    labels: PseudoLabelSet,
    world: World,
    params: DetectorParams,
    iou_min: float = 0.5,
    seed: int = 0,
) -> np.ndarray:
    """How many pseudo-labels each prompt answers for over the whole world,
    as an integer array with one entry per prompt: entry i is prompt i.  The
    count is training's responsibility matching over every candidate of
    every scene.  Each assigned label has one responsible prompt, so the
    counts sum to the number of assigned labels."""
    _, unit = unit_prompts(tree.prompt_items())
    scenes = pack_world(world, seed)
    table = _label_table(labels, len(scenes.size))
    _, _, scores, boxes = candidate_detections(scenes, unit, params)
    m = assign_responsibility(table, scores, boxes, iou_min)
    return np.bincount(m.responsible[m.assigned], minlength=len(tree.nodes))


def select_parent(counts: np.ndarray, candidates: Sequence[int]) -> int:
    """Next prompt to split: the candidate answering for the most labels.

    ``counts`` is ``activation_frequency``'s array, and every candidate is a
    prompt id, i.e. an index into it.  A prompt that wins responsibility
    everywhere is covering too much ground with one vector; splitting it buys
    the most new coverage.  Ties go to the lowest id.
    """
    if not candidates:
        raise ValueError("no candidate parents")
    return min(candidates, key=lambda nid: (-counts[nid], nid))


def expand(
    tree: PromptTree, parent_id: int, config: ExpansionConfig, rng: np.random.Generator
) -> tuple[int, ...]:
    """Freeze the parent and spawn rotated children; returns the new cohort.

    Children are copies of the parent nudged by an independent random plane
    rotation each (uniform axis pair, angle uniform within +/- max_angle), so
    they start close together and the round's dispersion terms spread them.
    """
    if parent_id not in range(len(tree.nodes)):
        raise ValueError(f"unknown parent {parent_id}")
    if parent_id in tree.parent_queue:
        raise ValueError(f"parent {parent_id} is already frozen")
    parent = tree.nodes[parent_id].embedding
    rotations = sample_child_rotations(parent, config.num_children, config.max_angle, rng)
    tree.nodes += [PromptNode(apply_rotation(parent, rotation), parent_id) for rotation in rotations]
    tree.parent_queue.append(parent_id)
    return tree.cohort


def rebuild_labels(
    tree: PromptTree,
    world: World,
    config: ExpansionConfig,
    params: DetectorParams,
) -> PseudoLabelSet:
    """Self-training labels from the current prompt set.

    Every prompt runs the detector alone, so one prompt's weak scores never
    suppress another's; its own overlapping boxes still suppress each other.
    The label builder then unions and deduplicates.
    """
    return _label_pass(tree.prompt_items(), "prompt_{:03d}", world, config, params)


def bootstrap_labels(
    queries: Sequence[np.ndarray],
    world: World,
    config: ExpansionConfig,
    params: DetectorParams,
) -> PseudoLabelSet:
    """Zero-shot pseudo-labels from a fixed query vocabulary."""
    return _label_pass(list(enumerate(queries)), "vocab_{:02d}", world, config, params)


def _label_pass(
    prompts: Sequence[tuple[int, np.ndarray]],
    tag: str,
    world: World,
    config: ExpansionConfig,
    params: DetectorParams,
) -> PseudoLabelSet:
    """Pseudo-labels from every prompt's own detections, each prompt a source
    named by ``tag``."""
    label_params = replace(params, score_threshold=config.label_threshold)
    dets = detect_each(world, prompts, label_params, config.seed)
    return build_pseudo_labels(
        {tag.format(pid): found for pid, found in dets.items()},
        threshold=config.label_threshold,
        sigma=params.nms_sigma,
        score_floor=params.nms_floor,
    )


@dataclass
class RunResult:
    """What one growth run leaves: the tree, plus one entry per round in
    each per-round list (activations and MAC from the second round on)."""

    tree: PromptTree
    mac_report: MacReport = field(default_factory=MacReport)
    eval_summaries: list[EvalSummary] = field(default_factory=list)
    round_stats: list[RoundStats] = field(default_factory=list)
    activation_history: list[np.ndarray] = field(default_factory=list)  # activation_frequency's
    stopped_early: bool = False
    final_detections: dict[int, ScoredBoxes] = field(default_factory=dict)  # the last evaluation's, by scene

    @property
    def label_counts(self) -> list[int]:
        return [s.label_count for s in self.round_stats]


def run(
    world: World,
    config: ExpansionConfig,
    params: DetectorParams | None = None,
    vocabulary: Sequence[np.ndarray] | None = None,
    max_dets: Sequence[int] = DEFAULT_MAX_DETS,
) -> RunResult:
    """Full growth loop: bootstrap, train, expand until coverage saturates.

    Every round is one pass of the same loop body.  Round 1 trains the root
    (the normalized mean of the query vocabulary) against zero-shot
    pseudo-labels.  Each later round first freezes the busiest prompt,
    spawns its children and rebuilds labels from the grown prompt set, then
    trains and records the maximum pairwise angle.  Every round ends with a
    detector evaluation over the whole world; with early stopping enabled
    the loop exits once the angle clears the threshold or moves less than
    the tolerance between rounds.
    """
    params = params if params is not None else DetectorParams()
    if vocabulary is None:
        vocabulary = build_vocabulary(world, VocabularyConfig(seed=config.seed))
    if not len(vocabulary):
        raise ValueError("empty query vocabulary")
    rng = np.random.default_rng(config.seed)
    gts = GroundTruthSet.from_world(world)

    tree = PromptTree.from_root(normalize(np.sum(np.stack(vocabulary), axis=0)))
    labels = bootstrap_labels(vocabulary, world, config, params)
    result = RunResult(tree)
    for expansion in range(config.num_expansions + 1):
        if expansion:
            counts = activation_frequency(
                tree, labels, world, params, config.label_iou_min, config.seed
            )
            result.activation_history.append(counts)
            candidates = list(tree.cohort) if tree.cohort else tree.trainable_ids
            expand(tree, select_parent(counts, candidates), config, rng)
            labels = rebuild_labels(tree, world, config, params)
        if len(labels) == 0:
            raise EmptyPseudoLabels(f"round {tree.round_index}: no pseudo-labels to train on")
        result.round_stats.append(train_round(tree, labels, world, config, params, rng))
        if expansion:
            result.mac_report.record(tree.embedding_matrix())
        result.final_detections = detect_world(
            world, tree.prompt_items(), QueryMode.PREDICTION_MERGING, params, config.seed
        )
        result.eval_summaries.append(evaluate(result.final_detections, gts, max_dets))
        # no MAC is recorded before the second round, so round 1 never stops
        if config.early_stop and result.mac_report.converged(
            config.mac_threshold, config.mac_tolerance
        ):
            result.stopped_early = True
            break
    return result
