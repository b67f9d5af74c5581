"""The benchmark's scaling script (perfbench/scaling.py) at its smallest
sizes.  It reads `World.objects`, `soft_nms`'s object API,
`evaluation.DetectionRecord` and `BBox.from_xywh`, so removing one of them
before the script stops reading it fails here rather than in a benchmark
report."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_scaling_rows_run():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import scaling
    finally:
        sys.path.remove(str(PERFBENCH))
    rows = scaling.detect_world_rows((1, 10)) + scaling.soft_nms_rows((100,))
    assert [row[:2] for row in rows] == [
        ("detector.detect_world", "1 prompts, query-merging"),
        ("detector.detect_world", "10 prompts, query-merging"),
        ("detector.detect_world", "1 prompts, prediction-merging"),
        ("detector.detect_world", "10 prompts, prediction-merging"),
        ("pseudo_labels.soft_nms", "100 boxes"),
    ]
    assert all(seconds > 0.0 for _, _, seconds in rows)
