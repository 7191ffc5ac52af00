import os

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


# 05 and 06 train a model and take several seconds each, so tier-1 runs
# only the demos that finish in well under a second.
@pytest.mark.parametrize("demo", ["01_label_spaces.py", "02_extraction.py",
                                  "03_soft_targets.py", "04_dataset_pipeline.py"])
def test_demo_runs_in_a_fresh_python(fresh_python, demo):
    proc = fresh_python(os.path.join(DEMOS, demo))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
