"""The scripts under scripts/ import the package's public API; running
each with --help catches an import that a refactor has broken.  The
A/B timer also runs for a few calls, and the synthetic benchmark's
significance helpers are tested in-process."""

import importlib.util
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from opinionchain.errors import InvalidInputError
from opinionchain.evaluation import compute_metrics, cross_validate
from opinionchain.features.pipeline import PipelineConfig
from conftest import columns
from test_evaluation import _MajorityLearner, tiny_corpus

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


synthetic_benchmark = load_script("synthetic_benchmark")
fold_scores = synthetic_benchmark.fold_scores
fold_significance = synthetic_benchmark.fold_significance


@pytest.mark.parametrize(
    "script", ["grid_search.py", "objective_timing.py", "synthetic_benchmark.py"]
)
def test_script_help_exits_zero(script):
    proc = run_script(script, "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


def test_objective_timing_runs_a_few_calls():
    proc = run_script("objective_timing.py", "--seed", "0", "--repeats", "3")
    assert proc.returncode == 0, proc.stderr
    for prefix in ("", "default_"):
        assert re.search(rf"^{prefix}objective_ms_median \d+\.\d+$", proc.stdout, re.M)
        assert re.search(rf"^{prefix}value_ms_median \d+\.\d+$", proc.stdout, re.M)
        value = re.search(rf"^{prefix}objective_value (\S+)$", proc.stdout, re.M)
        assert value and math.isfinite(float(value.group(1)))
    assert re.search(r"^default: 100 documents, .* D=2\d{3}, ", proc.stdout, re.M)
    assert re.search(r"^default_fit_transform_ms \d+\.\d+$", proc.stdout, re.M)
    assert re.search(r"^default_transform_ms_per_doc \d+\.\d+$", proc.stdout, re.M)
    assert re.search(r"^default_read_ms_per_doc \d+\.\d+$", proc.stdout, re.M)
    assert re.search(r"^default_read_ms_per_doc_file_per_doc \d+\.\d+$", proc.stdout, re.M)
    assert re.search(r"^default_predict_ms_per_doc \d+\.\d+$", proc.stdout, re.M)


class TestSignificance:
    def test_identical_scores(self):
        result = fold_significance([70.0, 71.0, 69.0], [70.0, 71.0, 69.0])
        assert result.p_value == 1.0
        assert result.degenerate

    def test_constant_difference_flagged(self):
        result = fold_significance([71.0, 72.0, 70.0], [70.0, 71.0, 69.0])
        assert result.degenerate
        assert result.p_value == 1.0

    def test_textbook_paired_sample(self):
        a = [85.0, 70.0, 80.0, 90.0, 75.0]
        b = [80.0, 65.0, 79.0, 88.0, 70.0]
        result = fold_significance(a, b)
        # hand computation: diffs (5,5,1,2,5), mean 3.6, sample sd 1.94936,
        # t = 3.6 / (1.94936/sqrt(5)) = 4.12948 with 4 dof
        assert result.statistic == pytest.approx(4.12948, abs=1e-4)
        # independent p via the regularized incomplete beta identity
        from scipy.special import betainc

        t = result.statistic
        p_ref = betainc(2.0, 0.5, 4.0 / (4.0 + t * t))
        assert result.p_value == pytest.approx(p_ref, abs=1e-10)
        # t-table bracket for df=4: 3.747 (p=.02 two-sided) < t < 4.604 (p=.01)
        assert 0.01 < result.p_value < 0.02
        assert not result.degenerate

    def test_short_lists_rejected(self):
        with pytest.raises(InvalidInputError):
            fold_significance([1.0], [2.0])

    def test_unequal_lists_rejected(self):
        with pytest.raises(InvalidInputError):
            fold_significance([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_fold_scores_extraction(self):
        docs = columns(tiny_corpus())
        config = PipelineConfig(blocks=("bong",), standardize=False)
        report = cross_validate(docs, config, _MajorityLearner(), k=2, seed=0)
        accs = fold_scores(report, "accuracy")
        assert len(accs) == 2
        wf1 = fold_scores(report, "weighted_f1")
        assert wf1 == [r.weighted_f1 for r in report.per_fold]
        f1p = fold_scores(report, "f1:positive")
        assert f1p == [r.per_class[1].f1 for r in report.per_fold]
        with pytest.raises(InvalidInputError):
            fold_scores(report, "nonsense")
        with pytest.raises(InvalidInputError):
            fold_scores(compute_metrics([0, 1], [0, 1]), "accuracy")
