"""Program defects the benchmark's output check found, kept as failing checks.

A workload whose operations fail cannot be in the benchmark, so a
workload that exposed a defect was taken out of it; the check that
exposed it stays here, with the same inputs and oracle, and starts to
pass (failing the strict ``xfail``) once the defect is fixed.
"""

from __future__ import annotations

import numpy as np
import pytest

from perfbench import data
from perfbench.oracle import DenseKDE, label_ok

from repro import TKDCClassifier, TKDCConfig


@pytest.mark.xfail(strict=True, reason=(
    "at d=27 an exhausted traversal's upper bound is a running sum that "
    "started ~1e15 times above the density; cancellation leaves it above "
    "the exact value, and the label reads HIGH at 0.84 t"))
def test_hep_27d_labels_are_right_outside_the_band():
    hep = data.HepLike(27)
    train = hep.sample(np.random.default_rng(0), 4_000)
    queries = hep.sample(np.random.default_rng(3), 2_000)
    clf = TKDCClassifier(TKDCConfig(p=0.01)).fit(train)
    labels = clf.classify(queries)
    density = DenseKDE(train, clf.kernel.bandwidth).density(queries)
    t = clf.threshold.value
    wrong = [i for i, (label, f) in enumerate(zip(labels, density))
             if not label_ok(int(label), f, t, 0.01)]
    assert wrong == []
