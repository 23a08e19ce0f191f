import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from opdense.dataset import Dataset
from opdense.errors import OpdenseError
from opdense.labels import LabelScheme


@pytest.fixture
def tiny_binary_dataset() -> Dataset:
    X = np.array([
        [0.1, 0.9, 0.0],
        [0.2, 0.8, 0.0],
        [0.8, 0.1, 0.1],
        [0.9, 0.0, 0.1],
    ])
    return Dataset(
        attributes=("mov", "push", "ret"),
        X=X,
        labels=("good", "good", "malware", "malware"),
        scheme=LabelScheme.binary,
    )


def make_dataset(X, labels, attributes=None, scheme=LabelScheme.binary):
    X = np.asarray(X, dtype=float)
    if attributes is None:
        attributes = tuple(f"a{j:02d}" for j in range(X.shape[1]))
    return Dataset(attributes=tuple(attributes), X=X, labels=tuple(labels), scheme=scheme)


def parse_outcome(parse, text):
    """What ``parse(text, "s")`` gives: the counts in order and the total,
    or the error's type, line number and message."""
    try:
        h = parse(text, "s")
    except OpdenseError as exc:
        return type(exc), getattr(exc, "line_no", None), str(exc)
    return list(h.counts.items()), h.total
