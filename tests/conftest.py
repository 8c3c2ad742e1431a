import sys
from pathlib import Path

import numpy as np
import pytest

from collective_recourse import model
from collective_recourse.dataset import LabeledBatch, SyntheticSpec, load_csv, synth_blobs
from collective_recourse.recourse import QuerySpec

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def iris_path():
    return DATA_DIR / "iris.csv"


@pytest.fixture(scope="session")
def embeddings_path():
    return DATA_DIR / "embeddings_d10.csv"


@pytest.fixture(scope="session")
def iris_batch(iris_path):
    return load_csv(iris_path, "species")


@pytest.fixture(scope="session")
def synth_20k_batch():
    """A seeded 20000 x 64, 10-class synth_blobs batch: the scale of the large sweeps."""
    centers = 0.5 * np.random.default_rng(2024).standard_normal((10, 64))
    return synth_blobs(SyntheticSpec(centers, 2000, 1.0, seed=2024))


@pytest.fixture
def collinear_pair():
    # Two 1-point classes at (1,0) and (-1,0); query at their 1:3 interpolant
    # asking for class 0. Fit reproduces the centroids exactly.
    batch = LabeledBatch(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0, 1]), 2)
    return batch, QuerySpec(np.array([-0.5, 0.0]), 0)


@pytest.fixture
def three_blob_pair():
    batch = LabeledBatch(
        np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]]), np.array([0, 1, 2]), 3
    )
    return batch, QuerySpec(np.array([-0.5, 0.0]), 0)


@pytest.fixture
def near_tie_triple():
    # Three 1-point classes on a line, the query asking for class 0. Its
    # distances are 0.1, 0.1 and 0.09999999999999998: class 2 is the nearest,
    # though the softmax rounds all three probabilities to 1/3.
    batch = LabeledBatch(np.array([[0.0], [0.2], [0.19999999999999998]]), np.array([0, 1, 2]), 3)
    return batch, QuerySpec(np.array([0.1]), 0)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(name)``: a list that grows by one at each call of
    ``model.<name>``, under every name the package looks it up by."""

    def count(name):
        calls, original = [], getattr(model, name)

        def counted(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("collective_recourse") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
        return calls

    return count


@pytest.fixture
def verdict(capsys):
    """Emit one PASS/FAIL line per acceptance criterion on the real stdout.

    Capture is suspended for the print so the line shows up even in a piped
    ``pytest`` run, then the check is asserted as usual.
    """

    def emit(num: int, ok: bool, detail: str) -> None:
        line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return emit
