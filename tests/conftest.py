import numpy as np
import pytest
from hypothesis import settings, strategies as st

from voteguard.core import Dataset

# The same examples on every run, and no per-example deadline: a slow
# example on a loaded machine is not a failure.
settings.register_profile("voteguard", derandomize=True, deadline=None)
settings.load_profile("voteguard")

# names that csv.writer quotes or escapes, and non-ASCII text, without
# the surrounding whitespace load_csv strips or the tabs and line breaks
# core.check_names refuses
TRICKY = st.text(st.sampled_from(list('ab ,"é€😀')), min_size=1,
                 max_size=6).filter(lambda s: s == s.strip())


def make_binary_dataset(n=60, d=2, separation=4.0, seed=0, n_classes=2):
    """Two Gaussian blobs separated along the first coordinate."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, n_classes, size=n)
    x = rng.standard_normal((n, d))
    x[:, 0] += np.where(y == 1, separation / 2.0, -separation / 2.0)
    app_ids = tuple(f"app-{int(c)}" for c in y)
    return Dataset(x=x, y=y, app_ids=app_ids, n_classes=n_classes,
                   class_names=("benign", "malware"))


@pytest.fixture
def small_dataset():
    return make_binary_dataset(n=40, d=2, separation=4.0, seed=1)
