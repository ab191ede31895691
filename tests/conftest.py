import json

import numpy as np
import pytest

from svls import LabelVolume


@pytest.fixture
def rng():
    return np.random.default_rng(20240131)


def random_labels(rng, dims, num_classes, spacing=None) -> LabelVolume:
    data = rng.integers(0, num_classes, size=dims).astype(np.uint8)
    if spacing is None:
        spacing = (1.0,) * len(dims)
    return LabelVolume(data, spacing, num_classes)


def set_sidecar_token(path, field, token):
    """Set a sidecar field to raw JSON text, such as a number that parses to inf."""
    side = path.parent / (path.name + ".json")
    meta = json.loads(side.read_text())
    meta[field] = "@"
    side.write_text(json.dumps(meta).replace('"@"', token))
