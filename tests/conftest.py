import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from svls import LabelVolume, tensor_io, volume


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


class _NoPayloadRead(io.BufferedReader):
    def readinto(self, buffer):
        raise AssertionError("payload read before the sidecar was checked")


def forbid_payload_read(monkeypatch):
    """Make the container reader's payload read, its one `readinto`, raise."""
    def guarded_open(file, mode="r", *args, **kwargs):
        if mode == "rb":
            return _NoPayloadRead(io.FileIO(file, "rb"))
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(tensor_io, "open", guarded_open, raising=False)


@st.composite
def slab_cuts(draw):
    """2-D or 3-D spatial dims, a `volume.SUM_BLOCK` that cuts them into slabs
    of `rows` rows, and the slab count. The first extent is 1, rows - 1,
    rows, rows + 1, or 2 * rows plus a ragged last slab; the other extents
    are 1-4, and a block below one row still gives one-row slabs."""
    rest = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)))
    row = math.prod(rest)
    rows = draw(st.integers(1, 4))
    block = rows * row + draw(st.integers(0, row - 1))
    if rows == 1 and draw(st.booleans()):
        block = draw(st.integers(1, row))
    first = draw(st.sampled_from([1, rows - 1, rows, rows + 1, 2 * rows + draw(st.integers(1, max(rows - 1, 1)))]))
    first = max(first, 1)
    return (first,) + rest, block, -(-first // rows)


@contextlib.contextmanager
def sum_block(block):
    """Run the body with `volume.SUM_BLOCK`, and so every slab, set to `block` voxels."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(volume, "SUM_BLOCK", block)
        yield
