import io
import json

import numpy as np
import pytest

from svls import LabelVolume, tensor_io


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
