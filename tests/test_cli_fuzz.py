"""Fault fuzzers of the subcommands: one change to one input of a valid
`loss`, `evaluate`, `fuse` or `encode` run, or extreme `phantom` flags, end
in exit 0, 1 or 2, never in a traceback or KIND `internal`.

Each `loss` example copies a valid 8x10x12 pair, a 3-class float32 target
and a prediction (logits or probabilities), and changes exactly one thing in
one operand: a header field, a sidecar value, or one payload float (NaN,
+-inf, a value above 1, or a value moved by 1e-3 so its voxel's sum is off).
It then runs `svls.cli.main` in this process, with slabs of one row, of two,
or of the whole volume. Each `evaluate` example changes one header field,
sidecar value or payload value of a valid label reference or probability
prediction, with the same slabs, or runs on valid files with
--sd-tolerance or --tace-threshold drawn from float extremes; each `fuse`
example changes the header, the sidecar or one payload byte of one of three
label raters. Each `encode` example runs one method on a label volume
with the header, the sidecar or one payload byte changed, or none, and its
--alpha or --sigma drawn from float extremes. Each `phantom` example draws
its kind, small dims, and its other flags from float extremes and huge
integers, with a --config file that holds values of every JSON kind. Stderr
must be empty on exit 0 and exactly one JSON line of KIND `validation` or
`io` otherwise, an output must be written only on exit 0 and leave no file
of its own (sidecar or `.tmp-*.part` included) otherwise, and nothing may
raise a warning: outside pytest a warning prints a line of its own.
"""

import contextlib
import io
import json
import shutil
import struct
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from svls import LabelVolume, LogitVolume, SoftLabelVolume, softmax, svls_smooth
from svls.cli import main
from svls.phantom import KINDS
from svls.tensor_io import write_volume

from conftest import sum_block

DIMS = (8, 10, 12)
CLASSES = 3
VOXELS = int(np.prod(DIMS))
HEADER = 16 + 4 * (1 + len(DIMS))  # magic, version, dtype, rank, then the class axis and dims
LABEL_HEADER = HEADER - 4  # no class axis
# u32 header fields by byte offset: version, dtype, rank, then the four extents
HEADER_FIELDS = (4, 8, 12, 16, 20, 24, 28)
U32_VALUES = st.one_of(st.sampled_from([0, 1, 2, 3, 4, 7, 8, 9, 255, 256, 2**31, 2**32 - 1]),
                       st.integers(0, 2**32 - 1))
SIDECAR_VALUES = {
    "spacing": ["[5e-324, 1, 1]", "[1e308, 1, 1]", "[-0.0, 1, 1]", "[1" + "0" * 400 + ", 1, 1]",
                "[1e999, 1, 1]", "[NaN, 1, 1]", "[1, 1]", "[1, 1, 1, 1]", '"111"', "[true, 1, 1]",
                "null", "{}", "[2, 1, 1]"],
    "num_classes": ["0", "1", "2", "4", "256", "257", "2.5", '"3"', "true", "null", "1" + "0" * 400],
    "provenance": ['"svls"', "[]", "null", "{}"],
}
FLOAT_EXTREMES = ["1e308", "1e-320", "nan", "inf", "-0.0"]
PAYLOAD_VALUES = {
    "nan": lambda p: float("nan"),
    "inf": lambda p: float("inf"),
    "-inf": lambda p: float("-inf"),
    "above-one": lambda p: 1.5,
    "sum-off": lambda p: p + 1e-3,
}


@pytest.fixture(scope="module")
def pair(tmp_path_factory):
    """Valid files on one grid, by role: target, logits, probabilities, and
    three label raters, the first of them also `evaluate`'s reference."""
    d = tmp_path_factory.mktemp("fuzz_pair")
    rng = np.random.default_rng(7)
    labels = LabelVolume(rng.integers(0, CLASSES, size=DIMS).astype(np.uint8), (1.0, 0.5, 2.0), CLASSES)
    scores = LogitVolume(rng.normal(size=(CLASSES,) + DIMS).astype(np.float32), labels.spacing)
    probs = softmax(scores)
    volumes = {
        "target": svls_smooth(labels, 1.0),
        "logits": scores,
        "probs": SoftLabelVolume(probs.data.astype(np.float32), probs.spacing),
        "rater0": labels,
        **{f"rater{j}": LabelVolume(rng.integers(0, CLASSES, size=DIMS).astype(np.uint8), labels.spacing, CLASSES)
           for j in (1, 2)},
    }
    for role, vol in volumes.items():
        write_volume(vol, d / f"{role}.svlv")
    return d


@st.composite
def faults(draw):
    """(prediction kind, operand, a description, a function that damages a file)."""
    kind = draw(st.sampled_from(["logits", "probs"]))
    operand = draw(st.sampled_from(["target", "pred"]))
    return (kind, operand, *draw(damages(labels=False, payload=True)))


@st.composite
def damages(draw, labels, payload):
    """(a description, a function that changes one thing in a label file or
    an f32 file): its header, its sidecar or, with `payload`, one value."""
    head = LABEL_HEADER if labels else HEADER
    where = draw(st.sampled_from(["header", "sidecar", "payload"] if payload else ["header", "sidecar"]))
    if where == "header":
        what = draw(st.sampled_from(["magic", "truncate", "append", "u32"]))
        if what == "magic":
            magic = draw(st.binary(min_size=4, max_size=4).filter(lambda m: m != b"SVLV"))
            return f"magic {magic!r}", lambda path: _edit(path, lambda b: magic + b[4:])
        if what == "truncate":
            keep = draw(st.integers(0, head + (1 if labels else 4 * CLASSES) * VOXELS - 1))
            return f"cut to {keep} bytes", lambda path: _edit(path, lambda b: b[:keep])
        if what == "append":
            extra = draw(st.binary(min_size=1, max_size=8))
            return f"{len(extra)} bytes appended", lambda path: _edit(path, lambda b: b + extra)
        offset, value = draw(st.sampled_from(HEADER_FIELDS[:-1] if labels else HEADER_FIELDS)), draw(U32_VALUES)

        def set_u32(blob):
            if struct.unpack_from("<I", blob, offset)[0] == value:
                return blob
            return blob[:offset] + struct.pack("<I", value) + blob[offset + 4:]

        return f"u32 at {offset} = {value}", lambda path: _edit(path, set_u32)
    if where == "sidecar":
        key = draw(st.sampled_from(sorted(SIDECAR_VALUES) + ["missing", "unparseable"]))
        if key == "missing":
            return "no sidecar", lambda path: _sidecar(path).unlink()
        if key == "unparseable":
            return "unparseable sidecar", lambda path: _sidecar(path).write_text("{")
        token = draw(st.sampled_from(SIDECAR_VALUES[key]))

        def set_token(path):
            meta = json.loads(_sidecar(path).read_text())
            meta[key] = "@"
            _sidecar(path).write_text(json.dumps(meta).replace('"@"', token))

        return f"sidecar {key} = {token[:20]}", set_token
    if labels:
        index, value = draw(st.integers(0, VOXELS - 1)), draw(st.integers(0, 255))
        return f"payload byte {index} = {value}", lambda path: _edit(
            path, lambda b: b[:head + index] + bytes([value]) + b[head + index + 1:])
    index = draw(st.integers(0, CLASSES * VOXELS - 1))
    name = draw(st.sampled_from(sorted(PAYLOAD_VALUES)))

    def set_float(blob):
        offset = head + 4 * index
        old = struct.unpack_from("<f", blob, offset)[0]
        return blob[:offset] + struct.pack("<f", PAYLOAD_VALUES[name](old)) + blob[offset + 4:]

    return f"payload float {index} {name}", lambda path: _edit(path, set_float)


def _sidecar(path):
    return path.parent / (path.name + ".json")


def _edit(path, change):
    path.write_bytes(change(path.read_bytes()))


def _copies(pair, d, roles):
    """Copy the valid files of `roles`, with their sidecars, into `d`; their new paths."""
    for role in roles:
        for suffix in ("", ".json"):
            shutil.copy(pair / f"{role}.svlv{suffix}", d / f"{role}.svlv{suffix}")
    return [d / f"{role}.svlv" for role in roles]


def _check_exit(argv, out, description, block=1 << 14):
    """Run `argv` in this process and check its exit by the module docstring's rules."""
    err = io.StringIO()
    with sum_block(block), warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    event(f"exit {code}")  # the share of each exit: pytest --hypothesis-show-statistics
    assert [str(w.message) for w in caught] == [], description
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == [], description
        assert out.exists(), description
        return
    assert code in (1, 2), description
    assert len(lines) == 1, (description, lines)
    error = json.loads(lines[0])
    assert set(error) == {"error", "message"}, description
    assert error["error"] in ("validation", "io"), (description, error)
    leftovers = [p.name for p in out.parent.iterdir() if p.name.startswith((out.name, ".tmp-"))]
    assert leftovers == [], description


@settings(max_examples=250, deadline=None, derandomize=True)
@given(fault=faults(), block=st.sampled_from([120, 240, 1 << 14]))
def test_one_fault_in_one_loss_operand_never_ends_internal(pair, tmp_path_factory, fault, block):
    kind, operand, description, damage = fault
    target, pred = _copies(pair, tmp_path_factory.mktemp("fuzz"), ("target", kind))
    damage(target if operand == "target" else pred)
    out = target.parent / "loss.json"
    argv = ["loss", "--target", str(target), "--pred", str(pred), "--pred-kind", kind, "--out", str(out)]
    _check_exit(argv, out, description, block)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(operand=st.sampled_from(["ref", "pred"]), damage=st.data(), block=st.sampled_from([120, 240, 1 << 14]))
def test_one_fault_in_one_evaluate_operand_never_ends_internal(pair, tmp_path_factory, operand, damage, block):
    description, change = damage.draw(damages(labels=operand == "ref", payload=True))
    ref, pred = _copies(pair, tmp_path_factory.mktemp("fuzz"), ("rater0", "probs"))
    change(ref if operand == "ref" else pred)
    out = ref.parent / "out"
    _check_exit(["evaluate", "--ref", str(ref), "--pred", str(pred), "--out", str(out)], out, description, block)


# --ece-bins and --tace-ranges are not drawn large: 10**9 bins would allocate gigabytes
@settings(max_examples=100, deadline=None, derandomize=True)
@given(flag=st.sampled_from(["--sd-tolerance", "--tace-threshold"]), value=st.sampled_from(FLOAT_EXTREMES),
       other=st.none() | st.sampled_from(FLOAT_EXTREMES))
def test_evaluate_float_flag_extremes_never_end_internal(pair, tmp_path_factory, flag, value, other):
    ref, pred = _copies(pair, tmp_path_factory.mktemp("fuzz"), ("rater0", "probs"))
    flags = [f"{flag}={value}"]
    if other is not None:
        flags.append(("--tace-threshold" if flag == "--sd-tolerance" else "--sd-tolerance") + f"={other}")
    out = ref.parent / "out"
    _check_exit(["evaluate", "--ref", str(ref), "--pred", str(pred), *flags, "--out", str(out)], out, " ".join(flags))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(rater=st.integers(0, 2), fault=damages(labels=True, payload=True))
def test_one_fault_in_one_fuse_rater_never_ends_internal(pair, tmp_path_factory, rater, fault):
    description, damage = fault
    raters = _copies(pair, tmp_path_factory.mktemp("fuzz"), ("rater0", "rater1", "rater2"))
    damage(raters[rater])
    out = raters[0].parent / "fused.svlv"
    _check_exit(["fuse", "--in", *map(str, raters), "--method", "moh", "--out", str(out)], out, description)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(method=st.sampled_from(["onehot", "ls", "svls"]), value=st.sampled_from([None, *FLOAT_EXTREMES]),
       fault=st.none() | damages(labels=True, payload=True))
def test_one_fault_in_encode_input_or_flag_never_ends_internal(pair, tmp_path_factory, method, value, fault):
    [src] = _copies(pair, tmp_path_factory.mktemp("fuzz"), ("rater0",))
    description, damage = fault or ("no fault", lambda path: None)
    damage(src)
    argv = ["encode", "--in", str(src), "--method", method]
    if method == "ls":
        argv.append(f"--alpha={value or 0.1}")
    elif method == "svls" and value is not None:
        argv.append(f"--sigma={value}")
    out = src.parent / "encoded.svlv"
    _check_exit(argv + ["--out", str(out)], out, f"{description}, {' '.join(argv[3:])}")


HUGE_INTS = [str(2**31), str(2**63 - 1), str(2**63), str(10**30), str(-(10**30))]
# --classes stays at most 300 and --raters below 9, so no run allocates more
# than a few MiB: `phantom` builds every rater before it writes one
PHANTOM_VALUES = {
    "--classes": [*FLOAT_EXTREMES, "-1", "0", "1", "2", "3", "256", "257", "300", str(-(10**30))],
    "--raters": [*FLOAT_EXTREMES, "-1", "0", "1", "3", "8", str(-(10**30))],
    "--strength": [*FLOAT_EXTREMES, "0", "0.2", "-1", *HUGE_INTS],
    "--jitter": [*FLOAT_EXTREMES, "0", "1", "3", "-1", *HUGE_INTS],
    "--seed": [*FLOAT_EXTREMES, "0", "1", "-1", *HUGE_INTS],
}
# one value of each JSON kind, and no large integer, for a --config key
CONFIG_KEYS = ["classes", "raters", "strength", "jitter", "seed", "kind", "dims", "Seed"]
CONFIG_VALUES = [None, True, False, 0, -1, 2, 2.5, 1e308, "", "3", "x", [], ["3"], [3], {}, {"a": 1}]


@st.composite
def phantom_runs(draw):
    """(a description, the phantom command line less --out, and the text of
    a --config file or None): a kind, dims of 1-4 extents each at most 16
    (mostly 2 or 3 positive ones), each other flag mostly absent, and a
    config of up to three keys, also mostly absent."""
    dims = draw(st.lists(st.integers(1, 16), min_size=2, max_size=3)
                | st.lists(st.integers(-1, 16), min_size=1, max_size=4))
    argv = ["phantom", "--kind", draw(st.sampled_from(KINDS)), "--dims", ",".join(map(str, dims))]
    for flag, values in PHANTOM_VALUES.items():
        value = draw(st.none() | st.none() | st.none() | st.sampled_from(values))
        if value is not None:
            argv.append(f"{flag}={value}")
    config = draw(st.none() | st.none()
                  | st.dictionaries(st.sampled_from(CONFIG_KEYS), st.sampled_from(CONFIG_VALUES), max_size=3))
    return " ".join(argv[1:]) + f" config {config}", argv, None if config is None else json.dumps(config)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(run=phantom_runs())
def test_phantom_flag_and_config_extremes_never_end_internal(tmp_path_factory, run):
    description, argv, config = run
    d = tmp_path_factory.mktemp("fuzz")
    if config is not None:
        (d / "config.json").write_text(config)
        argv = argv + ["--config", str(d / "config.json")]
    out = d / "out.svlv"
    _check_exit(argv + ["--out", str(out)], out, description)
