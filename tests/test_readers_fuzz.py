"""Random byte mutations of valid MMF, manifest, checkpoint and --config
files.

Each reader either parses the mutated file or raises FormatError or
another ValueError whose message, past the file's path, is one line of at
most 300 characters; no other exception escapes. The per-example deadline
catches a reader that loops over, or allocates for, a forged count
instead of rejecting it. The binary readers also refuse a file whose size
differs from the one its header implies before they read its body.
"""

import argparse
import os

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from mmreg import cli, model
from mmreg.offsets import generate_offsets
from mmreg.pipeline import (KEY_VALUE_MAX_BYTES, DatasetManifest, FormatError, Frame, read_frame,
                            read_key_values, read_manifest, write_frame, write_manifest)
from helpers import traced_peak

_, SUBCOMMANDS = cli.build_parser()

NUMBERS = (b"nan", b"inf", b"-1", b"0", b"99999999", b"1e308")
LONG_VALUE = b"x" * 100_000
TOKENS = NUMBERS + (b"\xff\xff\xff\xff", b"\x00\x00\x00\x00", b"=", b",", b"\n")

position = st.integers(0, 1 << 16)
mutation = st.one_of(
    st.tuples(st.just("flip"), position, st.integers(1, 255)),
    st.tuples(st.just("insert"), position, st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("delete"), position, st.integers(1, 16)),
    st.tuples(st.just("splice"), position, st.sampled_from(TOKENS), st.integers(0, 8)),
    st.tuples(st.just("value"), position, st.sampled_from(NUMBERS)),
)


def mutate(data: bytes, ops) -> bytes:
    """Apply each op at its position modulo the current length.

    flip xors one byte, insert and delete add or drop bytes, splice
    overwrites a few bytes with a token, and value replaces the text after
    one '=' up to the end of its line with a token.
    """
    buf = bytearray(data)
    for kind, pos, *arg in ops:
        pos %= len(buf) + 1
        if kind == "flip":
            if buf:
                buf[pos % len(buf)] ^= arg[0]
        elif kind == "insert":
            buf[pos:pos] = arg[0]
        elif kind == "delete":
            del buf[pos:pos + arg[0]]
        elif kind == "splice":
            buf[pos:pos + arg[1]] = arg[0]
        else:
            equals = [i for i, byte in enumerate(buf) if byte == ord("=")]
            if equals:
                start = equals[pos % len(equals)] + 1
                end = buf.find(b"\n", start)
                buf[start:len(buf) if end < 0 else end] = arg[0]
    return bytes(buf)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """One small valid file per reader, plus a scratch path to mutate into."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    write_frame(Frame({n: rng.random((4, 5), dtype=np.float32) for n in ("Gr", "L", "U")}),
                root / "frame.mmf")
    write_manifest(DatasetManifest(
        patch_size=16, stride=8, channels=["Gr", "L", "U", "V"],
        offsets=generate_offsets(5, 8, 4, 45.0), tau=0.0375, fill=0.0, seed=3,
        split="train", frames_dir="../frames", frame_files=["a.mmf", "b.mmf", "c.mmf"],
        frame_count=3, patch_count=240), root / "manifest.txt")
    model.save_checkpoint(model.build_model(model.ModelConfig(
        patch_size=8, channels=("Gr", "L"), filters=(2, 2, 2), kernel_size=3,
        n_classes=3, seed=1)), root / "checkpoint.mmrc")
    for command, sub in SUBCOMMANDS.items():
        defaults = {key: sub.parser.get_default(key) for key in sub.types}
        (root / f"{command}.conf").write_text("".join(
            f"{key}={'x' if value is None else value}\n" for key, value in defaults.items()))
    return root


SYNTH_KEYS = list(SUBCOMMANDS["synth"].types)
# synth sizes over its ceilings (ops on synth.conf; on another file they
# forge whatever values sit at those places)
SYNTH_SIZES = [{"width": b"100000", "height": b"100000"}, {"frames": b"100000000"},
               {"objects": b"100000000"}]


def every_value_forged(test):
    """Explicit examples: each of the first 24 values set to each number,
    so every count field meets a forged value whatever the random draw, and
    to LONG_VALUE, so every message that quotes a value meets a long one;
    then synth's size cases."""
    for index in range(24):
        for number in NUMBERS + (LONG_VALUE,):
            test = example(ops=[("value", index, number)])(test)
    for sizes in SYNTH_SIZES:
        test = example(ops=[("value", SYNTH_KEYS.index(key), value)
                            for key, value in sizes.items()])(test)
    return test


def config_reader(command):
    """What main does with a --config file for command, short of running it;
    for synth, also the scene checks that run before anything is allocated."""
    sub = SUBCOMMANDS[command]

    def read(path):
        pairs = read_key_values(path)
        typed = cli._typed_config_defaults(sub, pairs, str(path))
        if command == "synth":
            args = {key: sub.parser.get_default(key) for key in sub.types}
            cli._scene_config(argparse.Namespace(**{**args, **typed})).validate()
        return typed
    return read


READERS = {"frame.mmf": read_frame, "manifest.txt": read_manifest,
           "checkpoint.mmrc": model.load_checkpoint,
           **{f"{command}.conf": config_reader(command) for command in SUBCOMMANDS}}


@pytest.mark.parametrize("name", list(READERS))
# no shrinking: a slow example fails as found instead of being rerun many times
@settings(max_examples=200, deadline=1000, derandomize=True, database=None,
          phases=[Phase.explicit, Phase.generate])
@given(ops=st.lists(mutation, min_size=1, max_size=4))
@every_value_forged
def test_mutated_file_parses_or_raises_value_error(valid, name, ops):
    path = valid / f"mutated-{name}"
    path.write_bytes(mutate((valid / name).read_bytes(), ops))
    try:
        READERS[name](path)
    except ValueError as exc:  # FormatError included
        message = str(exc).replace(str(path), "")
        assert "\n" not in message and len(message) <= 300, message[:400]


@pytest.mark.parametrize("name", ["frame.mmf", "checkpoint.mmrc"])
def test_appended_zeros_rejected_before_the_body_is_read(valid, tmp_path, name):
    path = tmp_path / name
    path.write_bytes((valid / name).read_bytes())
    size = path.stat().st_size
    os.truncate(path, size + (64 << 20))  # sparse: the zeros take no disk
    with traced_peak() as traced, \
            pytest.raises(FormatError, match=f": {64 << 20} trailing bytes at byte offset "
                                             f"{size}$"):
        READERS[name](path)
    assert traced.peak < 8 << 20, traced.peak


@pytest.mark.parametrize("name", ["manifest.txt", "synth.conf"])
def test_key_value_file_over_the_cap_refused_unread(valid, tmp_path, name):
    path = tmp_path / name
    path.write_bytes((valid / name).read_bytes())
    os.truncate(path, KEY_VALUE_MAX_BYTES + 1)  # sparse: the zeros take no disk
    with traced_peak() as traced, pytest.raises(FormatError) as info:
        READERS[name](path)
    assert str(info.value) == (f"{path}: {KEY_VALUE_MAX_BYTES + 1} bytes, over the "
                               f"{KEY_VALUE_MAX_BYTES}-byte cap on key=value files")
    assert traced.peak < 8 << 20, traced.peak


def test_checkpoint_config_block_over_the_cap_refused_unread(valid, tmp_path):
    path = tmp_path / "checkpoint.mmrc"
    data = bytearray((valid / "checkpoint.mmrc").read_bytes())
    config_len = KEY_VALUE_MAX_BYTES + 1
    data[8:12] = config_len.to_bytes(4, "little")
    path.write_bytes(data)
    os.truncate(path, 12 + config_len + len(data))  # the block fits: only the cap refuses it
    with traced_peak() as traced, pytest.raises(FormatError) as info:
        model.load_checkpoint(path)
    assert str(info.value) == (f"{path}: config block of {config_len} bytes at byte offset "
                               f"12, over the {KEY_VALUE_MAX_BYTES}-byte cap on key=value text")
    assert traced.peak < 8 << 20, traced.peak
