import hashlib

import numpy as np
import pytest

from mmreg import synth
from mmreg.offsets import generate_offsets
from mmreg.pipeline import DEFAULT_TAU, build_dataset, rgb_to_gray
from mmreg.synth import SceneConfig, generate_sequence
from helpers import traced_peak


def small_config(**overrides):
    base = dict(seed=5, frame_count=3, width=200, height=96, object_count=8)
    base.update(overrides)
    return SceneConfig(**base)


class TestGenerateSequence:
    def test_same_seed_bit_identical(self):
        a = generate_sequence(small_config())
        b = generate_sequence(small_config())
        for fa, fb in zip(a, b):
            for name in fa.channel_names:
                np.testing.assert_array_equal(fa.plane(name), fb.plane(name))

    def test_planes_pinned(self):
        # the bytes of every plane of two sequences; recorded with numpy 2.4
        digest = hashlib.sha256()
        for seed in (3, 101):
            config = small_config(seed=seed, frame_count=6, width=160, object_count=12)
            for frame in generate_sequence(config):
                for name in frame.channel_names:
                    digest.update(name.encode() + frame.plane(name).tobytes())
        assert digest.hexdigest() == \
            "0909df946adf38ca35c469eb394f35282eb5a9c5c9933b6e392e9805aaa7280d"

    def test_different_seeds_differ(self):
        a = generate_sequence(small_config(seed=1))
        b = generate_sequence(small_config(seed=2))
        assert not np.array_equal(a[0].plane("L"), b[0].plane("L"))

    def test_planes_in_unit_interval(self):
        for frame in generate_sequence(small_config(noise_amplitude=0.1)):
            for name in frame.channel_names:
                plane = frame.plane(name)
                assert plane.min() >= 0.0 and plane.max() <= 1.0

    def test_channels_are_rgbl(self):
        frames = generate_sequence(small_config())
        assert frames[0].channel_names == ["R", "G", "B", "L"]

    def test_camera_shift_exact_on_background(self):
        cfg = small_config(seed=7, jitter=0.0, noise_amplitude=0.0,
                           camera_translation=(1.0, 0.0))
        a, b = generate_sequence(cfg)[:2]
        # frame t+1 at x equals frame t at x+1 where neither frame has objects
        bg = (a.plane("L")[:, 1:] == 0.0) & (b.plane("L")[:, :-1] == 0.0)
        assert bg.any()
        for name in ("R", "G", "B"):
            np.testing.assert_array_equal(a.plane(name)[:, 1:][bg],
                                          b.plane(name)[:, :-1][bg])

    def test_gray_depth_correlation_over_objects(self):
        frame = rgb_to_gray(generate_sequence(small_config(object_count=16))[0])
        mask = frame.plane("L") > 0.02
        corr = np.corrcoef(frame.plane("Gr")[mask], frame.plane("L")[mask])[0, 1]
        assert corr > 0.3

    def test_objects_survive_variance_filter(self):
        frames = [rgb_to_gray(f) for f in generate_sequence(small_config(object_count=16))]
        offsets = generate_offsets(9, 32, 16, 45.0)
        samples, _ = build_dataset(frames, offsets, p=32, s=32, tau=DEFAULT_TAU,
                                   channels=["Gr", "L"])
        total = ((96 - 32) // 32 + 1) * ((200 - 32) // 32 + 1) * 9 * 3
        assert len(samples) > 0.1 * total

    def test_nearer_objects_brighter_in_depth(self):
        frames = generate_sequence(small_config(object_count=30, noise_amplitude=0.0))
        l_plane = frames[0].plane("L")
        values = l_plane[l_plane > 0.05]
        assert values.max() > 0.5  # near objects render bright

    def test_zero_objects_rejected(self):
        with pytest.raises(ValueError, match="object"):
            generate_sequence(small_config(object_count=0))

    def test_bad_noise_rejected(self):
        with pytest.raises(ValueError, match="noise"):
            generate_sequence(small_config(noise_amplitude=0.5))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            generate_sequence(small_config(object_kinds=("triangle",)))

    def test_single_kind_sequences(self):
        for kind in ("rectangle", "ellipse"):
            frames = generate_sequence(small_config(object_kinds=(kind,)))
            assert frames[0].plane("L").max() > 0.1


def background_oracle(rng, height, width, cell):
    """The background as one whole-array float64 expression, as first
    written: the oracle for synth._background's strips."""
    grid = rng.random((height // cell + 2, width // cell + 2))
    ys = np.arange(height) / cell
    xs = np.arange(width) / cell
    y0 = ys.astype(np.intp)
    x0 = xs.astype(np.intp)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    g00 = grid[np.ix_(y0, x0)]
    g01 = grid[np.ix_(y0, x0 + 1)]
    g10 = grid[np.ix_(y0 + 1, x0)]
    g11 = grid[np.ix_(y0 + 1, x0 + 1)]
    texture = g00 * (1 - fy) * (1 - fx) + g01 * (1 - fy) * fx + g10 * fy * (1 - fx) + g11 * fy * fx
    return (0.15 + 0.35 * texture).astype(np.float32)


class TestBackground:
    # heights below, at, between and above multiples of the cell
    @pytest.mark.parametrize("height, width, cell", [(1, 1, 16), (15, 7, 16), (16, 33, 16),
                                                     (17, 40, 16), (97, 201, 16), (50, 9, 5)])
    def test_same_bytes_as_whole_array(self, height, width, cell):
        got = synth._background(np.random.default_rng(height), height, width, cell)
        want = background_oracle(np.random.default_rng(height), height, width, cell)
        assert got.dtype == np.float32 and got.shape == (height, width)
        assert got.tobytes() == want.tobytes()

    def test_peak_near_the_background(self):
        with traced_peak() as traced:
            background = synth._background(np.random.default_rng(3), 1000, 2000, 16)
        assert traced.peak < 2 * background.nbytes, traced.peak
