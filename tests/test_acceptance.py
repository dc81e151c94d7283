"""Acceptance suite: one test per criterion, each printing a PASS line.

The end-to-end synthetic experiment (criteria 7 and 8) is shared through a
session fixture; it runs the full pipeline twice for the determinism check
plus once more for the flow-dropped ablation, so it dominates runtime.
"""

import time

import numpy as np
import pytest

from mmreg import evaluation, flow as flow_mod, model, nn, pipeline, synth
from mmreg.offsets import generate_offsets
from mmreg.pipeline import DEFAULT_TAU, FormatError, Frame, build_dataset
from helpers import central_diff_grad, max_rel_error

GRADCHECK_BOUND = 1e-4


def report_pass(n, message):
    print(f"PASS criterion {n}: {message}")


# ---------------------------------------------------------------------------
# Criterion 1: gradient correctness (layers + full tiny network), float64
# ---------------------------------------------------------------------------


def _replace_param(net, index, value):
    layers = []
    for i, layer in enumerate(net.conv_layers):
        layers.append(nn.ConvParams(
            kernels=value if index == 2 * i else layer.kernels,
            biases=value if index == 2 * i + 1 else layer.biases,
            stride=layer.stride, padding=layer.padding))
    dense = value if index == 2 * len(net.conv_layers) else net.dense_weights
    return model.Network(net.config, layers, dense)


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(42)

    # individual layers
    x = rng.standard_normal((6, 6, 3))
    params = nn.ConvParams(kernels=rng.standard_normal((2, 3, 3, 3)),
                           biases=rng.standard_normal(2), padding=1)
    upstream = rng.standard_normal((6, 6, 2))
    dx, grads = nn.conv2d_backward(x, params, upstream)
    worst = max_rel_error(dx, central_diff_grad(
        lambda x_: float(np.sum(nn.conv2d_forward(x_, params) * upstream)), x))
    worst = max(worst, max_rel_error(grads.kernels, central_diff_grad(
        lambda k_: float(np.sum(nn.conv2d_forward(
            x, nn.ConvParams(kernels=k_, biases=params.biases, padding=1)) * upstream)),
        params.kernels)))

    pool_up = rng.standard_normal((3, 3, 3))
    _, idx = nn.maxpool2x2_forward(x)
    worst = max(worst, max_rel_error(
        nn.maxpool2x2_backward(idx, pool_up),
        central_diff_grad(lambda x_: float(np.sum(nn.maxpool2x2_forward(x_)[0] * pool_up)), x)))

    relu_up = rng.standard_normal(x.shape)
    worst = max(worst, max_rel_error(
        nn.relu_backward(x, relu_up),
        central_diff_grad(lambda x_: float(np.sum(nn.relu(x_) * relu_up)), x)))

    flat = rng.standard_normal(10)
    weights = rng.standard_normal((3, 10))
    _, _, dgrads = nn.dense_softmax_xent(flat, weights, 1)
    worst = max(worst, max_rel_error(dgrads.weights, central_diff_grad(
        lambda w_: nn.dense_softmax_xent(flat, w_, 1)[1], weights)))
    worst = max(worst, max_rel_error(dgrads.input, central_diff_grad(
        lambda f_: nn.dense_softmax_xent(f_, weights, 1)[1], flat)))

    # full tiny network: every parameter plus the input batch. Biases are
    # moved off zero so no preactivation sits exactly on the ReLU kink,
    # where central differences straddle the (defined) subgradient.
    config = model.ModelConfig(patch_size=8, channels=("Gr", "L"), filters=(2, 2, 2),
                               kernel_size=5, n_classes=3, seed=5)
    net = model.build_model(config).astype(np.float64)
    for li, layer in enumerate(net.conv_layers):
        layer.biases = 0.05 + 0.01 * np.arange(layer.biases.size, dtype=np.float64) + 0.02 * li
    xb = rng.random((2, 8, 8, 2))
    yb = np.array([0, 2], dtype=np.int64)
    _, conv_grads, d_dense, d_input = model._batch_loss_and_grads(net, xb, yb)
    analytic = []
    for g in conv_grads:
        analytic.extend([g.kernels, g.biases])
    analytic.append(d_dense)
    for index, (param, grad) in enumerate(zip(net.parameters(), analytic)):
        numeric = central_diff_grad(
            lambda v, i=index: model._batch_loss_and_grads(
                _replace_param(net, i, v), xb, yb)[0], param)
        worst = max(worst, max_rel_error(grad, numeric))
    numeric = central_diff_grad(
        lambda v: model._batch_loss_and_grads(net, v, yb)[0], xb)
    worst = max(worst, max_rel_error(d_input, numeric))

    elapsed = time.perf_counter() - start
    assert worst < GRADCHECK_BOUND
    assert elapsed < 60.0
    report_pass(1, f"max relative gradient error {worst:.2e} < 1e-4 in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: fast convolution equals the naive nested-loop oracle
# ---------------------------------------------------------------------------


def test_criterion_2_convolution_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    cases = 0
    for trial in range(50):
        k = (1, 3, 5)[trial % 3]
        h = int(rng.integers(k, 17))
        w = int(rng.integers(k, 17))
        c = int(rng.integers(1, 5))
        n_k = int(rng.integers(1, 5))
        pad = int(rng.integers(0, 3))
        x = rng.standard_normal((h, w, c))
        params = nn.ConvParams(kernels=rng.standard_normal((n_k, k, k, c)),
                               biases=rng.standard_normal(n_k), padding=pad)
        diff = np.max(np.abs(nn.conv2d_forward(x, params)
                             - nn.conv2d_forward_reference(x, params)))
        worst = max(worst, float(diff))
        cases += 1
    elapsed = time.perf_counter() - start
    assert cases == 50
    assert worst < 1e-6
    assert elapsed < 10.0
    report_pass(2, f"50 cases, max |fast - naive| = {worst:.2e} < 1e-6 in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 3: architecture shape chain
# ---------------------------------------------------------------------------


def test_criterion_3_architecture_shape():
    for c in (4, 6):
        for k in (5, 7, 9):
            channels = ("Gr", "L", "U", "V") if c == 4 else ("R", "G", "B", "L", "U", "V")
            net = model.build_model(model.ModelConfig(channels=channels, kernel_size=k))
            shapes = model.forward_shapes(net)
            assert shapes == [(32, 32, c), (32, 32, 32), (16, 16, 32), (16, 16, 32),
                              (8, 8, 32), (8, 8, 64), (4, 4, 64), (9,)], \
                f"chain mismatch for C={c}, k={k}: {shapes}"
    report_pass(3, "32x32xC -> ... -> 4x4x64 -> 9 logits for C in {4,6}, k in {5,7,9}")


# ---------------------------------------------------------------------------
# Criterion 4: offset geometry
# ---------------------------------------------------------------------------


def test_criterion_4_offset_geometry():
    offsets = generate_offsets(9, 32, 16, 45.0)
    points = [(o.dx, o.dy) for o in offsets]
    assert len(set(points)) == 9
    assert points[0] == (0, 0)
    for i in range(1, 5):
        partner = offsets[i + 4]
        assert abs(offsets[i].dx + partner.dx) <= 1
        assert abs(offsets[i].dy + partner.dy) <= 1
    assert generate_offsets(9, 32, 16, 45.0) == offsets
    report_pass(4, f"9 distinct offsets {points}, antipodal sums within 1 px, regeneration identical")


# ---------------------------------------------------------------------------
# Criterion 5: pipeline counts
# ---------------------------------------------------------------------------


def test_criterion_5_pipeline_counts():
    rng = np.random.default_rng(3)
    for _ in range(100):
        h = int(rng.integers(8, 129))
        w = int(rng.integers(8, 129))
        p = int(rng.integers(2, min(h, w) + 1))
        s = int(rng.integers(1, p + 9))
        frame = Frame({"L": rng.random((h, w), dtype=np.float32)})
        expected = ((h - p) // s + 1) * ((w - p) // s + 1)
        assert len(pipeline.extract_patches(frame, p, s)) == expected

    frame = Frame({"Gr": rng.random((256, 800), dtype=np.float32),
                   "L": rng.random((256, 800), dtype=np.float32)})
    offsets = generate_offsets(9, 32, 16, 45.0)
    samples, manifest = build_dataset([frame], offsets, p=32, s=32, tau=0.0)
    assert len(samples) == 1800
    assert manifest.patch_count == 1800
    report_pass(5, "100 randomized grids match the closed form; 1 frame x 9 offsets = 1800 samples")


# ---------------------------------------------------------------------------
# Criterion 6: optical flow
# ---------------------------------------------------------------------------


def test_criterion_6_optical_flow():
    start = time.perf_counter()
    frame = np.random.default_rng(0).random((32, 48), dtype=np.float32)
    field = flow_mod.estimate_flow(frame, frame)
    zero_err = max(float(np.max(np.abs(field.u))), float(np.max(np.abs(field.v))))
    assert zero_err < 1e-6

    y, x = np.mgrid[0:48, 0:48]
    def blob(cx):
        return np.exp(-(((x - cx) ** 2 + (y - 24.0) ** 2) / (2.0 * 3.0 ** 2))).astype(np.float32)
    prev, nxt = blob(23.0), blob(25.0)
    field = flow_mod.estimate_flow(prev, nxt, alpha=1.0, iterations=200)
    support = prev > 0.1
    epe = float(np.sqrt((field.u[support] - 2.0) ** 2 + field.v[support] ** 2).mean())
    elapsed = time.perf_counter() - start
    assert epe < 0.5
    assert elapsed < 30.0
    report_pass(6, f"identical frames max |flow| {zero_err:.1e}; blob mean EPE {epe:.3f} px "
                   f"< 0.5 in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criteria 7 and 8: end-to-end synthetic experiment
# ---------------------------------------------------------------------------

EXPERIMENT = dict(width=400, height=192, objects=20, noise=0.02,
                  train_seed=101, test_seed=202, n_train=80, n_test=20,
                  patch=32, stride=32, epochs=3, model_seed=7)
CHANCE_X3 = 3 * 100.0 / 9


def _flow_corpus(seed, count):
    config = synth.SceneConfig(seed=seed, frame_count=count,
                               width=EXPERIMENT["width"], height=EXPERIMENT["height"],
                               object_count=EXPERIMENT["objects"],
                               noise_amplitude=EXPERIMENT["noise"])
    return list(pipeline.add_flow_channels(synth.generate_sequence(config),
                                           workers=pipeline.worker_count()))


def _train_and_evaluate(train_frames, test_frames, channels):
    offsets = generate_offsets(9, 32, 16, 45.0)
    x, y, _, _ = pipeline.patch_arrays(train_frames, offsets, EXPERIMENT["patch"],
                                       EXPERIMENT["stride"], tau=DEFAULT_TAU,
                                       channels=channels, workers=pipeline.worker_count())
    net = model.build_model(model.ModelConfig(channels=tuple(channels),
                                              seed=EXPERIMENT["model_seed"]))
    net, history = model.train(net, x, y, model.TrainConfig(
        epochs=EXPERIMENT["epochs"], seed=EXPERIMENT["model_seed"]))
    report = evaluation.evaluate_run(net, test_frames, offsets, k_values=[1, 2, 4],
                                     stride=EXPERIMENT["stride"], tau=DEFAULT_TAU)
    return net, report, history


@pytest.fixture(scope="session")
def experiment():
    start = time.perf_counter()
    train_frames = _flow_corpus(EXPERIMENT["train_seed"], EXPERIMENT["n_train"])
    test_frames = _flow_corpus(EXPERIMENT["test_seed"], EXPERIMENT["n_test"])
    net, report, history = _train_and_evaluate(train_frames, test_frames,
                                               ["Gr", "L", "U", "V"])
    run_seconds = time.perf_counter() - start

    # full second run from scratch: synthesis, flow, dataset, training, eval
    net2, report2, _ = _train_and_evaluate(
        _flow_corpus(EXPERIMENT["train_seed"], EXPERIMENT["n_train"]),
        _flow_corpus(EXPERIMENT["test_seed"], EXPERIMENT["n_test"]),
        ["Gr", "L", "U", "V"])

    _, ablation_report, _ = _train_and_evaluate(train_frames, test_frames,
                                                ["R", "G", "B", "L"])
    return dict(net=net, report=report, history=history, run_seconds=run_seconds,
                rerun_net=net2, rerun_report=report2, ablation_report=ablation_report)


def test_criterion_7_end_to_end_experiment(experiment):
    report = experiment["report"]
    patch_acc = evaluation.mean_diagonal_accuracy(report.patch_cm)
    image_acc = evaluation.mean_diagonal_accuracy(report.image_cm)
    k1 = report.temporal_accuracy[1]
    k4 = report.temporal_accuracy[4]

    assert patch_acc >= CHANCE_X3, f"patch accuracy {patch_acc:.1f}% below 3x chance"
    assert image_acc >= 80.0, f"image accuracy {image_acc:.1f}% below 80%"
    assert k4 >= k1 - 2.0, f"temporal k=4 {k4:.1f}% fell more than 2pp below k=1 {k1:.1f}%"

    for a, b in zip(experiment["net"].parameters(), experiment["rerun_net"].parameters()):
        np.testing.assert_array_equal(a, b)
    assert report.patch_cm == experiment["rerun_report"].patch_cm
    assert report.image_cm == experiment["rerun_report"].image_cm
    assert report.temporal_accuracy == experiment["rerun_report"].temporal_accuracy

    assert experiment["run_seconds"] < 600.0, \
        f"single experiment run took {experiment['run_seconds']:.0f}s"
    report_pass(7, f"patch {patch_acc:.1f}% (>= {CHANCE_X3:.1f}), image {image_acc:.1f}% (>= 80), "
                   f"k1 {k1:.1f}% -> k4 {k4:.1f}%, deterministic rerun identical, "
                   f"run {experiment['run_seconds']:.0f}s < 600s")


def test_criterion_8_flow_ablation_direction(experiment):
    with_flow = evaluation.mean_diagonal_accuracy(experiment["report"].image_cm)
    without_flow = evaluation.mean_diagonal_accuracy(experiment["ablation_report"].image_cm)
    assert with_flow >= without_flow - 2.0, \
        f"GrLUV {with_flow:.1f}% fell more than 2pp below RGBL {without_flow:.1f}%"
    report_pass(8, f"GrLUV image accuracy {with_flow:.1f}% vs RGBL {without_flow:.1f}% "
                   f"(flow kept within 2pp or better)")


# ---------------------------------------------------------------------------
# Criterion 9: serialization round trips and corruption rejection
# ---------------------------------------------------------------------------


def test_criterion_9_serialization(tmp_path):
    rng = np.random.default_rng(9)

    frame = Frame({n: rng.random((12, 16), dtype=np.float32)
                   for n in ("R", "G", "B", "Gr", "L", "U", "V")})
    p1, p2 = tmp_path / "a.mmf", tmp_path / "b.mmf"
    pipeline.write_frame(frame, p1)
    pipeline.write_frame(pipeline.read_frame(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()

    manifest = pipeline.DatasetManifest(
        patch_size=32, stride=32, channels=["Gr", "L"],
        offsets=generate_offsets(9, 32, 16, 45.0), tau=DEFAULT_TAU, fill=0.0,
        seed=3, split="train", frames_dir="frames", frame_files=["a.mmf"],
        frame_count=1, patch_count=42)
    mpath = tmp_path / "manifest.txt"
    pipeline.write_manifest(manifest, mpath)
    assert pipeline.read_manifest(mpath) == manifest

    net = model.build_model(model.ModelConfig(patch_size=8, channels=("Gr", "L"),
                                              filters=(2, 2, 2), kernel_size=3,
                                              n_classes=3, seed=1))
    cpath = tmp_path / "model.mmrc"
    model.save_checkpoint(net, cpath)
    loaded = model.load_checkpoint(cpath)
    for a, b in zip(net.parameters(), loaded.parameters()):
        np.testing.assert_array_equal(a, b)

    bad_mmf = tmp_path / "bad.mmf"
    bad_mmf.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(FormatError, match="magic"):
        pipeline.read_frame(bad_mmf)
    truncated = tmp_path / "trunc.mmf"
    truncated.write_bytes(p1.read_bytes()[:-10])
    with pytest.raises(FormatError, match="byte offset"):
        pipeline.read_frame(truncated)
    bad_ckpt = tmp_path / "trunc.mmrc"
    bad_ckpt.write_bytes(cpath.read_bytes()[:-10])
    with pytest.raises(FormatError, match="truncated"):
        model.load_checkpoint(bad_ckpt)
    bad_manifest = tmp_path / "bad_manifest.txt"
    bad_manifest.write_text("format=mmreg-manifest-1\nsplit=x\n")
    with pytest.raises(FormatError, match="missing"):
        pipeline.read_manifest(bad_manifest)

    report_pass(9, "MMF/manifest/checkpoint round-trip bit-exactly; corrupted inputs rejected")


# ---------------------------------------------------------------------------
# Criterion 10: metric fidelity
# ---------------------------------------------------------------------------


def test_criterion_10_metric_fidelity():
    identity = evaluation.ConfusionMatrix(9, np.eye(9, dtype=np.int64) * 11)
    assert evaluation.mean_diagonal_accuracy(identity) == pytest.approx(100.0)

    uniform = evaluation.ConfusionMatrix(9, np.full((9, 9), 6, dtype=np.int64))
    value = evaluation.mean_diagonal_accuracy(uniform)
    assert value == pytest.approx(11.11, abs=0.01)

    rng = np.random.default_rng(11)
    counts = rng.integers(1, 99, size=(9, 9))
    base = evaluation.mean_diagonal_accuracy(evaluation.ConfusionMatrix(9, counts))
    scaled = evaluation.mean_diagonal_accuracy(evaluation.ConfusionMatrix(9, counts * 17))
    assert scaled == pytest.approx(base, abs=1e-9)
    report_pass(10, f"identity 100%, uniform {value:.2f}% (11.11 +/- 0.01), scale-invariant")
