"""Tests for model assembly, presets, and checkpoint state handling."""

import dataclasses

import numpy as np
import pytest

from mamba_fusion.autodiff import (
    Module, Parameter, Tape, Tensor, backward, no_grad,
)
from mamba_fusion.datagen import generate
from mamba_fusion.harness import (
    CorruptionConfig, corrupt_batch, task_loss_tensor,
)
from mamba_fusion.model import ModelConfig, PRESETS, TextFusionModel, build_model
from mamba_fusion.training import AdamW, batch_loss
from oracles import copy_on_first_accumulate_grad


def test_presets_cover_the_published_configurations():
    assert set(PRESETS) == {"desk", "mosi", "mosei", "sims"}
    mosi = PRESETS["mosi"]
    assert (mosi.length, mosi.d_model, mosi.state_dim) == (50, 128, 12)
    assert (mosi.expansion, mosi.heads) == (4, 8)
    assert (mosi.tc_depth, mosi.tq_depth) == (1, 1)
    mosei = PRESETS["mosei"]
    assert (mosei.tc_depth, mosei.tq_depth) == (2, 2)
    sims = PRESETS["sims"]
    assert (sims.length, sims.state_dim, sims.expansion) == (39, 16, 2)
    assert (sims.tc_depth, sims.tq_depth) == (1, 2)
    assert (sims.label_low, sims.label_high) == (-1.0, 1.0)


def test_desk_preset_is_small():
    desk = PRESETS["desk"]
    assert (desk.length, desk.d_model, desk.state_dim) == (16, 32, 8)
    assert (desk.tc_depth, desk.tq_depth) == (1, 1)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(d_model=30, heads=4)       # not divisible


def test_forward_returns_scalar_prediction_and_loss():
    rng = np.random.default_rng(0)
    model = build_model("desk", seed=0)
    c = model.config
    x_t = rng.standard_normal((c.t_text, c.d_text))
    x_v = rng.standard_normal((c.t_visual, c.d_visual))
    x_a = rng.standard_normal((c.t_audio, c.d_audio))
    with no_grad():
        y_hat, rec = model.forward(x_t, x_v, x_a, x_t_clean=x_t,
                                   p_t=np.zeros(c.t_text))
    assert y_hat.shape == ()
    assert rec.shape == ()
    assert np.isfinite(y_hat.data)


def test_reconstruction_loss_zero_without_mask():
    rng = np.random.default_rng(1)
    model = build_model("desk", seed=0)
    c = model.config
    with no_grad():
        _, rec = model.forward(rng.standard_normal((c.t_text, c.d_text)),
                               rng.standard_normal((c.t_visual, c.d_visual)),
                               rng.standard_normal((c.t_audio, c.d_audio)))
    assert rec.data == 0.0


def test_same_seed_same_initialization():
    a = build_model("desk", seed=4)
    b = build_model("desk", seed=4)
    for (name_a, arr_a), (name_b, arr_b) in zip(a.state_arrays(),
                                                b.state_arrays()):
        assert name_a == name_b
        assert np.array_equal(arr_a, arr_b)


def test_ablations_share_the_initial_values_of_every_common_name():
    # the reconstructor is drawn even when it is not kept, so dropping it
    # shifts no later module's initial values
    full = dict(build_model("desk", seed=5).state_arrays())
    for overrides in ({"reconstruction": False}, {"enhancement": False}):
        named = build_model("desk", seed=5, **overrides).state_arrays()
        for name, arr in named:
            np.testing.assert_array_equal(arr, full[name], err_msg=name)


def test_ablation_flags_change_structure_not_interface():
    rng = np.random.default_rng(2)
    c = PRESETS["desk"]
    x_t = rng.standard_normal((c.t_text, c.d_text))
    x_v = rng.standard_normal((c.t_visual, c.d_visual))
    x_a = rng.standard_normal((c.t_audio, c.d_audio))
    for overrides in ({"enhancement": False}, {"reconstruction": False},
                      {"share_transitions": False}, {"use_attention": True}):
        model = build_model("desk", seed=0, **overrides)
        with no_grad():
            y_hat, _ = model.forward(x_t, x_v, x_a)
        assert y_hat.shape == ()


def test_disabling_enhancement_changes_prediction():
    rng = np.random.default_rng(3)
    c = PRESETS["desk"]
    x_t = rng.standard_normal((c.t_text, c.d_text))
    x_v = rng.standard_normal((c.t_visual, c.d_visual))
    x_a = rng.standard_normal((c.t_audio, c.d_audio))
    with no_grad():
        full = build_model("desk", seed=0).predict(x_t, x_v, x_a)
        bare = build_model("desk", seed=0, enhancement=False).predict(
            x_t, x_v, x_a)
    assert full != bare


def test_parameters_are_unique_objects():
    model = build_model("desk", seed=0)
    params = model.parameters()
    assert len({id(p) for p in params}) == len(params)


@pytest.mark.parametrize("overrides", [
    {}, {"reconstruction": False}, {"enhancement": False},
    {"share_transitions": False}, {"use_attention": True},
], ids=["default", "no-reconstruction", "no-enhancement", "unshared",
        "attention"])
def test_every_parameter_receives_a_gradient(overrides):
    model = build_model("desk", seed=0, **overrides)
    ds = generate(8, seed=1)
    batch = corrupt_batch(ds.samples, CorruptionConfig(seed=1),
                          ds.unknown_text_vector)
    # without clean text only the reconstructor, if built, goes untrained
    recon = ({id(p) for p in model.reconstructor.parameters()}
             if model.config.reconstruction else set())
    for clean_text in (True, False):
        for p in model.parameters():
            p.zero_grad()
        with Tape():
            if clean_text:
                loss, _ = batch_loss(model, batch, lambda_rec=0.7)
            else:
                loss = task_loss_tensor(
                    [model.forward(cs.x_t, cs.x_v, cs.x_a)[0]
                     for cs in batch], [cs.y for cs in batch])
            backward(loss)
        idle = [p.name for p in model.parameters() if not np.any(p.grad)
                and (clean_text or id(p) not in recon)]
        assert idle == []
        # the fixed time resampling is no trained state either
        assert [al.resample.grad for al in (
            model.align_t, model.align_v, model.align_a)] == [None] * 3


def _desk_gradients(overrides):
    """A desk model's parameters after one backward over a corrupted batch
    of 4, and an AdamW over them."""
    model = build_model("desk", seed=0, **overrides)
    ds = generate(4, seed=1)
    batch = corrupt_batch(ds.samples, CorruptionConfig(seed=1),
                          ds.unknown_text_vector)
    with Tape():
        loss, _ = batch_loss(model, batch, lambda_rec=0.7)
        backward(loss)
    return model.parameters(), AdamW(model.parameters())


@pytest.mark.parametrize("overrides", [{}, {"use_attention": True}],
                         ids=["default", "attention"])
def test_handed_over_gradients_match_copied_ones_bitwise(
        monkeypatch, overrides):
    params, _ = _desk_gradients(overrides)
    got = [p.grad for p in params]
    monkeypatch.setattr(Tensor, "accumulate_grad",
                        copy_on_first_accumulate_grad)
    want = [p.grad for p in _desk_gradients(overrides)[0]]
    for p, g, w in zip(params, got, want):
        assert g.tobytes() == w.tobytes(), p.name


@pytest.mark.parametrize("overrides", [{}, {"use_attention": True}],
                         ids=["default", "attention"])
def test_no_gradient_array_is_written_after_hand_over(
        monkeypatch, overrides):
    # every array handed to accumulate_grad and every gradient it leaves a
    # tape record's output, an input leaf or a parameter holding keeps its
    # bytes through the rest of backward and one AdamW step
    seen = []
    accumulate_grad = Tensor.accumulate_grad

    def recording(self, g):
        seen.append((g, g.copy()))
        accumulate_grad(self, g)
        seen.append((self.grad, self.grad.copy()))

    monkeypatch.setattr(Tensor, "accumulate_grad", recording)
    params, opt = _desk_gradients(overrides)
    monkeypatch.undo()
    opt.step()
    changed = [i for i, (g, before) in enumerate(seen)
               if g.tobytes() != before.tobytes()]
    # the recording saw every parameter's gradient
    assert {id(p.grad) for p in params} <= {id(g) for g, _ in seen}
    assert changed == []


def _parameter_attributes(obj, out):
    """Append every Parameter held by an attribute of ``obj`` or of a
    Module reachable from it, once per holding attribute."""
    for value in vars(obj).values():
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, Parameter):
                out.append(v)
            elif isinstance(v, Module):
                _parameter_attributes(v, out)
    return out


@pytest.mark.parametrize("overrides,shared", [
    ({}, 4), ({"use_attention": True}, 0), ({"share_transitions": False}, 0)],
    ids=["desk", "use_attention", "unshared"])
def test_every_parameter_attribute_is_listed_exactly_once(overrides, shared):
    model = build_model("desk", seed=0, **overrides)
    params = model.parameters()
    held = _parameter_attributes(model, [])
    assert len({id(p) for p in params}) == len(params)
    assert {id(p) for p in params} == {id(p) for p in held}
    # each pair's two shared a_logs are held by both streams, listed once
    assert len(held) - len(params) == shared


def test_checkpoint_in_another_tensor_order_loads():
    src = build_model("desk", seed=0)
    dst = build_model("desk", seed=9)
    dst.load_state_arrays(src.state_arrays()[::-1])
    got = dict(dst.state_arrays())
    for name, arr in src.state_arrays():
        np.testing.assert_array_equal(got[name], arr)


@pytest.mark.parametrize("edit,match", [
    (lambda named: named[:1] + named[:-1], "repeats 'align_t.w'"),
    (lambda named: [("bogus", named[0][1])] + named[1:],
     "model has no tensor 'bogus'"),
    (lambda named: named + named[:1], "116 tensors, model has 115"),
], ids=["repeated", "unknown", "extra"])
def test_checkpoint_names_must_match_the_model(edit, match):
    model = build_model("desk", seed=0)
    before = [arr.copy() for _, arr in model.state_arrays()]
    named = [(n, arr + 1.0) for n, arr in model.state_arrays()]
    with pytest.raises(ValueError, match=match):
        model.load_state_arrays(edit(named))
    # a rejected checkpoint leaves the model as it was
    for (_, arr), old in zip(model.state_arrays(), before):
        np.testing.assert_array_equal(arr, old)


def test_loading_never_aliases_the_callers_arrays():
    src = build_model("desk", seed=0)
    dst = build_model("desk", seed=9)
    dst.load_state_arrays(src.state_arrays())
    for (name, theirs), (_, ours) in zip(src.state_arrays(),
                                         dst.state_arrays()):
        assert not np.shares_memory(ours, theirs), name


def test_building_from_state_arrays_keeps_them():
    src = build_model("desk", seed=0)
    named = [(n, arr.copy()) for n, arr in src.state_arrays()]
    model = TextFusionModel.from_state_arrays(src.config, named)
    got = dict(model.state_arrays())
    for name, arr in named:
        assert got[name] is arr, name


def _transposed(a):
    """A Fortran-ordered copy of a (a plain copy below two dimensions)."""
    return a.T.copy().T


def _read_only(a):
    a = a.copy()
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("layout", [_transposed, _read_only],
                         ids=["transposed", "read-only"])
@pytest.mark.parametrize("loader", ["load_state_arrays", "from_state_arrays"])
def test_a_loaded_model_steps_in_place_like_one_loaded_c_ordered(loader,
                                                                 layout):
    # AdamW writes each parameter through a flat view, which only a
    # C-ordered, writeable array gives, so loading copies any other array
    src = build_model("desk", seed=0)
    named = src.state_arrays()
    twins = []
    for arrays in ([(n, arr.copy()) for n, arr in named],
                   [(n, layout(arr)) for n, arr in named]):
        if loader == "load_state_arrays":
            model = build_model("desk", seed=9)
            model.load_state_arrays(arrays)
        else:
            model = TextFusionModel.from_state_arrays(src.config, arrays)
        params = model.parameters()
        assert all(p.data.flags.c_contiguous and p.data.flags.writeable
                   for p in params)
        rng = np.random.default_rng(3)
        for p in params:
            p.grad = rng.standard_normal(p.shape)
        AdamW(params).step()
        twins.append([p.data.tobytes() for p in params])
    assert twins[0] == twins[1]
    assert twins[0] != [arr.tobytes() for _, arr in named]


@pytest.mark.parametrize("preset", ["sims", "mosi"])
def test_built_model_holds_no_gradient_buffers(preset):
    import tracemalloc
    tracemalloc.start()
    try:
        model = build_model(preset, seed=0)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_bytes = sum(p.data.nbytes for p in model.parameters())
    assert held < 1.2 * n_bytes


def test_sims_prediction_peak_memory():
    # a prediction's largest arrays are one selective scan's A_bar and
    # B_bar * u, 1.2 MiB each at sims, over which the sweep writes the
    # states; the peak is about 3.7 MiB, and a third such array, a
    # separately allocated h, takes it to about 4.8
    import tracemalloc
    model = build_model("sims", seed=0)
    cfg = model.config
    rng = np.random.default_rng(0)
    x = [rng.standard_normal(shape) for shape in (
        (cfg.t_text, cfg.d_text), (cfg.t_visual, cfg.d_visual),
        (cfg.t_audio, cfg.d_audio))]
    tracemalloc.start()
    try:
        model.predict(*x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.2 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


def test_long_sequence_prediction_peak_memory():
    # a desk-width prediction with every modality at L = 1024. The text
    # query runs its attention over blocks of query rows, so no array of
    # all (heads, L, 2L) scores, 64 MiB here, is made; held whole, five of
    # them put the peak at about 341 MiB. The peak, about 34 MiB, is now in
    # TME, where both L x L similarities are alive while the audio
    # stream's mask and masked similarity are made, 8 MiB each.
    import tracemalloc
    model = build_model("desk", seed=0, t_text=1024, t_visual=1024,
                        t_audio=1024)
    cfg = model.config
    rng = np.random.default_rng(0)
    x = [rng.standard_normal(shape) for shape in (
        (cfg.t_text, cfg.d_text), (cfg.t_visual, cfg.d_visual),
        (cfg.t_audio, cfg.d_audio))]
    tracemalloc.start()
    try:
        model.predict(*x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 36 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


def test_state_round_trip_and_shape_check():
    src = build_model("desk", seed=0)
    dst = build_model("desk", seed=9)
    dst.load_state_arrays(src.state_arrays())
    for (_, a), (_, b) in zip(src.state_arrays(), dst.state_arrays()):
        assert np.array_equal(a, b)
    with pytest.raises(ValueError, match="shape"):
        bad = [(n, np.zeros((1, 1))) for n, _ in src.state_arrays()]
        dst.load_state_arrays(bad)
    with pytest.raises(ValueError, match="tensors"):
        dst.load_state_arrays(src.state_arrays()[:-1])


def test_shared_storage_survives_into_the_model():
    model = build_model("desk", seed=0)
    pair = model.context.blocks[0].tv
    assert pair.text.fwd.a_log is pair.partner.fwd.a_log
    unshared = build_model("desk", seed=0, share_transitions=False)
    pair_u = unshared.context.blocks[0].tv
    assert pair_u.text.fwd.a_log is not pair_u.partner.fwd.a_log


def test_build_model_rejects_unknown_preset():
    with pytest.raises(KeyError):
        build_model("imdb", seed=0)


def test_config_overrides_apply():
    model = build_model("desk", seed=0, tq_depth=2, tau=0.1)
    assert model.config.tq_depth == 2
    assert model.config.tau == 0.1
    assert dataclasses.asdict(model.config)["d_model"] == 32
