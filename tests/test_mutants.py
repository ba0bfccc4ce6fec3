"""Mutation check of the hand-written backwards of the fused nodes (the
BiMamba call and one scan direction in ``ssm``, the cross-attention call in
``tq_mamba``, the similarity, enhancement and reconstruction loss in
``tme``, the task loss in ``harness``), of the softmax and layer-norm
gradient cores they share in ``autodiff``, and of the optimizer's blocked
in-place step (``training``).

Each mutant is the package source with one edit, loaded as a fresh module
of the package, whose node replaces the package's in the tests that guard
it. A mutant is killed when one of those tests fails an assertion; the
unedited source, loaded the same way, must pass them all.
"""

import sys
import types
from pathlib import Path

import pytest

import mamba_fusion.autodiff as autodiff
import mamba_fusion.harness as harness
import mamba_fusion.model as model
import mamba_fusion.ssm as ssm
import mamba_fusion.tme as tme
import mamba_fusion.tq_mamba as tq_mamba
import mamba_fusion.training as training
import oracles
import test_autodiff
import test_harness
import test_model
import test_ssm
import test_tme
import test_tq_mamba
import test_training

# (module, text, its replacement, guard) of each mutant; the name's first
# word names the node. The "oracle" guard compares the BiMamba node
# bitwise, and the scan direction's gradients to 1e-9, with their tape
# compositions in tests/oracles.py and the block's gradients with finite
# differences, the attention, similarity, enhancement and loss nodes with
# their compositions and with finite differences, the autodiff
# cores through those nodes' guards and the layer norm's finite
# differences, and the optimizer step bitwise with its expression form;
# the "hand-over" guard checks that no gradient array is written after it
# was handed over, through backward and one step.
MUTANTS = {
    "bimamba-unedited": (ssm, "", "", "both"),
    "bimamba-drop-du_f": (ssm, "[du_b + du_f, dz]", "[du_b, dz]", "oracle"),
    "bimamba-swap-halves": (ssm, "[du_b + du_f, dz]", "[dz, du_b + du_f]",
                            "oracle"),
    "bimamba-dy-by-sig": (ssm, "dy = dgated * gate", "dy = dgated * sig",
                          "oracle"),
    "bimamba-writes-g": (ssm, "dgated = g @ w_out.T",
                         "dgated = g @ w_out.T; g *= 0.5", "hand-over"),
    "bimamba-gate-as-sig": (ssm, "gate = z * sig", "gate = sig", "oracle"),
    "bimamba-gate-over-z": (ssm, "gate = z * sig",
                            "gate = z; gate *= sig", "oracle"),
    "bimamba-gated-as-y": (ssm, "(y * gate).T @ g", "y.T @ g", "oracle"),
    "bimamba-xn-no-beta": (ssm, "(xhat * gamma + beta).T",
                           "(xhat * gamma).T", "oracle"),
    "recon-unedited": (tme, "", "", "both"),
    "recon-drop-clip": (tme, "np.clip(d, -1.0, 1.0)", "d", "oracle"),
    "recon-drop-scale": (tme, "(g * scale) * ", "g * ", "oracle"),
    "recon-ungated-d": (tme, "d = (x_tilde.data - x_t_clean.data) * gate",
                        "d = x_tilde.data - x_t_clean.data", "oracle"),
    "recon-writes-g": (tme, "return ((g * scale) * np.clip(d, -1.0, 1.0),)",
                       "g *= scale; return (g * np.clip(d, -1.0, 1.0),)",
                       "hand-over"),
    "scan-drop-skip": (ssm, "dx = g * d_skip + np.matmul",
                       "dx = np.matmul", "oracle"),
    "scan-da-sign": (ssm, 'da = -np.einsum("lnc,lnc->nc", e, w)',
                     'da = np.einsum("lnc,lnc->nc", e, w)', "oracle"),
    "scan-e-plus-1": (ssm, "e -= 1.0", "e += 1.0", "oracle"),
    "scan-conv-bias-before-silu": (ssm, "dw, gc.sum(axis=0),",
                                   "dw, dx.sum(axis=0),", "oracle"),
    "scan-x-as-conv": (ssm, "x = conv * _sigmoid_np(conv)", "x = conv",
                       "oracle"),
    "scan-x-over-conv": (ssm, "x = conv * _sigmoid_np(conv)",
                         "x = conv; x *= _sigmoid_np(conv)", "oracle"),
    # the block hands one dy to both directions, so a direction that
    # writes the g it is handed changes the other's
    "scan-writes-g": (ssm, "(g * x).sum(axis=0))",
                      "np.multiply(g, x, out=g).sum(axis=0))", "oracle"),
    "adamw-unedited": (training, "", "", "both"),
    "adamw-skip-last-block": (training, "range(0, data.size, block)",
                              "range(0, data.size - block + 1, block)",
                              "oracle"),
    "adamw-eps-in-sqrt": (training, "np.sqrt(s, out=s)\n"
                          "                s += eps",
                          "s += eps\n"
                          "                np.sqrt(s, out=s)", "oracle"),
    "adamw-decay-after-write": (
        training, "np.multiply(pb, wd, out=s)\n"
        "                r += s\n"
        "                r *= lr\n"
        "                pb -= r",
        "r *= lr\n"
        "                pb -= r\n"
        "                np.multiply(pb, wd, out=s)\n"
        "                s *= lr\n"
        "                pb -= s", "oracle"),
    "adamw-swap-c1-c2": (training, "c1, c2 = 1 - b1", "c2, c1 = 1 - b1",
                         "oracle"),
    "adamw-writes-g": (training, "s *= gb", "s *= gb; gb *= 0.5",
                       "hand-over"),
    "attn-unedited": (tq_mamba, "", "", "both"),
    "attn-drop-dkv_k": (tq_mamba, "np.split(dkv_v + dkv_k,",
                        "np.split(dkv_v,", "oracle"),
    "attn-qn-beta-sign": (tq_mamba, "qn = xhat * gamma + beta",
                          "qn = xhat * gamma - beta", "oracle"),
    "attn-swap-w_k-w_v": (tq_mamba, "dv @ w_v.T, dk @ w_k.T",
                          "dv @ w_k.T, dk @ w_v.T", "oracle"),
    "attn-drop-later-blocks": (tq_mamba, "dkh_t += dkh_rows",
                               "dkh_t = dkh_rows", "oracle"),
    "attn-writes-g": (tq_mamba, "dmerged = g @ w_o.T",
                      "dmerged = g @ w_o.T; g *= 0.5", "hand-over"),
    "sim-unedited": (tme, "", "", "both"),
    "sim-drop-dot": (tme, "return (g - y * dot) / norm", "return g / norm",
                     "oracle"),
    "sim-dtn-sign": (tme, "dtn = (xn.T @ dz).T", "dtn = -(xn.T @ dz).T",
                     "oracle"),
    "sim-swap-g-s": (tme, "_softmax_grad_np(g, s, tau)",
                     "_softmax_grad_np(s, g, tau)", "oracle"),
    "sim-writes-g": (tme, "dz = _softmax_grad_np(g, s, tau)",
                     "dz = _softmax_grad_np(g, s, tau); g *= 0.5",
                     "hand-over"),
    "enh-unedited": (tme, "", "", "both"),
    "enh-drop-mask": (tme, "@ g, dmasked * mask", "@ g, dmasked", "oracle"),
    "enh-dh_t-sign": (tme, "return g, (mask * s.data).T @ g,",
                      "return g, -((mask * s.data).T @ g),", "oracle"),
    "enh-swap-h_x-h_t": (tme, "dmasked = g @ h_t.data.T",
                         "dmasked = g @ h_x.data.T", "oracle"),
    "enh-writes-g": (tme, "dmasked = g @ h_t.data.T",
                     "dmasked = g @ h_t.data.T; g *= 0.5", "hand-over"),
    "task-unedited": (harness, "", "", "both"),
    "task-drop-2": (harness, "2.0 * (g_mean * d)", "(g_mean * d)", "oracle"),
    "task-sign": (harness, "2.0 * (g_mean * d)", "-2.0 * (g_mean * d)",
                  "oracle"),
    "task-drop-inv_n": (harness, "g_mean = g * inv_n", "g_mean = g",
                        "oracle"),
    "task-writes-g": (harness, "g_mean = g * inv_n",
                      "g_mean = g * inv_n; g *= 0.5", "hand-over"),
    "core-unedited": (autodiff, "", "", "both"),
    "core-softmax-drop-dot": (autodiff, "return s * (g - dot) / temperature",
                              "return s * g / temperature", "oracle"),
    "core-softmax-sign": (autodiff, "return s * (g - dot) / temperature",
                          "return s * (dot - g) / temperature", "oracle"),
    "core-softmax-swap-g-s": (autodiff,
                              "return s * (g - dot) / temperature",
                              "return g * (s - dot) / temperature",
                              "oracle"),
    "core-ln-drop-mean": (autodiff, "- dxhat.sum(axis=-1, keepdims=True)",
                          "", "oracle"),
    "core-ln-sign": (autodiff, "- xhat * (dxhat * xhat)",
                     "+ xhat * (dxhat * xhat)", "oracle"),
    "core-ln-swap-dgamma-dbeta": (
        autodiff, "dgamma.reshape(gamma.shape), dbeta.reshape(gamma.shape)",
        "dbeta.reshape(gamma.shape), dgamma.reshape(gamma.shape)", "oracle"),
}

# the name each tme node is called by, in the model and in its tests
TME_NODES = {"recon": "recon_loss", "sim": "token_similarity",
             "enh": "enhance"}
# the gradient cores in autodiff that the nodes (and the oracles' layer
# norm) share, and the modules that call them by name
CORES = ("_softmax_grad_np", "_layer_norm_grad_np")
CORE_CALLERS = (ssm, tq_mamba, tme, oracles)


def _load(module, text, replacement):
    """A fresh module of the package from module's source with its one
    occurrence of text replaced (the source as it is when text is "")."""
    source = Path(module.__file__).read_text()
    if text:
        assert source.count(text) == 1, text
        source = source.replace(text, replacement)
    fresh = types.ModuleType(f"{module.__name__}_mutant")
    fresh.__package__ = module.__package__
    # a dataclass with string annotations looks its module up by name
    sys.modules[fresh.__name__] = fresh
    try:
        exec(compile(source, module.__file__, "exec"), fresh.__dict__)
    finally:
        del sys.modules[fresh.__name__]
    return fresh


def _fails(test, *args):
    try:
        test(*args)
    except AssertionError:
        return True
    return False


def _oracle_fails(node):
    if node in ("bimamba", "scan"):
        bitwise = test_ssm.test_bimamba_node_is_bitwise_the_tape_path
        scan = test_ssm.test_fused_scan_gradients_match_the_tape_path
        differences = test_ssm.test_bimamba_gradients_match_finite_differences
        # the BiMamba node's oracle runs the same scan-direction core, so
        # only the scan's own comparison sees a mutant of its backward, and
        # only the block's finite differences see a direction writing the
        # g both directions are handed (the oracle's sum hands both one g)
        return (any(_fails(bitwise, case, mode)
                    for case in test_ssm.BLOCK_CASES
                    for mode in ssm.SCAN_MODES)
                or any(_fails(scan, mode, shape)
                       for shape in test_ssm.SCAN_SHAPES[:4]
                       for mode in ssm.SCAN_MODES)
                or _fails(differences))
    if node == "adamw":
        bitwise = test_training.test_adamw_step_is_bitwise_the_expression_form
        return any(_fails(bitwise, shape, weight_decay)
                   for shape in test_training.ADAMW_SHAPES.values()
                   for weight_decay in (0.0, 0.01))
    if node == "core":
        # the oracles' layer norm runs the same core, so finite differences
        # see its mutants; the softmax core's are compared with the
        # oracles' own softmax too
        differences = test_autodiff.test_layer_norm_gradient
        return (_fails(differences) or _oracle_fails("attn")
                or _oracle_fails("sim"))
    if node == "attn":
        t = test_tq_mamba
        with pytest.MonkeyPatch.context() as mp:
            blocked = _fails(
                t.test_attention_over_row_blocks_matches_within_tolerance, mp)
        return (blocked
                or any(_fails(t.test_attention_node_matches_tape_composition,
                              case) for case in t.ATTENTION_CASES)
                or any(_fails(
                    t.test_attention_node_gradient_matches_finite_differences,
                    case) for case in ("heads-2", "self-attention",
                                       "one-key")))
    if node == "sim":
        t = test_tme
        return (any(_fails(t.test_similarity_node_matches_tape_composition,
                           case) for case in t.SIMILARITY_CASES)
                or any(_fails(
                    t.test_similarity_node_gradient_matches_finite_differences,
                    case) for case in ("lx-ne-lt", "self")))
    if node == "enh":
        t = test_tme
        return (any(_fails(t.test_enhance_node_matches_tape_composition,
                           case) for case in t.ENHANCE_CASES)
                or _fails(t.test_enhance_node_gradient_matches_finite_differences))
    if node == "task":
        t = test_harness
        return (any(_fails(t.test_task_loss_node_equals_tape_composition, n)
                    for n in (1, 2, 7, 64))
                or _fails(t.test_task_loss_gradient_is_two_diff_over_n))
    bitwise = test_tme.test_recon_loss_node_equals_tape_composition
    differences = test_tme.test_recon_loss_gradient_matches_finite_differences
    return (any(_fails(bitwise, *case) for case in test_tme.RECON_CASES)
            or _fails(differences))


def _hand_over_fails():
    with pytest.MonkeyPatch.context() as mp:
        return _fails(
            test_model.test_no_gradient_array_is_written_after_hand_over,
            mp, {})


def _install(monkeypatch, node, fresh):
    """Put the fresh module's node in place of the package's, under every
    name the model and the guarding tests call it by."""
    if node in ("bimamba", "scan"):
        monkeypatch.setattr(ssm.BiMamba, "__call__", fresh.BiMamba.__call__)
        # the package's block and the oracles' scan node look it up here
        monkeypatch.setattr(ssm, "_scan_direction", fresh._scan_direction)
    elif node == "adamw":
        monkeypatch.setattr(training.AdamW, "step", fresh.AdamW.step)
    elif node == "attn":
        monkeypatch.setattr(tq_mamba.CrossAttention, "__call__",
                            fresh.CrossAttention.__call__)
        # the row-block test sets the block size and counts the blocks on
        # the module whose globals the call reads
        monkeypatch.setattr(test_tq_mamba, "tq_mamba", fresh)
    elif node == "core":
        for owner in CORE_CALLERS:
            for name in CORES:
                if hasattr(owner, name):
                    monkeypatch.setattr(owner, name, getattr(fresh, name))
    elif node == "task":
        for owner in (harness, training, test_harness):
            monkeypatch.setattr(owner, "task_loss_tensor",
                                fresh.task_loss_tensor)
    else:
        name = TME_NODES[node]
        for owner in (model, test_tme):
            monkeypatch.setattr(owner, name, getattr(fresh, name))


@pytest.mark.slow
@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_guards_kill_every_mutant_of_the_fused_backwards(monkeypatch, mutant):
    module, text, replacement, guard = MUTANTS[mutant]
    node = mutant.partition("-")[0]
    _install(monkeypatch, node, _load(module, text, replacement))
    failed = {"oracle": _oracle_fails(node),
              "hand-over": _hand_over_fails()}
    if guard == "both":
        assert failed == {"oracle": False, "hand-over": False}
    else:
        assert failed[guard], f"{mutant} survives its {guard} guard"
