"""Mutation check of the hand-written backwards of the fused nodes (the
BiMamba call and one scan direction in ``ssm``, the reconstruction loss in
``tme``) and of the optimizer's blocked in-place step (``training``).

Each mutant is the package source with one edit, loaded as a fresh module
of the package, whose node replaces the package's in the tests that guard
it. A mutant is killed when one of those tests fails an assertion; the
unedited source, loaded the same way, must pass them all.
"""

import sys
import types
from pathlib import Path

import pytest

import mamba_fusion.model as model
import mamba_fusion.ssm as ssm
import mamba_fusion.tme as tme
import mamba_fusion.training as training
import test_model
import test_ssm
import test_tme
import test_training

# (module, text, its replacement, guard) of each mutant. The "oracle"
# guard compares the BiMamba node bitwise, and the scan direction's
# gradients to 1e-9, with their tape compositions in tests/oracles.py, the
# loss also with finite differences, and the optimizer step bitwise with
# its expression form; the "hand-over" guard checks that no gradient array
# is written after it was handed over, through backward and one step.
MUTANTS = {
    "bimamba-unedited": (ssm, "", "", "both"),
    "bimamba-drop-du_f": (ssm, "[du_b + du_f, dz]", "[du_b, dz]", "oracle"),
    "bimamba-swap-halves": (ssm, "[du_b + du_f, dz]", "[dz, du_b + du_f]",
                            "oracle"),
    "bimamba-dy-by-sig": (ssm, "dy = dgated * gate", "dy = dgated * sig",
                          "oracle"),
    "bimamba-writes-g": (ssm, "dgated = g @ w_out.T",
                         "dgated = g @ w_out.T; g *= 0.5", "hand-over"),
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
}


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


def _oracle_fails(module):
    if module is ssm:
        bitwise = test_ssm.test_bimamba_node_is_bitwise_the_tape_path
        scan = test_ssm.test_fused_scan_gradients_match_the_tape_path
        # the BiMamba node's oracle runs the same scan-direction core, so
        # only the scan's own comparison sees a mutant of its backward
        return (any(_fails(bitwise, case, mode)
                    for case in test_ssm.BLOCK_CASES
                    for mode in ssm.SCAN_MODES)
                or any(_fails(scan, mode, shape)
                       for shape in test_ssm.SCAN_SHAPES[:4]
                       for mode in ssm.SCAN_MODES))
    if module is training:
        bitwise = test_training.test_adamw_step_is_bitwise_the_expression_form
        return any(_fails(bitwise, shape, weight_decay)
                   for shape in test_training.ADAMW_SHAPES.values()
                   for weight_decay in (0.0, 0.01))
    bitwise = test_tme.test_recon_loss_node_equals_tape_composition
    differences = test_tme.test_recon_loss_gradient_matches_finite_differences
    return (any(_fails(bitwise, *case) for case in test_tme.RECON_CASES)
            or _fails(differences))


def _hand_over_fails():
    with pytest.MonkeyPatch.context() as mp:
        return _fails(
            test_model.test_no_gradient_array_is_written_after_hand_over,
            mp, {})


@pytest.mark.slow
@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_guards_kill_every_mutant_of_the_fused_backwards(monkeypatch, mutant):
    module, text, replacement, guard = MUTANTS[mutant]
    fresh = _load(module, text, replacement)
    if module is ssm:
        monkeypatch.setattr(ssm.BiMamba, "__call__", fresh.BiMamba.__call__)
        # the package's block and the oracles' scan node look it up here
        monkeypatch.setattr(ssm, "_scan_direction", fresh._scan_direction)
    elif module is training:
        monkeypatch.setattr(training.AdamW, "step", fresh.AdamW.step)
    else:
        # the names the loss tests and the model call it by
        monkeypatch.setattr(test_tme, "recon_loss", fresh.recon_loss)
        monkeypatch.setattr(model, "recon_loss", fresh.recon_loss)
    failed = {"oracle": _oracle_fails(module),
              "hand-over": _hand_over_fails()}
    if guard == "both":
        assert failed == {"oracle": False, "hand-over": False}
    else:
        assert failed[guard], f"{mutant} survives its {guard} guard"
