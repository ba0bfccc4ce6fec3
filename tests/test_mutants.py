"""Mutation check of the two fused nodes' hand-written backwards: the
BiMamba call (``ssm``) and the reconstruction loss (``tme``).

Each mutant is the package source with one edit, loaded as a fresh module
of the package, whose node replaces the package's in the tests that guard
it. A mutant is killed when one of those tests fails an assertion; the
unedited source, loaded the same way, must pass them all.
"""

import types
from pathlib import Path

import pytest

import mamba_fusion.model as model
import mamba_fusion.ssm as ssm
import mamba_fusion.tme as tme
import test_model
import test_ssm
import test_tme

# (module, text, its replacement, guard) of each mutant. The "oracle"
# guard compares the node bitwise with its tape composition in
# tests/oracles.py, and the loss also with finite differences; the
# "hand-over" guard checks that no gradient array is written after it was
# handed over.
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
    exec(compile(source, module.__file__, "exec"), fresh.__dict__)
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
        return any(_fails(bitwise, case, mode)
                   for case in test_ssm.BLOCK_CASES
                   for mode in ssm.SCAN_MODES)
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
