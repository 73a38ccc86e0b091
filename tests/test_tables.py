"""Each table builds its inputs once, at its largest size, not once per size,
and ``plotdata`` rounds each exact polynomial coefficient once, not once per
sample."""

import sys

import pytest

from gramkernel.cli import main
from gramkernel.conditioning import condition_table
from gramkernel.families import ALL_FAMILIES

BUILDERS = ("coeff_matrix", "norm_vector", "gram_from_moments", "build_kernel")


def count_calls(monkeypatch, names):
    """Count calls to each named function through every gramkernel module
    that binds it, so a call is seen whichever module makes it."""
    calls = dict.fromkeys(names, 0)
    for modname, mod in list(sys.modules.items()):
        if modname != "gramkernel" and not modname.startswith("gramkernel."):
            continue
        for name in names:
            fn = vars(mod).get(name)
            if fn is None:
                continue

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
def test_condition_table_builds_once(monkeypatch, family):
    calls = count_calls(monkeypatch, BUILDERS)
    condition_table(family, 6)
    assert calls == {"coeff_matrix": 1, "norm_vector": 1, "gram_from_moments": 1,
                     "build_kernel": 0}


@pytest.mark.parametrize("target", ("exp-neg", "sin-pi", "cos-pi"))
def test_variance_command_builds_once(monkeypatch, capsys, target):
    calls = count_calls(monkeypatch, BUILDERS + ("function_moments", "error_variance"))
    assert main(["variance", "--target", target, "--max-size", "6"]) == 0
    capsys.readouterr()
    assert calls == {"coeff_matrix": 1, "norm_vector": 1, "gram_from_moments": 1,
                     "build_kernel": 0, "function_moments": 1, "error_variance": 0}


@pytest.mark.parametrize("samples", ("9", "65"))
def test_plotdata_rounds_each_coefficient_once(monkeypatch, capsys, samples):
    calls = count_calls(monkeypatch, ("eval_pilaurent", "eval_polynomial", "target_value"))
    assert main(["plotdata", "--target", "cos-pi", "--size", "4", "--xmin=-2/5",
                 "--xmax=2/5", "--samples", samples]) == 0
    capsys.readouterr()
    # 4 estimate coefficients + 5 Taylor terms, one call per column
    assert calls == {"eval_pilaurent": 9, "eval_polynomial": 2, "target_value": 1}
