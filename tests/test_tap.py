"""The scoped layer tap (`repro.nn.tap`) and a guard against probing a
layer by assigning an instance ``forward``."""

import pathlib
import re

import numpy as np
import pytest

from repro.nn import Linear, ReLU, Sequential, tap
from repro.tensor import Tensor

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

# ``object.__setattr__(<target>, "forward", ...)`` — an instance-level
# forward swap, which the fused SNN engine would never call.
_FORWARD_PATCH = re.compile(r"""object\.__setattr__\(\s*[^,()]+,\s*["']forward["']""")


def test_no_instance_forward_patches_in_src():
    offenders = [
        f"{path.relative_to(SRC)}:{text.count(chr(10), 0, match.start()) + 1}"
        for path in sorted(SRC.rglob("*.py"))
        for text in [path.read_text()]
        for match in _FORWARD_PATCH.finditer(text)
    ]
    assert offenders == [], f"use repro.nn.tap instead: {offenders}"


def test_guard_pattern_matches_the_idiom():
    assert _FORWARD_PATCH.search('object.__setattr__(layer, "forward", rec)')
    assert _FORWARD_PATCH.search("object.__setattr__(\n    self.snn, 'forward', f)")
    assert not _FORWARD_PATCH.search('object.__setattr__(self, "training", m)')


def _model():
    return Sequential(Linear(3, 4, rng=np.random.default_rng(0)), ReLU())


def test_tap_observes_replaces_and_is_removed():
    model = _model()
    linear, relu = model[0], model[1]
    x = Tensor(np.random.default_rng(1).normal(size=(2, 3)))
    clean = model(x).data
    seen = []

    def observe(module, inp, out):
        seen.append((module, inp, out.data.copy()))

    with tap([linear, relu], observe), tap(relu, lambda _m, _x, out: out * 2.0):
        doubled = model(x).data
    assert [m for m, _, _ in seen] == [linear, relu]
    assert seen[0][1] is x
    np.testing.assert_array_equal(doubled, 2.0 * clean)
    assert all(m._taps == () for m in model.modules())
    np.testing.assert_array_equal(model(x).data, clean)


def test_taps_fire_in_install_order_and_stack():
    relu = ReLU()
    order = []

    def add_one(_module, _x, out):
        order.append("add_one")
        return out + 1.0

    def triple(_module, _x, out):
        order.append("triple")
        return out * 3.0

    with tap(relu, add_one):
        with tap(relu, triple):
            out = relu(Tensor(np.zeros(2))).data
        assert relu._taps == (add_one,)
    assert order == ["add_one", "triple"]
    np.testing.assert_array_equal(out, [3.0, 3.0])


def test_tap_removed_when_block_raises():
    relu = ReLU()
    with pytest.raises(RuntimeError):
        with tap(relu, lambda *_: None):
            raise RuntimeError("boom")
    assert relu._taps == ()
    assert "_taps" not in relu.__dict__
