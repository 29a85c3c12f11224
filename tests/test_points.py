"""Base conditions: orders at the torus-fixed points 0 and inf."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from adelic_volumes.errors import InvalidPoint
from adelic_volumes.points import BaseCondition

F = Fraction


def test_import_does_not_load_sympy():
    code = "import sys, adelic_volumes; assert 'sympy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


class TestBaseCondition:
    def test_aliases_of_infinity_add_up(self):
        v = BaseCondition({"inf": F(1, 2), " oo": F(1, 4), "infinity ": F(1, 8)})
        assert v == BaseCondition({"inf": F(7, 8)})
        assert repr(v) == "BaseCondition(7/8[inf])"

    def test_zero_weights_dropped(self):
        v = BaseCondition({"0": F(0), "inf": F(1), "oo": F(-1)})
        assert v.is_zero and repr(v) == "BaseCondition(0)"

    def test_order_lookup(self):
        v = BaseCondition({"0": F(1, 2)})
        assert (v.v0, v.vinf) == (F(1, 2), 0)
        v = BaseCondition({"0": "-1/3", "inf": 2})
        assert (v.v0, v.vinf) == (F(-1, 3), 2)
        assert BaseCondition({" oo": 2}).vinf == 2

    def test_toric_detection(self):
        with pytest.raises(InvalidPoint, match="non-toric"):
            BaseCondition({"t^2+1": F(1, 3)})

    def test_negative_nontoric_weight_is_refused(self):
        # a negative order constrains nothing, but the toric model has no
        # point t^2+1 to carry it, so it is refused like a positive one
        with pytest.raises(InvalidPoint, match="non-toric"):
            BaseCondition({"t^2+1": F(-1)})

    def test_long_label_message_is_bounded(self):
        with pytest.raises(InvalidPoint) as info:
            BaseCondition({"x" * 100000: 1})
        assert len(str(info.value)) < 200
        assert "'xxxx" in str(info.value)
