"""Closed points of the projective line over Q, and point-weight maps
(base conditions)."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from adelic_volumes.cli import main
from adelic_volumes.errors import InvalidPoint
from adelic_volumes.points import (
    MAX_POINT_DEGREE,
    BaseCondition,
    ClosedPoint,
)

F = Fraction


class TestClosedPoint:
    def test_toric_points(self):
        z, i = ClosedPoint.zero(), ClosedPoint.infinity()
        assert z.label() == "0" and i.label() == "inf"
        assert z.degree == 1 and i.degree == 1
        assert z.is_toric and i.is_toric
        assert z != i and z == ClosedPoint.zero()

    def test_finite_point_validation(self):
        p = ClosedPoint.finite("t^2+1")
        assert p.degree == 2
        assert not p.is_toric
        q = ClosedPoint.finite("t - 1")
        assert q.degree == 1
        assert q.label() == "t-1"  # labels are canonical: whitespace stripped

    def test_rejects_reducible(self):
        with pytest.raises(InvalidPoint):
            ClosedPoint.finite("t^2-1")  # (t-1)(t+1)

    def test_rejects_nonmonic_by_normalizing_or_error(self):
        # 2t - 2 has the same root as t - 1; only monic specs are accepted
        with pytest.raises(InvalidPoint):
            ClosedPoint.finite("2*t-2")

    def test_rejects_t_itself(self):
        with pytest.raises(InvalidPoint):
            ClosedPoint.finite("t")

    def test_degree_cap(self):
        big = "t^9+3"
        with pytest.raises(InvalidPoint):
            ClosedPoint.finite(big)
        assert ClosedPoint.finite("t^8+3").degree == 8 == MAX_POINT_DEGREE

    def test_parse_round_trip(self):
        for label in ("0", "inf", "t^2+1", "t - 1"):
            p = ClosedPoint.parse(label)
            assert ClosedPoint.parse(p.label()) == p

    def test_hashable(self):
        s = {ClosedPoint.zero(), ClosedPoint.parse("t^2+1"),
             ClosedPoint.finite("t^2 + 1")}
        assert len(s) == 2

    @pytest.mark.parametrize("spec, coeffs", [
        ("t^2 + 1", (1, 0, 1)),
        ("t**3 - 2", (-2, 0, 0, 1)),
        ("-1/2 + t", (F(-1, 2), 1)),
        ("1/2*t + t^2 + 3/4 - 1/4", (F(1, 2), F(1, 2), 1)),
        ("t*t + 2*t*3 + 7", (7, 6, 1)),
    ])
    def test_parser(self, spec, coeffs):
        assert ClosedPoint.finite(spec).coeffs == tuple(F(c) for c in coeffs)

    @pytest.mark.parametrize("spec", [
        "t + __import__('os').getpid()", "(t+1)", "t^", "t++1", "t t",
        "t^1/2", "1/0*t + t^2", "t^99999", "",
    ])
    def test_parser_rejects(self, spec):
        with pytest.raises(InvalidPoint):
            ClosedPoint.finite(spec)

    def test_import_does_not_load_sympy(self):
        code = "import sys, adelic_volumes; assert 'sympy' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                       env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})

    def test_without_sympy(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setitem(sys.modules, "sympy", None)  # import sympy now fails
        with pytest.raises(InvalidPoint, match=r"adelic-volumes\[points\]"):
            ClosedPoint.finite("t^2+1")
        slant = {"kind": "convex", "points": [["1", "1"]],
                 "left_slope": "0", "right_slope": "1"}
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"c0": "1", "cinf": "0", "potentials": {
            "inf": slant}, "base": {"t^2+1": "-1/3"}}))
        assert main(["avol", str(path)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "adelic-volumes[points]" in err
        assert len(err.splitlines()) == 1
        # toric bases and degree-1 points need no irreducibility test
        path.write_text(json.dumps({"c0": "1", "cinf": "0", "potentials": {
            "inf": slant}, "base": {"0": "1/2", "inf": "1/4", "t-2": "-1"}}))
        assert main(["avol", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["avol"]["exact"] == "3/16"


class TestBaseCondition:
    def test_toric_detection(self):
        v = BaseCondition({"t^2+1": F(1, 3)})
        assert [p.label() for p in v.nontoric_positive_support()] == ["t^2+1"]

    def test_negative_nontoric_weight_is_vacuous(self):
        # a negative prescribed order constrains nothing
        v = BaseCondition({"t^2+1": F(-1)})
        assert v.nontoric_positive_support() == ()

    def test_order_lookup(self):
        v = BaseCondition({"0": F(1, 2)})
        assert v.order(ClosedPoint.zero()) == F(1, 2)
        assert v.order(ClosedPoint.infinity()) == 0

    def test_zero_weights_dropped(self):
        v = BaseCondition({"0": F(0)})
        assert v.is_zero and v.support == ()
