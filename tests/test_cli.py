"""Command-line interface: every verb, exit codes, and byte-level determinism."""

import dataclasses
import io
import json
import random
import sys
import warnings

import numpy as np
import pytest

from revcat import classical as cl, cli, garbage as gb, instances as inst, pipeline as pl, quantum as qu
from revcat.classical import FinObj, PartialFn, PartialInj
from revcat.garbage import AuxMorphism


def write(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def pfn_json(a, b, graph):
    return PartialFn(FinObj.of_size(a), FinObj.of_size(b), tuple(graph)).to_json()


def aux_json(a, cod, e, graph):
    core = PartialInj(FinObj.of_size(a), FinObj((cod, e)), tuple(graph))
    return AuxMorphism(core, cod, e).to_json()


def channel_json(c):
    return c.to_json()


MATRIX_1 = {"rows": 1, "cols": 1, "entries": [[1, 0]]}
CHANNEL_1 = {"din": 1, "dout": 1, "choi": MATRIX_1}  # the identity on C
ISO_2x1 = qu.matrix_to_json(np.eye(2, 1, dtype=complex))
AUX_1 = aux_json(1, 1, 1, [])


def run_to(tmp_path, argv):
    out = tmp_path / "report.json"
    code = cli.run(argv + ["--out", str(out)])
    return code, json.loads(out.read_text())


class TestVerbs:
    def test_compose(self, tmp_path):
        f = write(tmp_path, "f.json", pfn_json(2, 2, [(0, 1)]))
        g = write(tmp_path, "g.json", pfn_json(2, 2, [(1, 0)]))
        code, rep = run_to(tmp_path, ["compose", f, g])
        assert code == 0
        assert rep["result"]["morphism"]["graph"] == [[0, 0]]

    def test_tensor(self, tmp_path):
        f = write(tmp_path, "f.json", pfn_json(2, 2, [(0, 1)]))
        code, rep = run_to(tmp_path, ["tensor", f, f])
        assert code == 0
        assert rep["result"]["morphism"]["graph"] == [[0, 3]]

    def test_bennett_of(self, tmp_path):
        f = write(tmp_path, "f.json", pfn_json(2, 1, [(0, 0), (1, 0)]))
        code, rep = run_to(tmp_path, ["bennett-of", f])
        assert code == 0
        assert rep["result"]["morphism"]["graph"] == [[0, 0], [1, 1]]

    def test_pfn_of(self, tmp_path):
        m = write(tmp_path, "m.json",
                  aux_json(3, 4, 3, [(x, (x + 1) * 3 + x) for x in range(3)]))
        code, rep = run_to(tmp_path, ["pfn-of", m])
        assert code == 0
        assert rep["result"]["morphism"]["graph"] == [[0, 1], [1, 2], [2, 3]]

    def test_aux_equal_and_ext_equal(self, tmp_path):
        m1 = write(tmp_path, "m1.json",
                   aux_json(3, 4, 1, [(x, x + 1) for x in range(3)]))
        m2 = write(tmp_path, "m2.json",
                   aux_json(3, 4, 3, [(x, (x + 1) * 3 + x) for x in range(3)]))
        code, rep = run_to(tmp_path, ["aux-equal", m1, m2])
        assert code == 0 and rep["result"]["equal"] is False
        code, rep = run_to(tmp_path, ["ext-equal", m1, m2])
        assert code == 0 and rep["result"]["equal"] is True

    def test_aux_equal_witness(self, tmp_path):
        m1 = write(tmp_path, "m1.json", aux_json(2, 2, 2, [(0, 0), (1, 2)]))
        m2 = write(tmp_path, "m2.json", aux_json(2, 2, 2, [(0, 1), (1, 3)]))
        code, rep = run_to(tmp_path, ["aux-equal", m1, m2])
        assert code == 0 and rep["result"]["equal"] is True
        assert rep["result"]["mediator"][0]["forward"] is True
        h = PartialInj(FinObj.of_size(2), FinObj.of_size(2), ((0, 1),))
        assert rep["result"]["mediator"] == [{"forward": True, "map": h.to_json()}]

    def test_aux_equal_over_isometries_has_no_mediator(self, tmp_path, capsys):
        iso = write(tmp_path, "i.json", gb.aux_id(2, gb.ISO).to_json())
        v = qu.minimal_stinespring(qu.dephasing_channel(2))[0]
        deph = write(tmp_path, "d.json", AuxMorphism(v, 2, 2).to_json())
        for other, equal in [(iso, True), (deph, False)]:
            code, rep = run_to(tmp_path, ["aux-equal", iso, other])
            assert code == 0 and rep["result"] == {"equal": equal}
        pinj = write(tmp_path, "p.json", gb.aux_id(2).to_json())
        assert cli.run(["aux-equal", iso, pinj]) == 2
        assert capsys.readouterr().err == "error: bases differ: isometry vs pinj\n"

    def test_dilate_kraus_extract(self, tmp_path):
        c = write(tmp_path, "c.json", channel_json(qu.dephasing_channel(2)))
        code, rep = run_to(tmp_path, ["dilate", c])
        assert code == 0 and rep["result"]["env_dim"] == 2
        code, rep = run_to(tmp_path, ["kraus", c])
        assert code == 0 and len(rep["result"]["kraus"]) == 2
        code = cli.run(["extract-unitary", c, "--out", str(tmp_path / "x.json")])
        assert code == 2  # impure Choi cannot yield a unitary

    def test_channel_of_unitary_and_extract(self, tmp_path):
        u = qu.haar_unitary(2, np.random.default_rng(0))
        m = write(tmp_path, "u.json", qu.matrix_to_json(u.mat))
        code, rep = run_to(tmp_path, ["channel-of-unitary", m])
        assert code == 0
        c = write(tmp_path, "c.json", rep["result"]["channel"])
        code, rep = run_to(tmp_path, ["extract-unitary", c])
        assert code == 0
        got = qu.matrix_from_json(rep["result"]["unitary"])
        assert np.max(np.abs(got - qu.phase_fix(u.mat))) < 1e-8

    def test_inv_channel(self, tmp_path):
        u = qu.haar_unitary(2, np.random.default_rng(1))
        c = write(tmp_path, "c.json", channel_json(qu.channel_of_unitary(u)))
        code, rep = run_to(tmp_path, ["inv", c])
        assert code == 0 and rep["result"]["reversible"] is True
        d = write(tmp_path, "d.json", channel_json(qu.dephasing_channel(2)))
        code, rep = run_to(tmp_path, ["inv", d])
        assert code == 0 and rep["result"]["reversible"] is False
        assert rep["result"]["reason"] == "choi impure"
        v = qu.haar_isometry(4, 2, np.random.default_rng(2))
        e = write(tmp_path, "e.json", channel_json(qu.channel_of_isometry(v, 1)))
        code, rep = run_to(tmp_path, ["inv", e])
        assert code == 0 and rep["result"] == {"reversible": False,
                                               "reason": "dimension mismatch"}

    def test_near_unitary_channel_is_not_reversible(self, tmp_path, capsys):
        # Pure within 1e-8, but its top Kraus operator misses unitarity.
        t = 1.5e-8
        k2 = np.zeros((4, 4))
        k2[0, 0] = np.sqrt(t)
        k1 = np.roll(np.eye(4), 1, axis=0) @ np.diag([np.sqrt(1 - t), 1, 1, 1])
        c = write(tmp_path, "c.json", channel_json(qu.choi_of_kraus([k1, k2])))
        code, rep = run_to(tmp_path, ["inv", c])
        assert code == 0 and rep["result"] == {"reversible": False, "reason": "not unitary"}
        assert cli.run(["extract-unitary", c]) == 2
        assert capsys.readouterr().err == (
            "error: not unitary: channel is not a unitary conjugation\n")

    def test_inv_pfn(self, tmp_path):
        f = write(tmp_path, "f.json", pfn_json(2, 2, [(0, 1), (1, 0)]))
        code, rep = run_to(tmp_path, ["inv", f])
        assert code == 0 and rep["result"]["reversible"] is True
        g = write(tmp_path, "g.json", pfn_json(2, 1, [(0, 0), (1, 0)]))
        code, rep = run_to(tmp_path, ["inv", g])
        assert code == 0 and rep["result"]["reversible"] is False
        assert rep["result"]["reason"] == "not injective"

    def test_roundtrip(self, tmp_path):
        c = qu.random_channel(2, 2, 2, np.random.default_rng(2))
        p = write(tmp_path, "c.json", channel_json(c))
        code, rep = run_to(tmp_path, ["roundtrip", p])
        assert code == 0 and rep["result"]["pass"] is True
        assert rep["result"]["residual"] <= 1e-8

    def test_dilate_and_roundtrip_near_the_eigenvalue_bound(self, tmp_path):
        # Choi min eigenvalue -9e-10 is accepted; the dropped eigenvalues
        # must not turn into a malformed-input exit.
        choi = qu.identity_channel(3).choi.copy()
        choi[0, 0] += 1.8e-9
        choi[1, 1] -= 0.9e-9
        choi[2, 2] -= 0.9e-9
        p = write(tmp_path, "c.json", channel_json(qu.Channel(3, 3, choi)))
        code, rep = run_to(tmp_path, ["dilate", p])
        assert code == 0 and rep["result"]["env_dim"] == 2
        code, rep = run_to(tmp_path, ["roundtrip", p])
        assert code == 0 and rep["result"]["pass"] is True
        assert qu.ATOL < rep["result"]["residual"] <= qu.ROUND_ATOL

    def test_lawcheck_pass_and_fail_exit(self, tmp_path):
        code, rep = run_to(
            tmp_path, ["lawcheck", "--instance", "pinj", "--trials", "20"]
        )
        assert code == 0
        assert all(r["passed"] for r in rep["result"]["reports"])

    def test_lawcheck_all_instances(self, tmp_path):
        argv = ["lawcheck", "--law", "restriction_i", "--trials", "10"]
        code, rep = run_to(tmp_path, argv + ["--instance", "all"])
        assert code == 0
        singles = [run_to(tmp_path, argv + ["--instance", name])[1]["result"]
                   for name in sorted(inst.INSTANCES)]
        assert len(singles) == 9 and rep["result"] == singles

    def test_lawcheck_all_fails_on_broken_instance(self, tmp_path, monkeypatch):
        broken = lambda: dataclasses.replace(
            inst.make_pfn_instance(2), restrict=lambda f: cl.empty_map(f.dom, f.dom))
        monkeypatch.setitem(inst.INSTANCES, "broken", broken)
        code, rep = run_to(tmp_path, ["lawcheck", "--instance", "all", "--law",
                                      "restriction_i", "--trials", "10"])
        assert code == 1
        assert [e["instance"] for e in rep["result"]] == sorted(inst.INSTANCES)
        failed = [e["instance"] for e in rep["result"]
                  if not all(r["passed"] for r in e["reports"])]
        assert failed == ["broken"]

    def test_lawcheck_raising_oracle_is_exit_1(self, tmp_path, monkeypatch):
        broken = lambda: dataclasses.replace(inst.make_pinj_instance(2), dagger=lambda f: f)
        monkeypatch.setitem(inst.INSTANCES, "pinj", broken)
        code, rep = run_to(tmp_path, ["lawcheck", "--instance", "pinj", "--law",
                                      "dagger_contravariant"])
        assert code == 1
        (report,) = rep["result"]["reports"]
        assert report["passed"] is False and len(report["counterexample"]) == 2
        assert report["detail"].startswith("CompositionError: cannot compose: ")

    def test_lawcheck_all_skips_instances_without_the_law(self, tmp_path):
        code, rep = run_to(tmp_path, ["lawcheck", "--instance", "all", "--law",
                                      "dagger_involution", "--trials", "10"])
        assert code == 0
        assert [e["instance"] for e in rep["result"]] == ["pinj", "pinj-large", "unitary"]
        assert all(len(e["reports"]) == 1 and e["reports"][0]["passed"] for e in rep["result"])

    def test_lawcheck_all_runs_ridm_of_invertible_where_an_inverse_can_be_found(self, tmp_path):
        # Found by the dagger or by a search of the enumerated hom-set.
        code, rep = run_to(tmp_path, ["lawcheck", "--instance", "all", "--law",
                                      "ridm_of_invertible"])
        assert code == 0
        assert [e["instance"] for e in rep["result"]] == [
            "aux-pinj", "ext-aux-pinj", "pfn", "pinj", "pinj-large", "unitary"]

    def test_lawcheck_that_met_no_premise_is_exit_1(self, tmp_path):
        # At seed 0 the one sampled pair of channels has two codomains.
        code, rep = run_to(tmp_path, ["lawcheck", "--instance", "cptp", "--law",
                                      "wellpointed", "--trials", "1"])
        assert code == 1
        assert rep["result"]["reports"] == [{
            "law": "wellpointed", "trials": 1, "mode": "random", "passed": False,
            "counterexample": None, "detail": "no tuple met the premise"}]

    def test_lawcheck_single_law(self, tmp_path):
        code, rep = run_to(
            tmp_path,
            ["lawcheck", "--instance", "unitary", "--law", "dagger_involution",
             "--trials", "10", "--seed", "3"],
        )
        assert code == 0 and len(rep["result"]["reports"]) == 1


class TestExitCodes:
    def test_malformed_json_is_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"dom": ')
        assert cli.run(["compose", str(p), str(p)]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_missing_file_is_2(self):
        assert cli.run(["compose", "/nonexistent.json", "/nonexistent.json"]) == 2

    def test_mismatched_compose_is_2(self, tmp_path):
        f = write(tmp_path, "f.json", pfn_json(2, 2, []))
        g = write(tmp_path, "g.json", pfn_json(3, 3, []))
        assert cli.run(["compose", f, g, "--out", str(tmp_path / "o.json")]) == 2

    def test_failed_roundtrip_is_1(self, tmp_path, monkeypatch):
        # A rebuild that returns another valid channel must fail the round trip.
        c = qu.random_channel(2, 2, 2, np.random.default_rng(4))
        p = write(tmp_path, "c.json", channel_json(c))
        monkeypatch.setattr(pl, "unitary_to_channel",
                            lambda u, anc, env: qu.identity_channel(c.din))
        code = cli.run(["roundtrip", p, "--out", str(tmp_path / "o.json")])
        assert code == 1

    @pytest.mark.parametrize("instance, law, oracle", [
        ("aux-pinj", "dagger_involution", "dagger"),
        ("ext-aux-pinj", "dagger_involution", "dagger"),
        ("pfn-large", "dagger_involution", "dagger"),
        ("pinj-large", "wellpointed", "points"),
        ("cptp", "ridm_of_invertible", "dagger or enumerate_mors"),
        ("pinj-large", "quotient_congruence", "enumerate_mors"),  # the first it lacks, sorted
    ], ids=["aux-pinj", "ext-aux-pinj", "pfn-large", "pinj-large", "cptp",
            "pinj-large-two-lacking"])
    def test_missing_oracle_names_the_instance_as_typed(self, capsys, instance, law, oracle):
        argv = ["lawcheck", "--instance", instance, "--law", law]
        assert cli.run(argv) == 2
        assert capsys.readouterr().err == f"error: instance '{instance}' has no {oracle} oracle\n"

    def test_lawcheck_without_instance_is_2(self):
        assert cli.run(["lawcheck"]) == 2

    def test_unknown_law_is_2(self):
        assert cli.run(["lawcheck", "--instance", "pfn", "--law", "nope"]) == 2

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_nonpositive_trials_is_2(self, capsys, trials):
        assert cli.run(["lawcheck", "--instance", "cptp", "--trials", trials]) == 2
        assert "--trials must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("instance", ["pinj", "pfn-large"])
    def test_negative_seed_is_2(self, capsys, instance):
        assert cli.run(["lawcheck", "--instance", instance, "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: --seed must be nonnegative, got -1\n"

    @pytest.mark.parametrize("verb, count", [
        *[pytest.param(verb, 2, id=verb)
          for verb in ["bennett-of", "pfn-of", "dilate", "kraus", "channel-of-unitary",
                       "extract-unitary", "inv", "roundtrip"]],
        *[pytest.param(verb, count, id=f"{verb}-{count}")
          for verb in ["compose", "tensor", "aux-equal", "ext-equal"] for count in (1, 3)],
    ])
    def test_wrong_arity_is_2(self, tmp_path, capsys, verb, count):
        c = write(tmp_path, "c.json", channel_json(qu.dephasing_channel(2)))
        assert cli.run([verb, *[c] * count, "--out", str(tmp_path / "o.json")]) == 2
        wanted = "one input" if count == 2 else "2 inputs"
        assert f"{verb} takes {wanted}, got {count}" in capsys.readouterr().err

    def test_inputs_to_a_verb_without_inputs_are_2_and_unread(self, capsys):
        # The file does not exist, so reading it would fail with "cannot read".
        assert cli.run(["lawcheck", "/nonexistent.json", "--instance", "pinj"]) == 2
        assert capsys.readouterr() == ("", "error: lawcheck takes no inputs, got 1\n")

    @pytest.mark.parametrize("din, dout", [(0, 2), (2, 0)])
    def test_zero_dimension_channel_is_2(self, tmp_path, capsys, din, dout):
        c = write(tmp_path, "c.json", {"din": din, "dout": dout,
                                       "choi": {"rows": 0, "cols": 0, "entries": []}})
        assert cli.run(["dilate", c]) == 2
        err = capsys.readouterr().err
        assert "bad channel" in err and f"din={din}, dout={dout}" in err

    def test_non_finite_choi_is_2(self, tmp_path, capsys):
        data = channel_json(qu.identity_channel(2))
        data["choi"]["entries"][1][0] = float("nan")  # json writes NaN
        c = write(tmp_path, "c.json", data)
        assert cli.run(["kraus", c]) == 2
        assert "choi has a non-finite entry" in capsys.readouterr().err

    @pytest.mark.parametrize("verb, data, message", [
        ("bennett-of", {"dom": {"shape": [2]}, "cod": {"shape": [2]}, "graph": [[0, 1.7]]},
         "bad morphism: graph entry 1.7 is not an integer"),
        ("channel-of-unitary", {"rows": -1, "cols": -1, "entries": [[1, 0]]},
         "bad matrix: rows and cols must be nonnegative"),
        ("channel-of-unitary", {"rows": 1.7, "cols": 1, "entries": [[1, 0]]},
         "bad matrix: rows 1.7 is not an integer"),
        ("dilate", {"din": 1.9, "dout": 1,
                    "choi": {"rows": 1, "cols": 1, "entries": [[1, 0]]}},
         "bad channel: din 1.9 is not an integer"),
        ("bennett-of", {"dom": {"shape": [2.5]}, "cod": {"shape": [2]}, "graph": []},
         "bad morphism: dom shape entry 2.5 is not an integer"),
        ("pfn-of", {"base": "pinj", "garbage_shape": [1.5],
                    "core": {"dom": {"shape": [1]}, "cod": {"shape": [1]}, "graph": []}},
         "bad garbage-carrying morphism: garbage_shape entry 1.5 is not an integer"),
        ("inv", {"din": True, "dout": 1,
                 "choi": {"rows": 1, "cols": 1, "entries": [[1, 0]]}},
         "bad channel: din True is not an integer"),
        ("inv", 5, "bad morphism: morphism must be an object, got int"),
        *[("bennett-of", {"dom": {"shape": [2]}, "cod": {"shape": [2]}, "graph": graph},
           "bad morphism: graph must be a list of [x, y] pairs")
          for graph in ([[0, 1, 1]], [[0]], [7], {"0": 1}, "ab")],
        ("bennett-of", {"dom": {"shape": 2}, "cod": {"shape": [2]}, "graph": []},
         "bad morphism: dom shape 2 is not a list"),
        ("bennett-of", {"dom": {"shape": [2]}, "cod": {"shape": 2}, "graph": []},
         "bad morphism: cod shape 2 is not a list"),
        ("bennett-of", [1, 2], "bad morphism: morphism must be an object, got list"),
        ("bennett-of", {"dom": 5, "cod": {"shape": [2]}, "graph": []},
         "bad morphism: dom must be an object, got int"),
        ("bennett-of", {"dom": {"shape": [2]}, "cod": [2], "graph": []},
         "bad morphism: cod must be an object, got list"),
        ("bennett-of", {"dom": {"shape": [2]}, "cod": {"shape": [2]}},
         "bad morphism: morphism has no 'graph' field"),
        ("bennett-of", {"cod": {"shape": [2]}, "graph": []},
         "bad morphism: morphism has no 'dom' field"),
        ("bennett-of", {"dom": {"shape": [2]}, "graph": []},
         "bad morphism: morphism has no 'cod' field"),
        ("bennett-of", {"dom": {}, "cod": {"shape": [2]}, "graph": []},
         "bad morphism: dom has no 'shape' field"),
        ("pfn-of", [1, 2], "bad garbage-carrying morphism: garbage-carrying morphism "
                           "must be an object, got list"),
        ("pfn-of", {"base": "pinj", "garbage_shape": [1]},
         "bad garbage-carrying morphism: garbage-carrying morphism has no 'core' field"),
        ("pfn-of", {"base": "pinj", "garbage_shape": 1, "core": {}},
         "bad garbage-carrying morphism: garbage_shape 1 is not a list"),
        ("pfn-of", {"base": "pinj", "garbage_shape": [1], "core": 7},
         "bad garbage-carrying morphism: core must be an object, got int"),
        *[("dilate", {k: v for k, v in CHANNEL_1.items() if k != drop},
           f"bad channel: channel has no '{drop}' field") for drop in ("din", "dout", "choi")],
        ("dilate", [1, 2], "bad channel: channel must be an object, got list"),
        ("dilate", dict(CHANNEL_1, choi=5), "bad channel: choi must be an object, got int"),
        *[("dilate", dict(CHANNEL_1, choi={k: v for k, v in MATRIX_1.items() if k != drop}),
           f"bad channel: choi has no '{drop}' field") for drop in ("rows", "cols", "entries")],
        ("dilate", dict(CHANNEL_1, choi=dict(MATRIX_1, entries=[5])),
         "bad channel: entries must be a list of [re, im] pairs"),
        *[("channel-of-unitary", {k: v for k, v in MATRIX_1.items() if k != drop},
           f"bad matrix: matrix has no '{drop}' field") for drop in ("rows", "cols", "entries")],
        ("channel-of-unitary", 5, "bad matrix: matrix must be an object, got int"),
        ("channel-of-unitary", dict(MATRIX_1, entries=[5]),
         "bad matrix: entries must be a list of [re, im] pairs"),
        ("channel-of-unitary", dict(MATRIX_1, entries=[[True, False]]),
         "bad matrix: entries must be a list of [re, im] pairs"),
        ("extract-unitary", dict(CHANNEL_1, choi=dict(MATRIX_1, entries=[[True, False]])),
         "bad channel: entries must be a list of [re, im] pairs"),
        ("dilate", {"din": 2, "dout": 2,
                    "choi": qu.matrix_to_json(np.diag([1 + 2e-9, -2e-9, 1 + 2e-9, -2e-9]))},
         "bad channel: choi not PSD: min eigenvalue -2.00e-09"),
    ], ids=["float-graph-entry", "negative-shape", "float-rows", "float-din",
            "float-shape", "float-garbage-shape", "bool-din", "number-for-inv",
            "graph-triple", "graph-single", "graph-number", "graph-object", "graph-string",
            "dom-shape-number", "cod-shape-number", "list-morphism", "number-dom", "list-cod", "no-graph", "no-dom", "no-cod", "no-dom-shape",
            "list-aux", "aux-no-core", "aux-garbage-shape-number", "aux-number-core",
            "no-din", "no-dout", "no-choi", "list-channel", "number-choi",
            "choi-no-rows", "choi-no-cols", "choi-no-entries", "choi-number-entry",
            "matrix-no-rows", "matrix-no-cols", "matrix-no-entries", "number-matrix",
            "matrix-number-entry", "matrix-bool-entry", "choi-bool-entry", "choi-not-psd"])
    def test_bad_json_field_is_2(self, tmp_path, capsys, verb, data, message):
        p = write(tmp_path, "in.json", data)
        assert cli.run([verb, p]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--env", "0", "--env must be a positive divisor of 2, got 0"),
        ("--env", "-2", "--env must be a positive divisor of 2, got -2"),
        ("--anc", "-1", "--anc must be in 0..1 for a 2-dimensional unitary, got -1"),
        ("--anc", "2", "--anc must be in 0..1 for a 2-dimensional unitary, got 2"),
    ], ids=["env-0", "env-negative", "anc-negative", "anc-whole-dimension"])
    def test_bad_pipeline_flag_is_2(self, tmp_path, capsys, flag, value, message):
        p = write(tmp_path, "u.json", qu.matrix_to_json(np.eye(2, dtype=complex)))
        assert cli.run(["channel-of-unitary", p, flag, value]) == 2
        assert message in capsys.readouterr().err

    # Inputs that parse as JSON but that no constructor accepts.  A message
    # that starts with {p} names the first input file.
    @pytest.mark.parametrize("verb, data, message", [
        ("pfn-of", [{"base": "isometry", "garbage_shape": [1], "core": ISO_2x1}],
         "{p}: bad garbage-carrying morphism: visible_fn requires the pinj base"),
        ("aux-equal", [{"base": "isometry", "garbage_shape": [3],
                        "core": qu.matrix_to_json(np.eye(4, 1, dtype=complex))}, AUX_1],
         "{p}: bad garbage-carrying morphism: core rows do not factor as B x E"),
        ("aux-equal", [{"base": "pinj", "garbage_shape": [2],
                        "core": {"dom": {"shape": [1]}, "cod": {"shape": [3]}, "graph": []}}, AUX_1],
         "{p}: bad garbage-carrying morphism: core codomain does not factor as B x E"),
        ("aux-equal", [{"base": "bij", "garbage_shape": [1], "core": {}}, AUX_1],
         "{p}: bad garbage-carrying morphism: unknown base 'bij'"),
        ("aux-equal", [{"base": "isometry", "garbage_shape": [1],
                        "core": qu.matrix_to_json(np.eye(1, 2, dtype=complex))}, AUX_1],
         "{p}: bad garbage-carrying morphism: isometry needs rows >= cols, got 1x2"),
        ("channel-of-unitary", [{"rows": 2, "cols": 2, "entries": [[1, 0]]}],
         "{p}: bad matrix: expected 4 entries, got 1"),
        ("channel-of-unitary", [ISO_2x1], "{p}: bad matrix: unitary must be square, got 2x1"),
        ("kraus", [{"din": 2, "dout": 2, "choi": qu.matrix_to_json(np.eye(2, dtype=complex))}],
         "{p}: bad channel: choi must be 4x4, got (2, 2)"),
    ], ids=["pfn-of-isometry", "aux-rows-do-not-factor", "aux-codomain-does-not-factor",
            "aux-unknown-base", "aux-wide-isometry", "unitary-entry-count",
            "unitary-not-square", "choi-wrong-shape"])
    def test_rejected_input_is_2_with_its_message(self, tmp_path, capsys, verb, data, message):
        paths = [write(tmp_path, f"in{i}.json", d) for i, d in enumerate(data)]
        assert cli.run([verb, *paths]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: " + message.format(p=paths[0]) + "\n"

    @pytest.mark.parametrize("verb", ["aux-equal", "ext-equal"])
    def test_isometry_core_without_columns_is_2_and_named(self, tmp_path, capsys, verb):
        # Refused while it loads, not when its channel is first built.
        data = {"base": "isometry", "garbage_shape": [1], "core": {"rows": 2, "cols": 0, "entries": []}}
        p = write(tmp_path, "m.json", data)
        assert cli.run([verb, p, p]) == 2
        assert capsys.readouterr() == ("", f"error: {p}: bad garbage-carrying morphism: "
                                           "an isometry core needs a nonzero column count and garbage size\n")

    def test_zero_dimensional_unitary_is_2(self, tmp_path, capsys):
        # Not "--anc must be in 0..-1": the unitary itself is refused.
        p = write(tmp_path, "u.json", {"rows": 0, "cols": 0, "entries": []})
        assert cli.run(["channel-of-unitary", p]) == 2
        assert capsys.readouterr().err == (
            f"error: {p}: bad matrix: a 0x0 unitary has no channel; "
            "the unitary must be at least 1x1\n")

    def test_overflowing_unitary_is_2_with_no_warning(self, tmp_path, capsys):
        # |1e308 + 1e308 i|^2 overflows to inf in U^dag U: a verdict, not a
        # warning, so warnings as errors change nothing.
        p = write(tmp_path, "m.json", {"rows": 1, "cols": 1, "entries": [[1e308, 1e308]]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.run(["channel-of-unitary", p]) == 2
        assert capsys.readouterr() == ("", f"error: {p}: bad matrix: U^dag U != I within 1e-9\n")

    def test_unwritable_out_is_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "o.json"
        f = write(tmp_path, "f.json", pfn_json(2, 2, [(0, 1)]))
        assert cli.run(["compose", f, f, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
        assert not out.parent.exists()

    def test_too_deeply_nested_input_is_2(self, tmp_path, capsys):
        p = tmp_path / "deep.json"
        p.write_text("[" * 200_000)
        assert cli.run(["bennett-of", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: ") and "recursion" in err

    def test_undecodable_input_names_it(self, tmp_path, capsys):
        p = tmp_path / "utf16.json"
        p.write_bytes(b"\xff\xfe\x00")
        assert cli.run(["bennett-of", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: ") and "can't decode" in err

    @pytest.mark.parametrize("verb", ["channel-of-unitary", "dilate"])
    def test_entry_too_large_for_a_float_is_2(self, tmp_path, capsys, verb):
        # complex() raises OverflowError on a JSON integer past the float range.
        m = {"rows": 1, "cols": 1, "entries": [[10**400, 0]]}
        data = m if verb == "channel-of-unitary" else {"din": 1, "dout": 1, "choi": m}
        p = write(tmp_path, "big.json", data)
        assert cli.run([verb, p]) == 2
        assert capsys.readouterr().err.endswith("entries must be a list of [re, im] pairs\n")

    def test_integer_past_the_digit_limit_names_the_input(self, tmp_path, capsys):
        p = tmp_path / "digits.json"
        p.write_text('{"dom":{"shape":[2]},"cod":{"shape":[2]},"graph":[[0,1%s]]}' % ("0" * 5000))
        assert cli.run(["bennett-of", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: ") and "digits" in err

    def test_parser_bug_is_not_malformed_input(self, tmp_path, monkeypatch):
        # Only a ValueError is an input error; a parser's TypeError is a bug.
        def buggy(data):
            raise TypeError("parser bug")

        kinds, action = cli.VERBS["bennett-of"]
        assert kinds == (cli._MOR,)
        monkeypatch.setitem(cli.VERBS, "bennett-of", (((cli._MOR[0], buggy),), action))
        f = write(tmp_path, "f.json", pfn_json(1, 1, []))
        with pytest.raises(TypeError, match="parser bug"):
            cli.run(["bennett-of", f])

    def test_internal_numerical_failure_is_3(self, tmp_path, capsys, monkeypatch):
        # numpy's LinAlgError subclasses ValueError, but it is no input error.
        def failing(args, c):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setitem(cli.VERBS, "dilate", (cli.VERBS["dilate"][0], failing))
        c = write(tmp_path, "c.json", channel_json(qu.identity_channel(2)))
        assert cli.run(["dilate", c]) == 3
        err = capsys.readouterr().err
        assert err == "internal error: Eigenvalues did not converge\n"

    def test_numerical_failure_while_loading_is_3(self, tmp_path, capsys, monkeypatch):
        # A LinAlgError from a parser is no malformed input either: the
        # channel's PSD check falls back from cholesky to eigvalsh, and both fail.
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        c = write(tmp_path, "c.json", channel_json(qu.identity_channel(2)))
        monkeypatch.setattr(np.linalg, "cholesky", failing)
        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        assert cli.run(["dilate", c]) == 3
        assert capsys.readouterr().err == "internal error: Eigenvalues did not converge\n"

    def test_non_finite_matrix_is_2(self, tmp_path, capsys):
        m = qu.matrix_to_json(np.eye(2, dtype=complex))
        m["entries"][0][1] = float("inf")
        p = write(tmp_path, "u.json", m)
        assert cli.run(["channel-of-unitary", p]) == 2
        assert "unitary matrix has a non-finite entry" in capsys.readouterr().err


class TestStreams:
    def stdin(self, monkeypatch, data):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(json.dumps(data).encode())))

    @pytest.mark.parametrize("args", [["-"], []], ids=["dash", "no-argument"])
    def test_input_from_stdin(self, tmp_path, monkeypatch, args):
        f = pfn_json(2, 1, [(0, 0), (1, 0)])
        self.stdin(monkeypatch, f)
        code, rep = run_to(tmp_path, ["bennett-of", *args])
        assert code == 0 and rep["result"]["morphism"]["graph"] == [[0, 0], [1, 1]]
        path = write(tmp_path, "f.json", f)
        assert rep == run_to(tmp_path, ["bennett-of", path])[1]

    def test_bad_stdin_input_is_named(self, monkeypatch, capsys):
        self.stdin(monkeypatch, {"dom": {"shape": [2]}, "cod": {"shape": [1]}, "graph": [[0, 3]]})
        assert cli.run(["bennett-of", "-"]) == 2
        assert capsys.readouterr().err.startswith("error: <stdin>: bad morphism: ")

    @pytest.mark.parametrize("argv_factory", [
        lambda t: ["compose", t + "/f.json", t + "/f.json"],
        lambda t: ["dilate", t + "/c.json"],
        lambda t: ["lawcheck", "--instance", "pinj", "--law", "restriction_i"],
    ], ids=["compose", "dilate", "lawcheck"])
    def test_report_to_stdout_matches_out_file(self, tmp_path, capsys, argv_factory):
        write(tmp_path, "f.json", pfn_json(2, 2, [(0, 1)]))
        write(tmp_path, "c.json", channel_json(qu.random_channel(2, 2, 2, np.random.default_rng(5))))
        argv = argv_factory(str(tmp_path))
        out = tmp_path / "o.json"
        assert cli.run(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert cli.run(argv) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()


class TestDeterminism:
    @pytest.mark.parametrize("argv_factory", [
        lambda t: ["lawcheck", "--instance", "cptp", "--trials", "15", "--seed", "8"],
        lambda t: ["compose", t + "/f.json", t + "/g.json"],
        lambda t: ["dilate", t + "/c.json"],
        lambda t: ["roundtrip", t + "/c.json"],
    ])
    def test_byte_identical_reruns(self, tmp_path, argv_factory):
        write(tmp_path, "f.json", pfn_json(2, 2, [(0, 1)]))
        write(tmp_path, "g.json", pfn_json(2, 2, [(1, 1)]))
        write(tmp_path, "c.json",
              channel_json(qu.random_channel(2, 2, 2, np.random.default_rng(5))))
        argv = argv_factory(str(tmp_path))
        o1, o2 = tmp_path / "o1.json", tmp_path / "o2.json"
        assert cli.run(argv + ["--out", str(o1)]) == cli.run(argv + ["--out", str(o2)])
        assert o1.read_bytes() == o2.read_bytes()

    def test_report_carries_metadata(self, tmp_path):
        f = write(tmp_path, "f.json", pfn_json(1, 1, []))
        code, rep = run_to(tmp_path, ["compose", f, f, "--seed", "42"])
        assert code == 0
        assert rep["verb"] == "compose" and rep["seed"] == 42
        assert len(rep["inputs_digest"]) == 16
        assert rep["tolerances"]["structural"] == qu.ATOL


def every_verb(tmp_path):
    """The invocation of each verb that acceptance criterion 11 runs."""
    rng = np.random.default_rng(0)
    f = write(tmp_path, "f.json", pfn_json(2, 2, [(0, 1)]))
    g = write(tmp_path, "g.json", pfn_json(2, 2, [(1, 0)]))
    aux1 = write(tmp_path, "a1.json", aux_json(2, 2, 2, [(0, 0)]))
    aux2 = write(tmp_path, "a2.json", aux_json(2, 2, 2, [(0, 1)]))
    chan = write(tmp_path, "c.json", channel_json(qu.random_channel(2, 2, 2, rng)))
    uni = write(tmp_path, "u.json", qu.matrix_to_json(qu.haar_unitary(2, rng).mat))
    pure = write(tmp_path, "p.json", channel_json(qu.channel_of_unitary(qu.haar_unitary(2, rng))))
    return {
        "lawcheck": ["lawcheck", "--instance", "pinj", "--trials", "10", "--seed", "1"],
        "compose": ["compose", f, g], "tensor": ["tensor", f, g], "bennett-of": ["bennett-of", f],
        "pfn-of": ["pfn-of", aux1], "aux-equal": ["aux-equal", aux1, aux2],
        "ext-equal": ["ext-equal", aux1, aux2], "dilate": ["dilate", chan],
        "kraus": ["kraus", chan], "channel-of-unitary": ["channel-of-unitary", uni],
        "extract-unitary": ["extract-unitary", pure], "inv": ["inv", pure],
        "roundtrip": ["roundtrip", chan],
    }


def random_json(rng, depth=0):
    """A random JSON value heavy in row-like lists and in strings that look like them."""
    pick = rng.random()
    if depth > 3 or pick < 0.35:
        return rng.choice([0, -1, 7, 1.5, -0.0, 1e-09, float("nan"), float("inf"), True,
                           False, None, "", ",", "[", "],[", '"', "\u00e9", "a\nb", {}, []])
    if pick < 0.7:
        return [random_json(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if pick < 0.85:
        return [[rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
                for _ in range(rng.randint(1, 4))]
    return {rng.choice("abc,[\""): random_json(rng, depth + 1) for _ in range(rng.randint(0, 3))}


class TestReportWriter:
    """The report is exactly json.dumps(report, sort_keys=True, indent=2) + "\\n"."""

    def test_every_verb_report_matches_json_dumps(self, tmp_path, monkeypatch):
        reports = []
        write_report = cli._write

        def spy(value, pad=""):
            text = write_report(value, pad)
            if not pad:
                reports.append((value, text))
            return text

        monkeypatch.setattr(cli, "_write", spy)
        invocations = every_verb(tmp_path)
        assert set(invocations) == set(cli.VERBS)
        for argv in invocations.values():
            out = tmp_path / "o.json"
            assert cli.run(argv + ["--out", str(out)]) in (0, 1)
            (report, text), = reports
            reports.clear()
            assert out.read_text() == text + "\n"
            assert text == json.dumps(report, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [
        {"s": ["a,b", "[x]", "],[", 'say "hi"', "line\nbreak", "caf\u00e9 \u4e2d"]},
        [["a,b", "c"], ["]", "[", '"']],
        [], {}, (), [[]], [[], [1]], [[1], []], [{}], [[{}]], [[[]]],
        [[1, 2, 3], [4], [5, 6]],
        [[[1, 2]], [[3]]], [[1, [2]], [3]], [[[1]], [2]],
        [1, [2, 3]], [[1], 2, [[3]]], [[1, 2], 3], [[1, 2], "x"],
        [[True, None, -1, 1e-09, float("nan"), float("inf"), -float("inf"), -0.0]],
        {"b": [[0, 1]], "a": {"d": [[2.5, -3]], "c": True, "e": None}},
        ((0, 1), (2, 3)), [(0, 1), [2, 3]],
        # rows that take the int-rows format, and rows that must not
        [[1, 2, 3], [4, 5, 6]], ((-1, 10 ** 30),), ((5,), (6,)), [[0, 0]],
        [[1, 2], [3, True]], [[1, 2], [3.0, 4]], [[1, 2], [3]], [(1, 2), [3, 4]],
        [[1, 2], [3, None]], [[1, 2], "ab"], [[1, 2], [3, [4]]],
        True, None, -7, 1e-09, float("nan"), "x\u00e9",
    ], ids=repr)
    def test_matches_json_dumps(self, value):
        assert cli._write(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_matches_json_dumps_on_random_values(self):
        rng = random.Random(0)
        for _ in range(3000):
            value = random_json(rng)
            assert cli._write(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_matches_json_dumps_on_rendered_values(self):
        rng = np.random.default_rng(3)
        n = 2000
        f = PartialFn(FinObj.of_size(n), FinObj.of_size(n),
                      tuple((x, int(y)) for x, y in enumerate(rng.permutation(n)) if x % 3))
        assert f.to_json()["graph"] == [[x, y] for x, y in f.graph]
        matrices = [np.array([[-0.0, 1e-300j], [1 + 2j, -1e-300]]),
                    np.array([[0.5, -0.0], [1e-300, 2.0]]), qu.ginibre(4, 6, rng)[::2, 1::2].T]
        report = {"graph": f.to_json(), "channel": qu.random_channel(2, 3, 2, rng).to_json(),
                  "unitary": qu.haar_unitary(3, rng).to_json(),
                  "empty": qu.matrix_to_json(np.zeros((0, 2))),
                  "matrices": [qu.matrix_to_json(m) for m in matrices]}
        assert cli._write(report) == json.dumps(report, sort_keys=True, indent=2)

        # The verbs' reports at the benchmark's sizes, each graph a stored tuple.
        def table(n, defined, injective=False):
            outs = rng.permutation(n) if injective else rng.integers(0, n, n)
            xs = sorted(rng.choice(n, defined, replace=False).tolist())
            cls = PartialInj if injective else PartialFn
            return cls(FinObj.of_size(n), FinObj.of_size(n), tuple((x, int(outs[x])) for x in xs))

        def act(verb, *inputs):
            return cli.VERBS[verb][1](None, *inputs)[0]

        mediated = [AuxMorphism(PartialInj(FinObj.of_size(4), FinObj((2, 4)), tuple(graph)), 2, 4)
                    for graph in ([(x, x % 2 * 4 + x) for x in range(4)],
                                  [(x, x % 2 * 4 + 3 - x) for x in range(4)])]
        reports = {
            "tensor": act("tensor", table(64, 46), table(64, 49)),
            "bennett-of": act("bennett-of", table(1024, 768)),
            "inv": act("inv", table(1024, 768, injective=True)),
            "compose": act("compose", table(1024, 768), table(1024, 768)),
            "empty": cli._morphism(cl.empty_map(FinObj((2, 3)), FinObj((0,)))),
            "shaped": cli._morphism(cl.coherence("interchange", (2, 3, 1, 2))),
            "aux-equal": act("aux-equal", *mediated),
        }
        assert len(reports["tensor"]["morphism"]["graph"]) == 2254
        assert reports["inv"]["reversible"] and len(reports["inv"]["inverse"]["graph"]) == 768
        assert reports["aux-equal"]["mediator"][0]["map"]["graph"] == ((0, 3), (1, 2), (2, 1), (3, 0))
        for report in reports.values():
            assert cli._write(report) == json.dumps(report, sort_keys=True, indent=2)

    def test_non_string_key_is_refused(self):
        # json.dumps would write the key 1 as "1"; the writer refuses it.
        with pytest.raises(TypeError):
            cli._write({1: 2})


class TestParser:
    def test_reuse_leaks_no_state(self, tmp_path, monkeypatch):
        seen = []
        kinds, compose = cli.VERBS["compose"]

        def spy(args, f, g):
            seen.append(vars(args))
            return compose(args, f, g)

        monkeypatch.setitem(cli.VERBS, "compose", (kinds, spy))
        f = write(tmp_path, "f.json", pfn_json(2, 2, [(0, 1)]))
        code, rep = run_to(tmp_path, ["lawcheck", "--instance", "pinj", "--law", "restriction_i",
                                      "--trials", "5", "--seed", "3", "--anc", "1", "--env", "2"])
        assert code == 0 and len(rep["result"]["reports"]) == 1
        code, rep = run_to(tmp_path, ["compose", f, f])
        assert code == 0 and rep["seed"] == 0
        assert seen == [{"verb": "compose", "inputs": [f, f], "instance": None, "law": "all",
                         "trials": 200, "seed": 0, "anc": 0, "env": 1,
                         "out": str(tmp_path / "report.json")}]
        assert cli._parser() is cli._parser()

    def test_unknown_verb_exits_2_through_argparse(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.run(["nope"])
            assert exc.value.code == 2
            assert "invalid choice: 'nope'" in capsys.readouterr().err
