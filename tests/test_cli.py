import cmath
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvswap import cli, dv, estimators as est, fock, protocols as proto

from conftest import Beamsplitter, apply_beamsplitter, count_calls, pad, squared_eigenvalue_sum


def run_cli(tmp_path, command, config, fmt="json", seed=None, name="cfg.json"):
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out_path = tmp_path / f"out_{command}_{fmt}.txt"
    argv = [command, "--config", str(cfg_path), "--out", str(out_path), "--format", fmt]
    if seed is not None:
        argv += ["--seed", str(seed)]
    code = cli.main(argv)
    if code == 0 and fmt == "json":
        # every document is strict JSON in json.dumps's two-space layout
        text = out_path.read_text(encoding="utf-8")
        strict = json.loads(text, parse_constant=lambda name: pytest.fail(f"document holds {name}"))
        if text != json.dumps(strict, indent=2):  # pytest's diff of a long document takes minutes
            pytest.fail("document text is not json.dumps(document, indent=2)")
    return code, out_path


def test_overlap_vacuum_exact_one(tmp_path):
    config = {
        "state_a": {"kind": "vacuum", "cutoff": [2]},
        "state_b": {"kind": "vacuum", "cutoff": [2]},
        "shots": 100,
        "runs": 2,
        "seed": 5,
    }
    code, out = run_cli(tmp_path, "overlap", config)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["results"]["grand_mean_re"] == 1.0
    assert doc["tool"]["name"] == "cvswap"
    assert doc["config"]["seed"] == 5


def test_overlap_parallel_pairs(tmp_path):
    config = {
        "states": [
            {"kind": "tmss", "r": 1.0, "cutoff": [25, 25]},
            {"kind": "vacuum", "cutoff": [0]},
            {"kind": "vacuum", "cutoff": [0]},
        ],
        "pairs": [[0, 2], [1, 3]],
        "M": None,
        "shots": 400,
        "runs": 3,
        "seed": 11,
    }
    code, out = run_cli(tmp_path, "overlap", config)
    assert code == 0
    doc = json.loads(out.read_text())
    grand = doc["results"]["grand_mean_re"]
    assert abs(grand - 1.0 / math.cosh(1.0) ** 2) < 0.1
    assert len(doc["results"]["runs"]) == 3


def test_cli_documents_bit_identical(tmp_path):
    config = {
        "state_a": {"kind": "squeezed", "z": 0.8, "cutoff": [25]},
        "state_b": {"kind": "squeezed", "z": -0.8, "cutoff": [25]},
        "M": 25,
        "shots": 500,
        "runs": 2,
        "seed": 9,
    }
    _, out1 = run_cli(tmp_path, "overlap", config, name="a.json")
    _, out2 = run_cli(tmp_path, "overlap", config, name="b.json")
    text1 = out1.read_text()
    (tmp_path / "out_overlap_json.txt").unlink()
    _, out3 = run_cli(tmp_path, "overlap", config, name="c.json")
    assert text1 == out2.read_text() == out3.read_text()


_ANY_CHARACTER = st.characters(exclude_categories=())  # lone surrogates too
_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.integers(2 ** 64, 2 ** 200) | st.integers(-2 ** 200, -2 ** 64)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
    | st.sampled_from([-0.0, 5e-324, 1e-310, 1e300, -1e300, np.float64(-0.0), np.float64(1e-310)])
    | st.text(_ANY_CHARACTER) | st.sampled_from(['"\\/\b\f\n\r\t', "\x00\x1f\x7f", "é€😀\u2028", ""])
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(_ANY_CHARACTER), inner, max_size=4),
    max_leaves=40,
)


@settings(deadline=None, max_examples=300)
@given(_JSON_VALUES)
def test_document_text_is_the_stdlib_indented_text(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [np.int64(3), 1j, {1, 2}, {"runs": [{"seed": np.uint32(7)}]}])
def test_document_text_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        cli._json_text(value)


def test_seed_flag_overrides_config(tmp_path):
    config = {
        "state_a": {"kind": "squeezed", "z": 0.6, "cutoff": [20]},
        "state_b": {"kind": "squeezed", "z": -0.6, "cutoff": [20]},
        "M": 20,
        "shots": 300,
        "seed": 1,
    }
    _, out1 = run_cli(tmp_path, "overlap", config, seed=2, name="a.json")
    doc = json.loads(out1.read_text())
    assert doc["config"]["seed"] == 2


def test_output_settings_from_config(tmp_path):
    out_path = tmp_path / "from_config.csv"
    config = {
        "state_a": {"kind": "vacuum", "cutoff": [2]},
        "state_b": {"kind": "vacuum", "cutoff": [2]},
        "shots": 20,
        "seed": 1,
        "out": str(out_path),
        "format": "csv",
    }
    cfg_path = tmp_path / "cfg_out.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    code = cli.main(["overlap", "--config", str(cfg_path)])
    assert code == 0
    assert out_path.exists()
    assert out_path.read_text().startswith("run,")


def test_exit_code_config_error(tmp_path):
    code, _ = run_cli(tmp_path, "overlap", {"protocol": "perm"})
    assert code == 2
    code, _ = run_cli(tmp_path, "overlap", {"state_a": {"kind": "nonsense", "cutoff": [2]},
                                            "state_b": {"kind": "vacuum", "cutoff": [2]}})
    assert code == 2


def test_exit_code_numerical_failure(tmp_path):
    config = {
        "state_a": {"kind": "tmss", "r": 1.0, "cutoff": [3, 3]},
        "state_b": {"kind": "vacuum", "cutoff": [3]},
    }
    code, _ = run_cli(tmp_path, "overlap", config)
    assert code == 1


COHERENT_PLANNERS = {
    "chernoff": est.cutoff_for_coherent_chernoff,
    "normal_quantile": est.cutoff_for_coherent_normal,
    "exact_tail": est.cutoff_for_coherent_exact,
}


@pytest.mark.parametrize("method", COHERENT_PLANNERS)
def test_cutoff_plan_json_and_csv(tmp_path, method):
    # energy 36 is the paper's example, inside every planner's range
    config = {"family": "coherent", "energy": 36.0, "eps": 0.01, "method": method}
    code, out = run_cli(tmp_path, "cutoff-plan", config)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["results"]["method"] == method
    assert doc["results"]["M"] == COHERENT_PLANNERS[method](36.0, 0.01).M
    assert doc["results"]["bound"] <= 0.01
    code, out = run_cli(tmp_path, "cutoff-plan", config, fmt="csv")
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("M,")
    assert len(lines) == 2


def test_fig2_table(tmp_path):
    config = {"r_list": [1.0], "m_min": 4, "m_max": 10, "prep_cutoff": 40}
    code, out = run_cli(tmp_path, "fig2", config, fmt="csv")
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,M,closed_form,simulated,abs_diff,bound"
    assert len(lines) == 1 + 7
    for line in lines[1:]:
        fields = line.split(",")
        assert abs(float(fields[4])) < 1e-9
        m = int(fields[1])
        assert float(fields[5]) == pytest.approx(math.tanh(1.0) ** (2 * (m + 1)), rel=1e-12)


def test_fig2_default_rows_hold_the_two_mode_squeezed_oracle(tmp_path):
    # the default rows (r = 0.8, 1.0, 1.2, M = 4-20, prep cutoff 40) against
    # the same pair made the other way: a two-mode squeezed state at cutoff
    # (40, 40), padded to (80, 80) and split by the 50:50 beamsplitter,
    # within criterion 3's tolerance 10 tanh^{2(cap+1)} r
    code, out = run_cli(tmp_path, "fig2", {})
    assert code == 0
    rows = json.loads(out.read_text())["results"]["rows"]
    assert len(rows) == 3 * 17
    for r in (0.8, 1.0, 1.2):
        tmss = fock.prepare("tmss", fock.CutoffSpec((40, 40)), r=r)
        split = apply_beamsplitter(pad(tmss, (80, 80)), Beamsplitter(math.pi / 4, 0.0, 0, 1))
        want = est.swap2m_profile(split, range(4, 21))
        got = [row["simulated"] for row in rows if row["r"] == r]
        assert np.max(np.abs(np.subtract(got, want))) <= 10.0 * math.tanh(r) ** 82


def test_fig2_pair_leaking_past_the_limit_is_a_numerical_failure(tmp_path, capsys):
    # at prep cutoff 5 each squeezed state is prepared at cutoff 10, where
    # S(0.8)|0> leaks 2.1e-3, above LEAK_HARD
    code, out = run_cli(tmp_path, "fig2", {"r_list": [0.8], "m_min": 0, "m_max": 10, "prep_cutoff": 5})
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("numerical contract failure: squeezed preparation leaks 2.1")
    assert err.count("\n") == 1


def test_perm_command_matches_overlap(tmp_path):
    state_a = {"kind": "squeezed", "z": 0.5, "cutoff": [15]}
    state_b = {"kind": "coherent", "alpha": 0.4, "cutoff": [15]}
    code, out_p = run_cli(
        tmp_path, "perm",
        {"states": [state_a, state_b], "shots": 800, "runs": 2, "seed": 21},
        name="perm.json",
    )
    assert code == 0
    code, out_o = run_cli(
        tmp_path, "overlap",
        {"state_a": state_a, "state_b": state_b, "M": 15, "shots": 800, "runs": 2, "seed": 21},
        name="ov.json",
    )
    assert code == 0
    perm_doc = json.loads(out_p.read_text())
    ov_doc = json.loads(out_o.read_text())
    assert perm_doc["results"]["runs"] == ov_doc["results"]["runs"]


def test_two_copy_command_pure(tmp_path):
    config = {
        "purification": {"kind": "tmss", "r": 0.3, "cutoff": [3, 3]},
        "copies": 2,
        "shots": 500,
        "runs": 1,
        "seed": 3,
    }
    code, out = run_cli(tmp_path, "two-copy", config)
    assert code == 0
    # single-run documents must still be strict JSON (no NaN constants)
    doc = json.loads(out.read_text(), parse_constant=lambda _: pytest.fail("non-strict JSON"))
    tanh_sq = math.tanh(0.3) ** 2
    purity = (1 - tanh_sq) / (1 + tanh_sq)
    assert doc["results"]["exact_expectation"] == pytest.approx(purity ** 2, abs=1e-3)
    assert doc["results"]["std_of_means"] is None
    grand = doc["results"]["grand_mean_re"]
    assert abs(grand - purity ** 2) < 0.2


def test_two_copy_command_pure_rho(tmp_path):
    # a product purification leaves rho pure, so the estimate is exactly 1
    config = {
        "purification": {"kind": "basis", "pattern": [1, 0], "cutoff": [2, 2]},
        "copies": 2,
        "shots": 200,
        "seed": 9,
    }
    code, out = run_cli(tmp_path, "two-copy", config)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["results"]["exact_expectation"] == pytest.approx(1.0, abs=1e-12)
    assert doc["results"]["grand_mean_re"] == pytest.approx(1.0, abs=1e-12)


def test_two_copy_command_guard_fires(tmp_path, capsys, monkeypatch):
    # the parity contraction holds each copy's ket and bra, here 15^2
    # amplitudes each: it runs at the default limit and is refused, with
    # one line, at a limit that holds the ket but not both
    config = {
        "purification": {"kind": "tmss", "r": 0.6, "cutoff": [14, 14]},
        "copies": 2,
        "shots": 100,
        "seed": 3,
    }
    code, out = run_cli(tmp_path, "two-copy", config, name="default.json")
    assert code == 0
    out.unlink()
    monkeypatch.setattr(fock, "MAX_WORKING_ELEMENTS", 400)
    code, out = run_cli(tmp_path, "two-copy", config, name="low.json")
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err
    assert err == ("resource limit: working space of 450 entries (2 x 225) exceeds the "
                   "desk-scale limit; reduce cutoffs, mode count or ensemble rank\n")


def test_compile_cost_command(tmp_path):
    config = {
        "training": [{"kind": "basis", "pattern": [1, 0], "cutoff": [6, 6]}],
        "u_gates": [{"gate": "phase", "phi": 0.3, "mode": 0}],
        "v_gates": [{"gate": "phase", "phi": 0.3, "mode": 0}],
        "shots_per_term": 400,
        "seed": 5,
    }
    code, out = run_cli(tmp_path, "compile-cost", config)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["results"]["cost"] == pytest.approx(0.0, abs=1e-9)
    assert doc["results"]["exact_cost"] == pytest.approx(0.0, abs=1e-12)
    assert doc["results"]["term_leaks"] == [0.0]


@pytest.mark.parametrize("alpha", [2.0, 2.5])
def test_compile_cost_reports_each_term_leak(tmp_path, alpha):
    # D(alpha) on the vacuum at A cutoff 19 pushes its Poisson tail past
    # the cutoff (1.0e-8 and 9.3e-6), more from |1>; the empty circuit V
    # pushes nothing
    leak = 1.0 - sum(math.exp(-alpha ** 2) * alpha ** (2 * n) / math.factorial(n) for n in range(20))
    vacuum = {"kind": "basis", "pattern": [0, 0], "cutoff": [19, 0]}
    code, out = run_cli(tmp_path, "compile-cost", {
        "training": [vacuum, {**vacuum, "pattern": [1, 0]}],
        "u_gates": [{"gate": "displacement", "alpha": alpha, "mode": 0}], "shots_per_term": 10})
    assert code == 0
    leaks = json.loads(out.read_text())["results"]["term_leaks"]
    assert len(leaks) == 2 and leaks[0] == pytest.approx(leak, rel=1e-6) and leaks[1] > leaks[0]


def test_compile_circuit_leak_beyond_the_limit_is_a_numerical_failure(tmp_path, capsys):
    # D(4) on |2> at A cutoff 19 pushes a third of the weight past it
    code, out = run_cli(tmp_path, "compile-cost", {
        "training": [{"kind": "basis", "pattern": [2, 0], "cutoff": [19, 0]}],
        "u_gates": [{"gate": "displacement", "alpha": 4, "mode": 0}], "shots_per_term": 10})
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("numerical contract failure: compiling circuit U on a training state leaks")
    assert err.count("\n") == 1


def test_hybrid_command(tmp_path):
    config = {
        "state_a": {"qubit": [[1, 0], [0, 0]], "cv": {"kind": "coherent", "alpha": 0.5, "cutoff": [12]}},
        "state_b": {"qubit": [[1, 0], [0, 0]], "cv": {"kind": "vacuum", "cutoff": [12]}},
        "M": 12,
        "shots": 4000,
        "runs": 2,
        "seed": 6,
    }
    code, out = run_cli(tmp_path, "hybrid", config)
    assert code == 0
    doc = json.loads(out.read_text())
    want = math.exp(-0.25)
    assert doc["results"]["exact_expectation"] == pytest.approx(want, abs=1e-6)
    assert abs(doc["results"]["grand_mean_re"] - want) < 0.05


def test_qudit_basis_command(tmp_path):
    code, out = run_cli(tmp_path, "qudit-basis", {"d": 3, "basis": "w"})
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["results"]["multiplicity_plus"] == 6
    assert doc["results"]["multiplicity_minus"] == 3
    assert doc["results"]["verified"] is True
    mat = np.array(doc["results"]["matrix_re"]) + 1j * np.array(doc["results"]["matrix_im"])
    assert np.max(np.abs(mat.conj().T @ mat - np.eye(9))) < 1e-12


def test_qudit_basis_document_beyond_the_cap_is_a_resource_limit(tmp_path, capsys, monkeypatch):
    # d = 16 emits 2^16 matrix entries, d = 17 more: refused before any
    # basis is built, with one line
    built = count_calls(monkeypatch, dv, "swap_eigenbasis")
    code, out = run_cli(tmp_path, "qudit-basis", {"d": 17})
    assert code == 1 and not out.exists() and built == []
    err = capsys.readouterr().err
    assert err.startswith("resource limit: a qudit basis of d = 17 emits 83521 matrix entries")
    assert err.count("\n") == 1
    assert cli.MAX_QUDIT_ENTRIES == 16 ** 4


@pytest.mark.parametrize("d", [3, 8])
@pytest.mark.parametrize("basis", ["v", "w"])
def test_qudit_eigen_relation_error_is_the_dense_permutation_one(tmp_path, d, basis):
    # swapping the row axes is the dense d^2 x d^2 SWAP product exactly, so
    # the reported error is that product's to the bit
    code, out = run_cli(tmp_path, "qudit-basis", {"d": d, "basis": basis})
    assert code == 0
    results = json.loads(out.read_text())["results"]
    mat, eig = dv.swap_eigenbasis(d, basis)
    perm = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            perm[j * d + i, i * d + j] = 1.0
    assert results["eigen_relation_error"] == float(np.max(np.abs(perm @ mat - mat * eig[None, :])))
    assert results["verified"] is True
    assert np.array_equal(np.array(results["matrix_re"]) + 1j * np.array(results["matrix_im"]), mat)


def test_csv_estimator_rows(tmp_path):
    config = {
        "state_a": {"kind": "vacuum", "cutoff": [2]},
        "state_b": {"kind": "vacuum", "cutoff": [2]},
        "shots": 50,
        "runs": 3,
        "seed": 4,
    }
    code, out = run_cli(tmp_path, "overlap", config, fmt="csv")
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "run,mean_re,mean_im,stderr,shots,discarded,seed"
    assert len(lines) == 4


def test_hybrid_without_threshold_matches_the_full_cap(tmp_path):
    # an omitted M means no threshold, which at cutoff 12 is M = 12
    config = {
        "state_a": {"qubit": [[1, 0], [0, 0]], "cv": {"kind": "coherent", "alpha": 0.5, "cutoff": [12]}},
        "state_b": {"qubit": [[0.6, 0], [0.8, 0]], "cv": {"kind": "vacuum", "cutoff": [12]}},
        "shots": 500,
        "seed": 6,
    }
    results = []
    for extra in ({}, {"M": 12}):
        code, out = run_cli(tmp_path, "hybrid", {**config, **extra})
        assert code == 0
        results.append(json.loads(out.read_text())["results"])
    assert json.dumps(results[0]) == json.dumps(results[1])


HYBRID_SPEC = {"qubit": [1, 0], "cv": {"kind": "vacuum", "cutoff": [2]}}


@pytest.mark.parametrize("command, config, key", [
    ("overlap", {}, "state_a"),
    ("overlap", {"pairs": [[0, 1]]}, "states"),
    ("cutoff-plan", {"family": "squeezed"}, "r"),
    ("cutoff-plan", {"family": "coherent"}, "energy"),
    ("perm", {}, "states"),
    ("perm", {"states": [{"cutoff": [2]}] * 3}, "kind"),
    ("perm", {"states": [{"mixture": [{"weight": 1.0}]}] * 3}, "state"),
    ("two-copy", {}, "purification"),
    ("compile-cost", {}, "training"),
    ("hybrid", {"state_a": HYBRID_SPEC}, "state_b"),
])
def test_missing_key_is_config_error(tmp_path, capsys, command, config, key):
    # fig2 and qudit-basis have a default for every key
    code, _ = run_cli(tmp_path, command, config)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert repr(key) in err


@pytest.mark.parametrize("command, config, name", [
    ("overlap", {"state_a": {"kind": "tmss", "r": "x", "cutoff": [2, 2]},
                 "state_b": {"kind": "vacuum", "cutoff": [2, 2]}}, "r"),
    ("overlap", {"state_a": {"kind": "coherent", "alpha": ["x", 0], "cutoff": [2]},
                 "state_b": {"kind": "vacuum", "cutoff": [2]}}, "alpha"),
    ("compile-cost", {"training": [{"kind": "vacuum", "cutoff": [2, 2]}],
                      "u_gates": [{"gate": "phase", "phi": "x", "mode": 0}]}, "phi"),
    ("compile-cost", {"training": [{"kind": "vacuum", "cutoff": [2, 2]}],
                      "u_gates": [{"gate": "displacement", "alpha": ["x", 0], "mode": 0}]}, "alpha"),
    ("compile-cost", {"training": [{"kind": "tmss", "r": [1], "cutoff": [2, 2]}]}, "r"),
    ("cutoff-plan", {"family": "squeezed", "r": "x"}, "r"),
    ("cutoff-plan", {"family": "coherent", "energy": 4.0, "eps": "small"}, "eps"),
    # a JSON boolean is no real number, though Python's bool is an int
    ("overlap", {"state_a": {"kind": "coherent", "alpha": True, "cutoff": [2]},
                 "state_b": {"kind": "vacuum", "cutoff": [2]}}, "alpha"),
    ("cutoff-plan", {"family": "coherent", "energy": True}, "energy"),
    ("fig2", {"r_list": [True]}, "r_list entry"),
    ("overlap", {"state_a": {"mixture": [{"weight": True, "state": {"kind": "vacuum", "cutoff": [2]}}]},
                 "state_b": {"kind": "vacuum", "cutoff": [2]}}, "weight"),
])
def test_non_numeric_real_is_config_error(tmp_path, capsys, command, config, name):
    code, _ = run_cli(tmp_path, command, config)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {name} must be") and err.count("\n") == 1


def test_perm_six_registers_runs(tmp_path):
    alphas = [0.0, 0.3, 0.2, -0.25, 0.1, 0.15]
    states = [{"kind": "coherent", "alpha": a, "cutoff": [3]} for a in alphas]
    code, out = run_cli(tmp_path, "perm", {"states": states, "shots": 20_000, "seed": 8})
    assert code == 0
    results = json.loads(out.read_text())["results"]
    exact = complex(results["exact_expectation_re"], results["exact_expectation_im"])
    # pure registers: tr(rho_0 ... rho_5) is the cyclic product of overlaps
    vecs = [cli.build_state(s).amplitudes for s in states]
    vecs = [v / np.linalg.norm(v) for v in vecs]
    want = np.prod([np.vdot(vecs[k], vecs[(k + 1) % 6]) for k in range(6)])
    assert abs(exact - want) < 1e-12
    (row,) = results["runs"]
    assert abs(complex(row["mean_re"], row["mean_im"]) - exact) < 5 * row["stderr"]


def test_perm_low_rank_registers_at_a_large_cutoff_run(tmp_path):
    # four rank-2 coherent mixtures at cutoff 5000: the registers' 5001 x
    # 5001 density matrices would be past the limit, their eight components
    # are not; tr(rho_0 ... rho_3) sums, over one component of each
    # register, the weights times the cyclic product of coherent overlaps
    # <a|b> = exp(-|a|^2/2 - |b|^2/2 + conj(a) b)
    registers = [[(0.3, 0.5), (0.7, -0.4j)], [(0.6, 0.2 + 0.3j), (0.4, 0.8)],
                 [(0.5, -0.6), (0.5, 0.1j)], [(0.25, 0.4 - 0.2j), (0.75, -0.3 + 0.5j)]]
    states = [{"mixture": [{"weight": w, "state": {"kind": "coherent", "alpha": [a.real, a.imag],
                                                    "cutoff": [5000]}}
                           for w, a in register]}
              for register in registers]
    code, out = run_cli(tmp_path, "perm", {"states": states, "shots": 20_000, "seed": 3})
    assert code == 0
    results = json.loads(out.read_text())["results"]
    exact = complex(results["exact_expectation_re"], results["exact_expectation_im"])
    overlap = lambda a, b: cmath.exp(-abs(a) ** 2 / 2 - abs(b) ** 2 / 2 + a.conjugate() * b)
    want = sum(math.prod(w for w, _ in chain)
               * math.prod(overlap(a, chain[(k + 1) % 4][1]) for k, (_, a) in enumerate(chain))
               for chain in itertools.product(*registers))
    assert abs(exact - want) < 1e-12
    (row,) = results["runs"]
    assert abs(complex(row["mean_re"], row["mean_im"]) - exact) < 5 * row["stderr"]


# at a limit of 300 entries each vacuum at cutoff 99 is prepared, but a
# register of four of them holds 4 rows of 100 levels
FOUR_VACUA_AT_CUTOFF_99 = [{"mixture": [{"weight": 0.25, "state": {"kind": "vacuum", "cutoff": [99]}}] * 4}] * 3


def test_perm_oversized_working_space_refused(tmp_path, capsys, monkeypatch):
    # eight registers at cutoff 5 run; registers of more rows than the
    # limit allows are refused
    states = [{"kind": "vacuum", "cutoff": [5]}] * 8
    code, _ = run_cli(tmp_path, "perm", {"states": states, "shots": 10})
    assert code == 0
    monkeypatch.setattr(fock, "MAX_WORKING_ELEMENTS", 300)
    code, _ = run_cli(tmp_path, "perm", {"states": FOUR_VACUA_AT_CUTOFF_99, "shots": 10})
    assert code == 1
    err = capsys.readouterr().err
    assert "desk-scale limit" in err and "(4 x 100)" in err and err.count("\n") == 1


TWO_VACUA = {"state_a": {"kind": "vacuum", "cutoff": [2]}, "state_b": {"kind": "vacuum", "cutoff": [2]}}
TRAINING = [{"kind": "vacuum", "cutoff": [2, 2]}]


@pytest.mark.parametrize("command, config, message", [
    # integer fields
    ("perm", {"states": [{"kind": "vacuum", "cutoff": [2]}] * 3, "shots": "x"}, "shots must be an integer"),
    ("overlap", {**TWO_VACUA, "runs": 2.5}, "runs must be an integer"),
    ("overlap", {**TWO_VACUA, "seed": "7"}, "seed must be an integer"),
    ("overlap", {**TWO_VACUA, "M": 1.7}, "M must be an integer"),
    ("overlap", {"state_a": {"kind": "vacuum", "cutoff": ["x"]},
                 "state_b": {"kind": "vacuum", "cutoff": [2]}}, "cutoff must be an integer"),
    ("overlap", {"states": [{"kind": "vacuum", "cutoff": [2, 2]}], "pairs": [[0, 1]], "M": [0.5]},
     "M must be an integer"),
    ("overlap", {"states": [{"kind": "vacuum", "cutoff": [2, 2]}], "pairs": [[0, "1"]]},
     "pairs entry must be"),
    ("compile-cost", {"training": TRAINING, "u_gates": [{"gate": "phase", "phi": 0.1, "mode": 0.5}]},
     "mode must be an integer"),
    ("compile-cost", {"training": TRAINING, "u_gates": [{"gate": "squeeze", "z": 0.1, "mode": [0]}]},
     "mode must be an integer"),
    ("compile-cost", {"training": TRAINING, "m_totals": ["x"]}, "m_totals entry must be an integer"),
    ("compile-cost", {"training": TRAINING, "shots_per_term": "many"}, "shots_per_term must be an integer"),
    ("two-copy", {"purification": {"kind": "tmss", "r": 0.3, "cutoff": [2, 2]}, "copies": 2.5},
     "copies must be an integer"),
    ("fig2", {"m_min": "x"}, "m_min must be an integer"),
    ("fig2", {"m_max": 4.5}, "m_max must be an integer"),
    ("fig2", {"prep_cutoff": None}, "prep_cutoff must be an integer"),
    ("qudit-basis", {"d": True}, "d must be an integer"),
    # container fields
    ("perm", {"states": 5}, "states must be a list"),
    ("overlap", {"states": {"kind": "vacuum"}, "pairs": [[0, 1]]}, "states must be a list"),
    ("overlap", {"states": [{"kind": "vacuum", "cutoff": [2, 2]}], "pairs": 3}, "pairs must be a list"),
    ("overlap", {"states": [{"kind": "vacuum", "cutoff": [2, 2, 2]}], "pairs": [[0, 1, 2]]},
     "pairs entry must be a pair of integers"),
    ("compile-cost", {"training": "psi"}, "training must be a list"),
    ("perm", {"states": [{"mixture": {"weight": 1.0}}] * 3}, "mixture must be a list"),
    ("compile-cost", {"training": TRAINING, "u_gates": {"gate": "phase"}}, "u_gates must be a list"),
    ("compile-cost", {"training": TRAINING, "v_gates": 1}, "v_gates must be a list"),
    ("compile-cost", {"training": TRAINING, "m_totals": 3}, "m_totals must be a list"),
    ("fig2", {"r_list": 1.0}, "r_list must be a list"),
    ("hybrid", {"state_a": 5, "state_b": HYBRID_SPEC}, "state_a must be an object"),
    ("hybrid", {"state_a": HYBRID_SPEC, "state_b": [1, 0]}, "state_b must be an object"),
    ("qudit-basis", {"basis": ["w"]}, "basis must be 'v' or 'w'"),
    ("qudit-basis", {"basis": {"a": 1}}, "basis must be 'v' or 'w'"),
])
def test_malformed_integer_or_container_is_config_error(tmp_path, capsys, command, config, message):
    code, _ = run_cli(tmp_path, command, config)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1


VACUUM = {"kind": "vacuum", "cutoff": [2]}


@pytest.mark.parametrize("state, message", [
    ({"kind": "vacuum", "cutoff": []}, "cutoff needs at least one mode"),
    ({"kind": "coherent", "alpha": 0.1, "cutoff": [2, 2]}, "coherent preparation is single-mode"),
    ({"kind": "squeezed", "z": 0.1, "cutoff": [2, 2]}, "squeezed preparation is single-mode"),
    ({"kind": "tmss", "r": 0.1, "cutoff": [2]}, "tmss preparation is two-mode"),
    ({"kind": "basis", "pattern": [3], "cutoff": [2]}, "pattern (3,) lies outside cutoff (2,)"),
    ({"kind": "basis", "pattern": [0, 0], "cutoff": [2]}, "pattern length does not match mode count"),
    ({"mixture": []}, "ensemble needs at least one component"),
    ({"mixture": [{"weight": 1.5, "state": VACUUM}]}, "ensemble weights must lie in (0, 1]"),
    ({"mixture": [{"weight": 0.3, "state": VACUUM}] * 2}, "ensemble weights must sum to 1"),
    ({"mixture": [{"weight": 0.5, "state": VACUUM}, {"weight": 0.5, "state": {**VACUUM, "cutoff": [3]}}]},
     "ensemble components must share modes and cutoff"),
    ({"kind": "coherent", "alpah": [1.5, 0], "cutoff": 20},
     "coherent state spec has unknown key 'alpah'; accepted keys: kind, cutoff, alpha"),
    ({"kind": "vacuum", "cutoff": [2], "r": 0.3},
     "vacuum state spec has unknown key 'r'; accepted keys: kind, cutoff"),
    ({"kind": "basis", "pattern": [0], "cutoff": [2], "alpha": 1},
     "basis state spec has unknown key 'alpha'; accepted keys: kind, cutoff, pattern"),
    ({"mixture": [{"weight": 1.0, "state": {"kind": "squeezed", "Z": 0.5, "cutoff": [4]}}]},
     "squeezed state spec has unknown key 'Z'; accepted keys: kind, cutoff, z"),
    ({"mixture": [{"weight": 1.0, "state": VACUUM}], "kind": "coherent"},
     "mixture spec has unknown key 'kind'; accepted keys: mixture"),
])
def test_malformed_state_spec_is_config_error(tmp_path, capsys, state, message):
    # a state spec that does not fit its own cutoff or weights is a config
    # error (exit 2), not a numerical failure, with one line; so is a key
    # its kind does not take, which would otherwise read as its default
    # ("alpah" prepared the vacuum, whose overlap with the vacuum is 1)
    code, out = run_cli(tmp_path, "overlap", {"state_a": state, "state_b": VACUUM})
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err == f"config error: {message}\n"


def _as_state_a(spec):
    return {"state_a": spec, "state_b": VACUUM}


# every form cli._FORMS reads: (command, the config that holds a spec of
# the form, a valid spec, its required keys, a key it does not take with a
# value, the spec's name in messages, its accepted keys as listed)
FORM_CASES = {
    "vacuum": ("overlap", _as_state_a, VACUUM, ("kind", "cutoff"), ("r", 0.3),
               "vacuum state spec", "kind, cutoff"),
    "coherent": ("overlap", _as_state_a, {"kind": "coherent", "cutoff": [2], "alpha": 0.1},
                 ("kind", "cutoff"), ("alpah", [1.5, 0]), "coherent state spec", "kind, cutoff, alpha"),
    "squeezed": ("overlap", _as_state_a, {"kind": "squeezed", "cutoff": [2], "z": 0.1},
                 ("kind", "cutoff"), ("Z", 0.5), "squeezed state spec", "kind, cutoff, z"),
    "tmss": ("overlap", lambda spec: {"states": [spec], "pairs": [[0, 1]]},
             {"kind": "tmss", "cutoff": [2, 2], "r": 0.1}, ("kind", "cutoff"), ("R", 1.0),
             "tmss state spec", "kind, cutoff, r"),
    "basis": ("overlap", _as_state_a, {"kind": "basis", "cutoff": [2], "pattern": [1]},
              ("kind", "cutoff", "pattern"), ("alpha", 1), "basis state spec", "kind, cutoff, pattern"),
    # the one key of a mixture is what makes it one: without it the spec
    # reads as a state kind, missing 'kind'
    "mixture": ("overlap", _as_state_a, {"mixture": [{"weight": 1.0, "state": VACUUM}]}, (),
                ("weight", 1.0), "mixture spec", "mixture"),
    "mixture item": ("overlap", lambda spec: _as_state_a({"mixture": [spec]}),
                     {"weight": 1.0, "state": VACUUM}, ("weight", "state"), ("wieght", 0.5),
                     "mixture item", "weight, state"),
    "displacement": ("compile-cost", lambda spec: {"training": TRAINING, "u_gates": [spec]},
                     {"gate": "displacement", "alpha": 0.1, "mode": 0}, ("gate", "alpha", "mode"),
                     ("z", 0.1), "displacement gate spec", "gate, alpha, mode"),
    "squeeze": ("compile-cost", lambda spec: {"training": TRAINING, "v_gates": [spec]},
                {"gate": "squeeze", "z": 0.1, "mode": 0}, ("gate", "z", "mode"), ("alpha", [0.5, 0]),
                "squeeze gate spec", "gate, z, mode"),
    "phase": ("compile-cost", lambda spec: {"training": TRAINING, "u_gates": [spec]},
              {"gate": "phase", "phi": 0.1, "mode": 0}, ("gate", "phi", "mode"), ("theta", 0.3),
              "phase gate spec", "gate, phi, mode"),
    "hybrid state": ("hybrid", lambda spec: {"state_a": spec, "state_b": HYBRID_SPEC}, HYBRID_SPEC,
                     ("qubit", "cv"), ("qbit", [0, 1]), "state_a", "qubit, cv"),
}


def test_form_cases_cover_every_form():
    assert set(FORM_CASES) == set(cli._FORMS)


@pytest.mark.parametrize("form", FORM_CASES)
def test_every_form_refuses_an_unknown_or_missing_key(tmp_path, capsys, form):
    # a key the form does not take would otherwise change nothing: hybrid
    # "qbit" next to "qubit", a squeeze gate's "alpha" and a mixture item's
    # "wieght" were each ignored, and their runs exited 0
    command, place, spec, required, (key, value), where, keys = FORM_CASES[form]
    assert run_cli(tmp_path, command, place(spec))[0] == 0
    capsys.readouterr()
    assert run_cli(tmp_path, command, place({**spec, key: value}))[0] == 2
    err = capsys.readouterr().err
    assert err == f"config error: {where} has unknown key {key!r}; accepted keys: {keys}\n"
    for dropped in required:
        code, _ = run_cli(tmp_path, command, place({k: v for k, v in spec.items() if k != dropped}))
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("config error:") and err.count("\n") == 1
        assert repr(dropped) in err


def test_integral_floats_are_integers(tmp_path):
    config = {**TWO_VACUA, "M": 2, "shots": 100, "runs": 2, "seed": 5}
    _, out_int = run_cli(tmp_path, "overlap", config, name="int.json")
    text = out_int.read_text()
    floats = {**config, "M": 2.0, "shots": 100.0, "runs": 2.0, "seed": 5.0,
              "state_a": {"kind": "vacuum", "cutoff": [2.0]}}
    code, out_float = run_cli(tmp_path, "overlap", floats, name="float.json")
    assert code == 0
    doc, want = json.loads(out_float.read_text()), json.loads(text)
    assert doc["results"] == want["results"]


COMPILE_A = {"training": TRAINING}


@pytest.mark.parametrize("command, config, message", [
    # out-of-range values
    ("overlap", {**TWO_VACUA, "M": -1}, "M must be >= 0"),
    ("overlap", {"states": [{"kind": "vacuum", "cutoff": [2, 2]}], "pairs": [[0, 1]], "M": [-2]},
     "M must be >= 0"),
    ("two-copy", {"purification": {"kind": "tmss", "r": 0.3, "cutoff": [2, 2]}, "M": -1},
     "M must be >= 0"),
    ("hybrid", {"state_a": HYBRID_SPEC, "state_b": HYBRID_SPEC, "M": -3}, "M must be >= 0"),
    ("compile-cost", {**COMPILE_A, "m_totals": [-1]}, "m_totals entry must be >= 0"),
    ("overlap", {"state_a": {"kind": "vacuum", "cutoff": [-1]},
                 "state_b": {"kind": "vacuum", "cutoff": [2]}}, "cutoff must be >= 0"),
    ("perm", {"states": [{"kind": "basis", "pattern": [-1], "cutoff": [2]}] * 3},
     "pattern must be >= 0"),
    ("qudit-basis", {"d": 1}, "d must be >= 2"),
    ("qudit-basis", {"d": 3, "basis": "x"}, "basis must be 'v' or 'w'"),
    # gate specs
    ("compile-cost", {**COMPILE_A, "u_gates": [{"gate": "nonsense"}]}, "unknown gate 'nonsense'"),
    ("compile-cost", {**COMPILE_A, "v_gates": [{"gate": ["phase"]}]}, "unknown gate ['phase']"),
    ("compile-cost", {**COMPILE_A, "u_gates": [{"gate": "phase", "mode": 0}]},
     "phase gate spec missing 'phi'"),
    ("compile-cost", {**COMPILE_A, "u_gates": [{"gate": "displacement", "alpha": 0.3, "mode": 1}]},
     "compiling circuits must act on register A only"),
    ("compile-cost", {**COMPILE_A, "v_gates": [{"gate": "phase", "phi": 0.3, "mode": 1}]},
     "compiling circuits must act on register A only"),
    # two-mode gates have no place in a compiling circuit, so none is parsed
    ("compile-cost", {**COMPILE_A, "u_gates": [{"gate": "beamsplitter", "theta": 0.3, "phi": 0.0,
                                                "modes": [0, 1]}]},
     "unknown gate 'beamsplitter'; accepted gates: displacement, squeeze, phase"),
    ("compile-cost", {**COMPILE_A, "u_gates": [{"gate": "two_mode_squeeze", "r": 0.3, "modes": [0, 1]}]},
     "unknown gate 'two_mode_squeeze'; accepted gates: displacement, squeeze, phase"),
    ("compile-cost", {**COMPILE_A, "v_gates": [{"gate": "mode_swap", "modes": [0, 1]}]},
     "unknown gate 'mode_swap'; accepted gates: displacement, squeeze, phase"),
    # every threshold from 2 * prep_cutoff on repeats one value
    ("fig2", {"r_list": [0.8], "m_min": 0, "m_max": 200000}, "m_max 200000 exceeds 2 * prep_cutoff = 80"),
    ("fig2", {"r_list": [0.3], "m_max": 11, "prep_cutoff": 5}, "m_max 11 exceeds 2 * prep_cutoff = 10"),
    ("fig2", {"prep_cutoff": -1}, "prep_cutoff must be >= 0"),
    # shot counts and input shapes the protocols cannot take
    ("compile-cost", {**COMPILE_A, "shots_per_term": 0}, "shots_per_term must be >= 1"),
    ("compile-cost", {**COMPILE_A, "shots_per_term": -3}, "shots_per_term must be >= 1"),
    ("compile-cost", {"training": []}, "training set is empty"),
    ("compile-cost", {"training": [{"kind": "vacuum", "cutoff": [2]}]},
     "training states live on two modes (A, R)"),
    ("perm", {"states": [{"kind": "vacuum", "cutoff": [2]}]}, "PERM test needs at least two registers"),
    ("perm", {"states": []}, "PERM test needs at least two registers"),
    ("perm", {"states": [{"kind": "vacuum", "cutoff": [2]}, {"kind": "vacuum", "cutoff": [3]}]},
     "PERM test inputs must share a common cutoff"),
    ("perm", {"states": [{"kind": "vacuum", "cutoff": [2, 2]}] * 3}, "PERM test inputs must be single-mode"),
    # JSON's NaN and Infinity, and integers beyond the float range, are no
    # finite real
    ("fig2", {"r_list": [math.nan]}, "r_list entry must be finite"),
    ("cutoff-plan", {"family": "coherent", "energy": math.inf}, "energy must be finite"),
    ("cutoff-plan", {"family": "squeezed", "r": 0.5, "eps": -math.inf}, "eps must be finite"),
    ("perm", {"states": [{"mixture": [{"weight": math.nan, "state": {"kind": "vacuum", "cutoff": [2]}}]},
                         {"kind": "vacuum", "cutoff": [2]}, {"kind": "vacuum", "cutoff": [2]}]},
     "weight must be finite"),
    ("compile-cost", {**COMPILE_A, "u_gates": [{"gate": "displacement", "alpha": [0, math.inf], "mode": 0}]},
     "alpha must be finite"),
    ("compile-cost", {**COMPILE_A, "v_gates": [{"gate": "squeeze", "z": 10 ** 400, "mode": 0}]},
     "z must be finite"),
    # planner inputs out of range
    ("cutoff-plan", {"family": "coherent", "energy": 36, "eps": 0}, "eps must lie in (0, 1)"),
    ("cutoff-plan", {"family": "coherent", "energy": 36, "eps": 1}, "eps must lie in (0, 1)"),
    ("cutoff-plan", {"family": "coherent", "energy": -5}, "energy must be > 0"),
    ("cutoff-plan", {"family": "coherent", "energy": 10, "method": "normal_quantile"},
     "normal-quantile planning needs energy >= 25"),
    ("cutoff-plan", {"family": "squeezed", "r": -1}, "squeezing strength must be > 0"),
    # tanh r rounds to 1 from r = 19.1 on
    ("cutoff-plan", {"family": "squeezed", "r": 20}, "squeezing strength 20 exceeds 6.4496"),
    # an empty table is no result, in JSON or in CSV
    ("fig2", {"r_list": []}, "r_list must not be empty"),
    # free top-level keys are echoed into the document, which is strict
    # JSON and so holds no NaN or Infinity
    ("overlap", {"state_a": {"kind": "vacuum", "cutoff": [2]}, "state_b": {"kind": "vacuum", "cutoff": [2]},
                 "shots": 10, "note": math.nan, "x": math.inf},
     "config key 'note' holds a non-finite number, which JSON cannot hold"),
    ("cutoff-plan", {"family": "coherent", "energy": 36, "extra": {"deep": [1, -math.inf]}},
     "config key 'deep' holds a non-finite number"),
])
def test_out_of_range_or_bad_gate_is_config_error(tmp_path, capsys, command, config, message):
    code, out = run_cli(tmp_path, command, config)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("method", ["chernoff", "normal_quantile", "exact_tail"])
def test_huge_planner_energy_is_refused_at_once(tmp_path, capsys, method):
    # exact_tail's cumulative sum never moved at this energy, so its scan
    # never ended; the others printed a 301-digit M with bound 0.0
    start = time.perf_counter()
    code, out = run_cli(tmp_path, "cutoff-plan", {"family": "coherent", "energy": 1e300,
                                                  "method": method})
    assert time.perf_counter() - start < 1.0
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: energy 1e+300 exceeds MAX_PLAN_ENERGY = 100000 photons per mode")
    assert err.count("\n") == 1


@pytest.mark.parametrize("config", [
    {"family": "squeezed", "r": 0.5, "eps": 1e-320},
    {"family": "coherent", "energy": 36, "eps": 1e-320, "method": "chernoff"},
])
def test_subnormal_eps_is_planned(tmp_path, capsys, config):
    # ln(1 / eps) overflowed, since 1 / eps is past the float range
    code, out = run_cli(tmp_path, "cutoff-plan", config)
    assert code == 0 and capsys.readouterr().err == ""
    plan = json.loads(out.read_text())["results"]
    assert 0 < plan["M"] and plan["bound"] <= 1e-320


def test_normal_quantile_refuses_an_eps_below_its_resolution(tmp_path, capsys):
    # sqrt(1 - eps) rounds to 1, whose quantile is infinite
    code, out = run_cli(tmp_path, "cutoff-plan", {"family": "coherent", "energy": 36, "eps": 1e-17,
                                                  "method": "normal_quantile"})
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err
    assert err == ("numerical contract failure: normal-quantile planning cannot resolve eps = 1e-17: "
                   "sqrt(1 - eps) rounds to 1 in double precision\n")


TWO_MODE = [{"kind": "vacuum", "cutoff": [2, 2]}]
HYBRID = {"state_a": {"qubit": [1, 0], "cv": {"kind": "coherent", "alpha": 0.3, "cutoff": [4]}},
          "state_b": {"qubit": [0, 1], "cv": {"kind": "vacuum", "cutoff": [4]}}}


@pytest.mark.parametrize("command, config, message", [
    # pair and threshold layouts the library refuses
    ("overlap", {"states": TWO_MODE, "pairs": [[0, 0]]}, "measurement pairs must be disjoint"),
    ("overlap", {"states": TWO_MODE, "pairs": [[0, 5]]}, "pair mode 5 outside the joint register"),
    ("overlap", {"states": TWO_MODE, "pairs": [[0, 1]], "M": [1, 2]}, "one threshold per pair required"),
    ("compile-cost", {**COMPILE_A, "m_totals": [1, 2]},
     "one total threshold per training state required"),
    # output location, checked before the run
    ("overlap", {**TWO_VACUA, "out": 5}, "out must be a path string"),
    ("overlap", {**TWO_VACUA, "out": "{tmp}/missing/result.json"},
     "out must name a file in an existing directory"),
    ("overlap", {**TWO_VACUA, "out": "{tmp}"}, "out must name a file in an existing directory"),
    ("overlap", {**TWO_VACUA, "out": "{tmp}/" + "x" * 300 + ".json"}, "cannot write out {tmp}/xxx"),
    # a write that fails after the run is reported the same way
    pytest.param("overlap", {**TWO_VACUA, "out": "/dev/full"}, "cannot write out /dev/full: ",
                 marks=pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")),
    # inputs of a shape the protocol cannot take, refused before any build
    ("overlap", {"states": [], "pairs": []}, "overlap states list is empty"),
    ("hybrid", {**HYBRID, "state_b": {**HYBRID["state_b"], "cv": {"kind": "vacuum", "cutoff": [3]}}},
     "hybrid inputs must share the CV cutoff"),
    ("hybrid", {**HYBRID, "state_a": {**HYBRID["state_a"], "cv": {"kind": "tmss", "cutoff": [2, 2]}}},
     "state_a cv state must be single-mode"),
    ("hybrid", {**HYBRID, "state_b": {**HYBRID["state_b"], "qubit": [0, [0, 0]]}},
     "state_b qubit amplitudes are all zero"),
    ("overlap", {**TWO_VACUA, "state_a": {"kind": "tmss", "r": 0.1, "cutoff": [2, 2]}},
     "state_a must be a single-mode state"),
    ("overlap", {**TWO_VACUA, "state_b": TWO_MODE[0]}, "state_b must be a single-mode state"),
    ("two-copy", {"purification": {"mixture": [{"weight": 1.0, "state": TWO_MODE[0]}]}},
     "purification must not be a mixture"),
    # a repeated mode and one out of range: the range is checked first
    ("overlap", {"states": TWO_MODE, "pairs": [[0, 1], [1, 7]]}, "pair mode 7 outside the joint register"),
])
def test_structural_errors_are_config_errors(tmp_path, capsys, command, config, message):
    if "out" in config and isinstance(config["out"], str):
        config = {**config, "out": config["out"].format(tmp=tmp_path)}
        message = message.format(tmp=tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main([command, "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {message}") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_huge_or_tiny_qubit_amplitudes_give_the_unit_vector_results(tmp_path, capsys):
    # the norm of [1e300, 1e300] overflows and that of [1e-170, 1e-170]
    # underflows; both have the direction of [1, 1]
    results = []
    for qubit in ([1e300, 1e300], [1e-170, 1e-170], [1, 1]):
        config = {**HYBRID, "state_a": {**HYBRID["state_a"], "qubit": qubit}, "shots": 500, "seed": 4}
        code, out = run_cli(tmp_path, "hybrid", config)
        assert code == 0 and capsys.readouterr().err == ""
        results.append(json.loads(out.read_text())["results"])
    assert results[0] == results[1] == results[2]


def test_unreadable_config_is_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(b"\xff\xfe{}")
    assert cli.main(["overlap", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: config is not valid JSON")
    assert cli.main(["overlap", "--config", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot read config file {tmp_path}")


def _nested_mixture(depth: int) -> str:
    state = '{"kind": "vacuum", "cutoff": [2]}'
    for _ in range(depth):
        state = f'{{"mixture": [{{"weight": 1, "state": {state}}}]}}'
    return state


@pytest.mark.parametrize("text", [
    "[" * 100_000,
    '{"state_a": ' + _nested_mixture(400) + ', "state_b": {"kind": "vacuum", "cutoff": [2]}}',
], ids=["brackets", "mixture"])
def test_config_deeper_than_the_decoder_is_config_error(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text, encoding="utf-8")
    assert cli.main(["overlap", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config is not valid JSON: maximum recursion depth exceeded")
    assert err.count("\n") == 1


def test_mixture_nested_within_the_decoder_limit_is_config_error(tmp_path, capsys):
    # a mixture's state is refused as a mixture before it is built, so no
    # nesting the decoder accepts reaches the interpreter's recursion limit
    cfg_path = tmp_path / "cfg.json"
    vacuum = '{"kind": "vacuum", "cutoff": [2]}'
    cfg_path.write_text(f'{{"state_a": {_nested_mixture(200)}, "state_b": {vacuum}}}', encoding="utf-8")
    assert cli.main(["overlap", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == "config error: state must not be a mixture\n"


def test_no_nesting_depth_is_a_numerical_failure(tmp_path, capsys):
    # from the deepest nesting down to the first that runs: a config the
    # decoder refuses, or one just within its limit that is too deep to
    # write back into the document, is a config error
    cfg_path, out_path = tmp_path / "cfg.json", tmp_path / "out.json"
    vacuum = '{"kind": "vacuum", "cutoff": [2]}'
    outcomes = []
    for depth in range(1000, 0, -1):
        cfg_path.write_text(f'{{"state_a": {vacuum}, "state_b": {vacuum}, '
                            f'"note": {"[" * depth}{"]" * depth}}}', encoding="utf-8")
        code = cli.main(["overlap", "--config", str(cfg_path), "--out", str(out_path)])
        outcomes.append((depth, code, capsys.readouterr().err))
        if code == 0:
            break
    assert outcomes[-1][1] == 0
    refused = [(code, err.startswith("config error: config "), err.count("\n"))
               for _, code, err in outcomes[:-1]]
    assert refused and set(refused) == {(2, True, 1)}


def test_runs_beyond_max_runs_are_a_resource_limit(tmp_path, capsys, monkeypatch):
    # a document writes one row per run; more runs than MAX_RUNS are
    # refused before any state is built, with one line
    vacuum = {"kind": "vacuum", "cutoff": [2]}
    built = count_calls(monkeypatch, cli, "build_state")
    code, out = run_cli(tmp_path, "overlap", {"state_a": vacuum, "state_b": vacuum,
                                              "runs": 2 ** 16 + 1})
    assert code == 1 and not out.exists() and built == []
    err = capsys.readouterr().err
    assert err == ("resource limit: a config of 65537 runs emits one document row per run, "
                   "beyond 65536; use runs <= 65536\n")
    assert cli.MAX_RUNS == 2 ** 16
    # a run count at the limit runs
    monkeypatch.setattr(cli, "MAX_RUNS", 3)
    code, out = run_cli(tmp_path, "overlap", {"state_a": vacuum, "state_b": vacuum, "runs": 3})
    assert code == 0 and len(json.loads(out.read_text())["results"]["runs"]) == 3
    code, out = run_cli(tmp_path, "overlap", {"state_a": vacuum, "state_b": vacuum, "runs": 4},
                        name="four.json")
    assert code == 1 and capsys.readouterr().err.startswith("resource limit: a config of 4 runs")


@pytest.mark.parametrize("argv, message", [
    (["bogus", "--config", "cfg.json"],
     "argument command: invalid choice: 'bogus' (choose from 'overlap', 'cutoff-plan', "
     "'fig2', 'perm', 'two-copy', 'compile-cost', 'hybrid', 'qudit-basis')"),
    (["overlap"], "the following arguments are required: --config"),
    (["overlap", "--config", "cfg.json", "--seed", "q"], "argument --seed: invalid int value: 'q'"),
])
def test_usage_errors_are_one_line_config_errors(capsys, argv, message):
    # the command line is refused before any config file is read
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_the_parser_is_built_once_per_process(tmp_path, monkeypatch):
    built = count_calls(monkeypatch, cli._Parser, "__init__")
    vacuum = {"kind": "vacuum", "cutoff": [2]}
    for name in ("a.json", "b.json"):
        assert run_cli(tmp_path, "overlap", {"state_a": vacuum, "state_b": vacuum}, name=name)[0] == 0
    assert built == []


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as done:
        cli.main(["--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cvswap")


def test_resource_limit_is_its_own_outcome(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(fock, "MAX_WORKING_ELEMENTS", 300)
    code, out = run_cli(tmp_path, "perm", {"states": FOUR_VACUA_AT_CUTOFF_99, "shots": 10})
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("resource limit: working space of") and err.count("\n") == 1


@pytest.mark.parametrize("command, config, box", [
    ("overlap", {"states": [{"kind": "tmss", "r": 0.3, "cutoff": [40, 40]}], "pairs": [[0, 1]],
                 "shots": 10}, "(1 x 1681)"),
    ("qudit-basis", {"d": 6}, "(36 x 36)"),
])
def test_dense_allocations_are_a_resource_limit(tmp_path, capsys, monkeypatch, command, config, box):
    # the prepared state and the qudit basis are refused before they are
    # allocated, at a limit of 1,000 entries
    monkeypatch.setattr(fock, "MAX_WORKING_ELEMENTS", 1000)
    code, out = run_cli(tmp_path, command, config)
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("resource limit: working space of") and err.count("\n") == 1
    assert box in err


def test_empty_fig2_r_list_is_a_config_error_in_csv(tmp_path, capsys):
    code, out = run_cli(tmp_path, "fig2", {"r_list": []}, fmt="csv")
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err == "config error: r_list must not be empty\n"


def test_shot_counts_beyond_max_shots_are_a_resource_limit(tmp_path, capsys):
    # past 2^53 shots the counts of a tally are no longer exact in double
    # precision, so the count is refused before any shot is drawn
    vacuum = {"kind": "vacuum", "cutoff": [2]}
    code, out = run_cli(tmp_path, "overlap", {"state_a": vacuum, "state_b": vacuum,
                                              "shots": 2 ** 53 + 1})
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"resource limit: {2 ** 53 + 1} shots need") and err.count("\n") == 1


@pytest.mark.parametrize("shots", [2 ** 63 - 1, 1e30])
def test_shot_counts_beyond_numpy_sizes_are_a_resource_limit(tmp_path, capsys, shots):
    # counts beyond any size numpy could allocate meet the same guard
    code, out = run_cli(tmp_path, "compile-cost", {**COMPILE_A, "shots_per_term": shots})
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"resource limit: {int(shots)} shots need") and err.count("\n") == 1


def test_overflowing_gate_parameter_is_a_numerical_failure(tmp_path, capsys):
    # finite in the config, but |alpha|^2 overflows a double
    code, out = run_cli(tmp_path, "compile-cost", {
        **COMPILE_A, "u_gates": [{"gate": "displacement", "alpha": [1e300, 0], "mode": 0}]})
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("numerical contract failure: floating-point overflow") and err.count("\n") == 1


def test_two_copy_working_space_counts_its_amplitude_arrays(tmp_path, capsys, monkeypatch):
    # cutoff 6: the eight modes of the copies and their partners would make
    # a box of 7^8 amplitudes, but the contraction holds only each copy's
    # 7^2 amplitudes as a ket and a bra copy, and it runs, shot path
    # included; the exact value is (tr rho_A^2)^2 of the purification's
    # reduced density matrix
    config = {"purification": {"kind": "tmss", "r": 0.3, "cutoff": [6, 6]}, "copies": 2,
              "shots": 500, "seed": 3}
    code, out = run_cli(tmp_path, "two-copy", config, name="six.json")
    assert code == 0
    results = json.loads(out.read_text())["results"]
    psi = cli.build_state(config["purification"]).amplitudes
    rho_a = psi @ psi.conj().T / np.vdot(psi, psi).real
    purity = np.trace(rho_a @ rho_a).real
    assert abs(results["exact_expectation"] - purity ** 2) < 1e-12
    assert abs(results["grand_mean_re"] - results["exact_expectation"]) < 5 * results["runs"][0]["stderr"]
    monkeypatch.setattr(fock, "MAX_WORKING_ELEMENTS", 90)
    code, _ = run_cli(tmp_path, "two-copy", config, name="low.json")
    assert code == 1
    err = capsys.readouterr().err
    assert "(2 x 49)" in err and err.count("\n") == 1


@pytest.mark.parametrize("command, config", [
    ("compile-cost", {"training": [{"kind": "basis", "pattern": [1, 0], "cutoff": [40, 12]}],
                      "u_gates": [{"gate": "squeeze", "z": 0.1, "mode": 0}], "shots_per_term": 10}),
    ("fig2", {"r_list": [0.5], "prep_cutoff": 500, "m_min": 0, "m_max": 2}),
])
def test_one_mode_pair_beyond_the_limit_is_a_resource_limit(tmp_path, capsys, monkeypatch,
                                                            command, config):
    # at a limit of 1,000 entries, compile-cost's ket and bra copies of a
    # 41 x 13 term state and a fig2 squeezed state at cutoff 1,000 (twice
    # prep_cutoff) are each refused before they are allocated, with one line
    monkeypatch.setattr(fock, "MAX_WORKING_ELEMENTS", 1000)
    code, out = run_cli(tmp_path, command, config)
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err
    box = {"compile-cost": "1066 entries (2 x 533)", "fig2": "1001 entries (1 x 1001)"}[command]
    assert err.startswith(f"resource limit: working space of {box}")
    assert err.count("\n") == 1


def test_parity_contraction_intermediate_is_a_resource_limit(tmp_path, capsys, monkeypatch):
    # mode 1 of a two-mode state paired with a one-mode state: the
    # contraction sums the spectator mode 0 out of the first state's ket
    # and bra, which leaves a 41 x 41 intermediate on the pair's labels,
    # larger than either input; at a limit of 1,000 entries it is refused
    # before it is allocated
    config = {"states": [{"kind": "basis", "pattern": [0, 3], "cutoff": [0, 40]},
                         {"kind": "coherent", "alpha": 0.4, "cutoff": [40]}],
              "pairs": [[1, 2]], "M": None, "shots": 10}
    code, out = run_cli(tmp_path, "overlap", config, name="default.json")
    assert code == 0
    out.unlink()
    monkeypatch.setattr(fock, "MAX_WORKING_ELEMENTS", 1000)
    code, out = run_cli(tmp_path, "overlap", config, name="low.json")
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("resource limit: working space of 1681 entries (1 x 1681)")
    assert err.count("\n") == 1


def test_a_single_mode_pair_holds_no_pair_matrix(tmp_path):
    # M = 3000 cuts the pair total of two registers at cutoff 6000: a 0/1
    # matrix of n_a + n_b <= 2M would hold 6001^2 = 36,012,001 entries, past
    # the limit, but the pair's kernel holds a few lists of 6001 levels per
    # register, so it runs; the exact value is 1/cosh 2r at r = 0.5, since
    # tanh^(2(M+1)) r and the preparations' leaks are far below rounding
    config = {"state_a": {"kind": "squeezed", "z": [0.5, 0], "cutoff": 6000},
              "state_b": {"kind": "squeezed", "z": [-0.5, 0], "cutoff": 6000},
              "M": 3000, "shots": 1000, "runs": 1, "seed": 1}
    code, out = run_cli(tmp_path, "overlap", config)
    assert code == 0
    results = json.loads(out.read_text())["results"]
    states = [cli.build_state(config[key]) for key in ("state_a", "state_b")]
    exact = est.parity_overlap_expectation(states, [(0, 1)], config["M"])
    assert exact == pytest.approx(1.0 / math.cosh(1.0), abs=1e-12)
    assert abs(results["grand_mean_re"] - exact) < 5 * results["runs"][0]["stderr"]


def test_overlap8_at_the_paper_squeezing_runs(tmp_path):
    # the paper's vacuum-probability experiment at r = 1.5 needs cutoff 70
    # for a leak of 7e-7 per register pair; the exact value is the
    # renormalised truncation of 1/cosh^4 r
    r = 1.5
    tmss = {"kind": "tmss", "r": r, "cutoff": [70, 70]}
    vacuum = {"kind": "vacuum", "cutoff": [0]}
    config = {"states": [tmss, vacuum, vacuum, tmss, vacuum, vacuum],
              "pairs": [[0, 2], [1, 3], [4, 6], [5, 7]], "M": None, "shots": 2000, "runs": 10,
              "seed": 11}
    code, out = run_cli(tmp_path, "overlap", config)
    assert code == 0
    results = json.loads(out.read_text())["results"]
    states = [cli.build_state(spec) for spec in config["states"]]
    leaks = [states[0].leak, states[3].leak]
    assert 5e-7 < leaks[0] == leaks[1] < 1e-6
    exact = est.parity_overlap_expectation(states, config["pairs"], None)
    target = 1.0 / math.cosh(r) ** 4
    assert target == pytest.approx(0.0326549, abs=1e-7)
    assert abs(exact - target) <= sum(leaks)
    assert exact == pytest.approx(target / ((1.0 - leaks[0]) * (1.0 - leaks[1])), rel=1e-12)
    stderr = math.sqrt(sum(row["stderr"] ** 2 for row in results["runs"])) / len(results["runs"])
    assert abs(results["grand_mean_re"] - exact) < 5 * stderr


def test_oversized_tensor_product_is_a_resource_limit():
    # three factors at cutoff [20, 20] hold 441^3 amplitudes, past the
    # limit; the refusal comes before the product is allocated (the largest
    # array made is the two-factor product, about 3 MB)
    psi = cli.build_state({"kind": "tmss", "r": 0.3, "cutoff": [20, 20]})
    pair = fock.tensor(psi, psi)
    with pytest.raises(fock.ResourceLimitError, match="working space of 85766121 entries"):
        fock.tensor(pair, psi)


@pytest.mark.parametrize("copies", [13, 33, cli.MAX_COPIES])
def test_two_copy_runs_past_einsum_labels_and_array_axes(tmp_path, copies):
    # each copy is a two-mode factor and each contraction step holds a few
    # labels, so neither einsum's 52 labels nor numpy's 64 axes bound the
    # copy count; a product purification leaves every reduced state pure
    purification = {"kind": "basis", "pattern": [0, 0], "cutoff": [0, 0]}
    code, out = run_cli(tmp_path, "two-copy", {"purification": purification, "copies": copies,
                                               "shots": 10})
    assert code == 0
    results = json.loads(out.read_text())["results"]
    assert results["exact_expectation"] == 1.0 and results["grand_mean_re"] == 1.0


def test_copies_beyond_the_cap_are_a_resource_limit(tmp_path, capsys, monkeypatch):
    # refused with one line before any state is built
    built = count_calls(monkeypatch, cli, "build_state")
    code, out = run_cli(tmp_path, "two-copy", {
        "purification": {"kind": "basis", "pattern": [0, 0], "cutoff": [0, 0]},
        "copies": cli.MAX_COPIES + 1, "shots": 10})
    assert code == 1 and not out.exists() and built == []
    assert capsys.readouterr().err == (
        f"resource limit: a two-copy test of {cli.MAX_COPIES + 1} copies is beyond "
        f"{cli.MAX_COPIES}; use copies <= {cli.MAX_COPIES}\n")


@pytest.mark.parametrize("copies", [4, 60])
def test_two_copy_command_holds_the_eigenvalue_oracle(tmp_path, copies):
    # (sum_k lambda_k^n)^2 over the eigenvalues of the purification's
    # reduced density matrix, exact value and shots both
    config = {"purification": {"kind": "tmss", "r": 0.3, "cutoff": [6, 6]}, "copies": copies,
              "shots": 100_000, "runs": 4, "seed": 5}
    code, out = run_cli(tmp_path, "two-copy", config)
    assert code == 0
    results = json.loads(out.read_text())["results"]
    want = squared_eigenvalue_sum(cli.build_state(config["purification"]), copies)
    assert abs(results["exact_expectation"] - want) <= 1e-12
    for row in results["runs"]:
        assert abs(row["mean_re"] - want) < 5 * row["stderr"]


MIXED_SINGLE = {"mixture": [{"weight": 0.4, "state": {"kind": "coherent", "alpha": 0.3, "cutoff": [3]}},
                            {"weight": 0.6, "state": {"kind": "squeezed", "z": 0.2, "cutoff": [3]}}]}


@pytest.mark.parametrize("command, config, module, estimator", [
    ("overlap", {"state_a": MIXED_SINGLE, "state_b": {"kind": "vacuum", "cutoff": [3]}, "M": 2},
     est, "cv_swap_estimate"),
    ("overlap", {"states": [{"kind": "tmss", "r": 0.3, "cutoff": [3, 3]}, {"kind": "vacuum", "cutoff": [0]},
                            {"kind": "vacuum", "cutoff": [0]}], "pairs": [[0, 2], [1, 3]]},
     est, "parity_overlap_estimate"),
    ("perm", {"states": [MIXED_SINGLE, {"kind": "vacuum", "cutoff": [3]}, MIXED_SINGLE]},
     proto, "perm_test"),
    ("two-copy", {"purification": {"kind": "tmss", "r": 0.2, "cutoff": [2, 2]}, "M": 1},
     proto, "two_copy_test"),
    ("hybrid", HYBRID, proto, "hybrid_swap_estimate"),
])
def test_every_run_draws_from_one_block_build(tmp_path, monkeypatch, command, config, module,
                                              estimator):
    calls = []
    for owner, builder in ((est, "_group_block"), (proto, "_perm_block")):
        count_calls(monkeypatch, owner, builder, calls)
    count_calls(monkeypatch, module, estimator, calls)
    code, out = run_cli(tmp_path, command, {**config, "shots": 200, "runs": 3, "seed": 4})
    assert code == 0
    runs = json.loads(out.read_text())["results"]["runs"]
    assert [row["run"] for row in runs] == [0, 1, 2]
    assert len({row["seed"] for row in runs}) == 3
    assert calls == [estimator, "_perm_block" if command == "perm" else "_group_block"]


def test_compile_cost_builds_each_circuit_once(tmp_path, monkeypatch):
    # the cost and its exact value read one build of the terms: each
    # circuit is composed once and its occupied columns built once per A
    # dimension, from no gate matrix
    calls = []
    for name in ("gaussian_triple", "gaussian_columns", "gate_matrix"):
        original = getattr(fock, name)
        monkeypatch.setattr(fock, name, lambda *args, name=name, original=original: (
            calls.append((name, *args[1:])) or original(*args)))
    gates = [{"gate": "displacement", "alpha": 0.2, "mode": 0}, {"gate": "squeeze", "z": 0.1, "mode": 0},
             {"gate": "phase", "phi": 0.3, "mode": 0}]
    config = {"training": [{"kind": "basis", "pattern": [1, 0], "cutoff": [4, 1]},
                           {"kind": "basis", "pattern": [2, 1], "cutoff": [6, 1]}],
              "u_gates": gates, "v_gates": gates[::-1], "shots_per_term": 100, "seed": 3}
    assert run_cli(tmp_path, "compile-cost", config)[0] == 0
    assert sorted(calls) == [("gaussian_columns", 5, 2), ("gaussian_columns", 7, 3),
                             ("gaussian_triple",), ("gaussian_triple",)]
