"""Command-line front end: every protocol as a subcommand driven by a
single JSON config document, with JSON or CSV result emission.

Runs are repeated ``runs`` times with seeds derived from the root seed,
all drawn from one build of the measurement blocks; documents embed the
resolved config and the tool version so a run can be reproduced
bit-for-bit from its own output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path

import numpy as np

from . import __version__, dv, estimators as est, fock, protocols as proto
from .sampling import derive_seed, mean_and_spread

__all__ = ["main", "ConfigError"]


# the qudit-basis document writes every entry of its d^2 x d^2 matrix
MAX_QUDIT_ENTRIES = 1 << 16

# an estimator document writes one row per run
MAX_RUNS = 1 << 16

# a two-copy test takes time linear in its copies: about 30 ms for 256 copies
# of a tmss at cutoff [6, 6], 4 runs of 10^5 shots, on a 2-vCPU Xeon
MAX_COPIES = 256


class ConfigError(ValueError):
    """Malformed run configuration (exit code 2)."""


class RunConfig:
    """Resolved run description as consumed by a subcommand."""

    __slots__ = ("protocol", "payload", "seed", "shots", "runs", "out", "fmt")

    def __init__(self, protocol: str, payload: dict, seed: int, shots: int, runs: int,
                 out: Path | None, fmt: str):
        self.protocol = protocol
        self.payload = payload
        self.seed = seed
        self.shots = shots
        self.runs = runs
        self.out = out
        self.fmt = fmt


# ---------------------------------------------------------------------------
# config parsing


def _required(spec: dict, key: str, where: str):
    """``spec[key]``, or a config error naming the missing key."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object")
    if key not in spec:
        raise ConfigError(f"{where} missing {key!r}")
    return spec[key]


def _int_param(value, name: str, minimum: int | None = None) -> int:
    """An integer no smaller than ``minimum``; an integral float such as
    3.0 is accepted as one."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}")
    return value


def _list_param(value, name: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list")
    return value


def _pair_param(value, name: str) -> tuple[int, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{name} must be a pair of integers")
    return _int_param(value[0], name), _int_param(value[1], name)


def _threshold_param(value, name: str = "M", per_pair: bool = False):
    """None or an integer >= 0; with ``per_pair``, also a list of those."""
    if per_pair and isinstance(value, (list, tuple)):
        return [_threshold_param(v, name) for v in value]
    return None if value is None else _int_param(value, name, 0)


def _real_param(value, name: str) -> float:
    """A finite real; booleans, JSON's NaN and Infinity, and integers
    beyond the float range are refused."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a real number")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite")
    return value


def _complex_param(value, name: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(_real_param(value, name))
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_real_param(value[0], name), _real_param(value[1], name))
    raise ConfigError(f"{name} must be a number or an [re, im] pair")


def _counts_param(value, name: str) -> tuple[int, ...]:
    return tuple(_int_param(n, name, 0) for n in _list_param(value, name))


def _cutoff_param(value, name: str) -> fock.CutoffSpec:
    return fock.CutoffSpec(_counts_param(value if isinstance(value, (list, tuple)) else [value], name))


def _pure_state(spec, name: str) -> fock.FockState:
    if isinstance(spec, dict) and "mixture" in spec:  # refused unbuilt, so mixtures never nest
        raise ConfigError(f"{name} must not be a mixture")
    return build_state(spec)


# Every object a config nests, by form: the keys the form takes, in the
# order a message lists them, with their parsers.  A state spec that holds
# "mixture" is a mixture and any other takes the form its "kind" names; a
# gate spec takes the form its "gate" names.
_FORMS = {
    "vacuum": {"cutoff": _cutoff_param},
    "coherent": {"cutoff": _cutoff_param, "alpha": _complex_param},
    "squeezed": {"cutoff": _cutoff_param, "z": _complex_param},
    "tmss": {"cutoff": _cutoff_param, "r": _real_param},
    "basis": {"cutoff": _cutoff_param, "pattern": _counts_param},
    "mixture": {"mixture": lambda value, name: [_read(item, "mixture item", "mixture item")
                                                for item in _list_param(value, name)]},
    "mixture item": {"weight": _real_param, "state": _pure_state},
    "displacement": {"alpha": _complex_param, "mode": _int_param},
    "squeeze": {"z": _complex_param, "mode": _int_param},
    "phase": {"phi": _real_param, "mode": _int_param},
    "hybrid state": {"qubit": lambda value, name: [_complex_param(a, "qubit amplitude")
                                                   for a in _list_param(value, name)],
                     "cv": lambda value, name: build_state(value)},
}
# a state kind's own parameter may be absent; fock.prepare reads it as 0
_OPTIONAL = {"coherent": "alpha", "squeezed": "z", "tmss": "r"}
_KINDS = ("vacuum", "coherent", "squeezed", "tmss", "basis")
_GATES = {"displacement": fock.Displacement, "squeeze": fock.Squeeze, "phase": fock.PhaseRotation}


def _read(spec, form, where: str, tag: str | None = None) -> dict:
    """The values of a config object of ``form``, by key, each through its
    parser.  With ``tag``, ``form`` lists the forms the object's value of
    ``tag`` may name, and that value is kept under its key.  A non-object,
    an unknown form, a key the form does not take and a missing required
    key are refused, so a misspelt key never reads as its default."""
    values = {}
    if tag:
        name = values[tag] = _required(spec, tag, where)
        if not isinstance(name, str) or name not in form:
            raise ConfigError(f"unknown {tag} {name!r}; accepted {tag}s: {', '.join(form)}")
        form, where = name, f"{name} {where}"
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object")
    keys = [*values, *_FORMS[form]]
    unknown = [key for key in spec if key not in keys]
    if unknown:
        raise ConfigError(f"{where} has unknown key {unknown[0]!r}; accepted keys: {', '.join(keys)}")
    for key, parse in _FORMS[form].items():
        if key in spec:
            values[key] = parse(spec[key], key)
        elif key != _OPTIONAL.get(form):
            raise ConfigError(f"{where} missing {key!r}")
    return values


def build_state(spec) -> fock.FockState | fock.MixedEnsemble:
    """A state from its spec: a mixture, or a kind with its parameters."""
    if isinstance(spec, dict) and "mixture" in spec:
        items = _read(spec, "mixture", "mixture spec")["mixture"]
        return fock.MixedEnsemble(tuple((item["weight"], item["state"]) for item in items))
    values = _read(spec, _KINDS, "state spec", "kind")
    if values["kind"] == "basis":
        return fock.basis_state(values["pattern"], values["cutoff"])
    return fock.prepare(**values)


def build_circuit(specs) -> list[fock.GateSpec]:
    read = [_read(g, _GATES, "gate spec", "gate") for g in specs]
    return [_GATES[values.pop("gate")](**values) for values in read]


def _load_config(args) -> RunConfig:
    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {args.config}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # a RecursionError is nesting deeper than the decoder's limit
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    declared = raw.get("protocol")
    if declared is not None and declared != args.command:
        raise ConfigError(f"config is for protocol {declared!r}, not {args.command!r}")
    seed = int(args.seed) if args.seed is not None else _int_param(raw.get("seed", 0), "seed")
    shots = _int_param(raw.get("shots", 1), "shots")
    runs = _int_param(raw.get("runs", 1), "runs")
    if shots < 1 or runs < 1:
        raise ConfigError("shots and runs must be >= 1")
    # output location and format may live in the config; flags win
    out = args.out if args.out is not None else raw.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out must be a path string")
    try:
        misplaced = bool(out) and (Path(out).is_dir() or not Path(out).parent.is_dir())
    except OSError as exc:
        raise ConfigError(f"cannot write out {out}: {exc.strerror}") from exc
    if misplaced:
        raise ConfigError(f"out must name a file in an existing directory: {out}")
    fmt = args.format if args.format is not None else raw.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ConfigError(f"unknown output format {fmt!r}")
    if runs > MAX_RUNS:
        raise fock.ResourceLimitError(
            f"a config of {runs} runs emits one document row per run, beyond {MAX_RUNS}; "
            f"use runs <= {MAX_RUNS}")
    resolved = dict(raw)
    resolved["protocol"] = args.command
    resolved["seed"] = seed
    return RunConfig(
        protocol=args.command,
        payload=resolved,
        seed=seed,
        shots=shots,
        runs=runs,
        out=Path(out) if out else None,
        fmt=fmt,
    )


# ---------------------------------------------------------------------------
# result assembly


def _estimator_document(cfg: RunConfig, estimate) -> tuple[dict, list[dict]]:
    """Every run of an estimator, from one call with the derived seeds of
    all runs (``estimate(shots, seeds)``, which builds its blocks once);
    per-run rows plus grand stats."""
    results = estimate(cfg.shots, [derive_seed(cfg.seed, k) for k in range(cfg.runs)])
    run_rows = [{"run": k, **result.to_dict()} for k, result in enumerate(results)]
    grand, spread = mean_and_spread([result.mean for result in results])
    results = {
        "runs": run_rows,
        "grand_mean_re": grand.real,
        "grand_mean_im": grand.imag,
        # a single run has no between-run dispersion estimate
        "std_of_means": spread if cfg.runs > 1 else None,
    }
    return results, run_rows


def _json_text(value) -> str:
    """The text of ``json.dumps(value, indent=2)``, written by one call
    per value, where any ``indent`` sends ``json.dumps`` through the
    stdlib's pure-Python generators, several frames per value.  Strings go
    through the stdlib's C escaper and numbers through their types' own
    ``__repr__`` (numpy 2's repr of an np.float64 names its type).  A
    non-finite number, which ``json.dumps`` would write as the non-JSON
    ``NaN`` or ``Infinity``, is refused naming the nearest object key above
    it: only the echoed config can hold one, since parameters must be
    finite and a result writes its undefined stderr as null.  A type no
    document holds is a TypeError, as from ``json.dumps``."""
    parts: list[str] = []
    _write_json(value, parts, "\n", None)
    return "".join(parts)


def _write_json(value, out: list[str], indent: str, key) -> None:
    """Append ``value`` to ``out`` at the nesting ``indent`` (a newline and
    its spaces), under the object key ``key``."""
    if isinstance(value, str):
        out.append(_json_string(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ConfigError(f"config key {key!r} holds a non-finite number, which JSON cannot hold")
        out.append(float.__repr__(value))
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, out, inner, key)
            sep = "," + inner
        out.append(indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for name, item in value.items():
            out.append(f"{sep}{_json_string(name)}: ")
            _write_json(item, out, inner, name)
            sep = "," + inner
        out.append(indent + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(cfg: RunConfig, results: dict, csv_rows: list[dict] | None) -> None:
    document = {
        "tool": {"name": "cvswap", "version": __version__},
        "config": cfg.payload,
        "results": results,
    }
    if cfg.fmt == "json":
        try:
            text = _json_text(document)
        except RecursionError as exc:  # nesting deeper than the writer may recurse
            raise ConfigError(f"config nests too deeply to embed in the document: {exc}") from exc
    else:
        if not csv_rows:
            raise ConfigError("this command has no CSV representation")
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(csv_rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        writer.writerows(csv_rows)
        text = buf.getvalue()
    if cfg.out is not None:
        try:
            cfg.out.write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write out {cfg.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_overlap(cfg: RunConfig) -> None:
    payload = cfg.payload
    if "pairs" in payload:
        states = [build_state(s) for s in _list_param(
            _required(payload, "states", "overlap config"), "states")]
        pairs = [_pair_param(p, "pairs entry") for p in _list_param(payload["pairs"], "pairs")]
        m = _threshold_param(payload.get("M"), per_pair=True)
        estimate = lambda shots, seeds: est.parity_overlap_estimate(states, pairs, m, shots, seeds)
    else:
        state_a = build_state(_required(payload, "state_a", "overlap config"))
        state_b = build_state(_required(payload, "state_b", "overlap config"))
        m = _threshold_param(payload.get("M"))
        estimate = lambda shots, seeds: est.cv_swap_estimate(state_a, state_b, m, shots, seeds)
    results, rows = _estimator_document(cfg, estimate)
    _emit(cfg, results, rows)


def cmd_cutoff_plan(cfg: RunConfig) -> None:
    payload = cfg.payload
    family = payload.get("family")
    eps = _real_param(payload.get("eps", 1e-2), "eps")
    method = payload.get("method")
    if family == "squeezed":
        plan = est.cutoff_for_squeezed(_real_param(_required(payload, "r", "squeezed plan"), "r"), eps)
    elif family == "coherent":
        energy = _real_param(_required(payload, "energy", "coherent plan"), "energy")
        method = method or "chernoff"
        if method == "chernoff":
            plan = est.cutoff_for_coherent_chernoff(energy, eps)
        elif method == "normal_quantile":
            plan = est.cutoff_for_coherent_normal(energy, eps)
        elif method == "exact_tail":
            plan = est.cutoff_for_coherent_exact(energy, eps)
        else:
            raise ConfigError(f"unknown planning method {method!r}")
    else:
        raise ConfigError("family must be 'squeezed' or 'coherent'")
    _emit(cfg, plan.to_dict(), [plan.to_dict()])


def cmd_fig2(cfg: RunConfig) -> None:
    """Convergence table: closed-form finite-threshold values next to the
    simulated expectation of the paper's pair S(r)|0>, S(-r)|0>."""
    payload = cfg.payload
    r_list = [_real_param(r, "r_list entry")
              for r in _list_param(payload.get("r_list", [0.8, 1.0, 1.2]), "r_list")]
    if not r_list:
        raise ConfigError("r_list must not be empty")
    m_lo = _int_param(payload.get("m_min", 4), "m_min")
    m_hi = _int_param(payload.get("m_max", 20), "m_max")
    cap = _int_param(payload.get("prep_cutoff", 40), "prep_cutoff", 0)
    if m_lo < 0 or m_hi < m_lo:
        raise ConfigError("need 0 <= m_min <= m_max")
    # each state is prepared at cutoff 2 cap, so every threshold from 2 cap
    # on keeps the whole box and repeats one value
    if m_hi > 2 * cap:
        raise ConfigError(f"m_max {m_hi} exceeds 2 * prep_cutoff = {2 * cap}")
    rows = []
    for r in r_list:
        pair = [fock.prepare("squeezed", fock.CutoffSpec((2 * cap,)), z=z) for z in (r, -r)]
        for m in range(m_lo, m_hi + 1):
            sim = est.parity_overlap_expectation(pair, [(0, 1)], m)
            closed = est.analytic_swap2m_squeezed(r, m)
            rows.append({
                "r": r,
                "M": m,
                "closed_form": closed,
                "simulated": sim,
                "abs_diff": abs(sim - closed),
                "bound": math.tanh(r) ** (2 * (m + 1)),
            })
    _emit(cfg, {"rows": rows, "limit": {f"{r}": est.analytic_squeezed_overlap(r) for r in r_list}}, rows)


def cmd_perm(cfg: RunConfig) -> None:
    states = [build_state(s) for s in _list_param(
        _required(cfg.payload, "states", "perm config"), "states")]
    results, rows = _estimator_document(
        cfg, lambda shots, seeds: proto.perm_test(states, shots, seeds)
    )
    exact = proto.perm_expectation(states)
    results["exact_expectation_re"] = exact.real
    results["exact_expectation_im"] = exact.imag
    _emit(cfg, results, rows)


def cmd_two_copy(cfg: RunConfig) -> None:
    payload = cfg.payload
    copies = _int_param(payload.get("copies", 2), "copies")
    if copies > MAX_COPIES:
        raise fock.ResourceLimitError(
            f"a two-copy test of {copies} copies is beyond {MAX_COPIES}; use copies <= {MAX_COPIES}")
    base = _pure_state(_required(payload, "purification", "two-copy config"), "purification")
    if base.modes != 2:
        raise ConfigError("purification spec must cover one (A, B) pair")
    m = _threshold_param(payload.get("M"), per_pair=True)
    results, rows = _estimator_document(
        cfg, lambda shots, seeds: proto.two_copy_test([base] * copies, shots, seeds, m)
    )
    results["exact_expectation"] = proto.two_copy_expectation([base] * copies, m)
    _emit(cfg, results, rows)


def cmd_compile_cost(cfg: RunConfig) -> None:
    payload = cfg.payload
    training = [build_state(s) for s in _list_param(
        _required(payload, "training", "compile-cost config"), "training")]
    u_gates, v_gates = (build_circuit(_list_param(payload.get(key, []), key))
                        for key in ("u_gates", "v_gates"))
    m_totals = payload.get("m_totals")
    if m_totals is not None:
        m_totals = [_threshold_param(m, "m_totals entry") for m in _list_param(m_totals, "m_totals")]
    shots = _int_param(payload.get("shots_per_term", cfg.shots), "shots_per_term", 1)
    terms = proto.compile_terms(training, u_gates, v_gates, m_totals)
    results = {
        "cost": proto.compile_cost(terms, shots, cfg.seed),
        "exact_cost": proto.compile_cost_expectation(terms),
        "shots_per_term": shots,
        # per training state, the largest leak of its components under U and V
        "term_leaks": [max(s.leak for side in prepared for _, s in side.components)
                       for prepared, _ in terms],
    }
    _emit(cfg, results, [results])


def _build_hybrid(spec, name: str) -> fock.FockState | fock.MixedEnsemble:
    values = _read(spec, "hybrid state", name)
    q = np.array(values["qubit"])
    if q.shape != (2,):
        raise ConfigError("qubit amplitudes must be a 2-vector")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(q)
    if not 0 < norm < np.inf and q.any():
        # a huge or tiny but valid direction: scale by its largest real or
        # imaginary part, which cannot overflow, before the norm
        q = q / np.abs(q.view(np.float64)).max()
        norm = np.linalg.norm(q)
    if norm == 0:
        raise ConfigError(f"{name} qubit amplitudes are all zero")
    qubit = fock.FockState(fock.CutoffSpec((1,)), q / norm)
    cv = values["cv"]
    if cv.modes != 1:
        raise ConfigError(f"{name} cv state must be single-mode")
    if isinstance(cv, fock.MixedEnsemble):
        return fock.MixedEnsemble(tuple((w, fock.tensor(qubit, s)) for w, s in cv.components))
    return fock.tensor(qubit, cv)


def cmd_hybrid(cfg: RunConfig) -> None:
    payload = cfg.payload
    state_a = _build_hybrid(_required(payload, "state_a", "hybrid config"), "state_a")
    state_b = _build_hybrid(_required(payload, "state_b", "hybrid config"), "state_b")
    m = _threshold_param(payload.get("M"))
    results, rows = _estimator_document(
        cfg, lambda shots, seeds: proto.hybrid_swap_estimate(state_a, state_b, m, shots, seeds)
    )
    results["exact_expectation"] = proto.hybrid_swap_expectation(state_a, state_b, m)
    _emit(cfg, results, rows)


def cmd_qudit_basis(cfg: RunConfig) -> None:
    payload = cfg.payload
    d = _int_param(payload.get("d", 2), "d", 2)
    if d ** 4 > MAX_QUDIT_ENTRIES:
        raise fock.ResourceLimitError(
            f"a qudit basis of d = {d} emits {d ** 4} matrix entries, beyond {MAX_QUDIT_ENTRIES}; "
            f"use d <= {math.isqrt(math.isqrt(MAX_QUDIT_ENTRIES))}")
    basis = payload.get("basis", "w")
    mat, eig = dv.swap_eigenbasis(d, basis)
    unit_err = float(np.max(np.abs(mat.conj().T @ mat - np.eye(d * d))))
    # SWAP|i, j> = |j, i> permutes the rows of the basis matrix
    swapped = mat.reshape(d, d, d * d).swapaxes(0, 1).reshape(d * d, d * d)
    eig_err = float(np.max(np.abs(swapped - mat * eig[None, :])))
    plus = int(np.sum(eig > 0))
    minus = int(np.sum(eig < 0))
    verified = unit_err <= 1e-12 and eig_err <= 1e-12 and (plus, minus) == (
        d * (d + 1) // 2, d * (d - 1) // 2,
    )
    results = {
        "d": d,
        "basis": basis,
        "multiplicity_plus": plus,
        "multiplicity_minus": minus,
        "unitarity_error": unit_err,
        "eigen_relation_error": eig_err,
        "verified": verified,
        "matrix_re": mat.real.tolist(),
        "matrix_im": mat.imag.tolist(),
        "eigenvalues": eig.tolist(),
    }
    rows = [{"column": k, "eigenvalue": float(eig[k])} for k in range(d * d)]
    _emit(cfg, results, rows)


_COMMANDS = {
    "overlap": cmd_overlap,
    "cutoff-plan": cmd_cutoff_plan,
    "fig2": cmd_fig2,
    "perm": cmd_perm,
    "two-copy": cmd_two_copy,
    "compile-cost": cmd_compile_cost,
    "hybrid": cmd_hybrid,
    "qudit-basis": cmd_qudit_basis,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a config error (exit 2)
        raise ConfigError(message)


# built once per process: building it costs several times what parsing does
_PARSER = _Parser(
    prog="cvswap",
    description="Ancilla-free overlap estimation on a truncated Fock simulator",
)
_PARSER.add_argument("command", choices=_COMMANDS, help="protocol to run")
_PARSER.add_argument("--config", required=True, help="JSON run description")
_PARSER.add_argument("--out", default=None, help="output path (config 'out' or stdout if omitted)")
_PARSER.add_argument("--format", choices=("json", "csv"), default=None,
                     help="output format (config 'format' or json if omitted)")
_PARSER.add_argument("--seed", type=int, default=None, help="override the config seed")


def main(argv=None) -> int:
    try:
        cfg = _load_config(_PARSER.parse_args(argv))
        _COMMANDS[cfg.protocol](cfg)
    except (ConfigError, est.MeasurementSpecError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except fock.ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 1
    except (fock.PreparationLeakError, ValueError, RuntimeError) as exc:
        print(f"numerical contract failure: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        # a finite but huge parameter, such as a displacement of 1e300
        print(f"numerical contract failure: floating-point overflow: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
