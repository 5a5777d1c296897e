"""The benchmark's workloads: config generation from a workload seed,
independent oracles, and the checks run on every CLI document.

Every config is a pure function of (workload, seed).  Random choices only
touch continuous parameters, so the amount of work an invocation does is
the same for every seed.
"""

from __future__ import annotations

import cmath
import json
import math
import random

import numpy as np

# shot means further than this many standard errors from the exact value fail
SHOT_SIGMAS = 5.0
# exact values must agree with the benchmark's own oracles to this tolerance
EXACT_TOL = 1e-10


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _pair(value: complex) -> list[float]:
    return [value.real, value.imag]


def _polar(rng: random.Random, lo: float, hi: float) -> complex:
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(0.0, 2.0 * math.pi))


def _load(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"document is not JSON: {exc}"]
    if not isinstance(doc, dict) or doc.get("tool", {}).get("name") != "cvswap":
        return None, ["document lacks the cvswap tool header"]
    return doc, []


def _near(label: str, got: complex, want: complex, tol: float) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{label}: {got} differs from {want} by more than {tol:.3g}"]


def _estimator_runs(results: dict, config: dict, exact: complex) -> list[str]:
    """Per-run structure, and each run's mean within SHOT_SIGMAS stderr."""
    runs = results.get("runs", [])
    if len(runs) != config["runs"]:
        return [f"{len(runs)} runs reported, {config['runs']} requested"]
    failures = []
    for row in runs:
        if row["shots"] != config["shots"] or not 0 <= row["discarded"] <= row["shots"]:
            failures.append(f"run {row['run']}: bad shot accounting {row}")
        stderr = row["stderr"]
        if stderr is None or not stderr > 0:
            failures.append(f"run {row['run']}: no standard error")
            continue
        failures += _near(f"run {row['run']} mean", complex(row["mean_re"], row["mean_im"]),
                          exact, SHOT_SIGMAS * stderr)
    return failures


class Workload:
    """One benchmark workload; subclasses fill in the protocol specifics."""

    name: str
    command: str        # cvswap subcommand
    target: str         # layer expected to take the largest self time
    estimator: tuple    # (module, function) timed for shots_per_s
    exact: tuple        # (module, function) timed for exact_s
    cli_calls_exact = True  # otherwise the benchmark calls ``exact`` itself

    def config(self, seed: int) -> dict:
        raise NotImplementedError

    def build(self, cli, config: dict) -> dict:
        """The config's states, built through the CLI's own parser."""
        raise NotImplementedError

    def shots(self, config: dict) -> int:
        return config["shots"] * config["runs"]

    def exact_args(self, config: dict, inputs: dict) -> tuple:
        """Arguments for ``exact`` when the benchmark makes that call itself."""
        raise NotImplementedError

    def reference(self, modules: dict, config: dict, inputs: dict) -> dict:
        """Oracle values, computed once per process."""
        raise NotImplementedError

    def check(self, text: str, config: dict, exact, ref: dict) -> list[str]:
        """Failures found in one CLI document; ``exact`` is the value the
        timed exact-expectation call returned."""
        doc, failures = _load(text)
        if doc is None:
            return failures
        expected = json.loads(json.dumps({**config, "protocol": self.command}))
        if doc.get("config") != expected:
            failures.append("document does not echo the resolved config")
        return failures + self.check_results(doc["results"], config, exact, ref)

    def check_results(self, results: dict, config: dict, exact, ref: dict) -> list[str]:
        raise NotImplementedError


class SwapShots(Workload):
    """The paper's Fig. 2 case: a squeezed/anti-squeezed pair at cutoff 40
    with a detector threshold M well below it, so shots are discarded."""

    name = "swap-shots"
    command = "overlap"
    target = "sampling"
    estimator = ("estimators", "cv_swap_estimate")
    exact = ("estimators", "parity_overlap_expectation")
    cli_calls_exact = False

    def config(self, seed: int) -> dict:
        rng = _rng(self.name, seed)
        z = _polar(rng, 0.8, 1.1)
        return {
            "state_a": {"kind": "squeezed", "z": _pair(z), "cutoff": 40},
            "state_b": {"kind": "squeezed", "z": _pair(-z), "cutoff": 40},
            "M": rng.randint(4, 8),
            "shots": 1_000_000,
            "runs": 4,
            "seed": rng.randrange(1 << 32),
        }

    def build(self, cli, config):
        return {"a": cli.build_state(config["state_a"]), "b": cli.build_state(config["state_b"])}

    def exact_args(self, config, inputs):
        return [inputs["a"], inputs["b"]], [(0, 1)], config["M"]

    def reference(self, modules, config, inputs):
        r = abs(complex(*config["state_a"]["z"]))
        kept = (1.0 - inputs["a"].leak) * (1.0 - inputs["b"].leak)
        return {"analytic": modules["estimators"].analytic_swap2m_squeezed(r, config["M"]),
                "kept": kept}

    def check_results(self, results, config, exact, ref):
        # the threshold only reaches photon numbers far below the cutoff, so
        # the renormalised truncated value times the kept weight is exact
        failures = _near("exact x kept weight vs analytic_swap2m_squeezed",
                         exact * ref["kept"], ref["analytic"], EXACT_TOL)
        failures += _estimator_runs(results, config, exact)
        stderrs = [row["stderr"] or 0.0 for row in results.get("runs", [])]
        grand = complex(results["grand_mean_re"], results["grand_mean_im"])
        grand_se = math.sqrt(sum(s * s for s in stderrs)) / max(len(stderrs), 1)
        failures += _near("grand mean", grand, exact, SHOT_SIGMAS * grand_se)
        return failures


def _coherent(alpha: complex, cap: int) -> np.ndarray:
    n = np.arange(cap + 1)
    log_fact = np.array([math.lgamma(k + 1) for k in n])
    amps = np.exp(-0.5 * abs(alpha) ** 2 - 0.5 * log_fact) * alpha ** n
    return amps / np.linalg.norm(amps)


def _squeezed(z: complex, cap: int) -> np.ndarray:
    r, theta = abs(z), cmath.phase(z)
    amps = np.zeros(cap + 1, dtype=np.complex128)
    for k in range(cap // 2 + 1):
        amps[2 * k] = ((-cmath.exp(1j * theta) * math.tanh(r)) ** k
                       * math.exp(0.5 * math.lgamma(2 * k + 1) - math.lgamma(k + 1))
                       / 2 ** k)
    return amps / np.linalg.norm(amps)


class PermEnsemble(Workload):
    """PERM test on L=4 rank-2 mixtures at cutoff 5: the dense four-mode
    mesh that ROADMAP item 3 replaces with photon-number sectors."""

    name = "perm-ensemble"
    command = "perm"
    target = "fock.apply"
    estimator = ("protocols", "perm_test")
    exact = ("protocols", "perm_expectation")
    registers = 4
    cap = 5

    def config(self, seed: int) -> dict:
        rng = _rng(self.name, seed)
        states = []
        for _ in range(self.registers):
            w = rng.uniform(0.3, 0.7)
            states.append({"mixture": [
                {"weight": w, "state": {"kind": "coherent", "cutoff": self.cap,
                                        "alpha": _pair(_polar(rng, 0.2, 0.5))}},
                {"weight": 1.0 - w, "state": {"kind": "squeezed", "cutoff": self.cap,
                                              "z": _pair(_polar(rng, 0.1, 0.25))}},
            ]})
        return {"states": states, "shots": 100_000, "runs": 1, "seed": rng.randrange(1 << 32)}

    def build(self, cli, config):
        return {"states": [cli.build_state(s) for s in config["states"]]}

    def reference(self, modules, config, inputs):
        product = np.eye(self.cap + 1, dtype=np.complex128)
        for spec in config["states"]:
            rho = np.zeros((self.cap + 1, self.cap + 1), dtype=np.complex128)
            for item in spec["mixture"]:
                state = item["state"]
                if state["kind"] == "coherent":
                    psi = _coherent(complex(*state["alpha"]), self.cap)
                else:
                    psi = _squeezed(complex(*state["z"]), self.cap)
                rho += item["weight"] * np.outer(psi, psi.conj())
            product = product @ rho
        return {"trace": complex(np.trace(product))}

    def check_results(self, results, config, exact, ref):
        doc_exact = complex(results["exact_expectation_re"], results["exact_expectation_im"])
        failures = _near("exact vs tr(rho0 rho1 rho2 rho3)", doc_exact, ref["trace"], EXACT_TOL)
        failures += _near("document exact vs timed call", doc_exact, complex(exact), 0.0)
        return failures + _estimator_runs(results, config, doc_exact)


def _dense_gate(gate: dict, dim: int) -> np.ndarray:
    """Truncated gate matrix from the exponential of its generator on a
    space twice as large, cut back to ``dim``: an oracle independent of
    the analytic recurrences in cvswap.fock."""
    if gate["gate"] == "phase":
        return np.diag(np.exp(-1j * gate["phi"] * np.arange(dim)))
    big = 2 * dim + 40
    a = np.diag(np.sqrt(np.arange(1, big)), 1).astype(np.complex128)
    ad = a.conj().T
    if gate["gate"] == "displacement":
        alpha = complex(*gate["alpha"])
        generator = alpha * ad - alpha.conjugate() * a
    else:
        z = complex(*gate["z"])
        generator = 0.5 * (z.conjugate() * (a @ a) - z * (ad @ ad))
    vals, vecs = np.linalg.eigh(1j * generator)  # Hermitian; exp(gen) = exp(-i h)
    return ((vecs * np.exp(-1j * vals)) @ vecs.conj().T)[:dim, :dim]


class CompileGates(Workload):
    """Compiling cost at cutoff (80, 1) with 18-gate single-mode U and V:
    288 displacement, squeeze and phase matrices at d=81 per invocation."""

    name = "compile-gates"
    command = "compile-cost"
    target = "fock.gates"
    estimator = ("protocols", "compile_cost")
    exact = ("protocols", "compile_cost_expectation")
    cap = 80
    layers = 6  # (displacement, squeeze, phase) repeated

    def config(self, seed: int) -> dict:
        rng = _rng(self.name, seed)
        u_gates, v_gates = [], []
        for _ in range(self.layers):
            alpha, z, phi = _polar(rng, 0.05, 0.3), _polar(rng, 0.05, 0.2), rng.uniform(0.0, 6.0)
            u_gates += [{"gate": "displacement", "alpha": _pair(alpha), "mode": 0},
                        {"gate": "squeeze", "z": _pair(z), "mode": 0},
                        {"gate": "phase", "phi": phi, "mode": 0}]
            # V approximates U, as a compiler's candidate would
            v_gates += [{"gate": "displacement", "alpha": _pair(alpha + _polar(rng, 0.0, 0.05)), "mode": 0},
                        {"gate": "squeeze", "z": _pair(z + _polar(rng, 0.0, 0.05)), "mode": 0},
                        {"gate": "phase", "phi": phi + rng.uniform(-0.05, 0.05), "mode": 0}]
        photons = rng.sample(range(4), 2)
        training = [{"kind": "basis", "pattern": [n, rng.randint(0, 1)], "cutoff": [self.cap, 1]}
                    for n in photons]
        return {"training": training, "u_gates": u_gates, "v_gates": v_gates,
                "shots_per_term": 100_000, "seed": rng.randrange(1 << 32)}

    def build(self, cli, config):
        return {"training": [cli.build_state(s) for s in config["training"]],
                "u_gates": cli.build_circuit(config["u_gates"]),
                "v_gates": cli.build_circuit(config["v_gates"])}

    def shots(self, config):
        return config["shots_per_term"] * len(config["training"])

    def reference(self, modules, config, inputs):
        dim = self.cap + 1
        u_mats = [_dense_gate(g, dim) for g in config["u_gates"]]
        v_mats = [_dense_gate(g, dim) for g in config["v_gates"]]
        fidelities = []
        for state in config["training"]:
            u = v = np.eye(dim, dtype=np.complex128)[state["pattern"][0]]
            for mat in u_mats:
                u = mat @ u
            for mat in v_mats:
                v = mat @ v
            fidelities.append(abs(np.vdot(v, u)) ** 2 / (np.vdot(u, u).real * np.vdot(v, v).real))
        # a term's shot weights are +-1 with mean f, so their variance is 1 - f^2
        k, shots = len(fidelities), config["shots_per_term"]
        stderr = math.sqrt(sum(1.0 - f * f for f in fidelities) / shots) / k
        return {"cost": 1.0 - sum(fidelities) / k, "stderr": stderr}

    def check_results(self, results, config, exact, ref):
        failures = _near("exact_cost vs dense fidelity oracle", results["exact_cost"],
                         ref["cost"], EXACT_TOL)
        failures += _near("document exact vs timed call", results["exact_cost"], exact, 0.0)
        if results["shots_per_term"] != config["shots_per_term"]:
            failures.append("shots_per_term not echoed")
        failures += _near("sampled cost", results["cost"], results["exact_cost"],
                          SHOT_SIGMAS * ref["stderr"])
        return failures


WORKLOADS = {w.name: w for w in (SwapShots(), PermEnsemble(), CompileGates())}
