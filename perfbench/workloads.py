"""The benchmark's workloads, their correctness gates and reference outputs.

Each workload is a closed-loop batch job: one CLI invocation at a time in a
fresh interpreter, no concurrency.  Problem parameters are fixed; the
benchmark's --seed only chooses the pipeline seeds of the seeded
invocations (or, for bound-sizing, whose inputs are fixed, the query order).

Reference digests and answers were recorded by running these workloads on
the commit that introduced the benchmark; a run prints what it observed in
its detail line, so a deliberate output change can be re-recorded from it.
"""

import hashlib
import random

# outer-mc's epsilon is bounds.invert_epsilon(200, 2, 4, 0.2).epsilon, the
# level at which the batched bound equals 0.2 (acceptance criterion 4).
OUTER_MC_EPS = "0.03924277797341347"

# Trials per invocation.  At 500 trials the chance that the tight verdict
# (within three 95% half-widths) fails for a correct program is about 3e-5
# per invocation by the exact binomial law; an invocation takes seconds.
ANALYTIC_TRIALS = 500
OUTER_MC_TRIALS = 150

# Each query exercises one binom_tail path: the term recurrence (m=2000),
# exact math.comb in log space (m=10000) or gammaln in log space (m=20000).
# The m=2000 cascade --max-r is acceptance criterion 2's query.
BOUND_QUERIES = [
    "--formula cascade --m 2000 --d 10 --eps 0.03 --beta 1e-6 --max-r",
    "--formula classical --m 2000 --d 10 --eps 0.03 --beta 1e-6 --max-r",
    "--formula cascade --m 2000 --d 10 --r 10 --invert 1e-6",
    "--formula classical --m 2000 --d 10 --r 10 --invert 1e-6",
    "--formula cascade --m 10000 --d 10 --eps 0.07 --beta 1e-6 --max-r",
    "--formula classical --m 10000 --d 10 --r 440 --invert 1e-6",
    "--formula cascade --m 20000 --d 10 --eps 0.04 --beta 1e-6 --max-r",
    "--formula cascade --m 20000 --d 10 --r 660 --invert 1e-6",
]

# Answer fields of each bound query at the recording commit.
BOUND_ANSWERS = {
    "cascade m=2000 d=10 r=0 eps=0.03": {
        "max_removable": 17, "max_removable_batched": 10,
        "value": 1.4639332208378921e-16},
    "classical m=2000 d=10 r=0 eps=0.03": {
        "max_removable": 8, "max_removable_batched": 0,
        "value": 1.4639332208378921e-16},
    "cascade m=2000 d=10 r=10 eps=None": {
        "epsilon_star": 0.024231680668890476, "at_lower_boundary": False},
    "classical m=2000 d=10 r=10 eps=None": {
        "epsilon_star": 0.032508768141269684, "at_lower_boundary": False},
    "cascade m=10000 d=10 r=0 eps=0.07": {
        "max_removable": 572, "max_removable_batched": 570,
        "value": 1.455176881587653e-295},
    "classical m=10000 d=10 r=440 eps=None": {
        "epsilon_star": 0.06946657877415419, "at_lower_boundary": False},
    "cascade m=20000 d=10 r=0 eps=0.04": {
        "max_removable": 662, "max_removable_batched": 660, "value": 0.0},
    "cascade m=20000 d=10 r=660 eps=None": {
        "epsilon_star": 0.03988352604210377, "at_lower_boundary": False},
}

# sha256 of each artifact of the reference invocation (reference seed).
REFERENCE_DIGESTS = {
    "analytic-tightness": {
        "analytic_tightness_trials.csv":
            "2ee5af189ab29a8ff865e5ee81f02b7bc82e441492b3f676e7ac4258a08e454d",
        "analytic_tightness_summary.csv":
            "d15fcdb0c95de728f6721e99864c2875de4e4135ecbce250153dbc48ba8a1998",
        "analytic_tightness_metadata.json":
            "f5414a656f4a3e7534deb9b335001aa41257ff9b200552966f5cc5453193d459",
    },
    "outer-mc": {
        "outer_mc_trials.csv":
            "77266be5d2da55ac6ce429a90a186fc1f7495f21a142d3231615cbf7fc992ac2",
        "outer_mc_summary.csv":
            "80fe217a8e91690a60a9ab3584e4c1ff7e541444b65ebade5fb83a83ee7cae88",
        "outer_mc_metadata.json":
            "9f83aec55a16db368b1e354d20a484d67698757e33930aa9f44af25b20e3d004",
    },
    "resource-compare": {
        "resource_compare_trials.csv":
            "a72ab679460ed6ac191e5ded7df5b5c1ea54f848c7abaf04c4cc44f834d19fd4",
        "resource_compare_summary.csv":
            "baf3228ffb108935361c523c47c70abf0057b6b0dc40ca05abac9bc9a95cb5b3",
        "resource_compare_metadata.json":
            "774cf87717544a05f47aa8a3f64f90b117df0ca79adc15e587914b42b53cf83d",
    },
}


def derived_seed(workload: str, seed: int, k: int) -> int:
    """Pipeline seed of invocation k of a run with this --seed."""
    digest = hashlib.sha256(f"{workload}/{seed}/{k}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


class Workload:
    """A CLI argv family plus the gate that checks its outputs."""

    def __init__(self, name, why, reference_seed, held_out_seed, ops):
        self.name = name
        self.why = why
        self.reference_seed = reference_seed
        # Kept out of all tuning; use it as --seed to confirm a later claim.
        self.held_out_seed = held_out_seed
        self.ops = ops  # operations per invocation

    def argvs(self, cli_seed, out_dir):
        raise NotImplementedError

    def gate(self, payloads, reference) -> list:
        """Reasons the invocation's outputs are wrong; empty when correct.

        reference is set on the invocation at the reference seed."""
        raise NotImplementedError


class AnalyticTightness(Workload):
    def argvs(self, cli_seed, out_dir):
        return [["experiment", "analytic-tightness", "--m", "50", "--ell", "5",
                 "--eps", "0.2", "--trials", str(ANALYTIC_TRIALS),
                 "--seed", str(cli_seed), "--out", out_dir]]

    def gate(self, payloads, reference):
        return [] if payloads[0]["tight"] is True else ["verdict tight is false"]


class OuterMc(Workload):
    def argvs(self, cli_seed, out_dir):
        return [["experiment", "outer-mc", "--generator", "resource",
                 "--d", "2", "--n", "2", "--m", "200", "--ell", "2",
                 "--eps", OUTER_MC_EPS, "--trials", str(OUTER_MC_TRIALS),
                 "--seed", str(cli_seed), "--out", out_dir]]

    def gate(self, payloads, reference):
        return [] if payloads[0]["valid"] is True else ["verdict valid is false"]


class ResourceCompare(Workload):
    def argvs(self, cli_seed, out_dir):
        return [["experiment", "resource-compare", "--d", "10", "--n", "2",
                 "--m", "2000", "--beta", "1e-6",
                 "--eps-grid", "0.01:0.005:0.035",
                 "--seed", str(cli_seed), "--out", out_dir]]

    def gate(self, payloads, reference):
        # Acceptance criterion 8's rules on this grid.  Exactly zero
        # improvement wherever neither bound certifies a whole batch, which
        # includes eps <= 0.02, and no loss wherever greedy removes nothing,
        # since the cascade then solves a relaxation of the same program.
        # The sign rule from eps = 0.035 on is a property of criterion 8's
        # instance (seed 30), not of every instance: pipeline seed
        # 472151436 loses 0.79% there.  It is checked on the reference run.
        points = payloads[0]["points"]
        zero = [p for p in points if p["r_cascade"] == 0 and p["r_greedy"] == 0]
        errors = [f"nonzero improvement at eps={p['epsilon']} with r=0"
                  for p in zero if p["improvement_pct"] != 0.0]
        for eps in (0.01, 0.015, 0.02):
            if not any(abs(p["epsilon"] - eps) < 1e-9 for p in zero):
                errors.append(f"eps={eps} certifies a batch")
        sign_window = [p for p in points
                       if p["r_greedy"] == 0
                       or (reference and p["epsilon"] >= 0.035 - 1e-9)]
        errors += [f"negative improvement at eps={p['epsilon']}"
                   for p in sign_window if p["improvement_pct"] < 0]
        return errors


class BoundSizing(Workload):
    """Inputs are fixed, so the seed only sets the order of the queries."""

    def argvs(self, cli_seed, out_dir):
        queries = list(BOUND_QUERIES)
        random.Random(cli_seed).shuffle(queries)
        return [["bound", *q.split()] for q in queries]

    def gate(self, payloads, reference):
        errors = []
        for payload in payloads:
            key = _bound_key(payload)
            expected = BOUND_ANSWERS.get(key)
            got = {f: payload.get(f) for f in _ANSWER_FIELDS if f in payload}
            if expected is None or got != expected:
                errors.append(f"{key}: got {got}, expected {expected}")
        return errors


_ANSWER_FIELDS = ("max_removable", "max_removable_batched",
                  "epsilon_star", "at_lower_boundary", "value")


def _bound_key(payload) -> str:
    return "{formula} m={m} d={d} r={r} eps={epsilon}".format(**payload)


WORKLOADS = {
    w.name: w
    for w in (
        AnalyticTightness(
            "analytic-tightness",
            "many 50-row LPs with a closed-form violation: per-call overhead "
            "of assemble, LP validation and Scenario objects dominates",
            reference_seed=101, held_out_seed=7411, ops=ANALYTIC_TRIALS),
        OuterMc(
            "outer-mc",
            "mid-size regularized LPs plus a 10k-sample inner violation "
            "estimate per trial",
            reference_seed=202, held_out_seed=7412, ops=OUTER_MC_TRIALS),
        ResourceCompare(
            "resource-compare",
            "a few large refined LPs (d=10, 4000 rows) beside greedy "
            "unrefined candidate solves; support detection dominates",
            reference_seed=30, held_out_seed=7413, ops=1),
        BoundSizing(
            "bound-sizing",
            "bound sizing queries over the three binom_tail paths; the only "
            "workload where scenopt.bounds matters",
            reference_seed=None, held_out_seed=7414, ops=len(BOUND_QUERIES)),
    )
}
