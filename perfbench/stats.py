"""Turns the raw record that the perfbench binary prints into metrics.

The binary reports samples (lists of observations), values (single
numbers) and named output checks. A metric named in BENCHMARK.json is
taken from the values when the binary set it, as a whole-run rate when it
is in WHOLE_RUN, as a percentile of a sample list when its name ends in
``.pNN``, as the mean of its largest NN% when it ends in ``.topNN_mean``,
as its mean when it ends in ``.mean``, and as its median otherwise.
"""

import math
import re
import statistics

# A tail percentile is reported only with at least this many samples beyond it.
MIN_TAIL = 10

_PERCENTILE = re.compile(r"^(.*)\.p(\d{2})$")
_TOP_MEAN = re.compile(r"^(.*)\.top(\d{2})_mean$")

# Whole-run rates from per-rep samples. Every rep (certify_batch: every
# batch) of a run does the same work, so the mean of the per-rep host ms
# per simulated ms is total host time over total simulated time, and the
# harmonic mean of the per-rep rates is total evaluations over total time.
# On a shared 4-vCPU VM the host's speed switched between two levels about
# 1.6x apart every few seconds, so per-rep times were bimodal: their median
# jumps with the share of time spent at each level, their mean moves only
# in proportion to it.
WHOLE_RUN = {"host_ms_per_sim_ms": statistics.fmean,
             "evals_per_s": statistics.harmonic_mean}


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q <= 1) of a non-empty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    return xs[max(1, math.ceil(q * len(xs))) - 1]


def samples_beyond(n, q):
    """How many of n samples lie beyond the nearest-rank q-quantile."""
    return n - max(1, math.ceil(q * n))


def tail_percentile(values, q):
    """percentile(), refusing a tail with fewer than MIN_TAIL samples beyond."""
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_TAIL:
        raise ValueError(
            f"p{round(q * 100)} of {len(values)} samples has {beyond} "
            f"beyond it; need {MIN_TAIL}")
    return percentile(values, q)


def top_mean(values, share):
    """Mean of the largest `share` (0 < share < 1) of a sample: the samples
    beyond the nearest-rank (1 - share)-quantile and that quantile itself.
    Refused with fewer than MIN_TAIL samples beyond the quantile.

    A tail percentile of a bimodal sample jumps between the modes' values
    when the share of samples in the slow mode crosses the tail share; the
    mean of the tail moves with that share instead."""
    q = 1 - share
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_TAIL:
        raise ValueError(
            f"top {round(share * 100)}% of {len(values)} samples has "
            f"{beyond} beyond its quantile; need {MIN_TAIL}")
    xs = sorted(values)
    return statistics.fmean(xs[max(1, math.ceil(q * len(xs))) - 1:])


def count_checks(checks):
    """(attempted, failed) summed over the record's named checks."""
    attempted = sum(c["attempted"] for c in checks.values())
    failed = sum(c["failed"] for c in checks.values())
    return attempted, failed


def merge_records(raws):
    """One record from the records of several processes of one run.

    Checks add up and samples pool. Values and model outputs are means over
    the processes: the simulation workloads give each process sub-seeds of
    its own, so a mean over processes is a mean over all of them. A
    simulation that several processes ran must have the same fingerprint
    in each; that is one more check per shared simulation.
    """
    merged = {"checks": {}, "failures": [], "samples": {}, "values": {},
              "outputs": {}}
    for raw in raws:
        for name, c in raw["checks"].items():
            acc = merged["checks"].setdefault(name,
                                              {"attempted": 0, "failed": 0})
            acc["attempted"] += c["attempted"]
            acc["failed"] += c["failed"]
        merged["failures"] += raw["failures"]
        for name, xs in raw["samples"].items():
            merged["samples"].setdefault(name, []).extend(xs)
    for key in ("values", "outputs"):
        for name in raws[0][key]:
            merged[key][name] = statistics.fmean(raw[key][name]
                                                 for raw in raws)
    seen = {}
    for raw in raws:
        for sim, fp in raw.get("fingerprints", {}).items():
            seen.setdefault(sim, []).append(fp)
    shared = {sim: fps for sim, fps in seen.items() if len(fps) > 1}
    if shared:
        differ = sorted(sim for sim, fps in shared.items()
                        if len(set(fps)) > 1)
        merged["checks"]["shared_sims_identical_across_processes"] = {
            "attempted": len(shared), "failed": len(differ)}
        merged["failures"] += [f"processes disagree on simulation {sim}"
                               for sim in differ]
    return merged


def metric_value(name, raw):
    """The value of metric `name` from a raw record; KeyError if absent."""
    if name in raw["values"]:
        return raw["values"][name]
    if name in WHOLE_RUN and name in raw["samples"]:
        return WHOLE_RUN[name](raw["samples"][name])
    match = _TOP_MEAN.match(name)
    if match and match.group(1) in raw["samples"]:
        return top_mean(raw["samples"][match.group(1)],
                        int(match.group(2)) / 100)
    if name.endswith(".mean") and name[:-5] in raw["samples"]:
        return statistics.fmean(raw["samples"][name[:-5]])
    match = _PERCENTILE.match(name)
    if match and match.group(1) in raw["samples"]:
        q = int(match.group(2)) / 100
        xs = raw["samples"][match.group(1)]
        return tail_percentile(xs, q) if q > 0.5 else percentile(xs, q)
    if name in raw["samples"]:
        return statistics.median(raw["samples"][name])
    raise KeyError(f"metric {name} missing from the record")


def assemble(raw, spec, trace):
    """The result object: checks counted, and every end-to-end metric
    (trace off) or every per-layer metric (trace on) of `spec` by name."""
    attempted, failed = count_checks(raw["checks"])
    if attempted == 0:
        raise ValueError("the run made no output checks")
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = metric_value(m["name"], raw)
        if value is None or not math.isfinite(value):
            raise ValueError(f"metric {m['name']} is {value}")
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
