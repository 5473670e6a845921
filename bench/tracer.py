"""In-memory call tracing of vlcsim's layers, installed from outside the package.

`Tracer.install` wraps every public function defined in a layer module and
rebinds each module attribute that refers to it, including the names other
modules imported with `from .x import y`, so every call goes through the
wrapper. Each call records a span (name, start, end, parent span, invocation
id); spans stay in arrays until the run ends. A span's self time is its
duration minus the time its child spans cover.
"""

import functools
import importlib
import inspect
import sys
from array import array
from statistics import median
from time import perf_counter

PACKAGE = "vlcsim"
LAYERS = ("cli", "sceneconfig", "presets", "scenarios", "channel", "phy", "mimo", "oracle")
PROBE_SPAN = "trace.probe"

# Per-function metrics reported by the traced run, by span name.
FUNCTION_METRICS = {
    "oracle.simulate_frame": ("calls", "self_s", "us_per_call"),
    "oracle.empirical_fsr": ("self_s",),
    "oracle.oracle_snr_for": ("calls", "self_s"),
    "channel.channel_matrix": ("calls", "self_s", "us_per_call"),
    "channel.los_gain": ("calls", "self_s"),
    "channel.rssi_per_chain": ("self_s",),
    "phy.fsr": ("calls", "self_s"),
    "mimo.mrc_combine": ("calls", "self_s"),
    "mimo.zf_decode": ("calls", "self_s", "us_per_call"),
    "scenarios.run_siso_sweep": ("self_s",),
    "scenarios.run_blockage_timeline": ("self_s",),
    "scenarios.run_mrc_fsr_point": ("self_s",),
    "scenarios.run_handover_sweep": ("self_s",),
    "scenarios.run_mimo_area_grid": ("self_s",),
    "scenarios.run_csi_report": ("self_s",),
    "presets.mimo_area_scene": ("calls", "self_s"),
    "presets.area2_tilt_for_imbalance": ("calls", "self_s"),
    "presets.siso_scene": ("calls", "self_s"),
    "presets.handover_scene": ("calls", "self_s"),
    "presets.handover_angles": ("calls", "self_s"),
    "presets.csi_siso_scene": ("calls", "self_s"),
    "presets.csi_miso_scene": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
    "cli.run": ("self_s",),
    "sceneconfig.load_scene": ("self_s",),
    "sceneconfig.validate_scene_file": ("self_s",),
}

# Repeated-work counts, computed by hashing arguments and returned arrays.
COUNT_METRICS = ("channel.matrix_unique_ratio", "oracle.waterfall_unique_ratio",
                 "presets.tilt_solves_per_imbalance", "mimo.zf_decode.subcarriers")

IMPORT_GROUPS = ("numpy", "scipy", "vlcsim")

UNITS = {"calls": "count", "self_s": "s", "us_per_call": "us",
         "matrix_unique_ratio": "ratio", "waterfall_unique_ratio": "ratio",
         "tilt_solves_per_imbalance": "count", "subcarriers": "count"}


def per_layer_metrics():
    """(name, unit, better) of every metric the traced run reports, in order."""
    out = []
    for fn, stats in FUNCTION_METRICS.items():
        out += [(f"{fn}.{s}", UNITS[s], "lower") for s in stats]
    for name in COUNT_METRICS:
        better = "higher" if name.endswith("unique_ratio") else "lower"
        out.append((name, UNITS[name.rsplit(".", 1)[1]], better))
    for layer in LAYERS:
        out += [(f"{layer}.self_s", "s", "lower"), (f"{layer}.errors", "count", "lower")]
    out.append(("cli.bytes_written", "bytes", "lower"))
    out += [(f"import.{g}_s", "s", "lower") for g in IMPORT_GROUPS]
    out += [("trace.spans", "count", "lower"), ("trace.overhead_s", "s", "lower")]
    return out


def _probe_channel_matrix(bound, result):
    return "channel.matrix_unique_ratio", result.path_gains.tobytes()


def _probe_oracle_snr_for(bound, result):
    a = bound.arguments
    return "oracle.waterfall_unique_ratio", (a["mcs"].modulation, a["frame"].payload_bytes * 8)


def _probe_tilt(bound, result):
    return "presets.tilt_solves_per_imbalance", bound.arguments["imbalance_db"]


def _probe_zf_decode(bound, result):
    return "mimo.zf_decode.subcarriers", bound.arguments["cm"].n_subcarriers


PROBES = {
    "channel.channel_matrix": _probe_channel_matrix,
    "oracle.oracle_snr_for": _probe_oracle_snr_for,
    "presets.area2_tilt_for_imbalance": _probe_tilt,
    "mimo.zf_decode": _probe_zf_decode,
}


class Tracer:
    """Span recorder for the layer modules of one process."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.invocation_of = array("i")
        self.raised = array("b")
        self.start = array("d")
        self.end = array("d")
        self.samples = {m: [] for m in COUNT_METRICS}  # metric -> [(invocation, value)]
        self.invocation = -1
        self._stack = []
        self._undo = []
        self._probe_id = self._intern(PROBE_SPAN)

    def _intern(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _open(self, nid):
        idx = len(self.name_id)
        stack = self._stack
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.invocation_of.append(self.invocation)
        self.raised.append(0)
        self.end.append(0.0)
        stack.append(idx)
        return idx

    def _wrap(self, name, fn):
        nid = self._intern(name)
        probe = PROBES.get(name)
        signature = inspect.signature(fn)
        start, end, raised, stack = self.start, self.end, self.raised, self._stack
        open_span = self._open

        def wrapper(*args, **kwargs):
            idx = open_span(nid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if probe is not None:
                self._record_probe(probe, signature.bind(*args, **kwargs), result)
            return result

        return functools.wraps(fn)(wrapper)

    def _record_probe(self, probe, bound, result):
        # The probe's own cost is a child span, so the caller's self time excludes it.
        idx = self._open(self._probe_id)
        self.start.append(perf_counter())
        metric, value = probe(bound, result)
        self.samples[metric].append((self.invocation, value))
        self.end[idx] = perf_counter()
        self._stack.pop()

    def install(self):
        """Wrap every public layer function and rebind every name bound to one."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()

    def spans(self):
        """The recorded spans as a dict of equal-length columns."""
        return {"name": [self.names[i] for i in self.name_id], "parent": list(self.parent),
                "invocation": list(self.invocation_of), "raised": list(self.raised),
                "start": list(self.start), "end": list(self.end)}


def self_times(parent, start, end):
    """Self time of each span: duration minus the time its children cover.

    Spans of one thread nest, so the children of a span never overlap and
    the time they cover is the sum of their durations.
    """
    cover = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            cover[p] += end[i] - start[i]
    return [e - s - c for s, e, c in zip(start, end, cover)]


def aggregate(spans, samples, pass_of_invocation, n_passes):
    """Per-pass layer metrics from a span table (see `Tracer.spans`) and the
    probe samples (see `Tracer.samples`).

    Counts are means over passes (every pass of a workload has the same
    shape, so they are exact); times are medians over passes.
    """
    selfs = self_times(spans["parent"], spans["start"], spans["end"])
    calls, self_s, errors = {}, {}, {}
    for name, inv, raised, st in zip(spans["name"], spans["invocation"], spans["raised"], selfs):
        p = pass_of_invocation[inv]
        calls.setdefault(name, [0] * n_passes)[p] += 1
        self_s.setdefault(name, [0.0] * n_passes)[p] += st
        if raised:
            errors.setdefault(name, [0] * n_passes)[p] += 1

    out = {}
    zero_i, zero_f = [0] * n_passes, [0.0] * n_passes
    for fn, stats in FUNCTION_METRICS.items():
        c, s = calls.get(fn, zero_i), self_s.get(fn, zero_f)
        for stat in stats:
            if stat == "calls":
                out[f"{fn}.calls"] = sum(c) / n_passes
            elif stat == "self_s":
                out[f"{fn}.self_s"] = median(s)
            else:
                out[f"{fn}.us_per_call"] = sum(s) / sum(c) * 1e6 if sum(c) else 0.0
    for layer in LAYERS:
        members = [n for n in self_s if n.split(".", 1)[0] == layer]
        out[f"{layer}.self_s"] = median(
            [sum(self_s[n][p] for n in members) for p in range(n_passes)])
        out[f"{layer}.errors"] = sum(
            sum(errors.get(n, zero_i)) for n in members) / n_passes
    out["trace.spans"] = len(selfs) / n_passes
    out.update(_count_metrics(samples, pass_of_invocation, n_passes))
    return out


def _count_metrics(samples, pass_of_invocation, n_passes):
    per_pass = {m: [[] for _ in range(n_passes)] for m in COUNT_METRICS}
    for metric, values in samples.items():
        for inv, value in values:
            per_pass[metric][pass_of_invocation[inv]].append(value)

    def unique_ratio(values):
        return len(set(values)) / len(values) if values else 0.0

    def per_distinct(values):
        return len(values) / len(set(values)) if values else 0.0

    reduce = {"channel.matrix_unique_ratio": unique_ratio,
              "oracle.waterfall_unique_ratio": unique_ratio,
              "presets.tilt_solves_per_imbalance": per_distinct,
              "mimo.zf_decode.subcarriers": sum}
    return {m: median(reduce[m](v) for v in per_pass[m]) for m in COUNT_METRICS}


def import_breakdown(importtime_stderr):
    """Seconds spent importing numpy, scipy and vlcsim, from `-X importtime` output.

    `import.vlcsim_s` is the cumulative time of `import vlcsim`, numpy and
    scipy included. numpy counts only imports not made from inside numpy or
    scipy, and scipy only imports not made from inside scipy, so nothing is
    counted twice within a group.
    """
    entries = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line.split("|", 2)
        level = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((level, name.strip(), int(cumulative)))

    totals = dict.fromkeys(IMPORT_GROUPS, 0)
    path = []  # groups of the enclosing imports; the outer import is printed last
    for level, name, cumulative_us in reversed(entries):
        del path[level:]
        group = name.split(".", 1)[0]
        if group == "vlcsim":
            if name == "vlcsim":
                totals["vlcsim"] += cumulative_us
        elif group == "numpy" and not {"numpy", "scipy"} & set(path):
            totals["numpy"] += cumulative_us
        elif group == "scipy" and "scipy" not in path:
            totals["scipy"] += cumulative_us
        path.append(group)
    return {f"import.{g}_s": totals[g] / 1e6 for g in IMPORT_GROUPS}
