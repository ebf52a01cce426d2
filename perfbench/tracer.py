"""Out-of-tree tracer for the ``subvacuum`` layers.

The tracer wraps the public functions of each ``subvacuum`` module by
rebinding their names in every ``subvacuum`` module that bound them, and
restores the originals afterwards; nothing under ``src/`` changes.  Each
wrapped call pushes a frame; on return the frame's self time (duration minus
the time covered by its child frames) is added to its layer and group.

Calls listed in ``HOT`` are too frequent for span records: they only feed
counters and times.  A hot call made from inside its own layer is passed
straight through (only counted), so ``state_families.calls`` counts entries
into the layer and not internal helper calls.  Every other call also leaves
a span record (name, layer, parent span, start, end, self) in memory, written
out with :meth:`Tracer.write_spans` when the run ends.

A frame called from its own layer inherits the caller's group, so for
example the trial vectors a cutoff search builds count as cutoff search and
not as constructors.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

from stats import quantile
from workloads import VERIFY_FAMILIES

LAYERS = ("cli", "verification", "optimizer", "energy_density", "state_families", "fock_oracle")

#: Functions bound by a layer module without being defined there.
EXTRA = {"energy_density": ("minimize",)}

HOT = frozenset(
    {
        "optimizer.objective_F",
        "optimizer.fd_gradient",
        "energy_density.rho_two_mode_traveling",
        "energy_density.rho_two_mode_standing",
    }
)
#: Every public closed form is a hot scalar call.
HOT_LAYERS = frozenset({"state_families"})

CONSTRUCTORS = (
    "coherent_vector",
    "squeezed_vacuum_vector",
    "two_mode_squeezed_vector",
    "product_state",
    "superpose",
    "superpose_two_mode",
)
CUTOFF_SEARCH = ("coherent_cutoff_for", "squeezed_cutoff_for")

#: Per-layer metric names and units, in report order.
PER_LAYER = (
    [
        ("fock_oracle.self_s", "s"),
        ("fock_oracle.two_mode_moments.self_s", "s"),
        ("fock_oracle.two_mode_moments.calls", "count"),
        ("fock_oracle.constructors.self_s", "s"),
        ("fock_oracle.cutoff_search.self_s", "s"),
        ("fock_oracle.amp_elements", "count"),
        ("fock_oracle.grid_bytes_max", "bytes"),
        ("fock_oracle.cutoff_p50", "count"),
        ("fock_oracle.cutoff_max", "count"),
    ]
    + [(f"verification.family_s.{f}", "s") for f in VERIFY_FAMILIES]
    + [
        ("verification.identities_s", "s"),
        ("verification.self_s", "s"),
        ("verification.draws", "count"),
        ("verification.dev_over_tol_max", "ratio"),
        ("state_families.calls", "count"),
        ("state_families.self_s", "s"),
        ("state_families.us_per_call", "us"),
        ("state_families.degenerate", "count"),
        ("state_families.useful_ratio", "ratio"),
        ("optimizer.starts", "count"),
        ("optimizer.converged", "count"),
        ("optimizer.capped", "count"),
        ("optimizer.failed_starts", "count"),
        ("optimizer.objective_evals", "count"),
        ("optimizer.evals_per_start", "count"),
        ("optimizer.fd_gradient.calls", "count"),
        ("optimizer.self_s", "s"),
        ("optimizer.start_ms_p50", "ms"),
        ("optimizer.start_ms_p90", "ms"),
        ("energy_density.scan_s", "s"),
        ("energy_density.polish_s", "s"),
        ("energy_density.polish_nfev", "count"),
        ("energy_density.export_s", "s"),
        ("energy_density.point_evals", "count"),
        ("energy_density.samples", "count"),
        ("cli.self_s", "s"),
        ("cli.out_bytes", "bytes"),
        ("cli.commands", "count"),
        ("trace.overhead_s", "s"),
        ("proc.cpu_s", "s"),
    ]
)


class Frame:
    __slots__ = ("layer", "name", "group", "start", "child", "span")

    def __init__(self, layer, name, group, span):
        self.layer, self.name, self.group = layer, name, group
        self.start, self.child, self.span = 0.0, 0.0, span


class Tracer:
    """Frame stack plus in-memory counters and span records.

    ``clock`` is injectable so self-time bookkeeping can be tested with
    synthetic timestamps.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[Frame] = []
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)  # every call, by "layer.name"
        self.total: dict[str, float] = defaultdict(float)  # inclusive time, by "layer.name"
        self.entries: dict[str, int] = defaultdict(int)  # calls from another layer
        self.layer_self: dict[str, float] = defaultdict(float)
        self.group_self: dict[str, float] = defaultdict(float)  # by "layer.group"
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)

    def enter(self, layer: str, name: str, span: bool = True) -> Frame:
        parent = self.stack[-1] if self.stack else None
        same = parent is not None and parent.layer == layer
        group = parent.group if same else name
        span_id = parent.span if parent is not None else -1
        if span:
            self.spans.append(None)  # filled in on exit; index keeps start order
            span_id = len(self.spans) - 1
        frame = Frame(layer, name, group, span_id)
        self.calls[f"{layer}.{name}"] += 1
        if not same:
            self.entries[layer] += 1
        self.stack.append(frame)
        frame.start = self.clock()
        return frame

    def exit(self, frame: Frame, span: bool = True) -> float:
        end = self.clock()
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError("tracer frames exited out of order")
        duration = end - frame.start
        self_s = duration - frame.child
        if self.stack:
            self.stack[-1].child += duration
        self.total[f"{frame.layer}.{frame.name}"] += duration
        self.layer_self[frame.layer] += self_s
        self.group_self[f"{frame.layer}.{frame.group}"] += self_s
        if span:
            parent = self.stack[-1].span if self.stack else -1
            self.spans[frame.span] = (frame.name, frame.layer, frame.group, parent, frame.start, end, self_s)
        return duration

    def write_spans(self, path: str) -> None:
        keys = ("name", "layer", "group", "parent", "start", "end", "self_s")
        with open(path, "w", encoding="utf-8") as fh:
            for span in filter(None, self.spans):
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _wrap(tracer: Tracer, layer: str, name: str, fn, probe):
    hot = layer in HOT_LAYERS or f"{layer}.{name}" in HOT
    qual = f"{layer}.{name}"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = tracer.stack
        if hot and stack and stack[-1].layer == layer:
            tracer.calls[qual] += 1
            return fn(*args, **kwargs)
        frame = tracer.enter(layer, name, span=not hot)
        result = exc = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as e:
            exc = e
            raise
        finally:
            duration = tracer.exit(frame, span=not hot)
            if probe is not None:
                probe(tracer, duration, args, kwargs, result, exc)

    return traced


def _public_functions(module, layer: str):
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name)
        if callable(obj) and getattr(obj, "__module__", None) == module.__name__ and not isinstance(obj, type):
            yield name, obj
    for name in EXTRA.get(layer, ()):
        yield name, getattr(module, name)


# --------------------------------------------------------------------------
# Probes: read arguments and results of selected calls into counters.
# --------------------------------------------------------------------------


def _probe_constructor(tr, duration, args, kwargs, result, exc):
    if result is None:
        return
    size = result.amps.size
    tr.counters["fock_oracle.amp_elements"] += size
    if result.amps.ndim == 2:
        tr.counters["fock_oracle.grid_bytes_max"] = max(tr.counters["fock_oracle.grid_bytes_max"], 16 * size)


def _probe_cutoff(tr, duration, args, kwargs, result, exc):
    if result is not None:
        tr.samples["fock_oracle.cutoff"].append(result)


def _probe_verify_family(tr, duration, args, kwargs, result, exc):
    family = args[0] if args else kwargs["family"]
    tr.counters[f"verification.family_s.{family}"] += duration
    if result is not None:
        tr.counters["verification.draws"] += result.draws
        tol = max(1e-8, 10.0 * result.tail_bound)
        tr.samples["verification.dev_over_tol"].append(result.max_abs_deviation / tol)


def _probe_identities(tr, duration, args, kwargs, result, exc):
    tr.counters["verification.identities_s"] += duration
    for row in result or ():
        if row.required:
            tr.samples["verification.dev_over_tol"].append(row.deviation / row.tolerance)


def _probe_closed_form(tr, duration, args, kwargs, result, exc):
    if exc is not None and type(exc).__name__ == "DegenerateStateError":
        tr.counters["state_families.degenerate"] += 1


def _probe_ascend(tr, duration, args, kwargs, result, exc):
    tr.samples["optimizer.start_ms"].append(duration * 1e3)
    if result is not None:
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        tr.counters["optimizer.converged"] += bool(result.converged)
        tr.counters["optimizer.capped"] += result.iterations == cfg.max_iters


def _probe_multi_start(tr, duration, args, kwargs, result, exc):
    if result is not None:
        tr.counters["optimizer.failed_starts"] += result.failed_starts


def _probe_minimize(tr, duration, args, kwargs, result, exc):
    if result is not None:
        tr.counters["energy_density.polish_nfev"] += result.nfev


def _probe_profile(tr, duration, args, kwargs, result, exc):
    if result is not None:
        tr.counters["energy_density.samples"] += len(result.samples)


PROBES = {
    **{f"fock_oracle.{n}": _probe_constructor for n in CONSTRUCTORS},
    **{f"fock_oracle.{n}": _probe_cutoff for n in CUTOFF_SEARCH},
    "verification.verify_family": _probe_verify_family,
    "verification.appendix_identity_report": _probe_identities,
    "optimizer.ascend": _probe_ascend,
    "optimizer.multi_start": _probe_multi_start,
    "energy_density.minimize": _probe_minimize,
    "energy_density.density_profile": _probe_profile,
}


def install(tracer: Tracer):
    """Rebind every public layer function in all loaded ``subvacuum`` modules.

    Returns the list of (module, attribute, original) bindings for
    :func:`uninstall`.
    """
    layer_modules = {layer: importlib.import_module(f"subvacuum.{layer}") for layer in LAYERS}
    modules = [m for n, m in sorted(sys.modules.items()) if n == "subvacuum" or n.startswith("subvacuum.")]
    replaced = []
    for layer, layer_module in layer_modules.items():
        for name, fn in list(_public_functions(layer_module, layer)):
            probe = PROBES.get(f"{layer}.{name}")
            if probe is None and layer == "state_families":
                probe = _probe_closed_form
            wrapped = _wrap(tracer, layer, name, fn, probe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapped)
                        replaced.append((module, attr, fn))
    return replaced


def uninstall(replaced) -> None:
    for module, attr, fn in reversed(replaced):
        setattr(module, attr, fn)


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Derive the per-layer metrics from one traced pass (without overhead/cpu)."""
    c, tot, gs = tr.counters, tr.total, tr.group_self
    cutoffs = tr.samples["fock_oracle.cutoff"]
    starts = tr.calls["optimizer.ascend"]
    sf_calls = tr.entries["state_families"]
    sf_self = tr.layer_self["state_families"]
    start_ms = tr.samples["optimizer.start_ms"]
    dev = tr.samples["verification.dev_over_tol"]
    m = {
        "fock_oracle.self_s": tr.layer_self["fock_oracle"],
        "fock_oracle.two_mode_moments.self_s": gs["fock_oracle.two_mode_moments"],
        "fock_oracle.two_mode_moments.calls": tr.calls["fock_oracle.two_mode_moments"],
        "fock_oracle.constructors.self_s": sum(gs[f"fock_oracle.{n}"] for n in CONSTRUCTORS),
        "fock_oracle.cutoff_search.self_s": sum(gs[f"fock_oracle.{n}"] for n in CUTOFF_SEARCH),
        "fock_oracle.amp_elements": c["fock_oracle.amp_elements"],
        "fock_oracle.grid_bytes_max": c["fock_oracle.grid_bytes_max"],
        "fock_oracle.cutoff_p50": quantile(cutoffs, 0.5) if cutoffs else 0,
        "fock_oracle.cutoff_max": max(cutoffs, default=0),
    }
    for f in VERIFY_FAMILIES:
        m[f"verification.family_s.{f}"] = c[f"verification.family_s.{f}"]
    m.update(
        {
            "verification.identities_s": c["verification.identities_s"],
            "verification.self_s": tr.layer_self["verification"],
            "verification.draws": c["verification.draws"],
            "verification.dev_over_tol_max": max(dev, default=0.0),
            "state_families.calls": sf_calls,
            "state_families.self_s": sf_self,
            "state_families.us_per_call": sf_self / sf_calls * 1e6 if sf_calls else 0.0,
            "state_families.degenerate": c["state_families.degenerate"],
            "state_families.useful_ratio": (sf_calls - c["state_families.degenerate"]) / sf_calls if sf_calls else 0.0,
            "optimizer.starts": starts,
            "optimizer.converged": c["optimizer.converged"],
            "optimizer.capped": c["optimizer.capped"],
            "optimizer.failed_starts": c["optimizer.failed_starts"],
            "optimizer.objective_evals": tr.calls["optimizer.objective_F"],
            "optimizer.evals_per_start": tr.calls["optimizer.objective_F"] / starts if starts else 0.0,
            "optimizer.fd_gradient.calls": tr.calls["optimizer.fd_gradient"],
            "optimizer.self_s": tr.layer_self["optimizer"],
            "optimizer.start_ms_p50": quantile(start_ms, 0.5) if start_ms else 0.0,
            "optimizer.start_ms_p90": quantile(start_ms, 0.9) if start_ms else 0.0,
            # The density phases nest (profile > numeric minimum > polish),
            # so each phase is its inclusive time minus the phase inside it.
            "energy_density.scan_s": tot["energy_density.rho_min_two_mode_numeric"] - tot["energy_density.minimize"],
            "energy_density.polish_s": tot["energy_density.minimize"],
            "energy_density.polish_nfev": c["energy_density.polish_nfev"],
            "energy_density.export_s": tot["energy_density.density_profile"]
            - tot["energy_density.rho_min_two_mode_numeric"],
            "energy_density.point_evals": tr.calls["energy_density.rho_two_mode_traveling"]
            + tr.calls["energy_density.rho_two_mode_standing"],
            "energy_density.samples": c["energy_density.samples"],
            "cli.self_s": tr.layer_self["cli"],
            "cli.commands": tr.calls["cli.main"],
        }
    )
    return m
