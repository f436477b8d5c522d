"""Per-layer tracing from outside the package.

Spans come from rebinding the public functions of ugckit's layer modules
(data, gpr, joints, archive, mechanics) and cli.main with timing wrappers,
in every ugckit module namespace that holds them (cli imports
parse_measurements and average_runs by value). Spans stay in memory as
[name, start, end, parent] and are rolled up after each pass. A span's self
time is its duration minus that of its child spans; only the functions below
are traced, so helpers a traced function calls count in its self time.
"""

import collections
import inspect
import statistics
import subprocess
import sys
import time
from pathlib import Path

# metric name -> traced function whose summed self time it reports
TIME_METRICS = {
    "cli.self_s": "cli.main",
    "data.parse_s": "data.parse_measurements",
    "data.average_s": "data.average_runs",
    "gpr.fit_s": "gpr.fit",
    "gpr.predict_s": "gpr.predict",
    "gpr.kernel_matrix_s": "gpr.kernel_matrix",
    "gpr.tune_s": "gpr.tune_hyperparams",
    "joints.loo_gp_s": "joints.loo_rmse_gp",
    "joints.loo_poly_s": "joints.loo_rmse_poly",
    "joints.fit_family_s": "joints.fit_family_model",
    "joints.predict_force_s": "joints.predict_force",
    "joints.predict_return_s": "joints.predict_return_angle",
    "archive.save_s": "archive.save_model",
    "archive.load_s": "archive.load_archive",
    "mechanics.spec_parse_s": "mechanics.spec_from_json_dict",
    "mechanics.design_s": "mechanics.design_module",
}

# metric name -> traced function whose calls it counts
CALL_METRICS = {
    "gpr.fit_calls": "gpr.fit",
    "gpr.predict_calls": "gpr.predict",
    "gpr.kernel_matrix_calls": "gpr.kernel_matrix",
    "gpr.tune_calls": "gpr.tune_hyperparams",
    "joints.loo_gp_calls": "joints.loo_rmse_gp",
    "joints.predict_force_calls": "joints.predict_force",
    "joints.predict_return_calls": "joints.predict_return_angle",
    "archive.load_calls": "archive.load_archive",
    "mechanics.design_calls": "mechanics.design_module",
}

TRACED = sorted(set(TIME_METRICS.values()) | set(CALL_METRICS.values()))


def _file_size(path) -> int:
    return Path(path).stat().st_size


# counts taken at a span boundary: traced function -> (counter, amount as a
# function of the call's bound arguments and its result)
BOUNDARY_COUNTS = {
    "data.parse_measurements": ("data.rows", lambda a, result: len(result)),
    "archive.save_model": ("archive.bytes", lambda a, result: _file_size(a["path"])),
    "archive.load_archive": ("archive.bytes", lambda a, result: _file_size(a["path"])),
    "joints.loo_rmse_gp": ("loo_rows", lambda a, result: len(a["y"])),
}


class Tracer:
    """Records spans and boundary counts while installed."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        counter = BOUNDARY_COUNTS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter:
                bound = signature.bind(*args, **kwargs).arguments
                counts[counter[0]] += counter[1](bound, result)
            return result

        return traced

    def install(self, package_modules):
        """Rebind every traced function wherever a ugckit module holds it. A
        function the package no longer has is skipped and reads 0."""
        wrappers = {}
        for qualified in TRACED:
            layer, fname = qualified.split(".")
            fn = getattr(package_modules[layer], fname, None)
            if fn is not None:
                wrappers[id(fn)] = self._wrap(qualified, fn)
        for mod in package_modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def rollup(self) -> dict:
        """Per-layer self times and counts of everything recorded so far."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time = collections.Counter()
        calls = collections.Counter()
        loo_fits = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_time[name] += end - start - child_time[i]
            calls[name] += 1
            if name == "gpr.fit" and self._under(parent, "joints.loo_rmse_gp"):
                loo_fits += 1
        out = {metric: self_time[fn] for metric, fn in TIME_METRICS.items()}
        out.update({metric: calls[fn] for metric, fn in CALL_METRICS.items()})
        out["data.rows"] = self.counts["data.rows"]
        out["archive.bytes"] = self.counts["archive.bytes"]
        rows = self.counts["loo_rows"]
        out["joints.loo_fits_per_point"] = loo_fits / rows if rows else 0.0
        return out

    def _under(self, idx, name) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False


def import_breakdown(env, runs=3) -> dict:
    """cli.import_s and cli.import_scipy_s from `python -X importtime` in fresh
    interpreters, median over runs: cumulative times of the ugckit.cli and the
    first scipy.linalg entries."""
    total, scipy = [], []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import ugckit.cli"],
            env=env, capture_output=True, text=True, check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        total.append(cumulative["ugckit.cli"])
        scipy.append(cumulative.get("scipy.linalg", 0.0))
    return {"cli.import_s": statistics.median(total),
            "cli.import_scipy_s": statistics.median(scipy)}
