"""One fresh, single-threaded process that runs configs through
``drinfeld_orders.cli.main``.  Started by ``run.py``; not meant to be run
by hand.

    python3 bench/child.py MANIFEST RESULT

The manifest lists the config files, the measuring time and the mode.
Setup is interpreter start, ``import drinfeld_orders`` and
``cli.load_config`` of every config; the monotonic clock at its end is
reported so the parent can time it from the moment it started the child.
Right after setup the child times the machine-speed kernel of ``speed.py``
a few times, so the parent can rescale the setup time.

Modes:
  setup   stop after setup.
  plain   closed loop: run every config in order, pass after pass, until
          the time is up (always at least one full pass).  Before each
          config the machine-speed kernel of ``speed.py`` runs once and
          its time is kept next to the config's.
  trace   the same loop, but each config runs three times in a row:
          untraced, with every layer's spans recorded by ``tracer.Tracer``,
          and with the per-call counters only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_KERNEL_SAMPLES = 5


def run_config(cli, argv):
    """(exit code or exception text, stdout, seconds) of one cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # an uncaught exception is a failed config
        rc = f"uncaught {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), time.perf_counter() - t0


def digest(rc, stdout: str) -> str:
    return hashlib.sha256(f"{rc}\n{stdout}".encode()).hexdigest()


class Outputs:
    """Distinct (exit code, stdout) per config with how often each came."""

    def __init__(self, n):
        self.seen = [dict() for _ in range(n)]

    def add(self, idx, rc, stdout):
        d = digest(rc, stdout)
        entry = self.seen[idx].get(d)
        if entry is None:
            entry = self.seen[idx][d] = {"rc": rc, "stdout": stdout, "count": 0}
        entry["count"] += 1
        return d

    def to_json(self):
        return [[{"digest": d, **e} for d, e in s.items()] for s in self.seen]


def main(manifest_path, result_path):
    manifest = json.loads(Path(manifest_path).read_text())
    sys.path.insert(0, str(ROOT / "src"))
    from drinfeld_orders import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported {cli.__file__}, not the checkout's program")
    paths = manifest["paths"]
    for path in paths:
        cli.load_config(path)
    t_ready = time.monotonic()
    sys.path.insert(0, str(ROOT / "bench"))
    from speed import Kernel

    kernel = Kernel()
    result = {
        "t_ready": t_ready,
        "setup_kernel_s": [kernel.sample() for _ in range(SETUP_KERNEL_SAMPLES)],
    }
    if manifest["mode"] != "setup":
        result.update(measure(cli, paths, manifest, kernel))
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(json.dumps(result))


def measure(cli, paths, manifest, kernel):
    traced = manifest["mode"] == "trace"
    tracer = None
    if traced:
        from tracer import Tracer, wrapper_cost_us

        tracer = Tracer()
    deadline = time.monotonic() + manifest["seconds"]
    outputs = Outputs(len(paths))
    # untraced [pass, config, seconds, kernel seconds] and per-pass seconds
    samples, passes = [], []
    traced_samples, traced_passes, layer_passes = [], [], []
    mismatches = []
    pass_no = 0
    while True:
        pass_s = traced_s = 0.0
        complete = True
        for idx, path in enumerate(paths):
            if pass_no and time.monotonic() >= deadline:
                complete = False
                break
            argv = ["analyze", path, "--format", "json"]
            k_dt = None if traced else kernel.sample()
            rc, stdout, dt = run_config(cli, argv)
            d = outputs.add(idx, rc, stdout)
            samples.append([pass_no, idx, dt, k_dt])
            pass_s += dt
            if traced:
                for kind in ("span", "count"):
                    tracer.install(kind)
                    try:
                        rc2, stdout2, dt2 = run_config(cli, argv)
                    finally:
                        tracer.uninstall(kind)
                    if outputs.add(idx, rc2, stdout2) != d:
                        mismatches.append([idx, f"{kind} run's output differs from untraced"])
                    if kind == "span":
                        traced_samples.append([idx, dt2])
                        traced_s += dt2
        if not complete:
            break
        passes.append(pass_s)
        if traced:
            traced_passes.append(traced_s)
            layer_passes.append(tracer.reduce())
        pass_no += 1
        if time.monotonic() >= deadline:
            break
    out = {
        "samples": samples,
        "passes": passes,
        "outputs": outputs.to_json(),
        "mismatches": mismatches,
    }
    if traced:
        tracer.reduce()  # drop the spans of an unfinished pass
        out.update(
            {
                "traced_samples": traced_samples,
                "traced_passes": traced_passes,
                "layer_passes": layer_passes,
                "missing": tracer.missing,
                "wrapper_us": wrapper_cost_us(),
            }
        )
    return out


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
