"""Regenerate ``pins.json``: the simulated outputs of every workload at
the default seed.

Run from the root of a checkout, on a commit whose simulated outputs
are known good::

    python3 perfbench/pin.py

A performance change must leave these values untouched, so re-pinning
belongs only to a change that sets out to alter modelled behaviour.
The event count is left out: it is the ``sim.events_per_op`` counter a
performance change may lower.
"""

from __future__ import annotations

import json

from run import BENCH_DIR, Spans, _load_program

#: outputs that are exact but not pinned
UNPINNED = ("events",)


def main():
    _load_program()
    from workloads import DEFAULT_SEED, WORKLOADS

    pins = {}
    for name, cls in WORKLOADS.items():
        workload = cls()
        workload.setup(DEFAULT_SEED)
        workload.run(Spans(), lambda: None)
        pins[name] = {
            key: value for key, value in workload.outputs().items()
            if key not in UNPINNED
        }
        print(name, pins[name])
    (BENCH_DIR / "pins.json").write_text(
        json.dumps(pins, indent=1, sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    main()
