"""Traced ``repro serve``: wrap the serving layers' entry points in
spans, run the CLI, write the spans at exit.

Usage: ``python3 serve_launcher.py SPANS_PATH <repro serve arguments>``
"""

from __future__ import annotations

import sys

from tracing import Tracer


def main(argv: "list[str]") -> int:
    spans_path, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    import repro.plan.cache as cache
    import repro.plan.service as service

    tracer.wrap(service.PlanService, "submit", "service.submit")
    tracer.wrap(cache.PlanCache, "get", "cache.get")
    tracer.wrap(cache.PlanCache, "put", "cache.put")
    tracer.wrap(service, "plan_batch", "core.plan_batch",
                count=lambda args, _kwargs, _result: len(args[0]))
    tracer.wrap(service, "calibrate_cached", "model.calibrate")
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve"] + serve_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
