"""Launch ``repro.service`` for the benchmark, optionally with layer wrappers.

Usage::

    python3 perfbench/gateway_launch.py [--layers-out FILE] -- <repro.service args>

Without ``--layers-out`` this is ``python -m repro.service``.  With it, the
wrappers of :mod:`layers` are installed before the gateway is built and the
layer report is written to FILE as JSON once the gateway has drained.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list) -> int:
    layers_out = None
    if argv and argv[0] == "--layers-out":
        layers_out = Path(argv[1])
        argv = argv[2:]
    if argv and argv[0] == "--":
        argv = argv[1:]
    from repro.service.__main__ import main as serve

    if layers_out is None:
        return serve(argv)
    from layers import LayerTracer, install_core, install_service

    tracer = LayerTracer()
    install_core(tracer)
    install_service(tracer)
    try:
        code = serve(argv)
    finally:
        tracer.uninstall()
    report = tracer.report()
    report["total_self_s"] = tracer.total_self_s()
    layers_out.write_text(
        json.dumps({"layers": report, "samples": tracer.samples})
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
