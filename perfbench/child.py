"""One child process of the benchmark, run under the speed probe.

    python3 perfbench/child.py PROBE_JSON import
    python3 perfbench/child.py PROBE_JSON cli ARG...

`import` does `import adiasearch`; `cli` runs the package as
`python -m adiasearch ARG...` does. Either way the child samples its own
speed with speed.py while it works: with the interpreter kernel during the
import, with the array kernel after it. It writes the burst count, the
factor to the reference speed and the time the bursts took to PROBE_JSON,
and exits with the command's exit code.
"""

import json
import runpy
import sys

import speed


def main() -> int:
    probe_path, mode, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    probe = speed.SpeedProbe()
    probe.warm(speed.INTERPRETER)
    speeds = []
    code = 0
    try:
        with probe.sampling(speed.INTERPRETER, speeds):
            import adiasearch  # noqa: F401
        if mode == "cli":
            array = speed.array_kernel()
            probe.warm(array)
            with probe.sampling(array, speeds):
                sys.argv = ["adiasearch", *args]
                runpy.run_module("adiasearch", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        with open(probe_path, "w") as handle:
            json.dump(
                {
                    "bursts": len(speeds),
                    "scale": speed.scale(speeds) if speeds else None,
                    "busy_s": probe.busy_s,
                },
                handle,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
