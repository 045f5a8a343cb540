"""Set-up probe run in a fresh interpreter by `run.py`: import canonform, then
parse, compile, emit and exec the generated module of each named definition.
Prints `ready <seconds>`, the time from before `import canonform` to the end.

    python3 perfbench/setup_child.py SRC_DIR DEF_FILE...
"""

import sys
from time import perf_counter


def main(argv: list[str]) -> None:
    src, files = argv[0], argv[1:]
    sys.path.insert(0, src)
    t0 = perf_counter()
    import canonform
    from canonform.emit import emit_code

    for path in files:
        with open(path, encoding="utf-8") as fh:
            sig, spec = canonform.parse_definition(fh.read())
        exec(compile(emit_code(canonform.compile_family(sig, spec)), path, "exec"), {})
    print(f"ready {perf_counter() - t0!r}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
