"""Run one pottstrip CLI job with a span around every call into a layer.

    python3 perfbench/traced_job.py <pottstrip arguments>

The program's stdout is left untouched.  The public functions of each
module are replaced, at every module that binds them by name, with a
wrapper that records the call as a span of its layer; a layer's self time
is its spans' duration minus the time of the spans they enclose.  Counters
are taken at the same boundaries.  When the job ends, one line
``perfbench-trace <json>`` is written to stderr.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

TRACE_PREFIX = "perfbench-trace "


class Tracer:
    """Per-layer self time, boundary crossings and counters of one process."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        # one [layer, time spent in child spans] per open span
        self._stack: list[list] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, layer: str, fn, after=None):
        """``fn`` recorded as a span of ``layer``; ``after(args, result)``
        runs inside the span to take counters."""

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = self._stack
            if not stack or stack[-1][0] != layer:
                self.calls[layer] = self.calls.get(layer, 0) + 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        return span

    def report(self) -> dict:
        return {"self_s": self.self_s, "calls": self.calls, "counters": self.counters}


def _public_functions(module) -> list[str]:
    """Plain functions defined in ``module``; generators are left out, since a
    span around one would close before its body runs."""
    return [
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not inspect.isgeneratorfunction(obj)
    ]


def install(tracer: Tracer):
    """Wrap each layer's functions.  Returns the wrapped ``cli.main`` and a
    callback that takes the counters read once the job is done."""
    import pottstrip
    from pottstrip import bruteforce, characters, cli, connectivity, suites, transfer

    compile_cache = transfer.column_transfer
    seen_k: set = set()

    def on_states(args, result):
        tracer.count("connectivity.states", len(result))

    def on_block(args, result):
        nonzeros = sum(not entry.is_zero for row in result.rows for entry in row)
        tracer.count("transfer.compile.nonzeros", nonzeros)

    def column_transfer(strip, marks):
        misses = compile_cache.cache_info().misses
        block = compile_cache(strip, marks)
        if compile_cache.cache_info().misses != misses:
            on_block(None, block)
        return block

    def on_character(args, result):
        key = (args[0], args[1])
        if key in seen_k:
            return
        seen_k.add(key)
        tracer.count("transfer.propagate.distinct")
        bits = tracer.counters.get("transfer.propagate.coeff_bits", 0)
        for _, coeff in result.terms():
            tracer.count("transfer.propagate.terms")
            bits = max(bits, coeff.numerator.bit_length(), coeff.denominator.bit_length())
        tracer.counters["transfer.propagate.coeff_bits"] = bits

    def on_blockcheck(args, result):
        tracer.count("transfer.blockcheck.two_slice_states", result.dimension)

    original_histogram = bruteforce.fk_histogram

    def fk_histogram(strip, workers=1):
        hit = strip in bruteforce._HISTOGRAM_CACHE
        counts = original_histogram(strip, workers)
        tracer.count("bruteforce.histogram_calls")
        if hit:
            tracer.count("bruteforce.histogram_hits")
        else:
            tracer.count("bruteforce.subsets", 1 << strip.edge_count)
        return counts

    replacements = {}

    def add(layer, module, name, after=None, body=None):
        original = getattr(module, name)
        replacements[id(original)] = tracer.wrap(layer, body or original, after)

    add("connectivity", connectivity, "enumerate_states", on_states)
    add("connectivity", connectivity, "enumerate_two_slice", on_states)
    add("transfer.compile", transfer, "column_transfer", body=column_transfer)
    add("transfer.compile", transfer, "edge_operator", on_block)
    add("transfer.propagate", transfer, "character_K", on_character)
    add("transfer.blockcheck", transfer, "verify_block_structure", on_blockcheck)
    for name in _public_functions(characters):
        add("characters", characters, name)
    for name in _public_functions(bruteforce):
        add("bruteforce", bruteforce, name, body=fk_histogram if name == "fk_histogram" else None)
    for name in _public_functions(suites):
        add("suites", suites, name)
    add("cli", cli, "main")

    # rebind at every import site, including the defining module
    modules = [pottstrip] + [
        m for n, m in sys.modules.items() if n.startswith("pottstrip.") and m is not None
    ]
    for module in modules:
        for name, obj in list(vars(module).items()):
            wrapper = replacements.get(id(obj))
            if wrapper is not None:
                setattr(module, name, wrapper)

    def finish() -> None:
        info = compile_cache.cache_info()
        tracer.count("transfer.compile.cache_hits", info.hits)
        tracer.count("transfer.compile.cache_lookups", info.hits + info.misses)

    return cli.main, finish


def main(argv: list[str]) -> int:
    tracer = Tracer()
    cli_main, finish = install(tracer)
    try:
        code = cli_main(argv)
    finally:
        sys.stdout.flush()
        finish()
        sys.stderr.write(TRACE_PREFIX + json.dumps(tracer.report()) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
