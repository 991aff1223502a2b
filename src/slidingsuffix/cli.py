"""Command-line surface: stream, interact, verify, worstcase."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from .tree import SlidingSuffixTree, MODES, as_pattern, as_symbol
from .verify import VerifyConfig, run_verify, run_worstcase
from . import checks


STREAM_CHUNK = 1 << 16  # bytes read at a time, so inputs need not fit in memory


def cmd_stream(args) -> int:
    tree = SlidingSuffixTree(args.window, mode=args.mode)
    if args.file == "-":
        source = contextlib.nullcontext(sys.stdin.buffer)
    else:
        try:
            source = open(args.file, "rb")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    slide = tree.slide
    every = args.check_every
    total = 0
    start = time.perf_counter()
    with source as fh:
        while chunk := fh.read(STREAM_CHUNK):
            if not every:
                tree.extend(chunk)
                total += len(chunk)
                continue
            for sym in chunk:
                slide(sym)
                total += 1
                if total % every == 0:
                    bad = checks.audit(tree).violations()
                    if bad:
                        print(json.dumps({"ok": False, "at_byte": total,
                                          "violations": bad}))
                        return 1
    elapsed = time.perf_counter() - start
    report = {
        "file": args.file,
        "bytes": total,
        "window": args.window,
        "mode": args.mode,
        "appends": total,
        "deletes": total - len(tree),
        "final_window_len": len(tree),
        "elapsed_s": round(elapsed, 6),
    }
    report.update(tree.stats())
    print(json.dumps(report))
    return 0


def _request(tree, line: str):
    """Parse and validate one request as ``(op, argument)``.

    Nothing here touches the tree, so any exception raised is a client
    error and the tree is left as it was.
    """
    req = json.loads(line)
    if not isinstance(req, dict):
        raise ValueError("a request must be a JSON object")
    op = req.get("op")
    if op in ("append", "slide"):
        sym = as_symbol(req.get("sym"))
        if op == "append" and len(tree) >= tree.capacity:
            raise ValueError("window is full; delete_front before appending")
        return op, sym
    if op == "query":
        return op, as_pattern(req.get("pattern"))
    if op == "stats":
        return op, None
    raise ValueError(f"unknown op {op!r}")


def _serve(tree, op: str, arg) -> dict:
    if op == "append":
        tree.append(arg)
    elif op == "slide":
        tree.slide(arg)
    elif op == "query":
        occ = tree.find_all(arg) if arg else []
        return {"occurrences": occ, "absolute": [k + tree.tail - 1 for k in occ]}
    else:
        return tree.stats()
    return {"ok": True, "tail": tree.tail, "head": tree.head}


def _lines(stream, cap: int):
    """Yield each line of stream, or None in place of a line of more than
    ``cap`` characters, whose rest is read and dropped ``cap`` at a time."""
    while line := stream.readline(cap + 1):
        if len(line) <= cap or line.endswith("\n"):
            yield line
            continue
        while line and not line.endswith("\n"):
            line = stream.readline(cap)
        yield None


def cmd_interact(args) -> int:
    """Serve JSONL requests until end of input or the first internal fault.

    A request that fails validation is a client error: it is answered with
    ``{"error": ...}`` and the loop goes on.  So is a line too long to
    hold a window-long pattern, which is never held whole in memory.  An
    exception raised while a valid request is served means the tree may be
    half-mutated, so the loop answers ``{"error": ..., "fatal": true}`` and
    stops with exit 1 rather than serve answers from a broken tree.
    """
    tree = SlidingSuffixTree(args.window, mode=args.mode)
    # a window-long pattern written wholly as \u00XX escapes, plus framing;
    # a longer pattern matches nothing
    cap = 6 * args.window + 256
    for line in _lines(sys.stdin, cap):
        if line is None:
            print(json.dumps({"error": f"request longer than {cap} characters"}),
                  flush=True)
            continue
        line = line.strip()
        if not line:
            continue
        try:
            op, arg = _request(tree, line)
        except Exception as exc:  # malformed input must not kill the loop
            print(json.dumps({"error": str(exc)}), flush=True)
            continue
        try:
            resp = _serve(tree, op, arg)
        except Exception as exc:
            print(json.dumps({"error": f"internal fault: {exc!r}", "fatal": True}),
                  flush=True)
            return 1
        print(json.dumps(resp), flush=True)
    return 0


def cmd_verify(args) -> int:
    cfg = VerifyConfig(seed=args.seed, iters=args.iters, sigma=args.sigma,
                       window=args.window, patterns_per_state=args.patterns)
    result = run_verify(cfg)
    print(json.dumps(result.as_dict()))
    return 0 if result.ok else 1


def cmd_worstcase(args) -> int:
    report = run_worstcase(args.n, args.mode, args.variant)
    print(json.dumps(report))
    return 0


def int_in(low: int, high: int = None):
    """An argparse type: an int from ``low`` up to ``high`` (if given)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slidingsuffix",
        description="Sliding-window suffix tree with constant-time leaf pointers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stream", help="index a file through the sliding window")
    p.add_argument("file", help="input file, or - for standard input")
    p.add_argument("--window", type=int_in(1), required=True)
    p.add_argument("--mode", choices=MODES, default="plp")
    p.add_argument("--check-every", type=int_in(0), default=0, metavar="K",
                   help="run the invariant audit every K bytes (0 = off); the "
                        "oracle topology check runs only while the window holds "
                        f"at most {checks.ORACLE_MAX_WINDOW} symbols")
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("interact", help="JSONL protocol on stdin/stdout")
    p.add_argument("--window", type=int_in(1), required=True)
    p.add_argument("--mode", choices=MODES, default="plp")
    p.set_defaults(func=cmd_interact)

    p = sub.add_parser("verify", help="randomized differential verification")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--iters", type=int_in(0), default=2000)
    p.add_argument("--sigma", type=int_in(1, 256 - ord("a")), default=2,
                   help="alphabet size; symbols start at 'a'")
    p.add_argument("--window", type=int_in(1), default=8)
    p.add_argument("--patterns", type=int_in(0), default=4,
                   help="matching probes per state")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("worstcase", help="reproduce the per-event cost separation")
    p.add_argument("--n", type=int_in(2), required=True)
    p.add_argument("--mode", choices=MODES, default="credit")
    p.add_argument("--variant", choices=("insert", "delete"), default="insert")
    p.set_defaults(func=cmd_worstcase)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed reader shows up here, not at exit
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so the interpreter's
        # final flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
