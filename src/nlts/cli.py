"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 format/data error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .container import (
    FORMAT_VERSION,
    HEADER_LEN,
    CodecConfig,
    StreamHeader,
    compress_stream,
    decompress_to_tokens,
)
from .datasets import MISSING_POLICIES, WHITESPACE, DatasetSpec, ingest, packaged_spec
from .entropy import CODER_IDS, CODER_NAMES
from .errors import CodecError
from .quantizer import LOSSLESS
from .transform import METHOD_VERSIONS

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_FORMAT = 2
EXIT_IO = 3


def _column(arg: str) -> int | str:
    """A --column argument: an index if it is ASCII digits after an optional '-', else a header name."""
    digits = arg.removeprefix("-")
    return int(arg) if digits.isascii() and digits.isdigit() else arg


def _add_reading_options(parser) -> None:
    """The options that say how a file's column is read, shared by compress and verify.

    Added after the parser's own options, where compress has always listed
    them (an argparse parent would put them first).
    """
    default = DatasetSpec._field_defaults
    parser.add_argument("--column", type=_column, default=default["column"],
                        help="column index or header name (default: single column)")
    parser.add_argument("--delimiter", default=WHITESPACE,
                        help="field delimiter, or 'whitespace' (default)")
    parser.add_argument("--missing", choices=MISSING_POLICIES,
                        default=default["missing_policy"],
                        help="missing-value policy (default: %(default)s)")


def _reading_spec(args, path: str) -> DatasetSpec:
    """The DatasetSpec that reads path as the reading options in args say."""
    return DatasetSpec(
        name=os.path.basename(path),
        source_path=path,
        column=args.column,
        delimiter=args.delimiter,
        missing_policy=args.missing,
    )


# Built once per process: parse_args keeps no state in the parser, and
# building it takes a sizeable share of a small file's compress time.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nlts", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compress", help="compress a numeric text file")
    c.add_argument("input")
    c.add_argument("output")
    # every default is CodecConfig's own; CodecConfig checks the values
    default = CodecConfig()
    c.add_argument("--version", type=int, choices=METHOD_VERSIONS,
                   default=default.method_version)
    c.add_argument(
        "--coder", choices=sorted(CODER_IDS), default=CODER_NAMES[default.coder],
        help="entropy coder (default: %(default)s)",
    )
    c.add_argument("--block", type=int, default=default.block_len, metavar="L")
    c.add_argument("--tau", type=int, default=default.tau, metavar="N")
    g = c.add_mutually_exclusive_group()
    g.add_argument("--digits", type=int, default=default.digits, metavar="D",
                   help="fractional digits to keep (max error 10^-D)")
    g.add_argument("--lossless", action="store_true",
                   help="keep every digit (scale auto-detected)")
    _add_reading_options(c)

    d = sub.add_parser("decompress", help="decompress to numeric text")
    d.add_argument("input")
    d.add_argument("output")

    v = sub.add_parser("verify", help="check two value files against an error bound")
    v.add_argument("original")
    v.add_argument("decoded")
    v.add_argument("--epsilon", required=True,
                   help="maximum allowed absolute difference")
    # the original is read as compress read it; the decoded file is canonical
    _add_reading_options(v)

    b = sub.add_parser("bench", help="run a parameter sweep over a dataset")
    b.add_argument("dataset_spec",
                   help="packaged dataset name (bvp, eda, acm, gys, gas, gactive) "
                        "or a dataset spec JSON path")
    b.add_argument("sweep_spec", help="sweep spec JSON path")
    b.add_argument("--out", required=True, help="report CSV path")
    b.add_argument("--data-dir", default=None,
                   help="directory holding the dataset files "
                        "(default: $NLTS_DATA_DIR or cwd)")
    b.add_argument("--jobs", type=int, default=1,
                   help="worker processes for independent configs")

    s = sub.add_parser("stats", help="print a compressed file's header")
    s.add_argument("input")
    return p


def _cmd_compress(args) -> int:
    samples = ingest(_reading_spec(args, args.input))
    digits = LOSSLESS if args.lossless else args.digits
    cfg = CodecConfig(args.version, CODER_IDS[args.coder], args.block, args.tau, digits)
    blob, m = compress_stream(samples, cfg)
    with open(args.output, "wb") as f:
        f.write(blob)
    print(
        f"{len(samples)} samples -> {m.output_bytes} bytes  "
        f"cr={m.cr:.2f}  encode={m.rate:.2f} MB/s  "
        f"max_err={m.max_abs_error:g}"
    )
    return EXIT_OK


def _cmd_decompress(args) -> int:
    with open(args.input, "rb") as f:
        blob = f.read()
    tokens, m = decompress_to_tokens(blob)
    # newline="" writes the canonical text byte for byte on every platform
    with open(args.output, "w", encoding="utf-8", newline="") as f:
        f.write("\n".join(tokens))
        f.write("\n")
    print(
        f"{m.output_bytes} bytes -> {len(tokens)} samples  "
        f"cr={m.cr:.2f}  decode={m.rate:.2f} MB/s"
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .bench import verify_files  # compress and decompress never load the sweep harness
    result = verify_files(_reading_spec(args, args.original), args.decoded, args.epsilon)
    if result.ok:
        print(f"ok  max_abs_error={result.max_abs_error}")
        return EXIT_OK
    print(f"FAIL  max_abs_error={result.max_abs_error} at index {result.argmax_index} "
          f"(epsilon {args.epsilon})", file=sys.stderr)
    return EXIT_VERIFY


def _cmd_bench(args) -> int:
    from .bench import CONFIG_FIELDS, SweepSpec, config_label, run_sweep
    load = DatasetSpec.from_json if os.path.exists(args.dataset_spec) else packaged_spec
    dataset = load(args.dataset_spec)
    sweep = SweepSpec.from_json(args.sweep_spec)
    data_dir = args.data_dir or os.environ.get("NLTS_DATA_DIR") or "."
    rows = run_sweep(dataset, sweep, out_path=args.out, data_dir=data_dir, jobs=args.jobs)
    bad = [r for r in rows if r["error"]]
    print(f"{len(rows)} runs -> {args.out}  ({len(bad)} failed)")
    for r in bad:
        label = config_label(*map(r.__getitem__, CONFIG_FIELDS))
        print(f"  {label}: {r['error']}", file=sys.stderr)
    return EXIT_VERIFY if bad else EXIT_OK


def _cmd_stats(args) -> int:
    with open(args.input, "rb") as f:
        blob = f.read()
    h = StreamHeader.parse(blob)
    scale = "lossless-integer" if h.scale_exp is None else h.scale_exp
    print(f"format_version:  {FORMAT_VERSION}")
    print(f"method_version:  {h.method_version}")
    print(f"entropy_coder:   {CODER_NAMES[h.entropy_id]} ({h.entropy_id})")
    print(f"block_len:       {h.block_len}")
    print(f"tau:             {h.tau}")
    print(f"scale_exp:       {scale}")
    print(f"sample_count:    {h.sample_count}")
    print(f"payload_bytes:   {len(blob) - HEADER_LEN}")
    return EXIT_OK


_COMMANDS = {
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
    "stats": _cmd_stats,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except (CodecError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
