"""Command line front end for the Monte Carlo harness."""

from __future__ import annotations

import argparse
import sys

from .experiment import SCHEMES, ExperimentConfig, emit, run_experiment
from .protocol import parse_protocol


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="markovsim",
        description="Monte Carlo failure-rate estimates for interactive "
        "protocol simulation over a pair of binary symmetric channels.",
    )
    ap.add_argument("--n", type=_int_list, default=(256,),
                    help="comma-separated protocol lengths (default 256)")
    ap.add_argument("--eps", type=_float_list, default=(0.0,),
                    help="comma-separated crossover probabilities (default 0.0)")
    ap.add_argument("--scheme", choices=SCHEMES, default="baseline")
    ap.add_argument("--code", default="identity",
                    help="identity | repR | rlc:k=K,rate=R[,seed=S]")
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0, help="master seed")
    ap.add_argument("--format", choices=("csv", "json"), default="csv")
    ap.add_argument("--out", default="-", help="output path, - for stdout")
    ap.add_argument("--m-override", type=int, default=None,
                    help="block length for scheme2 (default ceil(sqrt(n))); "
                         "the other schemes reject it")
    ap.add_argument("--protocol-file", default=None,
                    help="run the serialized protocols in this file (one per "
                         "line, cycled over trials) instead of random ones; "
                         "overrides --n")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        protocols = None
        if args.protocol_file is not None:
            with open(args.protocol_file) as fh:
                lines = [ln for ln in fh.read().splitlines() if ln.strip()]
            if not lines:
                raise ValueError("protocol file is empty")
            protocols = tuple(parse_protocol(ln) for ln in lines)
        cfg = ExperimentConfig(
            n_values=args.n,
            eps_values=args.eps,
            scheme=args.scheme,
            code=args.code,
            trials=args.trials,
            seed=args.seed,
            m_override=args.m_override,
            protocols=protocols,
        )
        text = emit(run_experiment(cfg), args.format)
        if args.out == "-":
            sys.stdout.write(text)
        else:
            with open(args.out, "w") as fh:
                fh.write(text)
    except (ValueError, OSError) as exc:
        print(f"markovsim: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
