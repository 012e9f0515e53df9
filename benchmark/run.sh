#!/usr/bin/env bash
# Builds the benchmark (release) and runs every workload; extra arguments
# are passed through, e.g. `benchmark/run.sh --trace --seed 8` or
# `benchmark/run.sh --quick`. With a mode of your own (`--list`,
# `--workload <name>`, `--repeat-check [N]`) `--all` is left out.
set -euo pipefail
cd "$(dirname "$0")"
mode=--all
for arg in "$@"; do
    case "$arg" in
    --list | --workload | --repeat-check | --all) mode= ;;
    esac
done
exec cargo run --release --offline --quiet -- $mode "$@"
