#!/usr/bin/env bash
# The tier-1 CI checks, one step per argument:
#
#     tools/ci.sh [tests|smoke|traced|outputs|all]
#     tools/ci.sh against REV
#
# ``all``, the default, runs the four steps in that order and stops at the
# first that fails.  ``against REV`` compares this checkout's outputs with
# those of the git revision REV; it is no CI step, since a change may move
# outputs on purpose; it also prints the change in the line count of
# src/qndlab.  Run from any directory; logs and digest files go to
# $RUNNER_TEMP, or to a fresh temporary directory when it is unset.
set -euo pipefail

cd "$(dirname "$0")/.."
tmp="${RUNNER_TEMP:-$(mktemp -d)}"
mkdir -p "$tmp"

usage() {
    echo "usage: tools/ci.sh [tests|smoke|traced|outputs|all] | tools/ci.sh against REV" >&2
}

step() {
    case "$1" in
    tests)
        # -X dev adds the interpreter's debug checks; the filterwarnings of
        # pyproject.toml fail a test on a runtime or resource warning
        PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -X dev -m pytest -q --continue-on-collection-errors
        ;;
    smoke)
        # the last output line is one JSON object; "correct" is false when an
        # op failed or its outputs failed the workload's own check
        for w in default-run seed-ensemble; do
            python3 benchmark/run.py --workload "$w" --seed 1 --seconds 5 --trace 0 > "$tmp/$w.log"
            cat "$tmp/$w.log"
            tail -n 1 "$tmp/$w.log" | python3 -c 'import json, sys; sys.exit(0 if json.load(sys.stdin)["correct"] is True else sys.argv[1] + ": outputs incorrect")' "$w"
        done
        ;;
    traced)
        # --trace 1 wraps model and pipeline calls by name, among them
        # SpectrumModel.__init__, quadrature_spectrum and cross_spectrum;
        # the traced run must pass the workload's own check too
        for w in default-run seed-ensemble; do
            python3 benchmark/run.py --workload "$w" --seed 1 --seconds 5 --trace 1 > "$tmp/$w.traced.log"
            cat "$tmp/$w.traced.log"
            tail -n 1 "$tmp/$w.traced.log" | python3 -c 'import json, sys; sys.exit(0 if json.load(sys.stdin)["correct"] is True else sys.argv[1] + ": traced outputs incorrect")' "$w"
        done
        ;;
    outputs)
        # tools/outputs.py runs every command over a fixed matrix and records
        # the SHA-256 of each output; two runs on one checkout must agree, and
        # --against exits 1 on any difference
        python3 tools/outputs.py --out "$tmp/outputs-1"
        python3 tools/outputs.py --out "$tmp/outputs-2" --against "$tmp/outputs-1"
        ;;
    against)
        # the digest matrix on REV, extracted by git archive into a fresh
        # directory, then on the checkout; --against prints what differs
        # and exits 1 if anything does, after the line counts of src/qndlab
        # at REV and in the checkout are printed
        if [ -z "${2:-}" ]; then
            usage
            return 2
        fi
        local dir before after status=0
        dir="$(mktemp -d "$tmp/against.XXXXXX")"
        mkdir "$dir/tree"
        git archive "$2" | tar -x -C "$dir/tree"
        python3 tools/outputs.py --src "$dir/tree" --out "$dir/rev"
        python3 tools/outputs.py --out "$dir/checkout" --against "$dir/rev" || status=$?
        before="$(cat "$dir"/tree/src/qndlab/*.py | wc -l)"
        after="$(cat src/qndlab/*.py | wc -l)"
        printf 'src/qndlab: %d lines at %s, %d in the checkout (%+d)\n' \
            "$before" "$2" "$after" "$((after - before))"
        return "$status"
        ;;
    all)
        step tests
        step smoke
        step traced
        step outputs
        ;;
    *)
        usage
        return 2
        ;;
    esac
}

step "${1:-all}" "${2:-}"
