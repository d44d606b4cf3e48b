#!/usr/bin/env bash
# kernel smoke: compiled ≡ interpreted bitwise at every sweep point, and the
# engine's golden output bits.
source "$(dirname "$0")/smoke-lib.sh"

# run_tests <pattern> <pkg>: go test -race with a -run filter that must
# match something. A renamed test would otherwise empty the filter and the
# step would pass on "no tests to run".
run_tests() {
  local out
  out=$(go test -race -v -run "$1" "$2" 2>&1) || { echo "$out"; return 1; }
  echo "$out" | grep -E '^(ok|---|PASS|FAIL)'
  if echo "$out" | grep -q 'no tests to run'; then
    echo "kernel smoke: -run '$1' matched no tests in $2" >&2
    return 1
  fi
}

run_tests 'Plan|ForwardBatch|MVMBatch|CompileRange|MatrixInto' ./internal/photonic/
run_tests 'EngineGoldenBits|CompiledKernels|KernelStats' .
go run ./cmd/flumen-bench -kernel -smoke -kernelout /tmp/BENCH_kernel.json
echo "kernel smoke: PASS"
