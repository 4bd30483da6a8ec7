#!/usr/bin/env bash
# The CI gate: formatting, lints, build, the full test suite and the
# artifact smoke tests. The `check` job of .github/workflows/ci.yml runs
# this script, so the gate is defined once and runs the same locally.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== no test file is compiled out by a crate-level cfg gate"
# A `#![cfg(...)]` on an integration-test file compiles the whole file
# away whenever its condition is false, so its tests silently stop
# running and even compiling. Every test file must build unconditionally.
if grep -rln --include='*.rs' '^#!\[cfg(' tests crates/*/tests; then
  echo "the test files above are gated by a crate-level #![cfg(...)]" >&2
  exit 1
fi

echo "== no trait-object bus or coprocessor in the simulator"
# The engine's drivers are generic over the data bus and the coprocessor,
# so every data access, bus-clock advance and co-stepped unit cycle is a
# direct, inlinable call. A `dyn` reintroduced here costs ~13% of host
# time on the Fig. 9 campaign, and nothing else in CI times the engine.
if grep -rn 'dyn DataBus\|dyn Coprocessor' crates/*/src; then
  echo "the lines above put a vtable call on the simulator's hot path" >&2
  exit 1
fi

echo "== cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets --release -- -D warnings

echo "== cargo doc (an intra-doc link that resolves to nothing fails)"
# Code docs must link to items that exist and are public, as
# tests/doc_paths.rs demands of the markdown docs.
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "== cargo build --release"
cargo build --release

echo "== cargo test (workspace)"
cargo test -q --release --workspace

echo "== lockstep harness selftest"
# The interpreter and block dispatch share one executor, so the
# golden-model lockstep is the only independent check of instruction
# semantics. Prove the harness still catches an injected executor bug:
# a flipped `sltu` in the golden model must be caught, shrunk, written
# as a replay artifact and reproduced from disk.
cargo run -q --release -p rtosunit-bench --bin checkfuzz -- selftest > /dev/null

echo "== perfbench builds and passes its smoke test"
# perfbench is a package of its own that drives the crates through their
# public APIs; nothing else builds it, so an API change would break the
# benchmark unnoticed. Its test runs `--smoke` and checks the metric
# names against BENCHMARK.json.
cargo test -q --release --manifest-path perfbench/Cargo.toml

echo "== trace_dump smoke test (emits + validates results/trace_dump*.json)"
# The binary re-parses its own Chrome trace-event output and asserts the
# irq/entry/phase/mret/cache event vocabulary is present (panics if not),
# then repeats the exercise for a two-hart SMP run with per-hart tracks.
cargo run -q --release -p rtosunit-bench --bin trace_dump > /dev/null
test -s results/trace_dump.json
test -s results/trace_dump_smp.json
# Foreign-parser checks below are skipped only when python3 is genuinely
# absent; a failing assertion fails the gate (previously the assertion
# failures hid behind the same fallback and the check was silently dead).
if command -v python3 > /dev/null 2>&1; then HAVE_PY=1; else HAVE_PY=0; fi
if [ "$HAVE_PY" = 1 ]; then
  python3 -c "
import json
d = json.load(open('results/trace_dump.json'))
names = {e.get('name') for e in d['traceEvents']}
missing = {'irq_raised', 'isr_entry', 'save_done', 'sched_done', 'mret', 'cache'} - names
assert not missing, missing
d = json.load(open('results/trace_dump_smp.json'))
tracks = {e['args']['name'] for e in d['traceEvents'] if e.get('name') == 'thread_name'}
missing = {f'hart{h} {t}' for h in (0, 1) for t in ('episodes', 'phases', 'events')} - tracks
assert not missing, missing
"
else
  echo "   (python3 unavailable — relying on the binary's self-validation)"
fi

echo "== tail-latency figure, schema-v3 smoke test and the tail-campaign pin"
# Quick bursty-arrival sweep; the artifact carries the full telemetry
# schema (per-run histograms, percentiles, SLO misses, aggregate). With
# its three host fields zeroed it must equal the committed pin
# ci/perf_baseline.json: tests/perfgate.rs checks the library render,
# this checks the binary users run, with `nproc` workers, through a
# foreign parser.
cargo run -q --release -p rtosunit-bench --bin fig_tail -- --quick > /dev/null
test -s results/fig_tail_quick.json
if [ "$HAVE_PY" = 1 ]; then
  python3 -c "
import json
d = json.load(open('results/fig_tail_quick.json'))
assert d['schema'] == 'rtosunit-campaign-v3', d['schema']
for run in d['runs']:
    h = run['sim']['latency_hist']
    assert 'p99.9' in h['latency']['percentiles'], run['label']
    assert h['slo'] is not None and 'miss_rate' in h['slo'], run['label']
assert 'aggregate' in d
d['host_nanos'] = d['workers'] = 0
for run in d['runs']:
    run['host_nanos'] = 0
pin = json.load(open('ci/perf_baseline.json'))
assert d == pin, 'results/fig_tail_quick.json drifted from ci/perf_baseline.json (see ci/README.md)'
"
else
  echo "   (python3 unavailable — relying on tests/perfgate.rs)"
fi

echo "== campaign figure smoke (fig9 --quick, extension_sync, fig_smp, ablations, fig12_scaling, wcet_table, fig10_area, fig11_fmax, fig13_power)"
# These figures read the campaign outcome (latencies, per-episode causes,
# trace-mark counts, bus and ctxQueue counters) in ways no other step
# does; fig12_scaling and wcet_table are the only artifacts with analytic
# runs. Together they take about 2 s. Each artifact is written by the
# in-tree JSON writer, so a foreign parser must load it. The three ASIC
# figures write text only; fig13_power derives power from unit activity
# simulated through System::run.
FIGS="fig9_quick extension_sync fig_smp ablations fig12_scaling wcet_table"
ASIC_FIGS="fig10_area fig11_fmax fig13_power"
for f in $FIGS $ASIC_FIGS; do
  rm -f "results/$f.txt" "results/$f.json"
done
cargo run -q --release -p rtosunit-bench --bin fig9 -- --quick > /dev/null
for b in extension_sync fig_smp ablations fig12_scaling wcet_table $ASIC_FIGS; do
  cargo run -q --release -p rtosunit-bench --bin "$b" > /dev/null
done
for f in $FIGS; do
  test -s "results/$f.txt"
  test -s "results/$f.json"
done
for f in $ASIC_FIGS; do
  test -s "results/$f.txt"
done
if [ "$HAVE_PY" = 1 ]; then
  python3 -c "
import json, sys
for f in sys.argv[1:]:
    d = json.load(open(f'results/{f}.json'))
    assert d['schema'].startswith('rtosunit-campaign-v'), (f, d['schema'])
    assert isinstance(d['runs'], list) and d['runs'], f
" $FIGS
else
  echo "   (python3 unavailable — relying on the artifacts being non-empty)"
fi

echo "== fault-injection smoke (fig_faults --quick; tier-1 campaign is tests/faults.rs)"
# The ~200-injection tier-1 slice runs inside `cargo test` above
# (crates/check/tests/faults.rs). This step smoke-tests the figure bin:
# 72 classified runs across 3 cores x {vanilla, SLT, SDLOT}, every
# outcome on the lattice, crashes quarantined as replay artifacts.
cargo run -q --release -p rtosunit-bench --bin fig_faults -- --quick > /dev/null
test -s results/fig_faults_quick.json
if [ "$HAVE_PY" = 1 ]; then
  python3 -c "
import json
d = json.load(open('results/fig_faults_quick.json'))
assert d['schema'] == 'rtosunit-faultcamp-v1', d['schema']
assert len(d['runs']) == 72, len(d['runs'])
assert all(r['outcome'] for r in d['runs'])
assert len(d['cells']) == 9, len(d['cells'])
"
else
  echo "   (python3 unavailable — relying on tests/faults.rs)"
fi

echo "== snapshot smoke (roundtrip, info, resume determinism, fork, time travel)"
# The snapshot contract: a restored system is byte-identical to one that
# never stopped. `roundtrip` byte-diffs the cold-run snapshot against
# save -> restore -> resume; `info` verifies the saved envelope (schema
# and digest); two `resume`s of the same saved document must print
# identical summaries (digest included); `fork` spawns
# divergent futures and proves each is individually deterministic;
# `checkfuzz travel` rewinds checkpointed runs and byte-compares every
# rewound state against cold execution.
cargo run -q --release -p rtosunit-bench --bin snap -- \
  roundtrip naxriscv split interrupt_latency 6000 25000
cargo run -q --release -p rtosunit-bench --bin snap -- \
  save cva6 slt pingpong_semaphore 8000 results/snap_boot.json
cargo run -q --release -p rtosunit-bench --bin snap -- \
  info results/snap_boot.json > /dev/null
cargo run -q --release -p rtosunit-bench --bin snap -- \
  resume results/snap_boot.json 20000 > results/snap_resume_a.txt
cargo run -q --release -p rtosunit-bench --bin snap -- \
  resume results/snap_boot.json 20000 > results/snap_resume_b.txt
cmp results/snap_resume_a.txt results/snap_resume_b.txt
rm results/snap_resume_a.txt results/snap_resume_b.txt
cargo run -q --release -p rtosunit-bench --bin snap -- \
  fork results/snap_boot.json 4 20000 > /dev/null
cargo run -q --release -p rtosunit-bench --bin checkfuzz -- \
  travel --cycles 60000 > /dev/null

echo "== guest flamegraph smoke test"
# The SMP profiler path first: with `--harts 2` every hart is profiled
# and the folded output keeps one root per hart, so hart 1 must show up.
cargo run -q --release -p rtosunit-bench --bin guest_profile -- --harts 2 > /dev/null
grep -q '^hart1;' results/flamegraph.folded
cargo run -q --release -p rtosunit-bench --bin guest_profile > /dev/null
test -s results/flamegraph.folded
test -s results/guest_profile.txt

echo "== examples smoke test"
for ex in quickstart sensor_control_loop wcet_analysis config_explorer; do
  echo "   example: $ex"
  cargo run -q --release --example "$ex" > /dev/null
done
echo "   example: debug_run"
cargo run -q --release -p freertos-lite --example debug_run > /dev/null

echo "CI OK"
