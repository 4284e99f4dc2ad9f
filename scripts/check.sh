#!/bin/sh
# Tier-1+ gate: vet, build, and race-enabled tests for the whole module.
# Keep in sync with `make check` and the gate recorded in ROADMAP.md.
set -eux
cd "$(dirname "$0")/.."
# Formatting gate: gofmt -l prints offending files; any output fails.
test -z "$(gofmt -l .)"
go vet ./...
go build ./...
# Layering gate: the binary codec is a leaf (stdlib only), and the
# checkpoint container reaches it directly — not through the cluster
# package and the HTTP stack behind it.
test "$(go list -deps ./internal/codec | grep '^repro/')" = repro/internal/codec
test -z "$(go list -deps ./internal/ckpt | grep -x -e repro/internal/cluster -e net/http)"
# The decision-diagram node store is a leaf too, and the only one: bdd
# and zdd keep no unique table of their own.
test "$(go list -deps ./internal/dd | grep '^repro/')" = repro/internal/dd
test -z "$(grep -l -e 'func hashTriple' -e 'growUnique' internal/bdd/*.go internal/zdd/*.go)"
# The symbolic image is one Fire walk per transition over one variable
# per place: bdd has no relational product, quantifier or renaming, and
# symbolic no variable-order knob.
test -z "$(grep -lwE 'Rename|AndExists|VarSet' internal/bdd/*.go)"
test -z "$(grep -lw 'Order' internal/symbolic/*.go)"
# Spans read runtime/metrics: nothing in obs stops the world.
test -z "$(grep -rl 'ReadMemStats' internal/obs)"
# The flight recorder records one process in one format: no wire-edge,
# steal, level, expand or cache kinds, no JSONL writer and no fleet
# timeline writer.
test -z "$(grep -rlE 'PairID|KindFrame|KindSteal|KindLevel|KindExpand|KindCache|WriteJSONL|WriteChromeMerged' internal cmd)"
# verify runs every engine through one table and one check: the safety
# monitor and the reduction pre-pass are applied in one place each, and
# no engine has a switch case of its own.
VERIFY_SRC=$(go list -f '{{range .GoFiles}}{{$.Dir}}/{{.}} {{end}}' ./internal/verify)
test "$(grep -ho 'petri\.WithSafetyMonitor(' $VERIFY_SRC | grep -c .)" = 1
test "$(grep -ho 'reduce\.Run(' $VERIFY_SRC | grep -c .)" = 1
test -z "$(grep -l 'case GPOExplicit' $VERIFY_SRC)"
test ! -e internal/verify/reduce.go
# A "cluster": true run executes on the member that received it: the
# cluster package explores nothing (it does not import reach), no
# exploration route is served, and verify has no pluggable explorer.
CLUSTER_SRC=$(go list -f '{{range .GoFiles}}{{$.Dir}}/{{.}} {{end}}' ./internal/cluster)
SERVER_SRC=$(go list -f '{{range .GoFiles}}{{$.Dir}}/{{.}} {{end}}' ./internal/server)
test -z "$(go list -deps ./internal/cluster | grep -x repro/internal/reach)"
test -z "$(grep -E '/cluster/v1/(start|expand|finish|trace)' $CLUSTER_SRC $SERVER_SRC)"
test -z "$(grep -E '^[[:space:]]+Explorer[[:space:]]' $VERIFY_SRC)"
# One result cache per process: the cluster package only places runs on
# its ring, with no store and no shared-tier route of its own; the
# server's resultCache is the one LRU, and the tier's owner side.
test -z "$(grep -l '"container/list"' $CLUSTER_SRC)"
test -z "$(grep '/cluster/v1/cache/' $CLUSTER_SRC)"
test "$(grep -ho 'list\.New()' $SERVER_SRC | grep -c .)" = 1
# gpod runs a /v1/verify request and a durable job's slice through one
# worker body, which calls each check once, and the job is the one
# record of a run: no liveRun shadows it.
test "$(grep -ho 'verify\.CheckSafety(' $SERVER_SRC | grep -c .)" = 1
test "$(grep -ho 'verify\.CheckDeadlock(' $SERVER_SRC | grep -c .)" = 1
test -z "$(grep -w liveRun $SERVER_SRC)"
# The daemon binary ships daemon code only: no client, no test harness,
# no self-test flag, and main itself names neither a model nor an engine
# (the server resolves both). Its end-to-end checks are tests — the
# binary itself in cmd/gpod/main_test.go, every surface on loopback
# servers (internal/server/servertest) in internal/server/*_e2e_test.go
# — so `go test -race ./...` below is that gate.
test -z "$(go list -deps ./cmd/gpod | grep -x -e repro/internal/server/client -e repro/internal/server/servertest)"
test -z "$(go list -f '{{join .Imports "\n"}}' ./cmd/gpod | grep -x -e repro/internal/models -e repro/internal/verify)"
test "$(go run ./cmd/gpod -h 2>&1 | grep -c smoke)" = 0
# One perf instrument per job: Table 1's counts are one artifact,
# TABLE1.json, which gpobench regenerates and TestTable1Artifact checks;
# wall clock is judged by benchmark/ alone. So there is no artifact diff
# command and no dated artifact, the observability package owns no
# benchmark schema, and neither gpobench nor internal/bench journals or
# traces (gpoverify -only does both on the same instances).
test ! -e cmd/benchdiff
test -z "$(ls BENCH_*.json 2>/dev/null)"
OBS_SRC=$(go list -f '{{range .GoFiles}}{{$.Dir}}/{{.}} {{end}}' ./internal/obs)
test -z "$(grep -E '^(type|func) (\([^)]*\) )?Bench' $OBS_SRC)"
test -z "$(go list -f '{{join .Imports "\n"}}' ./cmd/gpobench ./internal/bench | grep -x -e repro/internal/obs/ledger -e repro/internal/obs/trace)"
# One enabled kernel: every explicit explorer fires the list
# Net.AppendEnabled walks from the marked places, so outside petri no
# non-test code tests transitions one by one, except stubborn's closure,
# which asks it of the set members it grows.
MODULE_SRC=$(go list -f '{{range .GoFiles}}{{$.Dir}}/{{.}} {{end}}' ./...)
test "$(grep -l '\.Enabled(' $MODULE_SRC | grep -v /internal/petri/)" = "$PWD/internal/stubborn/stubborn.go"
test "$(grep -c '\.Enabled(' internal/stubborn/stubborn.go)" = 1
# One progress path: a run's live progress is one obs.Counter that the
# engine adds to and every live surface samples, so obs declares no
# throttle, publisher or sink type, the daemon has no progress knob, and
# no non-test code names obs.Progress.
test -z "$(grep -E '^type (Progress|Publisher|[A-Za-z]*Sink)\b' $OBS_SRC)"
test -z "$(grep -w ProgressEvery $SERVER_SRC)"
test -z "$(grep -l 'obs\.Progress\b' $MODULE_SRC)"
# One ledger builder: verify.LedgerEntry writes the module's only
# ledger.Entry literal, for gpoverify and gpod alike, and the ledger
# itself stays a leaf.
test "$(grep -ho 'ledger\.Entry{' $MODULE_SRC | grep -c .)" = 1
test "$(go list -deps ./internal/obs/ledger | grep '^repro/')" = repro/internal/obs/ledger
# One checkpoint protocol: the engines and verify share one action enum
# and one suspension sentinel (stop.Action, stop.ErrSuspended), so no
# adapter converts between enums of its own. ckpt/v2 stores the run as
# its RunKey pre-image, which verify alone writes and reads, and the
# markings in id order: the container's own code names no
# result-determining option and routes nothing by hash shard.
test "$(grep -hE '^type [A-Za-z]*Action (=|int)' $MODULE_SRC)" = "type Action int"
test -z "$(grep -l 'ErrCheckpointStop' $MODULE_SRC)"
CKPT_SRC=$(go list -f '{{range .GoFiles}}{{$.Dir}}/{{.}} {{end}}' ./internal/ckpt)
test -z "$(grep -E '\b(StopAtFirst|Proviso|Reduce|MaxStates|MaxNodes|ShardOf)\b|\.Engine\b' $CKPT_SRC)"
# Docs size gate: README, DESIGN, EXPERIMENTS, OBSERVABILITY and ROADMAP
# may not grow past their total after the last cut. A change that needs
# more room raises the bound here, in the same commit, and says why in
# CHANGES.md; one that frees room lowers it.
test "$(cat README.md DESIGN.md EXPERIMENTS.md OBSERVABILITY.md ROADMAP.md | wc -c)" -le 176592
go test -race ./...
# Table 1 counts, every row: the full regeneration must reproduce
# TABLE1.json byte for byte, including the rows TestTable1Artifact leaves
# out to keep the race run cheap (the explicit engines on nsdp(10) and
# asat(8), rw(15)/symbolic).
go run ./cmd/gpobench -json | cmp - TABLE1.json
# Benchmark smoke: one iteration of every benchmark, so a refactor that
# breaks a bench harness (or reintroduces per-op allocation panics) is
# caught here and not at artifact-regeneration time.
go test -run '^$' -bench . -benchtime 1x ./...
# Disabled-tracer allocation gate: the flight-recorder instrumentation
# on the analysis hot path must stay free when no tracer is attached.
# The benchmarks measure exactly the per-state emit mix on a nil track
# (core) and the job-lifecycle call sites (server); anything but
# "0 allocs/op" fails.
for pkg in ./internal/core ./internal/server; do
	go test -run '^$' -bench BenchmarkDisabledTraceHotPath -benchtime=1x "$pkg" |
		tee /dev/stderr | grep -q 'BenchmarkDisabledTraceHotPath.* 0 allocs/op'
done
# Explicit-engine allocation gate: the sequential explorer and the
# stubborn-set search intern markings as arena words of the visited
# store and fire into scratch, so a state costs only its amortized share
# of arena chunks and table doublings (nsdp(7); the map-and-key-string
# stores they replaced paid 13.9 allocs/state and more).
alloc_gate() { # package, benchmark, max allocs/state [, max B/state]
	go test -run '^$' -bench "$2" -benchtime=1x "$1" | tee /dev/stderr |
		awk -v bench="$2" -v max="$3" -v maxb="${4:-0}" '$1 ~ "^" bench { for (i = 2; i <= NF; i++) {
			if ($i == "allocs/state") { seen = 1; if ($(i-1) + 0 > max + 0) over = 1 }
			if ($i == "B/state" && maxb + 0 > 0 && $(i-1) + 0 > maxb + 0) over = 1 } }
			END { exit !(seen && !over) }'
}
alloc_gate ./internal/reach BenchmarkExploreSeqAllocs 0.1
# Workers: 1 never hands a level to the parallel explorer, so it must cost
# what the sequential engine costs.
alloc_gate ./internal/reach BenchmarkExploreW1Allocs 0.1
alloc_gate ./internal/stubborn BenchmarkStubbornAllocs 2
# The parallel explorer on two workers with every level routed (nsdp(7)):
# its routing buffers and per-level lists are reused from level to level
# and grow by doubling, so a state costs 0.010 allocations and 120 bytes.
# Which worker expands how much of a level is up to the scheduler, and a
# worker that takes more than its share doubles its routing buffer once or
# twice more: 45 runs read 120, 146 or 171 bytes (which of them most
# often depends on the load). The bounds are 0.02 and 1.5x the worst
# reading; a buffer that stops being reused shows in the bytes first.
alloc_gate ./internal/reach BenchmarkExploreParAllocs 0.02 258
# GPO allocation gate: one nsdp(40) analysis allocates its unique table
# and 1 MB op cache by doubling and its node arena in 3 KB chunks, each
# node written once — 10.7 MB in all, against 23.2 MB when every doubling
# re-copied the arena and refilled a count memo as long as it, and 120 MB
# when r₀'s BDD was conjoined first to last and the memo was lossless.
# The bound is 16 MB/op, 1.5x the reading.
go test -run '^$' -bench 'BenchmarkAnalyzeZDD$/nsdp\(40\)' -benchtime=1x ./internal/core |
	tee /dev/stderr | awk '$1 ~ /^BenchmarkAnalyzeZDD\/nsdp\(40\)/ { for (i = 2; i <= NF; i++)
		if ($i == "B/op") { seen = 1; if ($(i-1) / 1e6 > 16) over = 1 } }
		END { exit !(seen && !over) }'
# Symbolic allocation gate: one nsdp(8) analysis allocates its unique
# table and computed cache by doubling and its BDD node arena in chunks
# written once — 7.8 MB in all, against 10.5 MB with next-state
# variables and a transition relation, 14.5 MB when every doubling
# re-copied the arena, and 98 MB when the manager ran on Go maps. The
# bound is 11.7 MB/op, 1.5x the reading.
go test -run '^$' -bench 'BenchmarkAnalyze$/nsdp\(8\)' -benchtime=1x ./internal/symbolic |
	tee /dev/stderr | awk '$1 ~ /^BenchmarkAnalyze\/nsdp\(8\)/ { for (i = 2; i <= NF; i++)
		if ($i == "B/op") { seen = 1; if ($(i-1) / 1e6 > 11.7) over = 1 } }
		END { exit !(seen && !over) }'
# Reduction pre-pass allocation gate: the rules edit one working copy,
# copied once into arenas of the reducer's own, and a run assembles one
# petri.Net, at the end, from its compacted lists — 21 allocations and
# 161 KB on asat(32) and 21 allocations on rw(15), against 4 065 and
# 450 when every edit copied a list and the net went through the
# Builder arc by arc, and 423 000 when each of asat(32)'s 127
# agglomerations rebuilt the net. The bounds are 1.5x the readings:
# 32 allocs/op on both, 240 KB/op on asat(32).
go test -run '^$' -bench 'BenchmarkReduce$/(asat\(32\)|rw\(15\))' -benchtime=10x ./internal/structural/reduce |
	tee /dev/stderr | awk '$1 ~ /^BenchmarkReduce\/(asat\(32\)|rw\(15\))/ { for (i = 2; i <= NF; i++) {
		if ($i == "B/op" && $1 ~ /asat/ && $(i-1) + 0 > 240000) over = 1
		if ($i == "allocs/op") { seen++; if ($(i-1) + 0 > 32) over = 1 } } }
		END { exit !(seen == 2 && !over) }'
# Service hot-path allocation gates. pnio.Parse allocates in proportion
# to its input: 56 KB for the 2.6 KB text of nsdp(8), against 1.1 MB
# when every call opened with a 1 MiB line buffer; the bound is 80 000
# B/op. A cache hit through the handler (read, digest, lookup, reply;
# recorder and request included) is 7 KB; the bound is 16 KB/op, and a
# hit that decodes or parses its body again does not fit under it.
bytes_gate() { # package, benchmark, max B/op
	go test -run '^$' -bench "$2\$" -benchtime=100x "$1" | tee /dev/stderr |
		awk -v bench="$2" -v max="$3" '$1 ~ "^" bench { for (i = 2; i <= NF; i++)
			if ($i == "B/op") { seen = 1; if ($(i-1) + 0 > max + 0) over = 1 } }
			END { exit !(seen && !over) }'
}
bytes_gate ./internal/pnio BenchmarkParse 80000
bytes_gate ./internal/server BenchmarkVerifyHit 16384
# Trace round-trip smoke: record a run and summarize its Chrome trace
# JSON with gpotrace.
TRACE_TMP=$(mktemp -d)
trap 'rm -rf "$TRACE_TMP"' EXIT
go run ./cmd/gpoverify -model nsdp -size 5 -trace "$TRACE_TMP/t.json" >/dev/null
go run ./cmd/gpotrace "$TRACE_TMP/t.json" | grep -q 'states:'
# Progress gate: the engine's per-state progress update, with no sampler
# and with two goroutines sampling it, must stay allocation-free, or
# every daemon run pays for the live-run surface.
go test -run '^$' -bench BenchmarkProgressAdd -benchtime=1000x ./internal/obs | tee /dev/stderr |
	awk '$1 ~ /^BenchmarkProgressAdd\// { n++; if ($0 !~ / 0 allocs\/op/) bad = 1 }
		END { exit !(n == 2 && !bad) }'
# Fuzz smoke: 5 seconds of FuzzParse against the hardened pnio parser,
# 5 seconds of FuzzDec against the bounded decoder under every binary
# format, 5 seconds of FuzzCkptRead against the ckpt/v2 checkpoint
# reader (the bytes a restarted daemon trusts enough to resume from),
# and 5 seconds of FuzzStoreVsMap, the visited store against a
# map[string]int oracle.
go test -fuzz=FuzzParse -fuzztime=5s -run '^$' ./internal/pnio
go test -fuzz=FuzzDec -fuzztime=5s -run '^$' ./internal/codec
go test -fuzz=FuzzCkptRead -fuzztime=5s -run '^$' ./internal/ckpt
go test -fuzz=FuzzStoreVsMap -fuzztime=5s -run '^$' ./internal/visited
# Ledger round-trip smoke: two gpoverify runs journal under the same
# content-addressed run ID, gpostat -history reconstructs one group of
# two runs from the journal, and repeated reads are deterministic.
go run ./cmd/gpoverify -model nsdp -size 4 -engine gpo -ledger "$TRACE_TMP/runs.jsonl" >/dev/null
go run ./cmd/gpoverify -model nsdp -size 4 -engine gpo -ledger "$TRACE_TMP/runs.jsonl" >/dev/null
test "$(grep -c '"schema":"ledger/v1"' "$TRACE_TMP/runs.jsonl")" = 2
test "$(grep -o '"run_id":"[^"]*"' "$TRACE_TMP/runs.jsonl" | sort -u | wc -l)" = 1
go run ./cmd/gpostat -history -ledger "$TRACE_TMP/runs.jsonl" >"$TRACE_TMP/hist1.txt"
go run ./cmd/gpostat -history -ledger "$TRACE_TMP/runs.jsonl" >"$TRACE_TMP/hist2.txt"
cmp "$TRACE_TMP/hist1.txt" "$TRACE_TMP/hist2.txt"
grep -q 'NSDP(4) *gpo *deadlock *2' "$TRACE_TMP/hist1.txt"
# Reduction smoke: the structural reduction pre-pass must actually
# shrink two Table 1 instances and reach the same verdict as the
# unreduced run (the full engine matrix is TestReduceEquivalentOnTable1;
# this pins the CLI flag end to end). The verdict token is field 2 of
# the engine row.
for spec in 'nsdp 6' 'rw 9'; do
	set -- $spec
	go run ./cmd/gpoverify -model "$1" -size "$2" >"$TRACE_TMP/base.txt"
	go run ./cmd/gpoverify -model "$1" -size "$2" -reduce >"$TRACE_TMP/red.txt"
	grep -q 'reduced: -[1-9][0-9]* places' "$TRACE_TMP/red.txt"
	base_verdict=$(awk '$1 == "gpo" { print $2 }' "$TRACE_TMP/base.txt")
	red_verdict=$(awk '$1 == "gpo" { print $2 }' "$TRACE_TMP/red.txt")
	test -n "$base_verdict" && test "$base_verdict" = "$red_verdict"
done
# Replay smoke: suspend a run at a checkpoint, then re-execute the
# prefix deterministically — bit-identical snapshot, same event stream,
# and event counts matching the suspended run's own flight recorder.
# The suspended run asks for two workers, but nsdp(6) never has a level
# wide enough to hand over, so its snapshot is the sequential engine's
# (TestHandoffBitIdentical suspends at the handoff and after it).
# Output goes to files: piped into grep -q, gpoverify would die of
# SIGPIPE at the first match and lose the trace it writes on exit.
go run ./cmd/gpoverify -model nsdp -size 6 -engine exhaustive -workers 2 \
	-ckpt "$TRACE_TMP/nsdp6.ckpt" -ckpt-states 500 \
	-trace "$TRACE_TMP/suspend.trace.json" >"$TRACE_TMP/suspend.txt"
grep -q 'suspended' "$TRACE_TMP/suspend.txt"
go run ./cmd/gpoverify -replay "$TRACE_TMP/nsdp6.ckpt" \
	-trace-ref "$TRACE_TMP/suspend.trace.json" >"$TRACE_TMP/replay.txt"
grep -q 'replay: OK' "$TRACE_TMP/replay.txt"
# Parallel equals sequential at full size: the two instances
# TestParallelReachMatchesSequentialTable1 skips, explored on two workers,
# must count the exhaustive states TABLE1.json records (sequential).
table1_states() { # family, size, engine
	awk -v f="\"$1\"," -v s="$2," -v e="\"$3\"," '$1 == "\"family\":" { fam = $2 }
		$1 == "\"size\":" { sz = $2 } $1 == "\"engine\":" { eng = $2 }
		$1 == "\"states\":" && fam == f && sz == s && eng == e { sub(",", "", $2); print $2 }' TABLE1.json
}
go run ./cmd/gpoverify -only 'nsdp\(10\)|asat\(8\)' -engine exhaustive -workers 2 >"$TRACE_TMP/par.txt"
test "$(awk '$1 == "exhaustive" { print $3 }' "$TRACE_TMP/par.txt" | paste -sd ' ')" = \
	"$(table1_states nsdp 10 exhaustive) $(table1_states asat 8 exhaustive)"
