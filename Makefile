# Convenience targets; `make check` is the tier-1+ gate (see ROADMAP.md).

.PHONY: check test serve watch bench-micro bench-artifact

check:
	./scripts/check.sh

test:
	go test ./...

# Run the verification daemon (see `go run ./cmd/gpod -h` for the
# capacity knobs: -workers, -queue, -max-states, -timeout, -cache-bytes).
# The ledger backs GET /v1/runs history; watch with `make watch`.
serve:
	go run ./cmd/gpod -addr :8722 -ledger runs.jsonl

# Live fleet view of the daemon started by `make serve`: in-flight runs,
# completed runs with verdicts, outlier flags against ledger history.
# Repeat -addr to watch a whole cluster (per-peer shared-tier table).
watch:
	go run ./cmd/gpostat -follow -addr http://localhost:8722 -ledger runs.jsonl

# Microbenchmarks of the GPO hot path: ZDD primitive ops and full
# Analyze runs, with allocation counts (b.ReportAllocs).
bench-micro:
	go test -run '^$$' -bench . -benchtime 100x ./internal/zdd/ ./internal/core/

# Regenerate the Table 1 count artifact that TestTable1Artifact and
# scripts/check.sh compare against (only after a change that is meant to
# move a count).
bench-artifact:
	go run ./cmd/gpobench -json > TABLE1.json
