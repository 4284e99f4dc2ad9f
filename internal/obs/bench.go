package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// BenchSchema identifies the machine-readable benchmark artifact format.
// Bump the version suffix on any incompatible change so downstream
// perf-diff tooling can refuse mixed comparisons.
const BenchSchema = "gpobench/v1"

// BenchReport is the machine-readable artifact emitted by `gpobench
// -json`: one entry per (model instance, engine) pair, sufficient to diff
// perf runs across commits.
type BenchReport struct {
	Schema    string `json:"schema"`
	Date      string `json:"date"` // RFC 3339
	GoVersion string `json:"go_version"`
	// Workers is the parallel worker count the exhaustive engine ran with
	// (0 = sequential). Wall-clock comparisons across artifacts are only
	// meaningful between runs with the same value.
	Workers int `json:"workers"`
	// Only is the instance-name filter regexp the run was restricted to
	// ("" = all instances). Recorded so a filtered artifact is never
	// mistaken for a full Table 1 run when diffing.
	Only string `json:"only,omitempty"`
	// Reduce marks a run measured with the structural reduction pre-pass:
	// engines explored the reduced nets, so States columns are not
	// comparable against unreduced artifacts (that difference is the
	// point — see EXPERIMENTS.md).
	Reduce bool `json:"reduce,omitempty"`
	// Host stamps the machine the run was recorded on; nil on artifacts
	// predating the field. Wall-clock columns of artifacts from different
	// hosts are informational only.
	Host    *BenchHost   `json:"host,omitempty"`
	Entries []BenchEntry `json:"entries"`
}

// BenchHost is what a wall-clock number depends on besides the code.
type BenchHost struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// BenchEntry is one engine run on one model instance.
type BenchEntry struct {
	Family string `json:"family"`
	Size   int    `json:"size"`
	Engine string `json:"engine"`
	// RunID is the content address of the run (verify.RunKey rendered as
	// "r"+hex) — the join key into ledger entries, gpod access logs and
	// trace dumps for the same configuration. Empty for skipped entries
	// and for artifacts predating the field.
	RunID string `json:"run_id,omitempty"`
	// States is states explored (GPN states for gpo, events for
	// unfolding, |reachable| for symbolic).
	States int64 `json:"states"`
	// PeakNodes is the peak decision-diagram node count (symbolic engine;
	// 0 elsewhere).
	PeakNodes int64 `json:"peak_nodes"`
	WallNS    int64 `json:"wall_ns"`
	// Allocs is the number of heap objects allocated during the run.
	Allocs int64 `json:"allocs"`
	// AllocBytes is the number of heap bytes allocated during the run.
	AllocBytes int64 `json:"alloc_bytes"`
	// Capped marks a run aborted at a state/node cap; States/PeakNodes
	// then hold the cap value reached.
	Capped bool `json:"capped,omitempty"`
	// Skipped marks an instance/engine pair that was not run (e.g. full
	// enumeration of a 10^6-state family).
	Skipped bool `json:"skipped,omitempty"`
	// Error holds a failure message; all numeric fields are then invalid.
	Error string `json:"error,omitempty"`
	// OrigPlaces/OrigTrans and ReducedPlaces/ReducedTrans record the net
	// sizes before and after the structural reduction pre-pass. Only set
	// on reduced runs (BenchReport.Reduce).
	OrigPlaces    int `json:"orig_places,omitempty"`
	OrigTrans     int `json:"orig_trans,omitempty"`
	ReducedPlaces int `json:"reduced_places,omitempty"`
	ReducedTrans  int `json:"reduced_trans,omitempty"`
	// Counters carries the engine's full counter/gauge set for the run
	// ("core.multi_firings", "bdd.cache_hits", ...).
	Counters map[string]int64 `json:"counters,omitempty"`
}

// WriteJSON writes the report as indented JSON.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ParseBenchReport decodes and validates a report produced by WriteJSON.
func ParseBenchReport(data []byte) (*BenchReport, error) {
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("obs: invalid bench report: %w", err)
	}
	if r.Schema != BenchSchema {
		return nil, fmt.Errorf("obs: bench report schema %q, want %q", r.Schema, BenchSchema)
	}
	return &r, nil
}

// BenchFileName returns the dated artifact name, BENCH_YYYY-MM-DD.json.
func BenchFileName(t time.Time) string {
	return "BENCH_" + t.Format("2006-01-02") + ".json"
}
