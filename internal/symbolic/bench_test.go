package symbolic

import (
	"fmt"
	"testing"

	"repro/internal/models"
)

// BenchmarkAnalyze measures one full symbolic analysis per iteration —
// manager, transition registration, fixpoint, deadlock check. nodes/op is
// the peak node count, constant per instance; B/op is the arena, the
// unique table and the computed cache grown by doubling, so a map made
// per call or per image step shows there first (scripts/check.sh gates
// the nsdp(8) row).
func BenchmarkAnalyze(b *testing.B) {
	for _, r := range []struct {
		family string
		size   int
	}{{"nsdp", 8}, {"over", 5}, {"rw", 12}} {
		net, err := models.ByName(r.family, r.size)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s(%d)", r.family, r.size), func(b *testing.B) {
			var nodes int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Analyze(net, Options{})
				if err != nil {
					b.Fatal(err)
				}
				nodes = res.PeakNodes
			}
			b.ReportMetric(float64(nodes), "nodes/op")
		})
	}
}
