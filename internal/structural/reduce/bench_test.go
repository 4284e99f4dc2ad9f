package reduce_test

import (
	"fmt"
	"testing"

	"repro/internal/models"
	"repro/internal/structural/reduce"
)

var benchSink *reduce.Certificate

// BenchmarkReduce measures the pre-pass alone on the largest instance of
// each Table 1 family the benchmark's table1-reduce workload runs.
// scripts/check.sh gates asat(32)'s B/op and allocs/op and rw(15)'s
// allocs/op: a run makes the same 21 allocations on both, and a rule that
// allocates per application (asat(32) makes 127 agglomerations) breaks
// the bound.
func BenchmarkReduce(b *testing.B) {
	for _, c := range []struct {
		family string
		size   int
	}{{"asat", 32}, {"nsdp", 40}, {"rw", 15}, {"over", 5}} {
		net, err := models.ByName(c.family, c.size)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s(%d)", c.family, c.size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cert, err := reduce.Run(net, reduce.Options{})
				if err != nil {
					b.Fatal(err)
				}
				benchSink = cert
			}
		})
	}
}
