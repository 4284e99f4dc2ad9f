package core

import (
	"fmt"
	"testing"

	"repro/internal/family"
	"repro/internal/petri"
	"repro/internal/randnet"
	"repro/internal/zdd"
)

// diffMaxStates caps each exploration. Both engines make identical
// decisions in identical order, so two capped runs truncate at exactly
// the same frontier and stay comparable; the cap only bounds runtime
// (some random nets have state spaces far beyond what the explicit
// algebra can finish under -race).
const diffMaxStates = 3000

// runGPN analyzes a net with the given algebra and returns the result
// plus a canonical rendering of the witness markings.
func runGPN[F any](t *testing.T, n *petri.Net, alg Algebra[F]) (*Result, []string) {
	t.Helper()
	e, err := NewEngine[F](n, alg)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := e.Analyze(Options{WitnessLimit: 4, MaxStates: diffMaxStates})
	if err != nil && err != ErrStateLimit {
		t.Fatalf("%s: %v", n.Name(), err)
	}
	ws := make([]string, len(res.Witnesses))
	for i, w := range res.Witnesses {
		ws[i] = w.Key()
	}
	return res, ws
}

// differentialConfigs is the seeded random corpus the two family algebras
// are compared on.
func differentialConfigs() []randnet.Config {
	configs := []randnet.Config{}
	for seed := int64(1); seed <= 12; seed++ {
		configs = append(configs, randnet.Default(seed))
	}
	// A few heavier shapes: more machines (concurrency), more branching
	// (conflict), more synchronization (deadlock-prone waits).
	configs = append(configs,
		randnet.Config{Machines: 4, PlacesPer: 3, LocalTrans: 2, SyncTrans: 4, Seed: 101},
		randnet.Config{Machines: 2, PlacesPer: 5, LocalTrans: 3, SyncTrans: 2, Seed: 102},
		randnet.Config{Machines: 5, PlacesPer: 2, LocalTrans: 1, SyncTrans: 5, Seed: 103},
		randnet.Config{Machines: 3, PlacesPer: 4, LocalTrans: 2, SyncTrans: 6, Seed: 104},
	)
	if testing.Short() {
		configs = configs[:4]
	}
	return configs
}

// TestDifferentialFamilyVsZDD pins the two family algebras against each
// other on seeded random safe nets: the explicit reference representation
// and the ZDD one must agree on the entire observable outcome of the
// generalized partial-order analysis — state/arc/firing counts, the
// deadlock verdict, the dead-state ids and the extracted witness
// markings. The engines share every exploration decision, so any
// divergence is an algebra bug (canonicity, op correctness, or key
// collisions), which is exactly what this test exists to catch after
// hot-path rewrites. Runs under the race gate of `make check`; configs
// are sized to finish in well under a second each even with -race.
func TestDifferentialFamilyVsZDD(t *testing.T) {
	configs := differentialConfigs()
	sawDeadlock := false
	for _, cfg := range configs {
		cfg := cfg
		t.Run(fmt.Sprintf("seed%d", cfg.Seed), func(t *testing.T) {
			n := randnet.Generate(cfg)
			fr, fw := runGPN(t, n, family.NewAlgebra(n.NumTrans()))
			zr, zw := runGPN(t, n, zdd.NewAlgebra(n.NumTrans()))
			if fr.States != zr.States || fr.Arcs != zr.Arcs ||
				fr.MultiFirings != zr.MultiFirings || fr.SingleFirings != zr.SingleFirings ||
				fr.Deadlock != zr.Deadlock || fr.Complete != zr.Complete ||
				fr.PeakValid != zr.PeakValid {
				t.Fatalf("%s: family (states=%d arcs=%d multi=%d single=%d dead=%v peak=%v) != zdd (states=%d arcs=%d multi=%d single=%d dead=%v peak=%v)",
					n.Name(),
					fr.States, fr.Arcs, fr.MultiFirings, fr.SingleFirings, fr.Deadlock, fr.PeakValid,
					zr.States, zr.Arcs, zr.MultiFirings, zr.SingleFirings, zr.Deadlock, zr.PeakValid)
			}
			if fmt.Sprint(fr.DeadStates) != fmt.Sprint(zr.DeadStates) {
				t.Fatalf("%s: dead states %v != %v", n.Name(), fr.DeadStates, zr.DeadStates)
			}
			if fmt.Sprint(fw) != fmt.Sprint(zw) {
				t.Fatalf("%s: witnesses %v != %v", n.Name(), fw, zw)
			}
			sawDeadlock = sawDeadlock || fr.Deadlock
		})
	}
	if !testing.Short() && !sawDeadlock {
		t.Error("no seed produced a deadlock; the witness comparison never ran — reseed the configs")
	}
}
