// Package repro is a Go reproduction of "Efficient Verification using
// Generalized Partial Order Analysis" (Vercauteren, Verkest, de Jong, Lin —
// DATE 1998): a formal verification library for concurrent systems modeled
// as safe Petri nets.
//
// # What it does
//
// The library checks deadlock freedom and safety properties of safe
// (1-bounded) Petri nets with four interchangeable engines:
//
//   - Exhaustive — conventional explicit reachability analysis
//     (the paper's Section 2.2 baseline);
//   - PartialOrder — stubborn-set partial-order reduction
//     (Section 2.3; the role SPIN+PO plays in the paper's Table 1);
//   - Symbolic — OBDD-based symbolic reachability
//     (Section 2.4; the SMV role);
//   - GPO — the paper's contribution: generalized partial-order analysis
//     over Generalized Petri Nets, which explores concurrently enabled
//     *conflicting* paths simultaneously by tracking families of
//     transition sets ("colored tokens") per place. On nets with many
//     concurrently marked conflict places it visits exponentially fewer
//     states than either classical technique: the dining philosophers
//     deadlock is found in 3 states regardless of the number of
//     philosophers.
//
// # Quick start
//
//	b := repro.NewNet("choice")
//	p := b.Place("p")
//	a := b.Place("a")
//	q := b.Place("q")
//	b.TransArcs("left", []repro.Place{p}, []repro.Place{a})
//	b.TransArcs("right", []repro.Place{p}, []repro.Place{q})
//	b.Mark(p)
//	net, err := b.Build()
//	...
//	rep, err := repro.CheckDeadlock(net, repro.Options{Engine: repro.GPO})
//	if rep.Deadlock { fmt.Println("deadlock:", rep.Witness.String(net)) }
//
// The cmd/gpoverify tool exposes the same checks on .pn files, and
// cmd/gpobench regenerates every table and figure of the paper; see
// EXPERIMENTS.md for the measured-vs-published numbers.
//
// # Observability
//
// Every engine accepts an optional metric registry and progress
// counter through its Options (internal/obs; surfaced on
// repro.Options as Metrics and Progress). A nil registry is free:
// engines thread it unconditionally and the instruments no-op. A
// non-nil registry collects package-prefixed counters, gauges,
// histograms and phase spans — states expanded, stubborn-set sizes,
// BDD/ZDD cache hit rates, peak |r| — without changing what the engine
// explores. OBSERVABILITY.md documents every metric name, the CLI
// flags (-metrics, -progress, -cpuprofile, -memprofile, -pprof) and
// TABLE1.json, the Table 1 count artifact that `gpobench -json` emits
// and the test suite checks.
package repro
