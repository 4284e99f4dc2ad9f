package main

import (
	"bytes"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/petri"
	"repro/internal/pnio"
	"repro/internal/reach"
	"repro/internal/structural/reduce"
	"repro/internal/verify"
)

// Per-layer figures of the batch workloads, and the calibration loops
// shared by several workloads. Everything here runs after the measured
// rounds of a traced run, so none of it touches an end-to-end number.

// timeIt returns the median duration of reps calls of f.
func timeIt(reps int, f func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// calibMarkings is how many reachable markings the petri loops run over.
const calibMarkings = 10000

// petriCalib times the four petri primitives every explicit engine is
// built from, over the first calibMarkings markings of n in BFS order.
func petriCalib(n *petri.Net, lc *layerCtx) (fire, enabled, keyhash float64) {
	marks := []petri.Marking{n.InitialMarking()}
	seen := map[string]bool{marks[0].Key(): true}
	for i := 0; i < len(marks) && len(marks) < calibMarkings; i++ {
		for _, t := range n.EnabledTrans(marks[i]) {
			next, _ := n.Fire(marks[i], t)
			if k := next.Key(); !seen[k] {
				seen[k] = true
				marks = append(marks, next)
			}
		}
	}
	en := make([][]petri.Trans, len(marks))
	firings := 0
	for i, m := range marks {
		en[i] = n.EnabledTrans(m)
		firings += len(en[i])
	}
	per := func(d time.Duration, count int) float64 { return ratio(float64(d), float64(count)) }
	var sink int
	enabled = per(timeIt(5, func() {
		for _, m := range marks {
			sink += len(n.EnabledTrans(m))
		}
	}), len(marks))
	fire = per(timeIt(5, func() {
		for i, m := range marks {
			for _, t := range en[i] {
				next, _ := n.Fire(m, t)
				sink += len(next)
			}
		}
	}), firings)
	key := per(timeIt(5, func() {
		for _, m := range marks {
			sink += len(m.Key())
		}
	}), len(marks))
	keyhash = per(timeIt(5, func() {
		for _, m := range marks {
			k, h := m.KeyHash()
			sink += len(k) + int(h&1)
		}
	}), len(marks))
	_ = sink
	lc.m["petri.fire_ns"] = fire
	lc.m["petri.enabled_ns"] = enabled
	lc.m["petri.key_ns"] = key
	lc.m["petri.keyhash_ns"] = keyhash
	return fire, enabled, keyhash
}

// agg sums the traced observations of the classes pick selects.
func (b *batchInst) agg(pick func(*batchClass) bool) *batchTrace {
	a := newBatchTrace()
	for _, c := range b.classes {
		tr := b.traces[c.name()]
		if tr == nil || !pick(c) {
			continue
		}
		a.ops += tr.ops
		a.reduceNS += tr.reduceNS
		a.engineNS += tr.engineNS
		a.newEngNS += tr.newEngNS
		a.expandNS += tr.expandNS
		a.allocBytes += tr.allocBytes
		a.mallocs += tr.mallocs
		a.opAllocBytes += tr.opAllocBytes
		a.placesBefore += tr.placesBefore
		a.placesRemoved += tr.placesRemoved
		for k, v := range tr.counters {
			a.counters[k] += v
		}
		for k, v := range tr.gaugeSum {
			a.gaugeSum[k] += v
		}
		for k, v := range tr.gauges {
			a.gauges[k] = max(a.gauges[k], v)
		}
	}
	return a
}

func (b *batchInst) layers(lc *layerCtx) {
	m := lc.m
	isSeq := func(c *batchClass) bool { return c.engine == engExhaustive && c.workers == 0 }
	isPar := func(c *batchClass) bool { return c.engine == engExhaustive && c.workers > 0 }
	isPO := func(c *batchClass) bool { return c.engine == engPO || c.engine == engPOProviso }
	isGPO := func(c *batchClass) bool { return c.engine == engGPO }
	isSym := func(c *batchClass) bool { return c.engine == engSymbolic }
	isReduce := func(c *batchClass) bool { return c.reduce }

	// petri + reach.
	var fire, enabled, keyhash float64
	if b.calib != nil {
		net := b.calib.net
		if b.calib.reduce {
			if cert, err := reduce.Run(net, reduce.Options{}); err == nil {
				net = cert.Net()
			}
		}
		fire, enabled, keyhash = petriCalib(net, lc)
	}
	if seq := b.agg(isSeq); seq.ops > 0 {
		states := seq.counters["reach.states"]
		m["reach.seq.ns_per_state"] = ratio(seq.engineNS, states)
		m["reach.seq.states_per_s"] = ratio(states, seq.engineNS/1e9)
		m["reach.seq.alloc_bytes_per_state"] = ratio(seq.allocBytes, states)
		m["reach.seq.allocs_per_state"] = ratio(seq.mallocs, states)
		// The visited-store residual on the calibration instance: what is
		// left of a state's time after the firings, key+hash constructions
		// and the enabled scan it needs.
		if b.calib != nil && isSeq(b.calib) && b.traces[b.calib.name()] != nil {
			tr := b.traces[b.calib.name()]
			st, arcs := tr.counters["reach.states"], tr.counters["reach.arcs"]
			m["reach.seq.intern_ns_per_state"] = ratio(tr.engineNS, st) - ratio(arcs, st)*(fire+keyhash) - enabled
		}
	}
	if ex := b.agg(func(c *batchClass) bool { return c.engine == engExhaustive }); ex.ops > 0 {
		m["reach.arcs_per_state"] = ratio(ex.counters["reach.arcs"], ex.counters["reach.states"])
		m["reach.queue_peak"] = ex.gauges["reach.queue_peak"]
	}
	if par := b.agg(isPar); par.ops > 0 {
		states := par.counters["reach.states"]
		m["reach.par.ns_per_state"] = ratio(par.engineNS, states)
		m["reach.par.alloc_bytes_per_state"] = ratio(par.allocBytes, states)
		m["reach.par.batches"] = lc.perRound(par.counters["reach.batches"])
		m["reach.par.shard_contention"] = lc.perRound(par.counters["reach.shard_contention"])
		// Speed-up against the same instance run sequentially here and now
		// (base: Workers 0, median of 3).
		var speedups []float64
		for _, c := range b.classes {
			if !isPar(c) {
				continue
			}
			seqOpts := c.opts
			seqOpts.Workers = 0
			reps := 3
			if lc.short {
				reps = 1
			}
			seq := timeIt(reps, func() { _, _ = verify.CheckDeadlock(c.net, seqOpts) })
			speedups = append(speedups, ratio(float64(seq)/1e6, median(lc.untraced[c.name()])))
		}
		m["reach.par.speedup_x"] = geomean(speedups)
	}

	// stubborn.
	if po := b.agg(isPO); po.ops > 0 {
		states := po.counters["stubborn.states"]
		m["stubborn.ns_per_state"] = ratio(po.engineNS, states)
		m["stubborn.alloc_bytes_per_state"] = ratio(po.allocBytes, states)
		m["stubborn.proviso_expansions"] = lc.perRound(po.counters["stubborn.proviso_expansions"])
		var explored, full float64
		for _, c := range b.classes {
			if tr := b.traces[c.name()]; tr != nil && isPO(c) && c.ref.maxState > 0 {
				explored += tr.counters["stubborn.states"]
				full += float64(c.ref.maxState * tr.ops)
			}
		}
		m["stubborn.reduction_ratio"] = ratio(explored, full)
	}

	// core + zdd.
	if g := b.agg(isGPO); g.ops > 0 {
		firings := g.counters["core.multi_firings"] + g.counters["core.single_firings"]
		m["core.new_engine_ms"] = ratio(g.newEngNS/1e6, float64(g.ops))
		m["core.analyze_ms"] = ratio(g.engineNS/1e6, float64(g.ops))
		m["core.ns_per_firing"] = ratio(g.engineNS, firings)
		m["core.multi_firings"] = lc.perRound(g.counters["core.multi_firings"])
		m["core.single_firings"] = lc.perRound(g.counters["core.single_firings"])
		m["core.peak_valid"] = g.gauges["core.peak_valid"]
		gs := func(name string) float64 { return g.gaugeSum[name] }
		m["zdd.peak_nodes"] = g.gauges["zdd.peak_nodes"]
		m["zdd.unique_hit_ratio"] = ratio(gs("zdd.unique_hits"), gs("zdd.unique_hits")+gs("zdd.unique_misses"))
		m["zdd.memo_hit_ratio"] = ratio(gs("zdd.memo_hits"), gs("zdd.memo_hits")+gs("zdd.memo_misses"))
		m["zdd.unique_probes_per_lookup"] = ratio(gs("zdd.unique_probes"), gs("zdd.unique_hits")+gs("zdd.unique_misses"))
		m["zdd.alloc_mb_per_op"] = ratio(g.opAllocBytes/1e6, float64(g.ops))
	}

	// symbolic + bdd.
	if s := b.agg(isSym); s.ops > 0 {
		it := s.counters["symbolic.iterations"]
		gs := func(name string) float64 { return s.gaugeSum[name] }
		m["symbolic.iterations"] = lc.perRound(it)
		m["symbolic.ms_per_iteration"] = ratio(s.engineNS/1e6, it)
		m["bdd.peak_nodes"] = s.gauges["symbolic.peak_nodes"]
		m["bdd.cache_hit_ratio"] = ratio(gs("bdd.cache_hits"), gs("bdd.cache_hits")+gs("bdd.cache_misses"))
	}

	// structural/reduce.
	if r := b.agg(isReduce); r.ops > 0 {
		m["reduce.run_ms"] = ratio(r.reduceNS/1e6, float64(r.ops))
		m["reduce.places_removed_ratio"] = ratio(r.placesRemoved, r.placesBefore)
		m["reduce.applications"] = lc.perRound(r.counters["reduce.applications"])
		m["reduce.rounds"] = lc.perRound(r.counters["reduce.rounds"])
		var shares, gains []float64
		for _, c := range b.classes {
			tr := b.traces[c.name()]
			if tr == nil || !c.reduce {
				continue
			}
			shares = append(shares, ratio(tr.reduceNS, tr.reduceNS+tr.newEngNS+tr.engineNS+tr.expandNS))
			// Gain of the pre-pass per instance: the same operation without
			// it, over the operation with it (pre-pass included). Unreduced
			// symbolic rows take up to 9 s (rw(15)) and are left out.
			if c.engine == engSymbolic {
				continue
			}
			plain := c.opts
			plain.Reduce = false
			reduced := median(lc.untraced[c.name()])
			reps := 3
			if reduced > 20 || lc.short {
				reps = 1
			}
			base := timeIt(reps, func() { _, _ = verify.CheckDeadlock(c.net, plain) })
			gains = append(gains, ratio(float64(base)/1e6, reduced))
		}
		m["reduce.share_of_verdict"] = geomean(shares)
		m["reduce.net_gain_x"] = geomean(gains)
	}

	// Cross-check: the directly-timed pieces against the untraced façade.
	var pieces, facade float64
	for _, c := range b.classes {
		if tr := b.traces[c.name()]; tr != nil && tr.ops > 0 {
			pieces += (tr.reduceNS + tr.newEngNS + tr.engineNS + tr.expandNS) / 1e6 / float64(tr.ops)
			facade += median(lc.untraced[c.name()])
		}
	}
	m["bench.pieces_vs_facade_ratio"] = ratio(pieces, facade)

	if b.name == wSeq {
		b.obsOverhead(lc)
	}
}

// obsOverhead measures the program's own instrumentation budget: the
// calibration instance with Options.Metrics, then Options.Trace, set,
// against both nil.
func (b *batchInst) obsOverhead(lc *layerCtx) {
	if b.calib == nil {
		return
	}
	reps := 5
	if lc.short {
		reps = 1
	}
	run := func(o verify.Options) float64 {
		o.Engine = verify.Exhaustive
		return float64(timeIt(reps, func() { _, _ = verify.CheckDeadlock(b.calib.net, o) }))
	}
	base := run(verify.Options{})
	lc.m["obs.metrics_overhead_pct"] = (ratio(run(verify.Options{Metrics: obs.New()}), base) - 1) * 100
	lc.m["obs.trace_overhead_pct"] = (ratio(run(verify.Options{Trace: trace.New(trace.Options{})}), base) - 1) * 100
}

// codecCalib fills the pnio and verify.RunKey figures from the nets a
// serve workload sends: microseconds per KB of .pn text parsed and
// written, and per RunKey computed.
func codecCalib(nets []*petri.Net, lc *layerCtx) {
	var texts []string
	var kb float64
	for _, n := range nets {
		var buf bytes.Buffer
		if err := pnio.Write(&buf, n); err != nil {
			continue
		}
		texts = append(texts, buf.String())
		kb += float64(buf.Len()) / 1024
	}
	parse := timeIt(5, func() {
		for _, t := range texts {
			_, _ = pnio.Parse(strings.NewReader(t))
		}
	})
	write := timeIt(5, func() {
		for _, n := range nets {
			var buf bytes.Buffer
			_ = pnio.Write(&buf, n)
		}
	})
	key := timeIt(5, func() {
		for _, n := range nets {
			_ = verify.RunKey(n, "deadlock", nil, verify.Options{Engine: verify.GPO})
		}
	})
	lc.m["pnio.parse_us_per_kb"] = ratio(float64(parse)/1e3, kb)
	lc.m["pnio.write_us_per_kb"] = ratio(float64(write)/1e3, kb)
	lc.m["verify.runkey_us"] = ratio(float64(key)/1e3, float64(len(nets)))
}

// facadeOverheadUS is verify.CheckDeadlock minus reach.Explore on the
// same small net: medians of 200 alternating calls each, in microseconds.
// The difference is a few hundred nanoseconds of option plumbing, so
// expect a value near 0 whose sign can flip between runs.
func facadeOverheadUS(n *petri.Net) float64 {
	const reps = 200
	facade, direct := make([]float64, reps), make([]float64, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		_, _ = verify.CheckDeadlock(n, verify.Options{Engine: verify.Exhaustive})
		t1 := time.Now()
		_, _ = reach.Explore(n, reach.Options{})
		facade[i], direct[i] = float64(t1.Sub(t0)), float64(time.Since(t1))
	}
	return (median(facade) - median(direct)) / 1e3
}
