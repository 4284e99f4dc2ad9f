package obs

// Merge folds the counters, gauges and histograms of from into r. The
// daemon gives each verification a fresh per-run Registry — so the
// run's ledger entry and /v1/runs/{id} snapshot see only that run's
// numbers — and then merges it into the long-lived process registry
// that /metrics serves, keeping the cumulative series every existing
// test and dashboard pins.
//
// Semantics per metric kind:
//
//   - Counters add: process totals are sums over runs.
//   - Gauges take the maximum: every engine gauge in this repo is a
//     peak or a high-water mark (reach.queue_peak, zdd.nodes_peak,
//     server.cache_bytes is owned by the process registry and never
//     appears in per-run registries), so max is the correct fold.
//   - Histograms merge distributions: counts, sums, and buckets add;
//     min/max fold through the same CAS loops Observe uses.
//   - Spans stay on from: they describe one run's phases and are read
//     from its own registry, and a long-lived process registry that
//     appended them would grow by one record per run, forever.
//
// Nil r or from is a no-op. Merge takes from's read lock only; callers
// must not Merge a registry into itself.
func (r *Registry) Merge(from *Registry) {
	if r == nil || from == nil {
		return
	}
	from.mu.RLock()
	defer from.mu.RUnlock()
	for name, c := range from.counters {
		if v := c.Value(); v != 0 {
			r.Counter(name).Add(v)
		}
	}
	for name, g := range from.gauges {
		r.Gauge(name).SetMax(g.Value())
	}
	for name, h := range from.hists {
		if h.Count() == 0 {
			continue
		}
		dst := r.Histogram(name)
		dst.count.Add(h.count.Load())
		addSat(&dst.sum, h.sum.Load())
		for i := 0; i < nbuckets; i++ {
			if n := h.buckets[i].Load(); n != 0 {
				dst.buckets[i].Add(n)
			}
		}
		for v := h.min.Load(); ; {
			cur := dst.min.Load()
			if v >= cur || dst.min.CompareAndSwap(cur, v) {
				break
			}
		}
		for v := h.max.Load(); ; {
			cur := dst.max.Load()
			if v <= cur || dst.max.CompareAndSwap(cur, v) {
				break
			}
		}
	}
}
