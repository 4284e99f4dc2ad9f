package obs

// Snapshot is a point-in-time export of a registry: plain maps and
// slices, directly marshalable to JSON and comparable in tests.
type Snapshot struct {
	TakenUnixNS int64                        `json:"taken_unix_ns"`
	Counters    map[string]int64             `json:"counters,omitempty"`
	Gauges      map[string]int64             `json:"gauges,omitempty"`
	Histograms  map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Spans       []SpanRecord                 `json:"spans,omitempty"`
}

// Snapshot exports the registry's current state. Safe on a nil registry
// (returns an empty snapshot).
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{}
	if r == nil {
		return s
	}
	s.TakenUnixNS = r.now().UnixNano()
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.snapshot()
		}
	}
	if len(r.spans) > 0 {
		s.Spans = make([]SpanRecord, len(r.spans))
		copy(s.Spans, r.spans)
	}
	return s
}
