package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// populate fills a registry with one of everything, on a fake clock so
// the snapshot is deterministic.
func populate(t *testing.T) *Registry {
	t.Helper()
	clock := NewFakeClock(time.Unix(1000, 0))
	r := NewWithClock(clock)
	r.Counter("core.states").Add(523)
	r.Counter("core.arcs").Add(1200)
	r.Gauge("core.peak_valid").SetMax(9)
	h := r.Histogram("stubborn.set_size")
	for _, v := range []int64{1, 1, 2, 3, 8} {
		h.Observe(v)
	}
	sp := r.StartSpan("core.analyze")
	clock.Advance(250 * time.Millisecond)
	sp.End()
	return r
}

func TestJSONSinkRoundTrip(t *testing.T) {
	r := populate(t)
	want := r.Snapshot()

	var buf bytes.Buffer
	if err := r.Flush(JSONSink{W: &buf, Indent: true}); err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("sink output does not parse: %v", err)
	}

	if !reflect.DeepEqual(got.Counters, want.Counters) {
		t.Errorf("counters: got %v, want %v", got.Counters, want.Counters)
	}
	if !reflect.DeepEqual(got.Gauges, want.Gauges) {
		t.Errorf("gauges: got %v, want %v", got.Gauges, want.Gauges)
	}
	if !reflect.DeepEqual(got.Histograms, want.Histograms) {
		t.Errorf("histograms: got %v, want %v", got.Histograms, want.Histograms)
	}
	if len(got.Spans) != 1 {
		t.Fatalf("spans: got %d, want 1", len(got.Spans))
	}
	if got.Spans[0].Name != "core.analyze" || got.Spans[0].WallNS != int64(250*time.Millisecond) {
		t.Errorf("span round trip: got %+v", got.Spans[0])
	}
	if got.TakenUnixNS != want.TakenUnixNS {
		t.Errorf("taken_unix_ns: got %d, want %d", got.TakenUnixNS, want.TakenUnixNS)
	}
}

func TestTextSink(t *testing.T) {
	r := populate(t)
	var buf bytes.Buffer
	if err := r.Flush(TextSink{W: &buf}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"core.states", "523", "core.peak_valid", "stubborn.set_size", "core.analyze"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	// Counters must be sorted by name.
	if strings.Index(out, "core.arcs") > strings.Index(out, "core.states") {
		t.Errorf("counters not sorted:\n%s", out)
	}
}

func TestNopSink(t *testing.T) {
	if err := populate(t).Flush(NopSink{}); err != nil {
		t.Fatal(err)
	}
}
