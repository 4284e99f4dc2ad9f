package trace

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Summary is what cmd/gpotrace prints: the run reconstructed from its
// events alone — state and firing counts, the hottest transitions,
// per-phase wall clock, discovery rate over time, and the abort tail if
// the run was cancelled.
type Summary struct {
	Meta        map[string]string
	Tracks      int
	Events      int
	Dropped     uint64
	SpanNS      int64 // last event TS − first event TS
	States      int
	Fires       int
	MultiFires  int
	Aborted     bool
	AbortReason string
	Top         []TransCount
	Phases      []PhaseWall
	Rate        []RateBucket
}

// TransCount is one row of the top-transitions table.
type TransCount struct {
	Name  string
	Count int
}

// PhaseWall is the summed wall clock of one named phase on one track.
type PhaseWall struct {
	Track  string
	Name   string
	WallNS int64
	Count  int // begin/end pairs summed
}

// RateBucket is the state-discovery rate over one slice of the run.
type RateBucket struct {
	StartNS int64
	States  int
}

// rateBuckets is how many slices Summarize cuts the run into.
const rateBuckets = 10

// Summarize reconstructs a Summary from a dump, which it leaves as it
// is. Tracks are read in name order, so the summary does not depend on
// the order a parsed Chrome file listed them in. topN bounds the
// top-transitions table (<=0 means 10).
func Summarize(d *Dump, topN int) *Summary {
	if topN <= 0 {
		topN = 10
	}
	tracks := append([]DumpTrack(nil), d.Tracks...)
	sort.SliceStable(tracks, func(i, j int) bool { return tracks[i].Name < tracks[j].Name })
	s := &Summary{Meta: d.Meta, Tracks: len(tracks)}

	minTS, maxTS := int64(0), int64(0)
	seenTS := false
	fires := map[int64]int{}
	for _, tk := range tracks {
		s.Dropped += tk.Dropped
		s.Events += len(tk.Events)
		type open struct {
			name int64
			ts   int64
		}
		var stack []open
		phase := map[string]*PhaseWall{}
		var lastTS int64
		for _, ev := range tk.Events {
			if !seenTS || ev.TS < minTS {
				minTS = ev.TS
			}
			if !seenTS || ev.TS > maxTS {
				maxTS = ev.TS
			}
			seenTS = true
			lastTS = ev.TS
			switch ev.Kind {
			case KindState:
				s.States++
			case KindFire:
				s.Fires++
				fires[ev.Arg0]++
			case KindMultiFire:
				s.MultiFires++
			case KindPhaseBegin:
				stack = append(stack, open{ev.Arg0, ev.TS})
			case KindPhaseEnd:
				if n := len(stack); n > 0 {
					o := stack[n-1]
					stack = stack[:n-1]
					name := d.lookup(o.name)
					pw := phase[name]
					if pw == nil {
						pw = &PhaseWall{Track: tk.Name, Name: name}
						phase[name] = pw
					}
					pw.WallNS += ev.TS - o.ts
					pw.Count++
				}
			case KindAbort:
				s.Aborted = true
				s.AbortReason = d.lookup(ev.Arg0)
			}
		}
		// An aborted run leaves its phases open; charge them to the
		// track's last event so the wall table still adds up.
		for _, o := range stack {
			name := d.lookup(o.name)
			pw := phase[name]
			if pw == nil {
				pw = &PhaseWall{Track: tk.Name, Name: name}
				phase[name] = pw
			}
			pw.WallNS += lastTS - o.ts
			pw.Count++
		}
		var names []string
		for name := range phase {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s.Phases = append(s.Phases, *phase[name])
		}
	}
	if seenTS {
		s.SpanNS = maxTS - minTS
	}

	for id, n := range fires {
		s.Top = append(s.Top, TransCount{Name: d.transName(id), Count: n})
	}
	sort.Slice(s.Top, func(i, j int) bool {
		if s.Top[i].Count != s.Top[j].Count {
			return s.Top[i].Count > s.Top[j].Count
		}
		return s.Top[i].Name < s.Top[j].Name
	})
	if len(s.Top) > topN {
		s.Top = s.Top[:topN]
	}

	if seenTS && s.SpanNS > 0 {
		width := s.SpanNS/rateBuckets + 1
		s.Rate = make([]RateBucket, rateBuckets)
		for i := range s.Rate {
			s.Rate[i].StartNS = minTS + int64(i)*width
		}
		for _, tk := range tracks {
			for _, ev := range tk.Events {
				if ev.Kind != KindState {
					continue
				}
				i := (ev.TS - minTS) / width
				s.Rate[i].States++
			}
		}
	}
	return s
}

// WriteText renders the summary as the gpotrace report.
func (s *Summary) WriteText(w io.Writer) {
	fmt.Fprintf(w, "trace: %d events on %d tracks over %v", s.Events, s.Tracks, time.Duration(s.SpanNS))
	if s.Dropped > 0 {
		fmt.Fprintf(w, " (%d dropped by ring)", s.Dropped)
	}
	fmt.Fprintln(w)
	if len(s.Meta) > 0 {
		var keys []string
		for k := range s.Meta {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %s: %s\n", k, s.Meta[k])
		}
	}
	fmt.Fprintf(w, "states: %d  fires: %d  multifires: %d\n", s.States, s.Fires, s.MultiFires)
	if s.Aborted {
		fmt.Fprintf(w, "ABORTED: %s\n", s.AbortReason)
	}
	if len(s.Top) > 0 {
		fmt.Fprintln(w, "top transitions by firings:")
		for _, tc := range s.Top {
			fmt.Fprintf(w, "  %8d  %s\n", tc.Count, tc.Name)
		}
	}
	if len(s.Phases) > 0 {
		fmt.Fprintln(w, "per-phase wall:")
		for _, pw := range s.Phases {
			fmt.Fprintf(w, "  %-12s %-24s %12v  (%d)\n", pw.Track, pw.Name, time.Duration(pw.WallNS), pw.Count)
		}
	}
	if len(s.Rate) > 0 {
		fmt.Fprintln(w, "states/sec over time:")
		width := s.Rate[1].StartNS - s.Rate[0].StartNS
		for _, rb := range s.Rate {
			persec := float64(rb.States) / (float64(width) / 1e9)
			fmt.Fprintf(w, "  +%-12v %10d  (%.0f/s)\n", time.Duration(rb.StartNS), rb.States, persec)
		}
	}
}
