package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// This file implements fleet-wide trace correlation: a Bundle groups
// the per-process dumps of one distributed run (coordinator plus every
// peer's node-side recorder) together with a clock-offset estimate per
// peer, and Merge aligns them onto the coordinator's clock, pairs the
// frame_send/frame_recv wire edges stamped under shared PairIDs, and
// attributes each BFS level's wall time to compute / serialize / wire /
// steal / stall buckets. gpod runs every request on one server and so
// serves one-entry bundles; nothing in the module writes wire edges any
// more, and the multi-peer alignment is kept only for its readers.

// BundleSchema identifies the bundle JSON envelope.
const BundleSchema = "gpotrace-bundle/v1"

// Bundle is the collected trace of one run: one entry per recorder that
// observed it. Served by gpod's GET /v1/runs/{id}/trace, whose bundles
// hold the executing server's dump alone.
type Bundle struct {
	Schema string       `json:"schema"`
	RunID  string       `json:"run_id,omitempty"`
	Peers  []BundlePeer `json:"peers"`
}

// BundlePeer is one recorder's slice of the run. OffsetNS is the
// RPC-midpoint estimate of (peer clock − coordinator clock) measured
// while collecting the dump; RTTNS is the collection round trip that
// bounds the estimate's error.
type BundlePeer struct {
	Addr        string `json:"addr"`
	Coordinator bool   `json:"coordinator,omitempty"`
	OffsetNS    int64  `json:"offset_ns,omitempty"`
	RTTNS       int64  `json:"rtt_ns,omitempty"`
	Dump        *Dump  `json:"dump"`
}

// WriteBundle writes the bundle as a single JSON object.
func WriteBundle(w io.Writer, b *Bundle) error {
	b.Schema = BundleSchema
	return json.NewEncoder(w).Encode(b)
}

// ReadBundle parses a bundle, refusing unknown schemas, dumps newer
// than FormatVersion, and bundles whose dumps disagree on version
// (ErrBadHeader / ErrVersionMismatch / ErrMixedVersions).
func ReadBundle(r io.Reader) (*Bundle, error) {
	var b Bundle
	dec := json.NewDecoder(r)
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	if b.Schema != BundleSchema {
		return nil, fmt.Errorf("%w: schema %q, want %q", ErrBadHeader, b.Schema, BundleSchema)
	}
	version := 0
	for i := range b.Peers {
		d := b.Peers[i].Dump
		if d == nil {
			return nil, fmt.Errorf("%w: peer %q has no dump", ErrBadHeader, b.Peers[i].Addr)
		}
		v := versionOr1(d.Version)
		if v > FormatVersion {
			return nil, fmt.Errorf("%w: peer %q dump is v%d, reader understands ≤ v%d",
				ErrVersionMismatch, b.Peers[i].Addr, v, FormatVersion)
		}
		if version == 0 {
			version = v
		} else if v != version {
			return nil, fmt.Errorf("%w: peer %q dump is v%d, earlier peers are v%d",
				ErrMixedVersions, b.Peers[i].Addr, v, version)
		}
	}
	return &b, nil
}

// Merged is the aligned view of a bundle: every peer placed on the
// coordinator's clock, wire edges paired across dumps, and per-level
// attribution totals.
type Merged struct {
	RunID  string
	Peers  []MergedPeer
	States int64 // KindState events across all dumps (fleet state count)
	Edges  []WireEdge
	Levels []LevelStat
}

// MergedPeer is one bundle entry after alignment. OffsetNS is the
// causally clamped offset actually applied (peer clock − coordinator
// clock); Expanded/ExpandNS feed the per-peer throughput line.
type MergedPeer struct {
	Addr        string
	Coordinator bool
	OffsetNS    int64
	Expanded    int64
	ExpandNS    int64
}

// WireEdge is one matched frame transfer on the coordinator clock.
// From/To index Merged.Peers. EndNS-StartNS can only be negative if
// the clamped offsets still violate causality (no coordinator-involving
// constraint existed for the sending peer) — the attribution buckets
// clamp at zero, and the skew tests pin that constrained edges never
// go negative.
type WireEdge struct {
	Pair    int64
	Level   int64
	RPC     int
	From    int
	To      int
	StartNS int64
	EndNS   int64
	Bytes   int64
}

// LevelStat attributes one BFS level's wall time. ComputeNS sums peer
// expand phases (can exceed WallNS — peers run in parallel), StallNS
// is the spread between the first and last expand reply reaching the
// coordinator, and SlowestPeer names the peer whose reply arrived last.
type LevelStat struct {
	Level       int64
	Size        int64
	WallNS      int64
	ComputeNS   int64
	SerializeNS int64
	WireNS      int64
	StealNS     int64
	Steals      int64
	Stolen      int64
	StallNS     int64
	SlowestPeer string
}

// frameEv is one wire-edge half, on the owning peer's own clock.
type frameEv struct {
	peer int
	send bool
	ts   int64 // absolute ns, own clock
	arg1 int64
}

// phaseSpan is one closed Begin/End pair.
type phaseSpan struct {
	peer  int
	name  string
	level int64 // Arg1 of the begin event
	dur   int64
}

// Merge aligns a bundle onto the coordinator's clock. Each peer's
// RPC-midpoint offset estimate is clamped into the causal interval
// implied by its matched wire edges with the coordinator (a frame
// cannot arrive before it was sent in either direction), so estimation
// error bounded by the RPC round trip never yields negative-duration
// edges.
func Merge(b *Bundle) (*Merged, error) {
	if len(b.Peers) == 0 {
		return nil, fmt.Errorf("%w: bundle has no peers", ErrBadHeader)
	}
	coord := 0
	for i := range b.Peers {
		if b.Peers[i].Coordinator {
			coord = i
			break
		}
	}
	m := &Merged{RunID: b.RunID}
	bases := make([]int64, len(b.Peers))
	for i := range b.Peers {
		bases[i] = metaInt(b.Peers[i].Dump, "base_unix_ns")
		m.Peers = append(m.Peers, MergedPeer{
			Addr:        b.Peers[i].Addr,
			Coordinator: i == coord,
			OffsetNS:    b.Peers[i].OffsetNS,
		})
	}
	m.Peers[coord].OffsetNS = 0

	// Collect frame halves by pair id and count states.
	pairs := map[int64][]frameEv{}
	for pi := range b.Peers {
		for _, tk := range b.Peers[pi].Dump.Tracks {
			for _, ev := range tk.Events {
				switch ev.Kind {
				case KindState:
					m.States++
				case KindFrameSend, KindFrameRecv:
					pairs[ev.Arg0] = append(pairs[ev.Arg0], frameEv{
						peer: pi,
						send: ev.Kind == KindFrameSend,
						ts:   bases[pi] + ev.TS,
						arg1: ev.Arg1,
					})
				}
			}
		}
	}

	// Causal clamp: for every non-coordinator peer, bound its offset by
	// the matched edges it shares with the coordinator.
	for pi := range b.Peers {
		if pi == coord {
			continue
		}
		lo, hi := int64(-1<<62), int64(1<<62)
		for _, evs := range pairs {
			for _, e := range matchEdges(evs, pi, coord) {
				// peer → coordinator: sendOwn − o ≤ recvCoord
				if v := e.sendTS - e.recvTS; v > lo {
					lo = v
				}
			}
			for _, e := range matchEdges(evs, coord, pi) {
				// coordinator → peer: recvOwn − o ≥ sendCoord
				if v := e.recvTS - e.sendTS; v < hi {
					hi = v
				}
			}
		}
		o := m.Peers[pi].OffsetNS
		if lo <= hi {
			if o < lo {
				o = lo
			}
			if o > hi {
				o = hi
			}
		} else {
			o = (lo + hi) / 2
		}
		m.Peers[pi].OffsetNS = o
	}

	// Build aligned edges.
	pids := make([]int64, 0, len(pairs))
	for pid := range pairs {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, pid := range pids {
		evs := pairs[pid]
		for a := 0; a < len(b.Peers); a++ {
			for bb := 0; bb < len(b.Peers); bb++ {
				if a == bb {
					continue
				}
				for _, e := range matchEdges(evs, a, bb) {
					m.Edges = append(m.Edges, WireEdge{
						Pair:    pid,
						Level:   PairLevel(pid),
						RPC:     PairRPC(pid),
						From:    a,
						To:      bb,
						StartNS: e.sendTS - m.Peers[a].OffsetNS,
						EndNS:   e.recvTS - m.Peers[bb].OffsetNS,
						Bytes:   e.bytes,
					})
				}
			}
		}
	}

	m.buildAttribution(b, bases, coord)
	return m, nil
}

// matchedEdge is one (send on peer a, recv on peer b) pairing, own
// clocks.
type matchedEdge struct {
	sendTS, recvTS, bytes int64
}

// matchEdges zips peer a's sends with peer b's recvs in timestamp
// order. Repeated exchanges under one pair id (chunked intern posts)
// pair k-th send with k-th recv — both sides emit sequentially.
func matchEdges(evs []frameEv, a, b int) []matchedEdge {
	var sends, recvs []frameEv
	for _, e := range evs {
		if e.peer == a && e.send {
			sends = append(sends, e)
		} else if e.peer == b && !e.send {
			recvs = append(recvs, e)
		}
	}
	sort.Slice(sends, func(i, j int) bool { return sends[i].ts < sends[j].ts })
	sort.Slice(recvs, func(i, j int) bool { return recvs[i].ts < recvs[j].ts })
	n := len(sends)
	if len(recvs) < n {
		n = len(recvs)
	}
	out := make([]matchedEdge, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, matchedEdge{sendTS: sends[i].ts, recvTS: recvs[i].ts, bytes: sends[i].arg1})
	}
	return out
}

// buildAttribution fills Levels and per-peer throughput from the
// aligned dumps.
func (m *Merged) buildAttribution(b *Bundle, bases []int64, coord int) {
	// Closed phase spans across all dumps, and per-peer expand totals.
	var spans []phaseSpan
	type open struct {
		name  string
		level int64
		ts    int64
	}
	for pi := range b.Peers {
		d := b.Peers[pi].Dump
		for _, tk := range d.Tracks {
			var stack []open
			for _, ev := range tk.Events {
				switch ev.Kind {
				case KindPhaseBegin:
					stack = append(stack, open{name: d.lookup(ev.Arg0), level: ev.Arg1, ts: ev.TS})
				case KindPhaseEnd:
					name := d.lookup(ev.Arg0)
					for len(stack) > 0 {
						top := stack[len(stack)-1]
						stack = stack[:len(stack)-1]
						if top.name == name {
							spans = append(spans, phaseSpan{
								peer: pi, name: name, level: top.level, dur: ev.TS - top.ts,
							})
							break
						}
					}
				case KindExpand:
					m.Peers[pi].Expanded += ev.Arg0
				}
			}
		}
	}
	for _, sp := range spans {
		if sp.name == "expand" {
			m.Peers[sp.peer].ExpandNS += sp.dur
		}
	}

	// Level boundaries from the coordinator's KindLevel events.
	type levelMark struct {
		level, size, ts int64
	}
	var marks []levelMark
	var lastTS int64
	cd := b.Peers[coord].Dump
	for _, tk := range cd.Tracks {
		for _, ev := range tk.Events {
			if ev.TS > lastTS {
				lastTS = ev.TS
			}
			if ev.Kind == KindLevel {
				marks = append(marks, levelMark{level: ev.Arg0, size: ev.Arg1, ts: ev.TS})
			}
		}
	}
	sort.Slice(marks, func(i, j int) bool { return marks[i].ts < marks[j].ts })
	if len(marks) == 0 {
		return
	}
	idx := map[int64]int{}
	for i, mk := range marks {
		end := lastTS
		if i+1 < len(marks) {
			end = marks[i+1].ts
		}
		idx[mk.level] = i
		m.Levels = append(m.Levels, LevelStat{Level: mk.level, Size: mk.size, WallNS: end - mk.ts})
	}
	for _, sp := range spans {
		li, ok := idx[sp.level]
		if !ok {
			continue
		}
		switch sp.name {
		case "expand":
			m.Levels[li].ComputeNS += sp.dur
		case "serialize":
			m.Levels[li].SerializeNS += sp.dur
		case "assign":
			m.Levels[li].StealNS += sp.dur
		}
	}
	// Steal events (coordinator).
	for _, tk := range cd.Tracks {
		for _, ev := range tk.Events {
			if ev.Kind == KindSteal {
				if li, ok := idx[ev.Arg0]; ok {
					m.Levels[li].Steals++
					m.Levels[li].Stolen += ev.Arg1
				}
			}
		}
	}
	// Wire totals and coordinator stall (spread of expand replies).
	type stallAcc struct {
		min, max int64
		n        int
		slowest  int
	}
	stalls := map[int64]*stallAcc{}
	for _, e := range m.Edges {
		li, ok := idx[e.Level]
		if !ok {
			continue
		}
		if d := e.EndNS - e.StartNS; d > 0 {
			m.Levels[li].WireNS += d
		}
		if e.RPC == RPCExpand && e.To == coord {
			acc := stalls[e.Level]
			if acc == nil {
				acc = &stallAcc{min: e.EndNS, max: e.EndNS, slowest: e.From}
				stalls[e.Level] = acc
			}
			if e.EndNS < acc.min {
				acc.min = e.EndNS
			}
			if e.EndNS > acc.max {
				acc.max = e.EndNS
				acc.slowest = e.From
			}
			acc.n++
		}
	}
	for lvl, acc := range stalls {
		if li, ok := idx[lvl]; ok && acc.n > 1 {
			m.Levels[li].StallNS = acc.max - acc.min
			m.Levels[li].SlowestPeer = m.Peers[acc.slowest].Addr
		}
	}
}

// metaInt parses an int64 metadata value (0 when absent or malformed).
func metaInt(d *Dump, key string) int64 {
	if d == nil || d.Meta == nil {
		return 0
	}
	v, _ := strconv.ParseInt(d.Meta[key], 10, 64)
	return v
}

// WriteChromeMerged writes the aligned bundle as one Chrome trace JSON
// with one process (track group) per peer, timestamps on the
// coordinator's clock relative to the earliest aligned event.
func WriteChromeMerged(w io.Writer, b *Bundle, m *Merged) error {
	bases := make([]int64, len(b.Peers))
	t0 := int64(1<<62 - 1)
	for i := range b.Peers {
		bases[i] = metaInt(b.Peers[i].Dump, "base_unix_ns")
		if start := bases[i] - m.Peers[i].OffsetNS; start < t0 {
			t0 = start
		}
	}
	f := chromeFile{
		DisplayTimeUnit: "ns",
		OtherData:       map[string]any{"run_id": m.RunID, "schema": "gpotrace-merged/v1"},
	}
	for pi := range b.Peers {
		d := b.Peers[pi].Dump
		pid := pi + 1
		pname := m.Peers[pi].Addr
		if m.Peers[pi].Coordinator {
			pname += " (coordinator)"
		}
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid, TID: 0,
			Args: map[string]any{"name": pname},
		})
		for ti, tk := range d.Tracks {
			tid := ti + 1
			f.TraceEvents = append(f.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", PID: pid, TID: tid,
				Args: map[string]any{"name": tk.Name},
			})
			for _, ev := range tk.Events {
				abs := bases[pi] + ev.TS - m.Peers[pi].OffsetNS - t0
				ce := chromeEvent{TS: float64(abs) / 1e3, PID: pid, TID: tid}
				switch ev.Kind {
				case KindPhaseBegin:
					ce.Ph, ce.Name = "B", d.lookup(ev.Arg0)
				case KindPhaseEnd:
					ce.Ph, ce.Name = "E", d.lookup(ev.Arg0)
				default:
					ce.Ph, ce.S = "i", "t"
					ce.Name = ev.Kind.String()
					ce.Args = map[string]any{
						"kind": ev.Kind.String(),
						"a0":   ev.Arg0,
						"a1":   ev.Arg1,
					}
					if internedArg0(ev.Kind) {
						ce.Args["name"] = d.lookup(ev.Arg0)
					}
				}
				f.TraceEvents = append(f.TraceEvents, ce)
			}
		}
	}
	return json.NewEncoder(w).Encode(&f)
}

// WriteText renders the merged view for terminals: the peer roster
// with applied offsets and throughput, then the per-level attribution
// table (percentages of level wall time; compute sums parallel peers
// and can exceed 100%).
func (m *Merged) WriteText(w io.Writer) {
	fmt.Fprintf(w, "run %s: %d peers\n", m.RunID, len(m.Peers))
	fmt.Fprintf(w, "fleet states: %d\n", m.States)
	for i, p := range m.Peers {
		role := ""
		if p.Coordinator {
			role = " (coordinator)"
		}
		fmt.Fprintf(w, "peer %d %s%s offset=%s", i, p.Addr, role, fmtNS(p.OffsetNS))
		if p.ExpandNS > 0 {
			rate := float64(p.Expanded) / (float64(p.ExpandNS) / 1e9)
			fmt.Fprintf(w, " expanded=%d states/s=%.0f", p.Expanded, rate)
		}
		fmt.Fprintln(w)
	}
	if len(m.Levels) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%5s %8s %10s %8s %8s %8s %8s %8s  %s\n",
		"level", "size", "wall", "compute", "serial", "wire", "steal", "stall", "slowest")
	for _, l := range m.Levels {
		pct := func(v int64) string {
			if l.WallNS <= 0 {
				return "-"
			}
			return fmt.Sprintf("%.0f%%", 100*float64(v)/float64(l.WallNS))
		}
		slowest := l.SlowestPeer
		if slowest == "" {
			slowest = "-"
		}
		fmt.Fprintf(w, "%5d %8d %10s %8s %8s %8s %8s %8s  %s\n",
			l.Level, l.Size, fmtNS(l.WallNS),
			pct(l.ComputeNS), pct(l.SerializeNS), pct(l.WireNS), pct(l.StealNS), pct(l.StallNS),
			slowest)
	}
}

// fmtNS renders a signed nanosecond duration compactly.
func fmtNS(ns int64) string {
	sign := ""
	if ns < 0 {
		sign, ns = "-", -ns
	}
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%s%.2fs", sign, float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%s%.1fms", sign, float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%s%.1fµs", sign, float64(ns)/1e3)
	}
	return fmt.Sprintf("%s%dns", sign, ns)
}
