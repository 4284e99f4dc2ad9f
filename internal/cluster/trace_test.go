package cluster

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/models"
	"repro/internal/obs/trace"
	"repro/internal/reach"
)

// TestClusterTracingPassive is the distributed-tracing acceptance pair:
// a traced 3-peer run is bit-identical to the untraced one and to the
// sequential BFS, the coordinator's recorder reconstructs the exact
// state count from KindState events alone, and the per-peer node-side
// slices collect into a bundle whose merge agrees with the Result.
func TestClusterTracingPassive(t *testing.T) {
	nodes, _ := startCluster(t, 3)
	n := models.NSDP(6)

	seq, err := reach.Explore(n, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := nodes[0].Explore(n, nil, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}

	const runID = "trace-passive-test"
	tr := trace.New(trace.Options{})
	tr.SetMeta("run_id", runID)
	traced, err := nodes[0].Explore(n, nil, reach.Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "traced-vs-seq", seq, traced)
	sameResult(t, "traced-vs-untraced", plain, traced)

	// The coordinator recorder alone reconstructs the fleet state count.
	d := tr.Dump()
	states := 0
	for _, tk := range d.Tracks {
		for _, ev := range tk.Events {
			if ev.Kind == trace.KindState {
				states++
			}
		}
	}
	if states != traced.States {
		t.Fatalf("coordinator dump holds %d state events, Result says %d", states, traced.States)
	}

	// Every peer retained its node-side slice under the propagated run
	// ID and hands it back with a clock-offset estimate.
	collected := nodes[0].CollectTraces(context.Background(), runID)
	if len(collected) != len(nodes) {
		t.Fatalf("collected %d peer dumps, want %d", len(collected), len(nodes))
	}
	for _, p := range collected {
		if p.Dump == nil || len(p.Dump.Tracks) == 0 {
			t.Fatalf("peer %s returned an empty dump", p.Addr)
		}
		if p.RTTNS <= 0 {
			t.Fatalf("peer %s has no RTT bound on its offset estimate", p.Addr)
		}
	}

	// Bundle → merge agrees with the Result and keeps causality.
	b := &trace.Bundle{
		RunID: runID,
		Peers: append([]trace.BundlePeer{
			{Addr: nodes[0].Self(), Coordinator: true, Dump: d},
		}, collected...),
	}
	var buf bytes.Buffer
	if err := trace.WriteBundle(&buf, b); err != nil {
		t.Fatal(err)
	}
	if b, err = trace.ReadBundle(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := trace.Merge(b)
	if err != nil {
		t.Fatal(err)
	}
	if m.States != int64(traced.States) {
		t.Fatalf("merged timeline reconstructs %d states, Result says %d", m.States, traced.States)
	}
	if len(m.Levels) == 0 {
		t.Fatal("merged timeline has no level attribution")
	}
	for _, e := range m.Edges {
		if (e.From == 0 || e.To == 0) && e.EndNS < e.StartNS {
			t.Fatalf("coordinator wire edge %d→%d (rpc %d level %d) runs backwards: %dns",
				e.From, e.To, e.RPC, e.Level, e.EndNS-e.StartNS)
		}
	}

	// Untraced runs leave nothing behind in the store.
	if got := nodes[1].LocalTrace("no-such-run"); got != nil {
		t.Fatalf("LocalTrace(no-such-run) = %+v, want nil", got)
	}
}

// BenchmarkDisabledTraceHotPath pins the disabled-tracing cost of the
// cluster wire-edge call sites: every emit on a nil track must stay
// allocation-free (the zero-alloc gate in scripts/check.sh greps for 0
// allocs/op).
func BenchmarkDisabledTraceHotPath(b *testing.B) {
	var tk *trace.Track
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pid := trace.PairID(int64(i&0xff), trace.RPCExpand, 0, 1)
		tk.FrameSend(pid, 100)
		tk.FrameRecv(pid, 50)
		tk.Steal(int64(i&0xff), 4)
		tk.Level(int64(i&0xff), 17)
		tk.Expanded(12, int64(i&0xff))
	}
}
