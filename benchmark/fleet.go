package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/verify"
)

// cluster-loopback: three complete gpod servers on loopback ports wired
// into one cluster (the way `gpod -cluster-smoke` builds them), running
// exhaustive checks with "cluster": true. Every repetition renames the
// net, so every distributed run is cold; the identical request then goes
// to the next peer, which must answer from the shared result tier.

const (
	fleetPeers   = 3
	classTierHit = "tier-hit"
)

// fleet is one booted cluster.
type fleet struct {
	hosts []*gpodHost
	regs  []*obs.Registry
	cls   []*client.Client
	trs   []*http.Transport
}

// bootFleet boots the three peers. A traced fleet (rec non-nil) retains
// the flight-recorder dumps of its last traceRuns runs and times every
// handler.
func bootFleet(traceRuns int, rec *recorder) (*fleet, error) {
	f := &fleet{}
	listeners := make([]net.Listener, fleetPeers)
	peers := make([]string, fleetPeers)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, open := range listeners[:i] {
				open.Close()
			}
			return nil, err
		}
		listeners[i] = l
		peers[i] = "http://" + l.Addr().String()
	}
	for i := range peers {
		reg := obs.New()
		nd, err := cluster.New(cluster.Config{Self: peers[i], Peers: append([]string(nil), peers...), Metrics: reg})
		if err != nil {
			for _, l := range listeners[i:] {
				l.Close()
			}
			f.stop()
			return nil, err
		}
		f.regs = append(f.regs, reg)
		f.hosts = append(f.hosts, bootGpod(server.Config{Metrics: reg, Cluster: nd, TraceRuns: traceRuns}, listeners[i], rec))
	}
	f.cls, f.trs = newClients(func(lane int) string { return peers[lane] }, fleetPeers)
	return f, nil
}

func (f *fleet) stop() {
	for _, tr := range f.trs {
		tr.CloseIdleConnections()
	}
	for _, h := range f.hosts {
		h.stop()
	}
}

// counter sums a counter over the fleet's registries.
func (f *fleet) counter(name string) float64 {
	var total int64
	for _, reg := range f.regs {
		total += reg.Snapshot().Counters[name]
	}
	return float64(total)
}

type fleetInst struct {
	plain   *fleet
	traced  *fleet      // traced runs only: a second fleet with trace retention on
	entries []*netEntry // the distributed instances
	tierHit []bool      // whether a tier-hit request follows entries[i]
	seq     int         // unique net names and coordinator rotation

	// What the traced rounds collected from the fleet's own trace bundles.
	computeNS, serialNS, wireNS, stealNS, stallNS float64
	clusterNS, states                             float64
	traceErr                                      error
}

func (fi *fleetInst) close() {
	fi.plain.stop()
	if fi.traced != nil {
		fi.traced.stop()
	}
}

func setupFleet(e *env) (instance, error) {
	type inst struct {
		family  string
		size    int
		tierHit bool
	}
	// over(5) is the small instance on which the cluster's fixed cost
	// dominates; it gets no tier-hit request so that the median over all
	// operations falls inside a class, not on the boundary between the
	// millisecond tier hits and the distributed runs.
	insts := []inst{{"nsdp", 8, true}, {"asat", 8, true}, {"rw", 15, true}, {"over", 5, false}}
	if e.short {
		insts = []inst{{"nsdp", 4, true}, {"rw", 6, false}}
	}
	fi := &fleetInst{}
	oracles := map[string]*oracleAnswer{}
	var families []string
	for _, in := range insts {
		families = append(families, in.family)
		c := bc(in.family, in.size, engExhaustive)
		var err error
		if c.net, err = models.ByName(in.family, in.size); err != nil {
			return nil, err
		}
		c.oracle = e.short
		ref, err := referenceFor(e.exp, &c, oracles)
		if err != nil {
			return nil, err
		}
		ent, err := newNetEntry(c.net, engExhaustive, ref)
		if err != nil {
			return nil, err
		}
		fi.entries = append(fi.entries, ent)
		fi.tierHit = append(fi.tierHit, in.tierHit)
	}
	// The references above are family verdicts and pinned counts; the
	// oracle confirms the verdict table on each family's small member.
	if err := checkFamilyVerdicts(e.exp, families); err != nil {
		return nil, err
	}
	var err error
	if fi.plain, err = bootFleet(0, nil); err != nil {
		return nil, err
	}
	if e.rec != nil {
		// Traced rounds run on their own fleet, so that the untraced rounds
		// beside them pay for no flight recorder. Retention covers the runs
		// of one round until their bundles are fetched.
		if fi.traced, err = bootFleet(2*len(fi.entries), e.rec); err != nil {
			fi.plain.stop()
			return nil, err
		}
	}
	return fi, nil
}

func (fi *fleetInst) round(rng *rand.Rand, rec *recorder, opBase int) ([]sample, time.Duration) {
	f := fi.plain
	if rec != nil && fi.traced != nil {
		f = fi.traced
	}
	order := rng.Perm(len(fi.entries))
	var samples []sample
	type tracedRun struct {
		coord int
		runID string
		ms    float64
		st    int
	}
	var runs []tracedRun
	ctx := context.Background()
	start := time.Now()
	for _, ei := range order {
		e := fi.entries[ei]
		fi.seq++
		coord := fi.seq % fleetPeers
		req := e.request(fmt.Sprintf("%s-rep%d", e.net.Name(), fi.seq))
		req.Cluster = true
		class := strings.ToLower(e.net.Name()) + "/cluster"

		op := opBase + len(samples)
		sp := rec.begin("cluster", "client.Verify cluster:true", op, 0, spanRef{})
		t0 := time.Now()
		resp, err := f.cls[coord].Verify(withTrace(ctx, op, 0, sp), req)
		d := time.Since(t0)
		sp.end()
		switch {
		case err != nil:
		case resp.Cached:
			err = fmt.Errorf("a cold distributed run was served from the cache")
		case resp.Peers != fleetPeers:
			err = fmt.Errorf("peers=%d, want %d", resp.Peers, fleetPeers)
		default:
			err = checkResponse(e, resp)
		}
		samples = append(samples, sample{class: class, ms: float64(d) / 1e6, err: err})
		if err == nil && rec != nil {
			runs = append(runs, tracedRun{coord, resp.RunID, float64(d) / 1e6, resp.States})
		}

		if !fi.tierHit[ei] {
			continue
		}
		// The identical request on the next peer: a shared-tier remote hit.
		op = opBase + len(samples)
		sp = rec.begin("cluster", "client.Verify tier-hit", op, 0, spanRef{})
		t0 = time.Now()
		resp, err = f.cls[(coord+1)%fleetPeers].Verify(withTrace(ctx, op, 0, sp), req)
		d = time.Since(t0)
		sp.end()
		switch {
		case err != nil:
		case !resp.Cached:
			err = fmt.Errorf("the repeated request was recomputed, not served from the shared tier")
		default:
			err = checkResponse(e, resp)
		}
		samples = append(samples, sample{class: classTierHit, ms: float64(d) / 1e6, err: err})
	}
	wall := time.Since(start)

	// After the clock: fetch each traced run's fleet bundle and fold its
	// per-level attribution in.
	for _, r := range runs {
		if err := fi.foldTrace(f, r.coord, r.runID); err != nil && fi.traceErr == nil {
			fi.traceErr = err
		}
		fi.clusterNS += r.ms * 1e6
		fi.states += float64(r.st)
	}
	return samples, wall
}

// foldTrace reads GET /v1/runs/{id}/trace from the coordinator (which
// fans out to every peer), merges the dumps onto one clock and adds the
// per-level compute / serialize / wire / steal / stall totals.
func (fi *fleetInst) foldTrace(f *fleet, coord int, runID string) error {
	resp, err := http.Get(f.hosts[coord].base + "/v1/runs/" + runID + "/trace")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET trace of %s: HTTP %d", runID, resp.StatusCode)
	}
	b, err := trace.ReadBundle(resp.Body)
	if err != nil {
		return err
	}
	m, err := trace.Merge(b)
	if err != nil {
		return err
	}
	for _, l := range m.Levels {
		fi.computeNS += float64(l.ComputeNS)
		fi.serialNS += float64(l.SerializeNS)
		fi.wireNS += float64(l.WireNS)
		fi.stealNS += float64(l.StealNS)
		fi.stallNS += float64(l.StallNS)
	}
	return nil
}

func (fi *fleetInst) layers(lc *layerCtx) {
	m := lc.m
	if fi.traceErr != nil {
		// The attribution shares stay 0; say why on stderr via the report.
		fmt.Printf("# cluster trace attribution unavailable: %v\n", fi.traceErr)
	}
	f := fi.traced
	if f == nil {
		return
	}
	// Only traced rounds ran on the traced fleet, so its registries hold
	// exactly their totals.
	m["cluster.levels"] = lc.perRound(f.counter("cluster.levels"))
	m["cluster.steals"] = lc.perRound(f.counter("cluster.steals"))
	out, in := f.counter("cluster.frontier_bytes_out"), f.counter("cluster.frontier_bytes_in")
	m["cluster.frontier_bytes_out"] = lc.perRound(out)
	m["cluster.frontier_bytes_in"] = lc.perRound(in)
	m["cluster.wire_bytes_per_state"] = ratio(out+in, fi.states)
	m["cluster.remote_cache_hits"] = lc.perRound(f.counter("cluster.remote_cache_hits"))
	m["cluster.singleflight_waits"] = lc.perRound(f.counter("cluster.singleflight_waits"))
	m["cluster.ms_per_level"] = ratio(fi.clusterNS/1e6, f.counter("cluster.levels"))
	m["cluster.tier_hit_ms"] = median(lc.untraced[classTierHit])
	total := fi.computeNS + fi.serialNS + fi.wireNS + fi.stealNS + fi.stallNS
	m["cluster.compute_share"] = ratio(fi.computeNS, total)
	m["cluster.serialize_share"] = ratio(fi.serialNS, total)
	m["cluster.wire_share"] = ratio(fi.wireNS, total)
	m["cluster.steal_share"] = ratio(fi.stealNS, total)
	m["cluster.stall_share"] = ratio(fi.stallNS, total)

	// Overhead against the same check in-process and sequential, here and
	// now (base: verify.CheckDeadlock, Workers 0, median of 3).
	reps := 3
	if lc.short {
		reps = 1
	}
	var over, pieces, facade []float64
	for _, e := range fi.entries {
		class := strings.ToLower(e.net.Name()) + "/cluster"
		seq := timeIt(reps, func() { _, _ = verify.CheckDeadlock(e.net, verify.Options{Engine: verify.Exhaustive}) })
		over = append(over, ratio(median(lc.untraced[class]), float64(seq)/1e6))
		pieces = append(pieces, median(lc.traced[class]))
		facade = append(facade, median(lc.untraced[class]))
	}
	m["cluster.overhead_x"] = geomean(over)
	m["bench.pieces_vs_facade_ratio"] = ratio(sum(pieces), sum(facade))
	for _, e := range fi.entries[:1] {
		petriCalib(e.net, lc)
	}
}

var fleetWorkloads = []*workload{
	{
		name:  wCluster,
		why:   "three gpod servers as one loopback cluster, cold distributed exhaustive runs plus shared-tier hits: wire codec, level barrier and HTTP do the work",
		limit: 10 * time.Second,
		tail:  93,
		setup: setupFleet,
	},
}
