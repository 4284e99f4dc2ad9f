// Command gpostat is the fleet introspection CLI: it renders run-ledger
// history (per-configuration wall-clock distributions, per-engine
// throughput, outlier runs) and watches a running gpod daemon live over
// its /v1/runs surface.
//
// Usage:
//
//	gpostat -history -ledger runs.jsonl               # per-config history
//	gpostat -history -ledger runs.jsonl -family nsdp  # filter by net name
//	gpostat -follow -addr http://localhost:8722       # live fleet view
//	gpostat -follow -once -addr http://localhost:8722 # one snapshot, exit
//	gpostat -run r0b3f… -addr http://localhost:8722   # stream one run (SSE)
//	gpostat -follow -addr http://host1:8722 -addr http://host2:8722
//
// -addr repeats: with several, -follow watches the whole fleet — each
// tick starts with one row per peer from its GET /v1/cluster document
// (cluster size and the shared tier's remote-hit and single-flight
// counters) and the run lines are prefixed with the peer that reported
// them. Peers without cluster mode just show their runs.
//
// With both -follow and -ledger, completed runs are flagged as outliers
// when their wall clock exceeds twice the ledger history's median for
// the same (net, engine, check) configuration. In -history mode the
// same rule is applied within the journal itself (see
// internal/obs/ledger.Summarize).
//
// Exit status: 0 on success, 1 on I/O or daemon errors, 2 on usage.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"strings"
	"time"

	"repro/internal/obs/ledger"
)

func main() {
	var (
		ledgerPath = flag.String("ledger", "", "run-ledger JSONL file (ledger/v1), as written by gpod/gpoverify -ledger")
		history    = flag.Bool("history", false, "summarize per-configuration history from -ledger")
		family     = flag.String("family", "", "restrict -history/-follow to nets matching this regexp (case-insensitive)")
		follow     = flag.Bool("follow", false, "poll the daemons' /v1/runs and report running and newly completed runs")
		once       = flag.Bool("once", false, "with -follow: print one snapshot and exit")
		runID      = flag.String("run", "", "stream one run's SSE progress events until its verdict")
		interval   = flag.Duration("interval", time.Second, "poll interval for -follow")
		addrs      []string
	)
	flag.Func("addr", "base URL of a running gpod daemon (repeat for a fleet; default http://localhost:8722)", func(v string) error {
		addrs = append(addrs, strings.TrimRight(v, "/"))
		return nil
	})
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: gpostat -history -ledger FILE [-family PAT] | -follow [-once] -addr URL | -run ID -addr URL")
		flag.PrintDefaults()
	}
	flag.Parse()
	if len(addrs) == 0 {
		addrs = []string{"http://localhost:8722"}
	}

	var pat *regexp.Regexp
	if *family != "" {
		var err error
		if pat, err = regexp.Compile("(?i)" + *family); err != nil {
			fatal(fmt.Errorf("bad -family pattern: %w", err))
		}
	}

	switch {
	case *runID != "":
		if err := streamRun(addrs[0], *runID); err != nil {
			fatal(err)
		}
	case *follow:
		if err := followRuns(addrs, *ledgerPath, pat, *interval, *once); err != nil {
			fatal(err)
		}
	case *history || *ledgerPath != "":
		if *ledgerPath == "" {
			fatal(fmt.Errorf("-history needs -ledger FILE"))
		}
		if err := printHistory(*ledgerPath, pat); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// printHistory reconstructs per-configuration history from the journal:
// one line per (net, engine, check) with run counts, the wall-clock
// median/p90 over completed runs, aggregate throughput, and the
// agreed-on state count (or "DISAGREE" when completed runs diverge —
// a determinism red flag). Outlier runs follow their group's line.
func printHistory(path string, pat *regexp.Regexp) error {
	entries, err := ledger.Read(path)
	if err != nil {
		return err
	}
	if pat != nil {
		kept := entries[:0]
		for _, e := range entries {
			if pat.MatchString(e.Net) {
				kept = append(kept, e)
			}
		}
		entries = kept
	}
	if len(entries) == 0 {
		fmt.Println("gpostat: no matching ledger entries")
		return nil
	}
	// Configurations with at least one flight-recorder dump on disk
	// (TracePath) get a trace marker, so history answers "can I pull a
	// timeline for this?" at a glance.
	traced := make(map[string]bool)
	for _, e := range entries {
		if e.TracePath != "" {
			traced[groupKey(e.Net, e.Engine, e.Check)] = true
		}
	}
	fmt.Printf("%-12s %-22s %-9s %5s %5s %12s %10s %10s %12s\n",
		"net", "engine", "check", "runs", "abort", "states", "median", "p90", "states/s")
	for _, g := range ledger.Summarize(entries) {
		// "DISAGREE" is reserved for an actual determinism divergence; a
		// group whose runs all aborted has no agreed state count to show.
		states := fmt.Sprint(g.States)
		switch {
		case g.StatesDisagree:
			states = "DISAGREE"
		case g.Completed == 0:
			states = "-"
		}
		mark := ""
		if traced[groupKey(g.Net, g.Engine, g.Check)] {
			mark = " trace=yes"
		}
		fmt.Printf("%-12s %-22s %-9s %5d %5d %12s %10s %10s %12.0f%s\n",
			g.Net, g.Engine, g.Check, g.Runs, g.Aborted, states,
			fmtDur(g.MedianWallNS), fmtDur(g.P90WallNS), g.StatesPerSec, mark)
		for _, o := range g.Outliers {
			fmt.Printf("  outlier %s: wall %s (> 2x median %s) at %s\n",
				o.RunID, fmtDur(o.WallNS), fmtDur(g.MedianWallNS),
				time.Unix(0, o.StartUnixNS).UTC().Format(time.RFC3339))
		}
	}
	return nil
}

// runStatusWire mirrors the daemon's /v1/runs "running" element (see
// internal/server.runStatus).
type runStatusWire struct {
	RunID       string  `json:"run_id"`
	RequestID   string  `json:"request_id"`
	State       string  `json:"state"`
	Net         string  `json:"net"`
	Engine      string  `json:"engine"`
	Check       string  `json:"check"`
	States      int64   `json:"states"`
	ElapsedNS   int64   `json:"elapsed_ns"`
	Rate        float64 `json:"rate"`
	Frontier    int64   `json:"frontier_peak"`
	ZddNodes    int64   `json:"zdd_nodes"`
	Subscribers int     `json:"subscribers"`
}

type runsWire struct {
	Running   []runStatusWire `json:"running"`
	Completed []ledger.Entry  `json:"completed"`
}

// clusterStatusWire mirrors the daemon's GET /v1/cluster document (see
// internal/server.clusterStatusBody and internal/cluster.Status).
type clusterStatusWire struct {
	Enabled bool `json:"enabled"`
	Peers   []struct {
		Addr string `json:"addr"`
	} `json:"peers"`
	Metrics map[string]int64 `json:"metrics"`
}

// printFleet renders the per-peer cluster table: each polled address's
// cluster size and its shared-tier counters. Peers that are down or not
// in cluster mode get a one-word row instead of killing the view.
func printFleet(addrs []string, now string) {
	printed := false
	for _, addr := range addrs {
		var st clusterStatusWire
		err := getJSON(addr+"/v1/cluster", &st)
		switch {
		case err != nil:
			fmt.Printf("%s PEER %-28s unreachable: %v\n", now, peerLabel(addr), err)
			continue
		case !st.Enabled:
			continue
		}
		if !printed {
			fmt.Printf("%s PEER %-28s %5s %8s %8s\n", now, "addr", "peers", "remote", "sf_waits")
			printed = true
		}
		fmt.Printf("%s PEER %-28s %5d %8d %8d\n", now, peerLabel(addr), len(st.Peers),
			st.Metrics["cluster.remote_cache_hits"], st.Metrics["cluster.singleflight_waits"])
	}
}

func peerLabel(addr string) string {
	return strings.TrimPrefix(strings.TrimPrefix(addr, "https://"), "http://")
}

// peerHealth is one watched daemon's reconnection state: consecutive
// failures and the earliest next attempt under the capped backoff.
type peerHealth struct {
	fails   int
	nextTry time.Time
}

// retryIn is the capped exponential backoff after the n-th consecutive
// failure (n >= 1): interval, 2x, 4x, ... capped at maxFollowBackoff.
const maxFollowBackoff = 30 * time.Second

func retryIn(interval time.Duration, fails int) time.Duration {
	shift := fails - 1
	if shift > 6 {
		shift = 6
	}
	d := interval << uint(shift)
	if d > maxFollowBackoff || d <= 0 {
		d = maxFollowBackoff
	}
	return d
}

// followRuns polls each peer's GET /v1/runs: every tick prints the
// fleet's cluster table (when any peer is clustered) and the in-flight
// runs, plus each completed run exactly once as it appears — runs are
// deduplicated fleet-wide by (run, end), so a shared-ledger fleet does
// not repeat itself. When a ledger file is given, completed walls are
// checked against the journal's per-configuration medians and flagged
// when they exceed twice it.
//
// A peer that stops answering does not end the watch (a daemon restart
// mid-drain is exactly when watching matters): the peer gets a DOWN row
// and is retried under a capped exponential backoff, rejoining the view
// on its first successful answer. Only -once reports connection errors
// as errors — a single snapshot of an unreachable daemon has nothing to
// reconnect to.
func followRuns(addrs []string, ledgerPath string, pat *regexp.Regexp, interval time.Duration, once bool) error {
	medians := historyMedians(ledgerPath)
	seen := make(map[string]bool)
	multi := len(addrs) > 1
	health := make(map[string]*peerHealth, len(addrs))
	for _, addr := range addrs {
		health[addr] = &peerHealth{}
	}
	for {
		now := time.Now().UTC().Format("15:04:05")
		// Peers in backoff are skipped wholesale this tick, cluster table
		// included, so a dead peer costs one DOWN row, not two timeouts.
		active := addrs[:0:0]
		for _, addr := range addrs {
			if h := health[addr]; time.Now().After(h.nextTry) {
				active = append(active, addr)
			}
		}
		printFleet(active, now)
		for _, addr := range active {
			var runs runsWire
			if err := getJSON(addr+"/v1/runs", &runs); err != nil {
				if once {
					if !multi {
						return err
					}
					fmt.Printf("%s DOWN %-28s unreachable: %v\n", now, peerLabel(addr), err)
					continue
				}
				h := health[addr]
				h.fails++
				wait := retryIn(interval, h.fails)
				h.nextTry = time.Now().Add(wait)
				fmt.Printf("%s DOWN %-28s unreachable, retry in %s: %v\n", now, peerLabel(addr), wait, err)
				continue
			}
			health[addr].fails = 0
			health[addr].nextTry = time.Time{}
			from := ""
			if multi {
				from = " @" + peerLabel(addr)
			}
			for _, r := range runs.Running {
				if pat != nil && !pat.MatchString(r.Net) {
					continue
				}
				fmt.Printf("%s RUN  %s %s/%s/%s %s states=%d rate=%.0f/s elapsed=%s subs=%d%s\n",
					now, r.RunID, r.Net, r.Engine, r.Check, r.State,
					r.States, r.Rate, fmtDur(r.ElapsedNS), r.Subscribers, from)
			}
			for i := len(runs.Completed) - 1; i >= 0; i-- { // oldest first
				e := runs.Completed[i]
				k := fmt.Sprintf("%s/%d", e.RunID, e.EndUnixNS)
				if seen[k] || (pat != nil && !pat.MatchString(e.Net)) {
					continue
				}
				seen[k] = true
				flag := ""
				if m := medians[groupKey(e.Net, e.Engine, e.Check)]; m > 0 && e.WallNS > 2*m {
					flag = fmt.Sprintf("  OUTLIER (%.1fx ledger median %s)", float64(e.WallNS)/float64(m), fmtDur(m))
				}
				peersNote := ""
				if e.Peers > 0 {
					peersNote = fmt.Sprintf(" peers=%d", e.Peers)
				}
				fmt.Printf("%s DONE %s %s/%s/%s %s states=%d wall=%s%s%s%s\n",
					now, e.RunID, e.Net, e.Engine, e.Check, e.Verdict(),
					e.States, fmtDur(e.WallNS), peersNote, flag, from)
			}
		}
		if once {
			return nil
		}
		time.Sleep(interval)
	}
}

func groupKey(net, engine, check string) string {
	return net + "\x00" + engine + "\x00" + check
}

// historyMedians loads per-configuration median walls from the journal
// ("" or an unreadable journal yields no baselines, not an error — the
// live view is useful without history).
func historyMedians(path string) map[string]int64 {
	if path == "" {
		return nil
	}
	entries, err := ledger.Read(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpostat: ledger:", err)
		return nil
	}
	m := make(map[string]int64)
	for _, g := range ledger.Summarize(entries) {
		m[groupKey(g.Net, g.Engine, g.Check)] = g.MedianWallNS
	}
	return m
}

// streamRun attaches to one run's SSE event stream and renders each
// progress snapshot, ending with the verdict line of the terminal
// "done" event (which the daemon sends even for already-completed runs,
// reconstructed from the ledger).
func streamRun(addr, id string) error {
	resp, err := http.Get(addr + "/v1/runs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /v1/runs/%s/events: %s", id, resp.Status)
	}
	sawDone := false
	err = readSSE(resp.Body, func(event string, data []byte) error {
		switch event {
		case "progress":
			var p struct {
				States    int64   `json:"states"`
				ElapsedNS int64   `json:"elapsed_ns"`
				Rate      float64 `json:"rate"`
				Frontier  int64   `json:"frontier_peak"`
				ZddNodes  int64   `json:"zdd_nodes"`
			}
			if err := json.Unmarshal(data, &p); err != nil {
				return err
			}
			fmt.Printf("%s states=%d rate=%.0f/s elapsed=%s frontier=%d zdd=%d\n",
				id, p.States, p.Rate, fmtDur(p.ElapsedNS), p.Frontier, p.ZddNodes)
		case "done":
			var d struct {
				Status   string `json:"status"`
				Error    string `json:"error"`
				Deadlock bool   `json:"deadlock"`
				States   int64  `json:"states"`
				Complete bool   `json:"complete"`
				WallNS   int64  `json:"wall_ns"`
			}
			if err := json.Unmarshal(data, &d); err != nil {
				return err
			}
			sawDone = true
			fmt.Printf("%s done status=%s deadlock=%v states=%d complete=%v wall=%s",
				id, d.Status, d.Deadlock, d.States, d.Complete, fmtDur(d.WallNS))
			if d.Error != "" {
				fmt.Printf(" error=%q", d.Error)
			}
			fmt.Println()
		}
		return nil
	})
	if err != nil {
		return err
	}
	if !sawDone {
		return fmt.Errorf("run %s: stream ended without a done event", id)
	}
	return nil
}

// readSSE feeds each complete server-sent event to fn. It understands
// exactly the subset the daemon emits: "event:" followed by one "data:"
// line, events separated by blank lines.
func readSSE(r interface{ Read([]byte) (int, error) }, fn func(event string, data []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := fn(event, []byte(strings.TrimPrefix(line, "data: "))); err != nil {
				return err
			}
		}
	}
	return sc.Err()
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func fmtDur(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d == 0:
		return "0"
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	case d < time.Second:
		return fmt.Sprintf("%dms", d.Milliseconds())
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gpostat:", err)
	os.Exit(1)
}
