// Command gpod runs the verification service: an HTTP daemon that
// accepts Petri nets (pnio text or built-in model families) plus an
// engine/property selection and answers with Table-1-style statistics.
//
// Usage:
//
//	gpod -addr :8722                     # serve until SIGINT/SIGTERM
//	gpod -addr :8722 -workers 4 -queue 16
//	gpod -addr :8722 -peers URL,URL,URL -self URL   # cluster member
//	gpod -addr :8722 -jobs /var/lib/gpod/jobs       # durable async jobs
//
// Endpoints: POST /v1/verify, GET /healthz, GET /metrics (JSON dump of
// the metric registry, or Prometheus text with ?format=prom; see
// OBSERVABILITY.md for the server.* names), GET /v1/runs (live and
// recently completed runs), GET /v1/runs/{id}, GET /v1/runs/{id}/events
// (SSE progress stream; watch with gpostat), and GET /v1/cluster
// (membership and cluster.* counters; {"enabled": false} without
// -peers).
//
// With -peers/-self the node joins a cluster (DESIGN.md D10): its result
// cache becomes its share of the fleet's consistent-hash shared result
// tier, which it consults on every local cache miss and serves to its
// peers. A "cluster": true request runs on the node that received it,
// like any other, and its reply names the cluster size.
//
// Every /v1/verify response carries an X-Request-ID header (echoing the
// client's, if it sent a well-formed one). With -access-log each request
// becomes one JSON line under that ID; with -ledger every executed
// verification appends one ledger/v1 entry under its content-addressed
// run ID (browse with gpostat -history); with -trace-dump each run that
// a deadline or disconnect aborts leaves <dir>/<id>.trace.json holding
// the flight recorder's last events as Chrome trace JSON (summarize
// with gpotrace, or open in Perfetto).
//
// With -jobs DIR the daemon runs durable verification jobs (DESIGN.md
// D11): POST /v1/jobs answers immediately with a content-addressed job
// ID, the run auto-checkpoints on the -ckpt-interval/-ckpt-states
// cadence and at its deadline, and GET/DELETE /v1/jobs/{id} and POST
// /v1/jobs/{id}/resume observe, cancel and continue it. The journal
// and the ckpt/v2 checkpoint files live in DIR; a restarted daemon
// re-admits interrupted jobs at startup and replays nothing it cannot
// prove intact (gpoverify -replay re-executes any checkpoint
// deterministically).
//
// On SIGINT/SIGTERM the daemon drains: health flips to "draining", new
// verification requests answer 503, in-flight synchronous requests
// finish (bounded by their own deadlines), running durable jobs
// checkpoint and suspend, queued ones stay journaled for the next
// start, then the process exits.
//
// The binary carries no self-test. main_test.go runs it as a child
// process through listen, verify, SIGKILL, restart, resume and SIGTERM;
// the end-to-end tests of every surface above are internal/server's
// *_e2e_test.go, over internal/server/servertest.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/obs/ledger"
	"repro/internal/obs/trace"
	"repro/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8722", "listen address")
		workers    = flag.Int("workers", 0, "concurrent verifications (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 0, "admission queue depth (0 = 2*workers)")
		maxStates  = flag.Int("max-states", 0, "clamp every request's explicit state bound (0 = no cap)")
		timeout    = flag.Duration("timeout", 10*time.Second, "default per-request wall-clock budget")
		maxTimeout = flag.Duration("max-timeout", 60*time.Second, "largest per-request budget a client may ask for")
		cacheBytes = flag.Int64("cache-bytes", 16<<20, "result cache budget in bytes, including the results a cluster member owns for its peers (negative disables)")
		accessLog  = flag.String("access-log", "", "append JSON-lines access logs to this file ('-' = stderr)")
		ledgerPath = flag.String("ledger", "", "append one ledger/v1 JSONL entry per executed verification to this file (backs GET /v1/runs history)")
		traceDump  = flag.String("trace-dump", "", "write aborted requests' flight-recorder tails to <dir>/<request-id>.trace.json")
		traceCap   = flag.Int("trace-events", 0, "per-track ring capacity of per-request traces (0 = default)")
		traceRuns  = flag.Int("trace-runs", 0, "retain the last N runs' flight-recorder dumps in memory and serve them on GET /v1/runs/{id}/trace (0 disables)")
		jobsDir    = flag.String("jobs", "", "enable durable jobs (POST /v1/jobs): journal and checkpoints live in this directory")
		ckptEvery  = flag.Duration("ckpt-interval", 0, "auto-checkpoint running jobs this often (0 = 30s default, negative disables)")
		ckptStates = flag.Int("ckpt-states", 0, "also auto-checkpoint every N newly explored states (0 disables)")
		reduceNet  = flag.Bool("reduce", false, "force the structural reduction pre-pass on every request")
		peersList  = flag.String("peers", "", "comma-separated base URLs of every cluster member (enables cluster mode)")
		selfURL    = flag.String("self", "", "this node's own base URL, one of -peers")
	)
	flag.Parse()

	cfg := server.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		MaxStates:       *maxStates,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		CacheBytes:      *cacheBytes,
		Reduce:          *reduceNet,
		TraceEvents:     *traceCap,
		TraceRuns:       *traceRuns,
		CkptInterval:    *ckptEvery,
		CkptEveryStates: *ckptStates,
	}
	if *jobsDir != "" {
		st, err := jobs.Open(*jobsDir)
		if err != nil {
			fatal(fmt.Errorf("jobs: %w", err))
		}
		defer st.Close()
		cfg.Jobs = st
	}
	if *accessLog != "" {
		if *accessLog == "-" {
			cfg.AccessLog = os.Stderr
		} else {
			f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			cfg.AccessLog = f
		}
	}
	if *ledgerPath != "" {
		l, err := ledger.Open(*ledgerPath, 0)
		if err != nil {
			fatal(err)
		}
		defer l.Close()
		cfg.Ledger = l
	}
	if *traceDump != "" {
		if err := os.MkdirAll(*traceDump, 0o755); err != nil {
			fatal(err)
		}
		cfg.TraceSink = dirTraceSink(*traceDump)
	}

	if *peersList != "" || *selfURL != "" {
		peers := strings.Split(*peersList, ",")
		for i := range peers {
			peers[i] = strings.TrimSpace(peers[i])
		}
		// The node and the server must share a registry so /metrics and
		// GET /v1/cluster report one coherent picture.
		cfg.Metrics = obs.New()
		nd, err := cluster.New(cluster.Config{Self: *selfURL, Peers: peers, Metrics: cfg.Metrics})
		if err != nil {
			fatal(fmt.Errorf("cluster: %w", err))
		}
		cfg.Cluster = nd
	}

	if err := serve(cfg, *addr); err != nil {
		fatal(err)
	}
}

// serve runs the daemon until SIGINT/SIGTERM, then drains gracefully.
// It announces the address it bound, so -addr 127.0.0.1:0 is usable.
func serve(cfg server.Config, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	svc := server.New(cfg)
	if cfg.Jobs != nil {
		if n := svc.ResumeJobs(); n > 0 {
			fmt.Printf("gpod: resumed %d interrupted job(s) from the journal\n", n)
		}
	}
	httpSrv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Printf("gpod: listening on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		svc.Close()
		return err
	case sig := <-sigc:
		fmt.Printf("gpod: %v, draining\n", sig)
	}

	// Shutdown order (see internal/server): refuse new work, let
	// in-flight handlers finish, then stop the workers.
	svc.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), cfg.MaxTimeout+5*time.Second)
	defer cancel()
	err = httpSrv.Shutdown(ctx)
	svc.Close()
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Println("gpod: drained, bye")
	return nil
}

// dirTraceSink writes each aborted request's trace dump into dir as
// <request-id>.trace.json and returns that path, or "" when the write
// failed. IDs are validated by the server (printable, no separators),
// so joining them onto dir is safe.
func dirTraceSink(dir string) func(id string, d *trace.Dump) string {
	return func(id string, d *trace.Dump) string {
		path := filepath.Join(dir, id+".trace.json")
		if err := trace.WriteFile(path, d); err != nil {
			fmt.Fprintln(os.Stderr, "gpod: trace dump:", err)
			return ""
		}
		return path
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gpod:", err)
	os.Exit(1)
}
