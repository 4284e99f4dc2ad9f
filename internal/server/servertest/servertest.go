// Package servertest boots complete gpod servers on loopback ports — one,
// or several wired into one cluster — for end-to-end tests, in the spirit
// of net/http/httptest. Its functions return errors instead of taking a
// *testing.T, so a driver that is not a test can use them too.
package servertest

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/client"
)

// Server is one gpod listening on a loopback port.
type Server struct {
	URL     string         // base URL, "http://127.0.0.1:<port>"
	Service *server.Server // for Drain and ResumeJobs
	Metrics *obs.Registry  // the registry the service reports to
	Client  *client.Client // typed client, over HTTP
	HTTP    *http.Client   // for raw requests; its connections close with the server
	Node    *cluster.Node  // the server's cluster membership; nil outside a fleet

	srv   *http.Server
	mu    sync.Mutex
	paths map[string]int // requests received, by URL path
}

// Start boots a server with the given configuration. A nil cfg.Metrics
// gets a fresh registry. Stores the configuration names (Jobs, Ledger)
// stay the caller's to close, after the server.
func Start(cfg server.Config) (*Server, error) {
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	return serve(ln, cfg), nil
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func serve(ln net.Listener, cfg server.Config) *Server {
	if cfg.Metrics == nil {
		cfg.Metrics = obs.New()
	}
	svc := server.New(cfg)
	s := &Server{
		URL:     "http://" + ln.Addr().String(),
		Service: svc,
		Metrics: cfg.Metrics,
		HTTP:    &http.Client{Transport: &http.Transport{}},
		Node:    cfg.Cluster,
		paths:   make(map[string]int),
	}
	h := svc.Handler()
	s.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		s.paths[r.URL.Path]++
		s.mu.Unlock()
		h.ServeHTTP(w, r)
	})}
	s.Client = client.New(s.URL, s.HTTP)
	go s.srv.Serve(ln) //nolint:errcheck // always ErrServerClosed
	return s
}

// Received returns the number of requests the server has received so far
// on the paths that satisfy match.
func (s *Server) Received(match func(path string) bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for p, c := range s.paths {
		if match(p) {
			n += c
		}
	}
	return n
}

// Close shuts the server down in gpod's SIGTERM order: refuse new work,
// let in-flight handlers finish, stop the workers. The error is a
// handler that did not finish within ten seconds.
func (s *Server) Close() error {
	s.Service.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	s.Kill()
	return err
}

// Kill stops the server without the drain: open connections are cut
// under their handlers. Running durable jobs still checkpoint, since
// that is how the service stops its workers; for a crash that leaves no
// chance of that, kill a gpod process.
func (s *Server) Kill() {
	s.srv.Close()
	s.Service.Close()
	s.HTTP.CloseIdleConnections()
}

// Fleet is a set of servers that are the members of one cluster.
type Fleet struct {
	Peers []*Server
}

// StartFleet boots n servers as one cluster. cfg configures every peer;
// each gets its own Metrics registry and its own Cluster node.
func StartFleet(n int, cfg server.Config) (*Fleet, error) {
	// Listeners come first: the membership URLs must exist before any
	// node does.
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := listen()
		if err != nil {
			for _, open := range lns[:i] {
				open.Close()
			}
			return nil, err
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	cfgs := make([]server.Config, n)
	for i := range cfgs {
		cfgs[i] = cfg
		cfgs[i].Metrics = obs.New()
		nd, err := cluster.New(cluster.Config{Self: urls[i], Peers: urls, Metrics: cfgs[i].Metrics})
		if err != nil {
			for _, open := range lns {
				open.Close()
			}
			return nil, err
		}
		cfgs[i].Cluster = nd
	}
	f := &Fleet{}
	for i, ln := range lns {
		f.Peers = append(f.Peers, serve(ln, cfgs[i]))
	}
	return f, nil
}

// Close closes every peer gracefully.
func (f *Fleet) Close() error {
	var errs []error
	for _, p := range f.Peers {
		errs = append(errs, p.Close())
	}
	return errors.Join(errs...)
}

// Counter sums a counter over the peers' registries.
func (f *Fleet) Counter(name string) int64 {
	var sum int64
	for _, p := range f.Peers {
		sum += p.Metrics.Snapshot().Counters[name]
	}
	return sum
}
