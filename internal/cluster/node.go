// Package cluster is a gpod node's view of its fleet: the membership,
// the consistent-hash ring that places every run's result on one member,
// and the JSON RPC with which the server's shared result tier reaches
// that owner, so that the servers' caches form one tier in which any
// peer answers a repeat query once one of them has computed it. A run
// itself always executes on the member that received it. See DESIGN.md
// D10.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
)

// Config describes one cluster member. Peers lists every member —
// including this node — as base URLs; Self must match one of them
// exactly.
type Config struct {
	Self    string   // this node's base URL, e.g. http://127.0.0.1:7700
	Peers   []string // all member base URLs
	Metrics *obs.Registry
}

// rpcTimeout bounds one RPC to a peer.
const rpcTimeout = 60 * time.Second

// maxReply bounds an RPC reply body: a tier reply carries one result, so
// anything larger is a corrupt or hostile stream.
const maxReply = 64 << 20

// Node is one cluster member: its place in the membership and the ring
// that places every run's result on one member (Owner).
type Node struct {
	self   int
	peers  []string
	client *http.Client // persistent keep-alive connections to the peers
	reg    *obs.Registry
	ring   []ringEntry
}

// New validates the membership and builds a node.
func New(cfg Config) (*Node, error) {
	if len(cfg.Peers) == 0 {
		return nil, errors.New("cluster: no peers configured")
	}
	self := -1
	seen := make(map[string]bool, len(cfg.Peers))
	for i, p := range cfg.Peers {
		p = strings.TrimRight(p, "/")
		if p == "" {
			return nil, errors.New("cluster: empty peer URL")
		}
		if seen[p] {
			return nil, fmt.Errorf("cluster: duplicate peer %s", p)
		}
		seen[p] = true
		cfg.Peers[i] = p
		if p == strings.TrimRight(cfg.Self, "/") {
			self = i
		}
	}
	if self < 0 {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list", cfg.Self)
	}
	nd := &Node{
		self:   self,
		peers:  cfg.Peers,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 90 * time.Second}},
		reg:    cfg.Metrics,
	}
	if nd.reg == nil {
		nd.reg = obs.New()
	}
	nd.ring = newRing(nd.peers)
	nd.reg.Gauge("cluster.peers").Set(int64(len(nd.peers)))
	return nd, nil
}

// NumPeers returns the cluster size.
func (nd *Node) NumPeers() int { return len(nd.peers) }

// Self returns this node's base URL.
func (nd *Node) Self() string { return nd.peers[nd.self] }

// Index returns this node's position in the peer list.
func (nd *Node) Index() int { return nd.self }

// PostJSON runs one JSON-bodied RPC against a peer within rpcTimeout and
// decodes the JSON reply into reply, or discards it when
// reply is nil.
func (nd *Node) PostJSON(ctx context.Context, peer int, path string, req, reply any) error {
	b, err := json.Marshal(req)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, rpcTimeout)
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, nd.peers[peer]+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := nd.client.Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s%s: %s: %s", nd.peers[peer], path, resp.Status, strings.TrimSpace(string(msg)))
	}
	if reply == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(io.LimitReader(resp.Body, maxReply)).Decode(reply)
}

// PeerStatus is one member's row in the cluster status document.
type PeerStatus struct {
	Addr string `json:"addr"`
	Self bool   `json:"self,omitempty"`
}

// Status is the GET /v1/cluster document: static membership plus this
// node's live cluster counters.
type Status struct {
	Self    string           `json:"self"`
	Peers   []PeerStatus     `json:"peers"`
	Metrics map[string]int64 `json:"metrics,omitempty"`
}

// Status reports the node's membership and cluster.* metric values.
func (nd *Node) Status() *Status {
	st := &Status{Self: nd.peers[nd.self]}
	for i, p := range nd.peers {
		st.Peers = append(st.Peers, PeerStatus{Addr: p, Self: i == nd.self})
	}
	snap := nd.reg.Snapshot()
	st.Metrics = make(map[string]int64)
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "cluster.") {
			st.Metrics[name] = v
		}
	}
	for name, v := range snap.Gauges {
		if strings.HasPrefix(name, "cluster.") {
			st.Metrics[name] = v
		}
	}
	return st
}
