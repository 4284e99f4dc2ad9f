package cluster

import (
	"strconv"
	"testing"
)

// members builds the nodes of one n-member cluster; the ring needs no
// network.
func members(t *testing.T, n int) []*Node {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "http://127.0.0.1:" + strconv.Itoa(7700+i)
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		nd, err := New(Config{Self: addrs[i], Peers: append([]string(nil), addrs...)})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	return nodes
}

// TestRingDistribution pins that the consistent-hash ring is identical
// on every node and spreads keys across all members.
func TestRingDistribution(t *testing.T) {
	nodes := members(t, 3)
	counts := make([]int, 3)
	for i := 0; i < 1000; i++ {
		key := "run-" + strconv.Itoa(i)
		owner := nodes[0].Owner(key)
		for _, nd := range nodes[1:] {
			if got := nd.Owner(key); got != owner {
				t.Fatalf("ring disagrees for %q: %d vs %d", key, got, owner)
			}
		}
		counts[owner]++
	}
	for p, c := range counts {
		if c == 0 {
			t.Errorf("peer %d owns no keys of 1000", p)
		}
	}
}
