package cluster

// Placement for the shared result tier. Each run is owned by exactly one
// member, picked on a consistent-hash ring (64 virtual nodes per member,
// FNV-1a), so every node routes a given run to the same owner without
// coordination. What the owner keeps, and the single-flight leases on
// it, are the server's result cache; this package only says where a run
// lives.

import "sort"

const ringVnodes = 64

type ringEntry struct {
	hash uint64
	peer int
}

// ringHash is FNV-1a with a 64-bit avalanche finalizer. Raw FNV of
// strings that differ only in trailing bytes (a peer's vnode labels, or
// sequential run keys) lands in tight arithmetic clusters — the
// finalizer spreads them over the whole ring.
func ringHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func newRing(peers []string) []ringEntry {
	var ring []ringEntry
	var vb [4]byte
	for i, p := range peers {
		for v := 0; v < ringVnodes; v++ {
			vb[0] = byte(v)
			vb[1] = byte(v >> 8)
			ring = append(ring, ringEntry{hash: ringHash(p + "#" + string(vb[:2])), peer: i})
		}
	}
	sort.Slice(ring, func(a, b int) bool {
		if ring[a].hash != ring[b].hash {
			return ring[a].hash < ring[b].hash
		}
		return ring[a].peer < ring[b].peer
	})
	return ring
}

// Owner returns the index in the peer list of the member owning a run:
// the first ring entry clockwise from the hash of its run ID. Only the
// placement is hashed from the short run ID; the owner addresses the
// result by its full key.
func (nd *Node) Owner(runID string) int {
	h := ringHash(runID)
	i := sort.Search(len(nd.ring), func(i int) bool { return nd.ring[i].hash >= h })
	if i == len(nd.ring) {
		i = 0
	}
	return nd.ring[i].peer
}
