package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// BundleSchema identifies the bundle JSON envelope.
const BundleSchema = "gpotrace-bundle/v1"

// Bundle is the collected trace of one run, as served by gpod's
// GET /v1/runs/{id}/trace. A run executes on the server that received
// it, so a bundle that server writes holds its dump alone.
type Bundle struct {
	Schema string       `json:"schema"`
	RunID  string       `json:"run_id,omitempty"`
	Peers  []BundlePeer `json:"peers"`
}

// BundlePeer is one recorder's slice of the run: the server's address
// ("local" outside a cluster) and its dump.
type BundlePeer struct {
	Addr        string `json:"addr"`
	Coordinator bool   `json:"coordinator,omitempty"`
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

// Merged, LevelStat and Merge are kept for one caller,
// benchmark/fleet.go, which sums Levels into its cluster attribution
// shares. No recorder writes level events any more, so Levels is always
// empty. ROADMAP item 6's benchmark change deletes all three.
type Merged struct {
	Levels []LevelStat
}

// LevelStat is one BFS level's wall-time attribution; none is produced.
type LevelStat struct {
	ComputeNS, SerializeNS, WireNS, StealNS, StallNS int64
}

// Merge refuses a bundle with no peers and otherwise returns no levels.
func Merge(b *Bundle) (*Merged, error) {
	if len(b.Peers) == 0 {
		return nil, fmt.Errorf("%w: bundle has no peers", ErrBadHeader)
	}
	return &Merged{}, nil
}
