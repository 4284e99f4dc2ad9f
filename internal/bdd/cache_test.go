package bdd_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bdd"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/symbolic"
)

// symbolicRun is everything of one symbolic analysis a node id could
// leak into: the result (states, peak, final size, iterations, witness)
// and the manager's creation and cache counts.
type symbolicRun struct {
	res     *symbolic.Result
	created int64
	misses  int64
}

func runSymbolic(t *testing.T, family string, size int) symbolicRun {
	t.Helper()
	net, err := models.ByName(family, size)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	res, err := symbolic.Analyze(net, symbolic.Options{Metrics: reg})
	if err != nil {
		t.Fatalf("%s: %v", net.Name(), err)
	}
	g := reg.Snapshot().Gauges
	return symbolicRun{res, g["bdd.unique_misses"], g["bdd.cache_misses"]}
}

// randomOps drives one manager through a fixed pseudo-random sequence of
// every cached operator and returns each result's node id and the final
// arena size: the whole creation order, as far as a caller can see it.
func randomOps(seed int64) (ids []bdd.Node, size int) {
	const nv = 12
	rng := rand.New(rand.NewSource(seed))
	m := bdd.NewManager(nv)
	trans := make([]bdd.Trans, 4)
	for i := range trans {
		var vars []int
		var acts []bdd.Action
		for v := 0; v < nv; v++ {
			if rng.Intn(3) == 0 {
				vars, acts = append(vars, v), append(acts, bdd.Action(rng.Intn(3)))
			}
		}
		trans[i] = m.Transition(vars, acts)
	}
	pool := []bdd.Node{bdd.True}
	for v := 0; v < nv; v++ {
		pool = append(pool, m.Var(v), m.NVar(v))
	}
	pick := func() bdd.Node { return pool[rng.Intn(len(pool))] }
	for i := 0; i < 400; i++ {
		var r bdd.Node
		switch rng.Intn(5) {
		case 0:
			r = m.And(pick(), pick())
		case 1:
			r = m.ITE(pick(), pick(), pick())
		case 2:
			r = m.Xor(pick(), pick())
		case 3:
			r = m.Diff(pick(), pick())
		default:
			r = m.Fire(pick(), trans[rng.Intn(len(trans))])
		}
		pool = append(pool, r)
		ids = append(ids, r)
	}
	return ids, m.Size()
}

// TestBDDCacheLossIsInvisible is the determinism argument of the lossy
// computed cache as a predicate: with the cache clamped to 64, 2 and 1
// slots, so that nearly every lookup misses, symbolic analyses and random
// operator sequences give the same results, the same node ids and the
// same number of created nodes as at the default size. Every clamp runs
// every instance: an image step is one Fire walk per transition, which
// stops at the transition's last support level, so even one slot finishes
// rw(9) in milliseconds (the relational product it replaced took over a
// minute there).
func TestBDDCacheLossIsInvisible(t *testing.T) {
	type instance struct {
		family string
		size   int
		want   symbolicRun
	}
	insts := []instance{
		{family: "nsdp", size: 2}, {family: "over", size: 2}, {family: "rw", size: 6},
		{family: "nsdp", size: 4}, {family: "over", size: 3}, {family: "rw", size: 9},
	}
	for i := range insts {
		insts[i].want = runSymbolic(t, insts[i].family, insts[i].size)
	}
	seeds := []int64{1, 2, 3, 4, 5, 6}
	wantIDs := make([][]bdd.Node, len(seeds))
	wantSize := make([]int, len(seeds))
	for i, seed := range seeds {
		wantIDs[i], wantSize[i] = randomOps(seed)
	}
	for _, slots := range []int{64, 2, 1} {
		t.Run(fmt.Sprintf("slots=%d", slots), func(t *testing.T) {
			bdd.ClampCache(t, slots)
			if got := bdd.NewManager(4).Stats().CacheSlots; got != slots {
				t.Fatalf("clamp ignored: %d slots", got)
			}
			var extra int64
			for _, in := range insts {
				got := runSymbolic(t, in.family, in.size)
				extra += got.misses - in.want.misses
				if !reflect.DeepEqual(got.res, in.want.res) {
					t.Errorf("%s(%d): result %+v, want %+v", in.family, in.size, got.res, in.want.res)
				}
				if got.created != in.want.created {
					t.Errorf("%s(%d): %d nodes created, want %d", in.family, in.size, got.created, in.want.created)
				}
			}
			if extra <= 0 {
				t.Errorf("clamped runs missed no more often than the default: the clamp lost nothing")
			}
			for i, seed := range seeds {
				ids, size := randomOps(seed)
				if !reflect.DeepEqual(ids, wantIDs[i]) || size != wantSize[i] {
					t.Errorf("seed %d: node ids or arena size (%d, want %d) differ from the default cache's", seed, size, wantSize[i])
				}
			}
		})
	}
}
