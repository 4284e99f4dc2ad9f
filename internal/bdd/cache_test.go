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
	sets := make([]bdd.VarSet, 2)
	for i := range sets {
		vars := make([]bool, nv)
		for v := range vars {
			vars[v] = rng.Intn(2) == 0
		}
		sets[i] = m.VarSet(vars)
	}
	shift := make([]int, nv) // odd variables onto the even one above: monotone
	for v := range shift {
		shift[v] = v &^ 1
	}
	up := m.Renaming(shift)
	even := make([]bool, nv)
	for v := 0; v < nv; v += 2 {
		even[v] = true
	}
	evens := m.VarSet(even)
	pool := []bdd.Node{bdd.True}
	for v := 0; v < nv; v++ {
		pool = append(pool, m.Var(v), m.NVar(v))
	}
	pick := func() bdd.Node { return pool[rng.Intn(len(pool))] }
	for i := 0; i < 400; i++ {
		var r bdd.Node
		switch rng.Intn(6) {
		case 0:
			r = m.And(pick(), pick())
		case 1:
			r = m.ITE(pick(), pick(), pick())
		case 2:
			r = m.Xor(pick(), pick())
		case 3:
			r = m.Exists(pick(), sets[rng.Intn(2)])
		case 4:
			r = m.AndExists(pick(), pick(), sets[rng.Intn(2)])
		default:
			// Quantifying the even variables away first leaves a support
			// the shift is injective on.
			r = m.Rename(m.Exists(pick(), evens), up)
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
// same number of created nodes as at the default size. A BDD operator
// with no memo at all is exponential (rw(9) takes over a minute on one
// slot), so the single-slot clamp runs each family's smallest row.
func TestBDDCacheLossIsInvisible(t *testing.T) {
	type instance struct {
		family string
		size   int
		want   symbolicRun
	}
	small := []instance{{family: "nsdp", size: 2}, {family: "over", size: 2}, {family: "rw", size: 6}}
	large := []instance{{family: "nsdp", size: 4}, {family: "over", size: 3}, {family: "rw", size: 9}}
	for _, insts := range [][]instance{small, large} {
		for i := range insts {
			insts[i].want = runSymbolic(t, insts[i].family, insts[i].size)
		}
	}
	seeds := []int64{1, 2, 3, 4, 5, 6}
	wantIDs := make([][]bdd.Node, len(seeds))
	wantSize := make([]int, len(seeds))
	for i, seed := range seeds {
		wantIDs[i], wantSize[i] = randomOps(seed)
	}
	for _, c := range []struct {
		slots int
		insts []instance
	}{{64, large}, {2, large}, {1, small}} {
		t.Run(fmt.Sprintf("slots=%d", c.slots), func(t *testing.T) {
			bdd.ClampCache(t, c.slots)
			if got := bdd.NewManager(4).Stats().CacheSlots; got != c.slots {
				t.Fatalf("clamp ignored: %d slots", got)
			}
			var extra int64
			for _, in := range c.insts {
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
