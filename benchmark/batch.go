package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/petri"
	"repro/internal/reach"
	"repro/internal/structural/reduce"
	"repro/internal/stubborn"
	"repro/internal/symbolic"
	"repro/internal/verify"
	"repro/internal/zdd"
)

// The four batch workloads drive verify.CheckDeadlock, the path the
// library and the gpoverify CLI take. A class is one (instance, engine,
// options) triple; a round runs every class once.

const (
	engExhaustive = "exhaustive"
	engPO         = "partial-order"
	engPOProviso  = "partial-order+proviso"
	engSymbolic   = "symbolic"
	engGPO        = "gpo"
)

// batchClass is a group of identical operations.
type batchClass struct {
	family  string
	size    int
	engine  string
	reduce  bool
	workers int
	oracle  bool // reference from the naive search, not expected.json

	net  *petri.Net
	opts verify.Options
	ref  reference
}

// key is the class's expected.json key; name adds what does not change
// the answer (the worker count).
func (c *batchClass) key() string {
	k := fmt.Sprintf("%s(%d)/%s", c.family, c.size, c.engine)
	if c.reduce {
		k += "+reduce"
	}
	return k
}

func (c *batchClass) name() string {
	if c.workers > 0 {
		return fmt.Sprintf("%s/w%d", c.key(), c.workers)
	}
	return c.key()
}

func bc(family string, size int, engine string) batchClass {
	return batchClass{family: family, size: size, engine: engine}
}

func (c batchClass) reduced() batchClass          { c.reduce = true; return c }
func (c batchClass) withOracle() batchClass       { c.oracle = true; return c }
func (c batchClass) withWorkers(n int) batchClass { c.workers = n; return c }

func verifyOptions(engine string, reduce bool, workers int) (verify.Options, error) {
	o := verify.Options{Reduce: reduce, Workers: workers}
	switch engine {
	case engExhaustive:
		o.Engine = verify.Exhaustive
	case engPO:
		o.Engine = verify.PartialOrder
	case engPOProviso:
		o.Engine, o.Proviso = verify.PartialOrder, true
	case engSymbolic:
		o.Engine = verify.Symbolic
	case engGPO:
		o.Engine = verify.GPO
	default:
		return o, fmt.Errorf("unknown engine %q", engine)
	}
	return o, nil
}

// referenceFor builds the answer a class is checked against: the verdict
// from the oracle or the family table, the exact count where one is
// pinned, and for partial-order classes the full state space as a bound.
func referenceFor(exp *expectedFile, c *batchClass, oracles map[string]*oracleAnswer) (reference, error) {
	var ref reference
	dead, ok := exp.Deadlock[c.family]
	if !ok {
		return ref, fmt.Errorf("expected.json has no verdict for family %q", c.family)
	}
	ref.deadlock = dead
	if c.oracle {
		netKey := fmt.Sprintf("%s(%d)", c.family, c.size)
		ans := oracles[netKey]
		if ans == nil {
			var err error
			if ans, err = oracleExplore(c.net, oracleLimit); err != nil {
				return ref, err
			}
			oracles[netKey] = ans
		}
		if ans.deadlock != dead {
			return ref, fmt.Errorf("expected.json says %s deadlock=%v, the oracle found %v", netKey, dead, ans.deadlock)
		}
		ref.oracle = ans
		if c.engine == engExhaustive && !c.reduce {
			ref.states, ref.known = ans.states, true
		}
	}
	if !ref.known {
		ref.states, ref.known = exp.states(c.key())
	}
	if c.engine == engPO || c.engine == engPOProviso {
		full := batchClass{family: c.family, size: c.size, engine: engExhaustive, reduce: c.reduce}
		if n, ok := exp.states(full.key()); ok {
			ref.maxState = n
		} else if ref.oracle != nil && !c.reduce {
			ref.maxState = ref.oracle.states
		}
	}
	return ref, nil
}

// batchTrace accumulates what the traced rounds observed about one class.
type batchTrace struct {
	ops                          int
	reduceNS, engineNS, newEngNS float64
	expandNS                     float64
	counters                     map[string]float64 // summed over ops
	gauges                       map[string]float64 // max over ops
	gaugeSum                     map[string]float64 // summed over ops, for hit ratios
	allocBytes, mallocs          float64            // engine span, from the program's own span record
	opAllocBytes                 float64            // whole operation, MemStats delta
	placesBefore, placesRemoved  float64
}

func newBatchTrace() *batchTrace {
	return &batchTrace{counters: map[string]float64{}, gauges: map[string]float64{}, gaugeSum: map[string]float64{}}
}

type batchInst struct {
	name    string
	classes []*batchClass
	traces  map[string]*batchTrace
	// states seen per class, to require that counts repeat exactly.
	seen map[string]int
	// calib is the largest exhaustive nsdp class: the petri
	// micro-measurements run over the net it explores.
	calib *batchClass
}

func (b *batchInst) close() {}

func setupBatch(name string, e *env, classes []batchClass) (instance, error) {
	b := &batchInst{name: name, traces: map[string]*batchTrace{}, seen: map[string]int{}}
	nets := map[string]*petri.Net{}
	oracles := map[string]*oracleAnswer{}
	for i := range classes {
		c := &classes[i]
		netKey := fmt.Sprintf("%s(%d)", c.family, c.size)
		if nets[netKey] == nil {
			n, err := models.ByName(c.family, c.size)
			if err != nil {
				return nil, err
			}
			nets[netKey] = n
		}
		c.net = nets[netKey]
		var err error
		if c.opts, err = verifyOptions(c.engine, c.reduce, c.workers); err != nil {
			return nil, err
		}
		if c.ref, err = referenceFor(e.exp, c, oracles); err != nil {
			return nil, err
		}
		b.classes = append(b.classes, c)
		if c.family == "nsdp" && c.engine == engExhaustive && (b.calib == nil || c.size > b.calib.size) {
			b.calib = c
		}
	}
	families := make([]string, len(classes))
	for i, c := range classes {
		families[i] = c.family
	}
	if err := checkFamilyVerdicts(e.exp, families); err != nil {
		return nil, err
	}
	return b, nil
}

// familyProbe is the member of each family small enough for the oracle.
// expected.json states one verdict per family; the oracle confirms it on
// the probe during every set-up, so a wrong table entry cannot pass for
// the sizes the oracle cannot reach.
var familyProbe = map[string]int{"nsdp": 6, "asat": 4, "over": 4, "rw": 12, "fig2": 8}

func checkFamilyVerdicts(exp *expectedFile, families []string) error {
	done := map[string]bool{}
	for _, family := range families {
		size, ok := familyProbe[family]
		if !ok || done[family] {
			continue
		}
		done[family] = true
		n, err := models.ByName(family, size)
		if err != nil {
			return err
		}
		ans, err := oracleExplore(n, oracleLimit)
		if err != nil {
			return err
		}
		if ans.deadlock != exp.Deadlock[family] {
			return fmt.Errorf("expected.json says family %s deadlock=%v, the oracle found %v on %s(%d)",
				family, exp.Deadlock[family], ans.deadlock, family, size)
		}
	}
	return nil
}

func (b *batchInst) round(rng *rand.Rand, rec *recorder, opBase int) ([]sample, time.Duration) {
	order := rng.Perm(len(b.classes))
	samples := make([]sample, 0, len(order))
	start := time.Now()
	for i, ci := range order {
		c := b.classes[ci]
		var (
			out outcome
			d   time.Duration
			err error
		)
		// Every operation starts from a collected heap, as it does in a
		// fresh gpoverify process; otherwise the garbage of the previous
		// operation decides when this one pays for a collection, and the
		// shuffled order shows up as noise.
		runtime.GC()
		if rec == nil {
			t0 := time.Now()
			rep, verr := verify.CheckDeadlock(c.net, c.opts)
			d = time.Since(t0)
			if verr != nil {
				err = verr
			} else {
				out = outcome{deadlock: rep.Deadlock, complete: rep.Complete, aborted: rep.Aborted, states: rep.States, witness: witnessOf(c.net, rep.Witness)}
			}
		} else {
			out, d, err = b.runTraced(c, rec, opBase+i)
		}
		if err == nil {
			err = c.ref.check(c.net, out)
		}
		if err == nil {
			// A count with no pinned reference must at least repeat.
			if prev, ok := b.seen[c.name()]; ok && prev != out.states {
				err = fmt.Errorf("states=%d, an earlier identical operation reported %d", out.states, prev)
			}
			b.seen[c.name()] = out.states
		}
		samples = append(samples, sample{class: c.name(), ms: float64(d) / 1e6, err: err})
	}
	return samples, time.Since(start)
}

// runTraced performs one operation with the pieces the façade hides
// called directly — reduce.Run, then the engine's own entry point on the
// reduced net, then the witness expansion — each under its own span, and
// with a metrics registry attached so the program's counters can be read.
func (b *batchInst) runTraced(c *batchClass, rec *recorder, op int) (outcome, time.Duration, error) {
	tr := b.traces[c.name()]
	if tr == nil {
		tr = newBatchTrace()
		b.traces[c.name()] = tr
	}
	reg := obs.New()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	root := rec.begin("bench", c.name(), op, 0, spanRef{})
	t0 := time.Now()

	net := c.net
	var cert *reduce.Certificate
	if c.reduce {
		s := rec.begin("structural/reduce", "reduce.Run", op, 0, root)
		var err error
		cert, err = reduce.Run(net, reduce.Options{Metrics: reg})
		tr.reduceNS += float64(s.end())
		if err != nil {
			root.end()
			return outcome{}, time.Since(t0), err
		}
		net = cert.Net()
		tr.placesBefore += float64(c.net.NumPlaces())
		tr.placesRemoved += float64(cert.PlacesRemoved())
	}

	var (
		out outcome
		w   petri.Marking
		err error
	)
	switch c.engine {
	case engExhaustive:
		s := rec.begin("reach", "reach.Explore", op, 0, root)
		var res *reach.Result
		res, err = reach.Explore(net, reach.Options{Workers: c.workers, Metrics: reg})
		tr.engineNS += float64(s.end())
		if err == nil {
			out = outcome{deadlock: res.Deadlock, complete: res.Complete, states: res.States}
			if len(res.Deadlocks) > 0 {
				w = res.Deadlocks[0]
			}
		}
	case engPO, engPOProviso:
		s := rec.begin("stubborn", "stubborn.Explore", op, 0, root)
		var res *stubborn.Result
		res, err = stubborn.Explore(net, stubborn.Options{Proviso: c.opts.Proviso, Metrics: reg})
		tr.engineNS += float64(s.end())
		if err == nil {
			out = outcome{deadlock: res.Deadlock, complete: res.Complete, states: res.States}
			if len(res.Deadlocks) > 0 {
				w = res.Deadlocks[0]
			}
		}
	case engSymbolic:
		s := rec.begin("symbolic", "symbolic.Analyze", op, 0, root)
		var res *symbolic.Result
		res, err = symbolic.Analyze(net, symbolic.Options{Metrics: reg})
		tr.engineNS += float64(s.end())
		if err == nil {
			out = outcome{deadlock: res.Deadlock, complete: res.Complete, states: int(res.States)}
			w = res.Witness
		}
	case engGPO:
		s := rec.begin("core", "core.NewEngine", op, 0, root)
		var eng *core.Engine[zdd.Node]
		eng, err = core.NewEngine[zdd.Node](net, zdd.NewAlgebra(net.NumTrans()))
		tr.newEngNS += float64(s.end())
		if err == nil {
			s = rec.begin("core", "Engine.Analyze", op, 0, root)
			var res *core.Result
			res, _, err = eng.Analyze(core.Options{Metrics: reg})
			tr.engineNS += float64(s.end())
			if err == nil {
				out = outcome{deadlock: res.Deadlock, complete: res.Complete, states: res.States}
				if len(res.Witnesses) > 0 {
					w = res.Witnesses[0]
				}
			}
		}
	}
	if err == nil && cert != nil {
		s := rec.begin("structural/reduce", "Certificate.ExpandMarking", op, 0, root)
		w = cert.ExpandMarking(w)
		tr.expandNS += float64(s.end())
	}
	d := time.Since(t0)
	root.end()
	if err != nil {
		return outcome{}, d, err
	}
	out.witness = witnessOf(c.net, w)

	runtime.ReadMemStats(&m1)
	tr.ops++
	tr.opAllocBytes += float64(m1.TotalAlloc - m0.TotalAlloc)
	snap := reg.Snapshot()
	for k, v := range snap.Counters {
		tr.counters[k] += float64(v)
	}
	for k, v := range snap.Gauges {
		tr.gaugeSum[k] += float64(v)
		tr.gauges[k] = max(tr.gauges[k], float64(v))
	}
	for _, sp := range snap.Spans {
		switch sp.Name {
		case "reach.explore", "stubborn.explore", "core.analyze", "symbolic.analyze":
			tr.allocBytes += float64(sp.AllocBytes)
			tr.mallocs += float64(sp.Mallocs)
		}
	}
	return out, d, nil
}

// Workload tables. Sizes are chosen so that one round takes one to two
// seconds on the 2-CPU reference host and several rounds fit in a run;
// see README.md for why each instance is there.

func explicitSeqClasses(short bool) []batchClass {
	if short {
		return []batchClass{
			bc("nsdp", 4, engExhaustive).withOracle(),
			bc("rw", 6, engExhaustive).withOracle(),
			bc("nsdp", 4, engPO).withOracle(),
			bc("nsdp", 4, engPOProviso).withOracle(),
		}
	}
	return []batchClass{
		bc("nsdp", 8, engExhaustive),
		bc("asat", 8, engExhaustive),
		bc("rw", 15, engExhaustive),
		bc("over", 5, engExhaustive),
		bc("nsdp", 7, engExhaustive).withOracle(), // not a Table 1 size: no pinned count
		bc("nsdp", 8, engPO),
		bc("asat", 8, engPO),
		bc("nsdp", 7, engPOProviso).withOracle(),
		bc("asat", 8, engPOProviso),
	}
}

func explicitParClasses(short bool, nproc int) []batchClass {
	var out []batchClass
	for _, c := range explicitSeqClasses(short) {
		if c.engine == engExhaustive {
			out = append(out, c.withWorkers(nproc))
		}
	}
	return out
}

func gpoClasses(short bool) []batchClass {
	if short {
		return []batchClass{
			bc("nsdp", 6, engGPO).withOracle(),
			bc("asat", 4, engGPO).withOracle(),
			bc("rw", 9, engGPO).withOracle(),
			bc("fig2", 6, engGPO).withOracle(),
		}
	}
	return []batchClass{
		bc("nsdp", 20, engGPO),
		bc("nsdp", 30, engGPO),
		bc("nsdp", 40, engGPO),
		bc("asat", 16, engGPO),
		bc("asat", 32, engGPO),
		bc("over", 6, engGPO),
		bc("over", 8, engGPO),
		bc("rw", 30, engGPO),
		bc("fig2", 40, engGPO),
	}
}

func table1ReduceClasses(short bool) []batchClass {
	type row struct {
		family string
		sizes  []int
	}
	sizes := []row{
		{"nsdp", []int{2, 4, 6, 8}},
		{"asat", []int{2, 4, 8}},
		{"over", []int{2, 3, 4, 5}},
		{"rw", []int{6, 9, 12, 15}},
	}
	if short {
		sizes = []row{{"nsdp", []int{2, 4}}, {"rw", []int{6}}}
	}
	var out []batchClass
	for _, f := range sizes {
		for _, size := range f.sizes {
			for _, engine := range []string{engExhaustive, engPO, engSymbolic, engGPO} {
				// asat(8) is beyond the symbolic engine (EXPERIMENTS.md E2),
				// reduced or not.
				if f.family == "asat" && size == 8 && engine == engSymbolic {
					continue
				}
				c := bc(f.family, size, engine).reduced()
				// Where the original net has a few thousand states the oracle
				// supplies the verdict and the reachable set the expanded
				// witness must lie in; larger ones would cost set-up seconds.
				if size <= 4 || f.family == "nsdp" && size == 6 || f.family == "rw" && size <= 12 {
					c = c.withOracle()
				}
				out = append(out, c)
			}
		}
	}
	if !short {
		out = append(out,
			bc("nsdp", 40, engGPO).reduced(),
			bc("asat", 32, engGPO).reduced(),
			bc("rw", 30, engGPO).reduced(),
			bc("over", 8, engGPO).reduced())
	}
	return out
}

var batchWorkloads = []*workload{
	{
		name:  wSeq,
		why:   "sequential explicit engines on Table 1 instances: reach, stubborn, petri and the visited store do the work; core, zdd, server and cluster are idle",
		limit: 10 * time.Second,
		tail:  94,
		setup: func(e *env) (instance, error) { return setupBatch(wSeq, e, explicitSeqClasses(e.short)) },
	},
	{
		name:  wPar,
		why:   "the same exhaustive instances with Workers = CPU count: the sharded parallel explorer, where a visited-store change that helps the sequential path may hurt",
		limit: 10 * time.Second,
		tail:  90,
		setup: func(e *env) (instance, error) {
			return setupBatch(wPar, e, explicitParClasses(e.short, e.nproc))
		},
	},
	{
		name:  wGPO,
		why:   "the paper's engine only, on sizes no explicit engine reaches: core and zdd do everything, reach is idle, state counts stay at 2 to 26",
		limit: 5 * time.Second,
		tail:  94,
		setup: func(e *env) (instance, error) { return setupBatch(wGPO, e, gpoClasses(e.short)) },
	},
	{
		name:  wReduce,
		why:   "every Table 1 row times four engines with the structural reduction pre-pass on: the only workload that runs structural/reduce, symbolic and bdd",
		limit: 5 * time.Second,
		tail:  95,
		setup: func(e *env) (instance, error) { return setupBatch(wReduce, e, table1ReduceClasses(e.short)) },
	},
}
