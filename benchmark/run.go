package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sample is one operation: a verification brought to a verdict and
// checked against its reference. err is non-nil when the operation
// errored, was refused or aborted, or returned a wrong answer.
type sample struct {
	class string
	ms    float64
	err   error
}

// instance is one set-up of a workload: nets built, references computed,
// servers booted, caches filled.
type instance interface {
	// round runs the workload's fixed operation list once, in an order
	// drawn from rng, and returns one sample per operation together with
	// the wall time from the start of the first to the end of the last.
	// Inputs for the round are generated before the clock starts. A
	// non-nil rec makes it a traced round; ops are numbered from opBase.
	round(rng *rand.Rand, rec *recorder, opBase int) ([]sample, time.Duration)
	// layers fills the workload's per-layer metrics after a traced run.
	layers(lc *layerCtx)
	close()
}

// workload is one named traffic mix.
type workload struct {
	name  string
	why   string
	limit time.Duration // an operation slower than this misses the limit
	// tail is the percentile verdict_tail_ms reports. The serve workloads
	// complete thousands of operations and report the 99th. The others
	// complete 35 to 900, too few for a tail estimate (fewer than ten
	// samples would lie beyond it), so each reports the percentile at which
	// the median of its slowest class sits: "how long the worst instance
	// takes", as steady as any other median.
	tail  float64
	setup func(e *env) (instance, error)
}

// env is what set-up may depend on.
type env struct {
	short bool // self-test sizes: tiny instances, one round
	nproc int
	exp   *expectedFile
	rec   *recorder // non-nil in a traced run: servers get the timing middleware
}

// layerCtx carries a traced run's observations to instance.layers.
type layerCtx struct {
	m            map[string]float64
	tracedRounds int
	traced       map[string][]float64 // class -> ms, traced rounds
	untraced     map[string][]float64 // class -> ms, untraced rounds
	short        bool
}

// perRound normalises a count summed over the traced rounds to one pass
// over the fixed operation list, so it repeats whatever --seconds is.
func (lc *layerCtx) perRound(v float64) float64 { return ratio(v, float64(lc.tracedRounds)) }

type classRow struct {
	Name   string  `json:"name"`
	N      int     `json:"n"`
	Median float64 `json:"median_ms"`
	Q1     float64 `json:"q1_ms"`
	Q3     float64 `json:"q3_ms"`
	Min    float64 `json:"min_ms"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// MarshalJSON writes the value as a float even when it is whole (a count,
// or a time that happens to be 376 ms sharp), so a reader that tells
// integers from floats sees one type for a metric on every run.
func (m metricValue) MarshalJSON() ([]byte, error) {
	v := strconv.FormatFloat(m.Value, 'g', -1, 64)
	if !strings.ContainsAny(v, ".eN") { // NaN and Inf are left invalid and fail the encoding
		v += ".0"
	}
	return []byte(`{"value":` + v + `,"unit":` + strconv.Quote(m.Unit) + `}`), nil
}

// report is everything one run of one workload produced.
type report struct {
	Workload  string
	Traced    bool
	Correct   bool
	Attempted int
	Failed    int
	Rounds    int
	Metrics   map[string]metricValue
	Classes   []classRow
	Slow      int      // right answers that came after the workload's time limit
	Problems  []string // first few failed or slow operations, for the human
	// Disturbed counts the rounds left out of the timings because the
	// hypervisor took the CPUs away during them (see maxStealShare).
	Disturbed int
	// SelfMS is each layer's self time over the traced rounds.
	SelfMS map[string]float64
}

type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	short   bool
}

// Set-up is repeated to get a steady median: at least three times, then
// until a second is spent.
const (
	minSetups      = 3
	maxSetups      = 25
	setupBudget    = time.Second
	maxProblemsOut = 5
)

// The sandbox this runs in is a VM on a shared host, and the host
// sometimes takes the CPUs away for seconds at a time: a round was seen to
// take 18 s instead of 0.9 s. /proc/stat reports that as steal time. A
// round during which more than maxStealShare of the CPU time was stolen
// measures the neighbours, not this program: its operations are still
// checked and counted, its timings are left out, and the run goes on until
// it has --seconds of undisturbed rounds or has spent maxOverrun times
// that (the gate gives all runs together a fixed time).
const (
	maxStealShare = 0.05
	maxOverrun    = 1.3
)

// stealMeter reads the aggregate steal counter of /proc/stat (USER_HZ
// ticks, all CPUs). Where there is no such file it always reports 0.
type stealMeter struct {
	ticks int64
	at    time.Time
}

func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	// cpu user nice system idle iowait irq softirq steal ...
	if f := strings.Fields(line); len(f) > 8 && f[0] == "cpu" {
		n, _ := strconv.ParseInt(f[8], 10, 64)
		return n
	}
	return 0
}

func startStealMeter() stealMeter { return stealMeter{stealTicks(), time.Now()} }

// share is stolen CPU time over available CPU time since the meter
// started (USER_HZ is 100 on every Linux this runs on).
func (m stealMeter) share() float64 {
	const userHZ = 100
	avail := time.Since(m.at).Seconds() * float64(runtime.NumCPU())
	return ratio(float64(stealTicks()-m.ticks)/userHZ, avail)
}

// repeatSetup sets the workload up until the median is steady and returns
// the last instance, the one that is measured, with the duration of every
// repetition. A repetition during which CPU time was stolen is redone,
// like a disturbed round, until set-up has taken twice its budget.
func repeatSetup(w *workload, e *env) (instance, []float64, error) {
	var (
		inst             instance
		setupSec, stolen []float64
		spent, total     time.Duration
	)
	for reps := 0; reps < maxSetups; reps++ {
		if inst != nil {
			inst.close()
		}
		steal := startStealMeter()
		t0 := time.Now()
		in, err := w.setup(e)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		d := time.Since(t0)
		inst = in
		total += d
		if steal.share() > maxStealShare {
			stolen = append(stolen, d.Seconds())
		} else {
			setupSec = append(setupSec, d.Seconds())
			spent += d
		}
		enough := len(setupSec) >= minSetups && spent >= setupBudget
		if e.short || enough || (reps+1 >= minSetups && total >= 2*setupBudget) {
			break
		}
	}
	if len(setupSec) == 0 {
		setupSec = stolen
	}
	return inst, setupSec, nil
}

func runWorkload(w *workload, cfg runConfig, exp *expectedFile, root string) (*report, error) {
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	e := &env{short: cfg.short, nproc: runtime.NumCPU(), exp: exp, rec: rec}

	inst, setupSec, err := repeatSetup(w, e)
	if err != nil {
		return nil, err
	}
	defer inst.close()

	// One untimed warm-up round: lazy initialisation, connection set-up
	// and heap growth happen before the clock starts.
	if !cfg.short {
		inst.round(rand.New(rand.NewSource(cfg.seed)), nil, 0)
	}

	rep := &report{Workload: w.name, Traced: cfg.trace, Correct: true, Metrics: map[string]metricValue{}}
	type roundResult struct {
		samples   []sample
		wall      time.Duration
		traced    bool
		disturbed bool
	}
	var (
		rounds   []roundResult
		ops      int
		heapPeak uint64
		ms0, ms1 runtime.MemStats
	)
	minRounds := 1
	if cfg.trace {
		minRounds = 2 // one traced, one untraced, for the overhead figure
	}
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	budget := time.Duration(cfg.seconds * float64(time.Second))
	var measured, elapsed time.Duration
	for r := 0; r < minRounds || (measured < budget && float64(elapsed) < maxOverrun*float64(budget)); r++ {
		rng := rand.New(rand.NewSource(cfg.seed*1_000_003 + int64(r) + 1))
		rr := roundResult{traced: cfg.trace && r%2 == 0}
		var roundRec *recorder
		if rr.traced {
			roundRec = rec
		}
		steal := startStealMeter()
		rr.samples, rr.wall = inst.round(rng, roundRec, ops)
		// A traced run keeps every round: what its rounds observed is
		// already folded into the instance.
		rr.disturbed = !cfg.trace && steal.share() > maxStealShare
		ops += len(rr.samples)
		elapsed += rr.wall
		if !rr.disturbed {
			measured += rr.wall
		}
		rounds = append(rounds, rr)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heapPeak = max(heapPeak, ms.HeapSys)
	}
	runtime.ReadMemStats(&ms1)
	rep.Rounds = len(rounds)

	// Every operation of every round is checked and counted. Timings come
	// from the undisturbed rounds only, unless there is none.
	for _, rr := range rounds {
		if rr.disturbed {
			rep.Disturbed++
		}
	}
	useDisturbed := rep.Disturbed == len(rounds)
	var (
		all, tracedWall, untracedWall []float64
		byClass                       = map[string][]float64{}
		lc                            = &layerCtx{m: map[string]float64{}, short: cfg.short, traced: map[string][]float64{}, untraced: map[string][]float64{}}
		within, timedRounds, timedOps int
	)
	for _, rr := range rounds {
		timed := !rr.disturbed || useDisturbed
		if timed {
			timedRounds++
			timedOps += len(rr.samples)
			if rr.traced {
				tracedWall = append(tracedWall, rr.wall.Seconds())
				lc.tracedRounds++
			} else {
				untracedWall = append(untracedWall, rr.wall.Seconds())
			}
		}
		for _, s := range rr.samples {
			rep.Attempted++
			switch {
			case s.err != nil:
				rep.Failed++
				rep.Correct = false
				if len(rep.Problems) < maxProblemsOut {
					rep.Problems = append(rep.Problems, fmt.Sprintf("FAILED %s: %v", s.class, s.err))
				}
				continue
			case s.ms > float64(w.limit.Milliseconds()) && !rr.disturbed:
				// Over the time limit: a right answer that came late. It
				// lowers bench.within_limit_share and is not a failed
				// operation: on this host a stall too short to show as a
				// disturbed round still takes a 1 ms cache hit past 50 ms.
				// (In a disturbed round the stall is not counted at all.)
				rep.Slow++
				if len(rep.Problems) < maxProblemsOut {
					rep.Problems = append(rep.Problems, fmt.Sprintf("SLOW %s: %.1f ms exceeds the %v limit", s.class, s.ms, w.limit))
				}
			default:
				within++
			}
			if !timed {
				continue
			}
			all = append(all, s.ms)
			byClass[s.class] = append(byClass[s.class], s.ms)
			if rr.traced {
				lc.traced[s.class] = append(lc.traced[s.class], s.ms)
			} else {
				lc.untraced[s.class] = append(lc.untraced[s.class], s.ms)
			}
		}
	}

	names := make([]string, 0, len(byClass))
	for name := range byClass {
		names = append(names, name)
	}
	sort.Strings(names)
	var medians []float64
	for _, name := range names {
		v := byClass[name]
		q1, q3 := quartiles(v)
		rep.Classes = append(rep.Classes, classRow{Name: name, N: len(v), Median: median(v), Q1: q1, Q3: q3, Min: sorted(v)[0]})
		medians = append(medians, median(v))
	}

	if !cfg.trace {
		walls := untracedWall
		values := map[string]float64{
			"setup_s":            median(setupSec),
			"wall_s":             median(walls),
			"verdict_geomean_ms": geomean(medians),
			"verdict_p50_ms":     percentile(all, 50),
			"verdict_tail_ms":    percentile(all, w.tail),
			// Per round, then the median: one stalled round must not move it.
			"ops_per_s": ratio(float64(timedOps)/float64(timedRounds), median(walls)),
			"alloc_mb":  ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6, float64(rep.Rounds)),
		}
		for _, m := range endToEnd {
			rep.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
		}
		return rep, nil
	}

	// Traced run: per-layer metrics only; timings above are not reported.
	inst.layers(lc)
	rep.SelfMS = map[string]float64{}
	for layer, d := range rec.selfTimes() {
		rep.SelfMS[layer] = float64(d) / 1e6
	}
	lc.m["proc.peak_rss_mb"] = peakRSSMB()
	lc.m["proc.heap_peak_mb"] = float64(heapPeak) / 1e6
	lc.m["proc.gc_cycles"] = ratio(float64(ms1.NumGC-ms0.NumGC), float64(rep.Rounds))
	lc.m["proc.gc_cpu_share"] = ms1.GCCPUFraction
	lc.m["bench.trace_overhead_pct"] = (ratio(median(tracedWall), median(untracedWall)) - 1) * 100
	lc.m["bench.within_limit_share"] = ratio(float64(within), float64(rep.Attempted))
	known := map[string]bool{}
	for _, m := range perLayer {
		known[m.Name] = true
		rep.Metrics[m.Name] = metricValue{lc.m[m.Name], m.Unit}
	}
	for name := range lc.m {
		if !known[name] {
			return nil, fmt.Errorf("%s: computed per-layer metric %q is not in the driver's table", w.name, name)
		}
	}
	if err := os.MkdirAll(outDir(root), 0o755); err != nil {
		return nil, err
	}
	if err := rec.writeChrome(filepath.Join(outDir(root), w.name+".trace.json")); err != nil {
		return nil, err
	}
	return rep, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) on Linux; 0
// where /proc is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1e3
		}
	}
	return 0
}
