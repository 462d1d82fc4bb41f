// Command perfbench is the repository benchmark. It drives three seeded
// workloads through the simulator's layers (machine, workload, tasks,
// lfs and its Duet-aware cleaner, cluster), audits every cell, and
// prints one JSON line of metrics:
//
//	perfbench --workload cow-read --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it repeats whole passes over the workload's cells for
// --seconds with observability off and reports the end-to-end metrics
// (medians over passes). With --trace 1 it measures half the time that
// way, then repeats traced passes (metrics registry on, host-time spans
// around every call into a layer, CPU profile) and reports the
// per-layer metrics. The simulated outcome of every cell is digested;
// digests must repeat across passes and traced runs, and for the
// default seed equal the ones in record.json.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"duet/internal/obs"
)

//go:embed record.json
var recordJSON []byte

// benchRecord is the part of record.json the program reads.
type benchRecord struct {
	DefaultSeed int64 `json:"default_seed"`
	Prediction  struct {
		CPUShare map[string]map[string]string `json:"cpu_share"`
	} `json:"prediction"`
	Digests map[string]map[string]string `json:"digests"`
}

// maxProcs caps GOMAXPROCS, so a run measures the same configuration on
// any host with at least that many CPUs.
const maxProcs = 2

// domainWorkers is the cluster engine's worker count. The cluster cells
// are small enough that running domains in parallel costs more in
// barrier hand-offs than it saves (about 1.45 s against 1.17 s per pass
// on 2 CPUs), and the hand-offs between threads make the timing noisier.
const domainWorkers = 1

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var rec benchRecord
	if err := json.Unmarshal(recordJSON, &rec); err != nil {
		fmt.Fprintln(stderr, "perfbench: record.json:", err)
		return 2
	}
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: cow-read, lfs-write or cluster-repair")
	seed := fl.Int64("seed", rec.DefaultSeed, "seed the workload's inputs are drawn from")
	seconds := fl.Float64("seconds", 10, "host seconds to measure for")
	traceFlag := fl.Int("trace", 0, "1 for the traced run and per-layer metrics")
	fl.BoolVar(&knownDefects, "known-defects", false, "cluster-repair: add naive repair and a partition, which hit known cluster defects")
	out := fl.String("out", ".bench_build", "directory for the traced run's spans and CPU profile")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload cow-read|lfs-write|cluster-repair, --seconds > 0, --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	fmt.Fprintf(stderr, "perfbench: %s seed %d, %s, nproc %d, GOMAXPROCS %d, engine workers %d\n",
		w.name, *seed, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), domainWorkers)

	peak := startHeapPeak()
	b := &bench{w: w, seed: *seed, stderr: stderr}
	budget := time.Duration(*seconds * float64(time.Second))
	var result map[string]float64
	var units []metricDef
	if *traceFlag == 0 {
		b.untraced = b.measure(budget, 3, false, nil, peak)
		result, units = b.endToEnd(), endToEnd
	} else {
		var err error
		result, err = b.traced(budget, *out, peak, rec.Prediction.CPUShare[w.name])
		if err != nil {
			b.runFail("traced run: %v", err)
		}
		units = perLayer
	}
	peak.close()
	b.checkDigests(rec)

	res := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{Metrics: map[string]json.RawMessage{}}
	for _, m := range units {
		v := result[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.runFail("metric %s is %v", m.name, v)
			v = 0
		}
		raw, _ := json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{v, m.unit})
		res.Metrics[m.name] = raw
	}
	for _, p := range b.passes() {
		res.Attempted += len(p.failed)
		for _, f := range p.failed {
			if f {
				res.Failed++
			}
		}
	}
	res.Correct = res.Failed == 0 && !b.broken && res.Attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// bench is one invocation's state.
type bench struct {
	w      benchWorkload
	seed   int64
	stderr io.Writer

	untraced, tracedPasses []pass
	// broken is set by a failed check that belongs to no one cell.
	broken bool
}

func (b *bench) passes() []pass { return append(append([]pass{}, b.untraced...), b.tracedPasses...) }

// cellFail marks cell j of p failed.
func (b *bench) cellFail(p *pass, j int, format string, args ...any) {
	p.failed[j] = true
	fmt.Fprintf(b.stderr, "perfbench: FAIL %s: %s\n", p.labels[j], fmt.Sprintf(format, args...))
}

func (b *bench) runFail(format string, args ...any) {
	b.broken = true
	fmt.Fprintf(b.stderr, "perfbench: FAIL "+format+"\n", args...)
}

// pass is one run over every cell of the workload.
type pass struct {
	setup, run   time.Duration
	alloc, peak  uint64
	gcCycles     uint64 // collections while cells ran, not the forced ones between cells
	simSeconds   float64
	ioNum, ioDen float64
	maintSum     float64
	maintN       int
	labels       []string
	digests      []string
	failed       []bool
	reg          *obs.Registry // traced passes only
}

// measure runs passes until budget is spent, and at least min of them.
func (b *bench) measure(budget time.Duration, min int, traced bool, sp *spanLog, peak *heapPeak) []pass {
	start := time.Now()
	var ps []pass
	for len(ps) < min || time.Since(start) < budget {
		ps = append(ps, b.runPass(len(ps), traced, sp, peak))
	}
	return ps
}

func (b *bench) runPass(idx int, traced bool, sp *spanLog, peak *heapPeak) pass {
	var p pass
	if traced {
		p.reg = obs.NewRegistry()
	}
	peak.reset()
	cells := b.w.cells(b.seed)
	for i, c := range cells {
		// Drop the cell once done, so only one cell's machines are live,
		// and start each from a collected heap, so no cell pays for the
		// previous one's garbage.
		cells[i] = nil
		runtime.GC()
		var o *obs.Obs
		if traced {
			o = &obs.Obs{Metrics: obs.NewRegistry()}
			sp.trace = fmt.Sprintf("%s#%d", c.label(), idx)
		}
		p.labels = append(p.labels, c.label())
		p.digests = append(p.digests, "")
		p.failed = append(p.failed, false)
		gc0 := gcCycles()
		pt, err := c.execute(o, sp)
		p.gcCycles += gcCycles() - gc0
		if err != nil {
			b.cellFail(&p, i, "%v", err)
			continue
		}
		// A cell that ran but fails its audit still counts in the
		// timings, so a defect does not also skew the metrics.
		t := time.Now()
		if err := c.audit(); err != nil {
			b.cellFail(&p, i, "%v", err)
		}
		sp.since("audit", t)
		r := c.result()
		p.setup += pt.setup
		p.run += pt.run
		p.alloc += pt.runAlloc
		p.simSeconds += r.simSeconds
		p.ioNum += r.ioNum
		p.ioDen += r.ioDen
		p.maintSum += r.maintSum
		p.maintN += r.maintN
		p.digests[i] = r.digest
		if traced {
			c.collect(o.Metrics)
			p.reg.Merge(o.Metrics)
		}
	}
	p.peak = peak.reset()
	return p
}

// perPass are the end-to-end metrics that vary between passes, with
// how each pass yields its sample.
var perPass = []struct {
	name string
	of   func(p pass) float64
}{
	{"run_s", func(p pass) float64 { return p.run.Seconds() }},
	{"setup_s", func(p pass) float64 { return p.setup.Seconds() }},
	{"sim_rate", func(p pass) float64 { return p.simSeconds / p.run.Seconds() }},
	{"peak_heap_mb", func(p pass) float64 { return float64(p.peak) / 1e6 }},
	{"alloc_mb", func(p pass) float64 { return float64(p.alloc) / 1e6 }},
}

// endToEnd reports the untraced passes' medians.
func (b *bench) endToEnd() map[string]float64 {
	ps := b.untraced
	p := ps[0]
	m := map[string]float64{}
	fmt.Fprintf(b.stderr, "%d passes of %d cells; median [q1, q3]:\n", len(ps), len(p.labels))
	for _, e := range perPass {
		var v []float64
		for _, p := range ps {
			v = append(v, e.of(p))
		}
		m[e.name] = median(v)
		q1, q3 := quartiles(v)
		fmt.Fprintf(b.stderr, "  %-13s %10.4f [%.4f, %.4f]\n", e.name, m[e.name], q1, q3)
	}
	// The simulated outcomes are identical in every pass (checked by
	// digest), so the first pass's stand for all.
	m["io_saved"] = p.ioNum / p.ioDen
	m["maint_sim_s"] = ratio(p.maintSum, float64(p.maintN))
	fmt.Fprintf(b.stderr, "  %-13s %10.4f (%.0f over %.0f)\n", "io_saved", m["io_saved"], p.ioNum, p.ioDen)
	fmt.Fprintf(b.stderr, "  %-13s %10.4f (mean of %d)\n", "maint_sim_s", m["maint_sim_s"], p.maintN)
	fmt.Fprintf(b.stderr, "  simulated %.0f s per pass\n", p.simSeconds)
	return m
}

// traced spends half the budget on untraced passes (the base of
// obs.overhead_frac) and half on traced ones.
func (b *bench) traced(budget time.Duration, outDir string, peak *heapPeak, pred map[string]string) (map[string]float64, error) {
	b.untraced = b.measure(budget/2, 2, false, nil, peak)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	sp := newSpanLog()
	b.tracedPasses = b.measure(budget/2, 2, true, sp, peak)
	pprof.StopCPUProfile()

	stem := filepath.Join(outDir, fmt.Sprintf("perfbench-%s-seed%d", b.w.name, b.seed))
	if err := os.WriteFile(stem+".pprof", prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := sp.write(stem + "-spans.json"); err != nil {
		return nil, err
	}
	cpu, err := cpuByLayer(prof.Bytes())
	if err != nil {
		return nil, err
	}
	n := float64(len(b.tracedPasses))
	for k := range cpu {
		cpu[k] /= n
	}
	var gcN uint64
	for _, p := range b.tracedPasses {
		gcN += p.gcCycles
	}
	spans := map[string]float64{}
	for _, s := range []string{"machine.new", "fs.populate", "engine.run", "audit"} {
		spans[s] = sp.total(s).Seconds() / n
	}

	// Counters are a pure function of the seed: every traced pass must
	// publish the same registry.
	var first bytes.Buffer
	if err := obs.WriteMetricsText(&first, b.tracedPasses[0].reg); err != nil {
		return nil, err
	}
	for i, p := range b.tracedPasses[1:] {
		var buf bytes.Buffer
		if err := obs.WriteMetricsText(&buf, p.reg); err != nil {
			return nil, err
		}
		if !bytes.Equal(first.Bytes(), buf.Bytes()) {
			b.runFail("traced pass %d published different counters than pass 0", i+1)
		}
	}
	reg, err := dumpRegistry(b.tracedPasses[0].reg)
	if err != nil {
		return nil, err
	}
	runOf := func(ps []pass) float64 {
		var v []float64
		for _, p := range ps {
			v = append(v, p.run.Seconds())
		}
		return median(v)
	}
	tracedRun, untracedRun := runOf(b.tracedPasses), runOf(b.untraced)
	t := traced{
		reg: reg, cpu: cpu, gcCycles: float64(gcN) / n, spans: spans,
		overhead: tracedRun/untracedRun - 1,
	}
	printSplit(b.stderr, b.w.name, cpu, pred)
	fmt.Fprintf(b.stderr, "run_s traced %.4f (%d passes), untraced %.4f (%d passes)\n",
		tracedRun, len(b.tracedPasses), untracedRun, len(b.untraced))
	fmt.Fprintf(b.stderr, "spans and profile: %s-spans.json, %s.pprof (%d traced passes)\n", stem, stem, len(b.tracedPasses))
	return layerValues(t), nil
}

// checkDigests checks that every pass, traced or not, produced the first
// pass's digests, and that the default seed reproduces record.json.
func (b *bench) checkDigests(rec benchRecord) {
	all := b.passes()
	if len(all) == 0 {
		return
	}
	ref := all[0].digests
	for i := range all[1:] {
		p := &all[i+1]
		for j, d := range p.digests {
			if d != ref[j] {
				b.cellFail(p, j, "digest %s differs from pass 0's %s", d, ref[j])
			}
		}
	}
	if b.seed != rec.DefaultSeed {
		return
	}
	want := rec.Digests[b.w.name]
	if len(want) == 0 {
		got := map[string]string{}
		for j, l := range all[0].labels {
			got[l] = ref[j]
		}
		js, _ := json.MarshalIndent(map[string]any{b.w.name: got}, "", "  ")
		b.runFail("record.json holds no digests for %s; this run's:\n%s", b.w.name, js)
		return
	}
	for j, l := range all[0].labels {
		if want[l] == ref[j] {
			continue
		}
		for i := range all {
			b.cellFail(&all[i], j, "digest %s, record.json has %q", ref[j], want[l])
		}
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartiles by the same method as
// Python's statistics.quantiles(v, n=4) (exclusive).
func quartiles(v []float64) (float64, float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		m := median(s)
		return m, m
	}
	q := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// --- runtime counters ----------------------------------------------------------

func readUint64(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// heapAllocs is the cumulative count of bytes allocated on the Go heap.
func heapAllocs() uint64 { return readUint64("/gc/heap/allocs:bytes") }

func gcCycles() uint64 { return readUint64("/gc/cycles/total:gc-cycles") }

// heapPeak samples the bytes of live and not yet swept heap objects
// every millisecond and keeps the maximum: the heap's high-water mark.
type heapPeak struct {
	max  atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		// One reused sample, so the sampler itself does not add to the
		// allocations alloc_mb counts.
		s := []metrics.Sample{{Name: heapObjects}}
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				metrics.Read(s)
				h.record(s[0].Value.Uint64())
			}
		}
	}()
	return h
}

func (h *heapPeak) record(v uint64) {
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// reset returns the maximum since the last reset and starts a new one.
func (h *heapPeak) reset() uint64 {
	h.record(readUint64(heapObjects))
	return h.max.Swap(0)
}

func (h *heapPeak) close() {
	close(h.stop)
	h.wg.Wait()
}
