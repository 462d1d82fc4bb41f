package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"duet/internal/obs"
)

type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off.
var endToEnd = []metricDef{
	{"run_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"sim_rate", "1/s", "higher"},
	{"peak_heap_mb", "MB", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"io_saved", "frac", "higher"},
	{"maint_sim_s", "s", "lower"},
}

// perLayer are the traced run's metrics. CPU times come from the CPU
// profile, counts from the metrics registry, *_s spans from the
// benchmark's own host-time spans. All are per pass of the workload.
var perLayer = []metricDef{
	{"profile.cpu_s", "s", "lower"},
	{"sim.cpu_s", "s", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.procs_created", "count", "lower"},
	{"sim.window_rounds", "count", "lower"},
	{"sim.window_fastforwards", "count", "higher"},
	{"runtime.sched_cpu_s", "s", "lower"},
	{"runtime.gc_cpu_s", "s", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"storage.cpu_s", "s", "lower"},
	{"storage.requests", "count", "lower"},
	{"storage.retries", "count", "lower"},
	{"storage.busy_s", "s", "lower"},
	{"storage.busy_idle_s", "s", "lower"},
	{"storage.wait_s", "s", "lower"},
	{"storage.service_us.p50", "us", "lower"},
	{"storage.service_us.p99", "us", "lower"},
	{"iosched.cpu_s", "s", "lower"},
	{"iosched.qdepth.p99", "count", "lower"},
	{"pagecache.cpu_s", "s", "lower"},
	{"pagecache.ns_per_insert", "ns", "lower"},
	{"pagecache.inserts", "count", "lower"},
	{"pagecache.evictions", "count", "lower"},
	{"pagecache.hit_ratio", "frac", "higher"},
	{"pagecache.hits", "count", "higher"},
	{"pagecache.misses", "count", "lower"},
	{"pagecache.events_dispatched", "count", "lower"},
	{"pagecache.events_filtered", "count", "higher"},
	{"pagecache.dirty_evictions", "count", "lower"},
	{"pagecache.writeback_pages", "count", "lower"},
	{"rbtree.cpu_s", "s", "lower"},
	{"core.cpu_s", "s", "lower"},
	{"duet.hook_calls", "count", "lower"},
	{"duet.fetch_calls", "count", "lower"},
	{"duet.items_fetched", "count", "higher"},
	{"duet.peak_descs", "count", "lower"},
	{"duet.session_qdepth.p99", "count", "lower"},
	{"cowfs.cpu_s", "s", "lower"},
	{"cowfs.reads_pages", "count", "higher"},
	{"cowfs.miss_pages", "count", "lower"},
	{"cowfs.writeback_pages", "count", "lower"},
	{"cowfs.cow_reallocation", "count", "lower"},
	{"tasks.cpu_s", "s", "lower"},
	{"workload.cpu_s", "s", "lower"},
	{"workload.ops", "count", "higher"},
	{"lfs.cpu_s", "s", "lower"},
	{"lfs.gc_blocks_moved", "count", "lower"},
	{"lfs.gc_blocks_read", "count", "lower"},
	{"lfs.gc_blocks_cached", "count", "higher"},
	{"lfs.segs_cleaned", "count", "higher"},
	{"lfs.in_place_writes", "count", "lower"},
	{"cluster.cpu_s", "s", "lower"},
	{"bitmap.cpu_s", "s", "lower"},
	{"cluster.log_records", "count", "lower"},
	{"cluster.rpc_retries", "count", "lower"},
	{"cluster.pages_shipped", "count", "lower"},
	{"cluster.repair_disk_reads", "count", "lower"},
	{"cluster.repair_cache_hits", "count", "higher"},
	{"machine.new_s", "s", "lower"},
	{"fs.populate_s", "s", "lower"},
	{"engine.run_s", "s", "lower"},
	{"audit_s", "s", "lower"},
	{"obs.overhead_frac", "frac", "lower"},
}

// cpuLayers maps each *.cpu_s metric to the profile buckets it sums.
// The workload generator samples its access distributions from the
// trace package, so that CPU counts as the workload's.
var cpuLayers = map[string][]string{
	"sim.cpu_s":           {"sim"},
	"runtime.sched_cpu_s": {"runtime.sched"},
	"runtime.gc_cpu_s":    {"runtime.gc"},
	"storage.cpu_s":       {"storage"},
	"iosched.cpu_s":       {"iosched"},
	"pagecache.cpu_s":     {"pagecache"},
	"rbtree.cpu_s":        {"rbtree"},
	"core.cpu_s":          {"core"},
	"cowfs.cpu_s":         {"cowfs"},
	"tasks.cpu_s":         {"tasks"},
	"workload.cpu_s":      {"workload", "trace"},
	"lfs.cpu_s":           {"lfs"},
	"cluster.cpu_s":       {"cluster"},
	"bitmap.cpu_s":        {"bitmap"},
}

// regDump is the registry as WriteMetricsJSON exports it.
type regDump struct {
	Counters   map[string]int64
	Gauges     map[string]struct{ Value, Max int64 }
	Histograms map[string]struct {
		Count, Sum, Min, Max int64
		Buckets              []struct {
			Le json.RawMessage
			N  int64
		}
	}
}

func dumpRegistry(r *obs.Registry) (regDump, error) {
	var buf bytes.Buffer
	var d regDump
	if err := obs.WriteMetricsJSON(&buf, r); err != nil {
		return d, err
	}
	err := json.Unmarshal(buf.Bytes(), &d)
	return d, err
}

// sum adds the counters whose names match pattern, where "*" stands for
// one name component (a disk name).
func (d regDump) sum(pattern string) float64 {
	var s int64
	for name, v := range d.Counters {
		if matchName(pattern, name) {
			s += v
		}
	}
	return float64(s)
}

func matchName(pattern, name string) bool {
	pre, post, wild := strings.Cut(pattern, "*")
	if !wild {
		return name == pattern
	}
	if !strings.HasPrefix(name, pre) || !strings.HasSuffix(name, post) || len(name) < len(pre)+len(post) {
		return false
	}
	return !strings.Contains(name[len(pre):len(name)-len(post)], ".")
}

// quantile merges the histograms matching pattern and returns the upper
// bound of the bucket holding quantile q (the maximum sample for the
// overflow bucket), 0 with no samples.
func (d regDump) quantile(pattern string, q float64) float64 {
	type bucket struct {
		le float64
		n  int64
	}
	merged := map[float64]int64{}
	var total, maxv int64
	for name, h := range d.Histograms {
		if !matchName(pattern, name) {
			continue
		}
		total += h.Count
		if h.Max > maxv {
			maxv = h.Max
		}
		for _, b := range h.Buckets {
			le := math.Inf(1)
			var v float64
			if json.Unmarshal(b.Le, &v) == nil {
				le = v
			}
			merged[le] += b.N
		}
	}
	if total == 0 {
		return 0
	}
	var bs []bucket
	for le, n := range merged {
		bs = append(bs, bucket{le, n})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	rank := int64(math.Ceil(q * float64(total)))
	var seen int64
	for _, b := range bs {
		seen += b.n
		if seen >= rank {
			if math.IsInf(b.le, 1) {
				return float64(maxv)
			}
			return b.le
		}
	}
	return float64(maxv)
}

// traced holds what one traced run measured, per pass.
type traced struct {
	reg      regDump            // counters of one pass (identical across passes)
	cpu      map[string]float64 // profile seconds per bucket, per pass
	gcCycles float64
	spans    map[string]float64 // span seconds per name, per pass
	overhead float64
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerValues computes every perLayer metric.
func layerValues(t traced) map[string]float64 {
	v := map[string]float64{}
	var total float64
	for _, s := range t.cpu {
		total += s
	}
	v["profile.cpu_s"] = total
	for metric, buckets := range cpuLayers {
		for _, b := range buckets {
			v[metric] += t.cpu[b]
		}
	}
	r := t.reg
	v["sim.events"] = r.sum("sim.timers_scheduled")
	v["sim.ns_per_event"] = ratio(v["sim.cpu_s"]*1e9, v["sim.events"])
	v["sim.procs_created"] = r.sum("sim.procs_created")
	v["sim.window_rounds"] = r.sum("sim.window_rounds")
	v["sim.window_fastforwards"] = r.sum("sim.window_fastforwards")
	v["runtime.gc_cycles"] = t.gcCycles
	v["storage.requests"] = r.sum("storage.*.requests")
	v["storage.retries"] = r.sum("storage.*.retries")
	v["storage.busy_s"] = r.sum("storage.*.busy_us") / 1e6
	v["storage.busy_idle_s"] = r.sum("storage.*.busy_idle_us") / 1e6
	v["storage.wait_s"] = r.sum("storage.wait_us") / 1e6
	v["storage.service_us.p50"] = r.quantile("storage.*.service_us", 0.5)
	v["storage.service_us.p99"] = r.quantile("storage.*.service_us", 0.99)
	v["iosched.qdepth.p99"] = r.quantile("iosched.*.qdepth", 0.99)
	for _, c := range []string{"inserts", "evictions", "hits", "misses", "events_dispatched",
		"events_filtered", "dirty_evictions", "writeback_pages"} {
		v["pagecache."+c] = r.sum("pagecache." + c)
	}
	v["pagecache.ns_per_insert"] = ratio(v["pagecache.cpu_s"]*1e9, v["pagecache.inserts"])
	v["pagecache.hit_ratio"] = ratio(v["pagecache.hits"], v["pagecache.hits"]+v["pagecache.misses"])
	for _, c := range []string{"duet.hook_calls", "duet.fetch_calls", "duet.items_fetched",
		"cowfs.reads_pages", "cowfs.miss_pages", "cowfs.writeback_pages", "cowfs.cow_reallocation",
		"workload.ops", "lfs.gc_blocks_moved", "lfs.gc_blocks_read", "lfs.gc_blocks_cached",
		"lfs.segs_cleaned", "lfs.in_place_writes", "cluster.log_records", "cluster.rpc_retries",
		"cluster.pages_shipped", "cluster.repair_disk_reads", "cluster.repair_cache_hits"} {
		v[c] = r.sum(c)
	}
	v["duet.peak_descs"] = float64(r.Gauges["duet.peak_descs"].Max)
	v["duet.session_qdepth.p99"] = r.quantile("duet.session_qdepth", 0.99)
	for _, s := range []string{"machine.new", "fs.populate", "engine.run", "audit"} {
		v[s+"_s"] = t.spans[s]
	}
	v["obs.overhead_frac"] = t.overhead
	return v
}

// printSplit writes the traced CPU split beside the shares record.json
// predicts; "runtime" is runtime.gc plus runtime.sched.
func printSplit(w io.Writer, workload string, cpu map[string]float64, pred map[string]string) {
	var total float64
	var names []string
	for b, s := range cpu {
		total += s
		names = append(names, b)
	}
	sort.Slice(names, func(i, j int) bool { return cpu[names[i]] > cpu[names[j]] })
	fmt.Fprintf(w, "traced CPU split, %s (%.2f s per pass):\n", workload, total)
	fmt.Fprintf(w, "  %-16s %8s %7s %9s\n", "layer", "cpu_s", "share", "predicted")
	row := func(name string, s float64) {
		fmt.Fprintf(w, "  %-16s %8.3f %6.1f%% %9s\n", name, s, 100*ratio(s, total), pred[name])
	}
	for _, b := range names {
		row(b, cpu[b])
	}
	row("runtime", cpu["runtime.gc"]+cpu["runtime.sched"])
	for _, l := range sortedKeys(pred) {
		if _, ok := cpu[l]; !ok && l != "runtime" {
			row(l, 0)
		}
	}
}

func sortedKeys(m map[string]string) []string {
	var k []string
	for x := range m {
		k = append(k, x)
	}
	sort.Strings(k)
	return k
}
