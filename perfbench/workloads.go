package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"time"

	"duet/internal/cluster"
	"duet/internal/faults"
	"duet/internal/lfs"
	"duet/internal/machine"
	"duet/internal/obs"
	"duet/internal/pagecache"
	"duet/internal/sim"
	"duet/internal/storage"
	"duet/internal/tasks"
	"duet/internal/tasks/backup"
	"duet/internal/tasks/gcduet"
	"duet/internal/tasks/scrub"
	"duet/internal/trace"
	"duet/internal/workload"
)

// A workload is a fixed list of cells whose parameters the seed draws.
// Every cell is built, set up, run for its simulated window and audited
// on its own engine; cells run one at a time. BENCHMARK.json records
// why each workload was chosen.
type benchWorkload struct {
	name string
	// cells returns fresh, unbuilt cells; equal seeds give equal cells.
	cells func(seed int64) []cell
}

var workloads = []benchWorkload{
	{name: "cow-read", cells: cowReadCells},
	{name: "lfs-write", cells: lfsWriteCells},
	{name: "cluster-repair", cells: clusterRepairCells},
}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// cell is one simulation.
type cell interface {
	label() string
	// execute builds the cell's machines, sets them up (populate or age)
	// and runs the simulated window. Host time is split into set-up and
	// run; spans go to sp.
	execute(o *obs.Obs, sp *spanLog) (phaseTimes, error)
	// audit checks the simulated state after the run.
	audit() error
	result() cellResult
	// collect publishes the cell's counters into r (traced runs only).
	collect(r *obs.Registry)
}

// phaseTimes is a cell's host-time split; runAlloc is the bytes the Go
// heap allocated during the run phase.
type phaseTimes struct {
	setup, run time.Duration
	runAlloc   uint64
}

// cellResult is a cell's simulated outcome. All of it is a pure
// function of the seed: a change that only speeds the simulator up must
// leave every field, and so the digest, unchanged.
type cellResult struct {
	digest     string
	simSeconds float64
	// ioNum/ioDen feed io_saved; maintSum/maintN feed maint_sim_s.
	ioNum, ioDen float64
	maintSum     float64
	maintN       int
}

// digest hashes a cell's simulated outcome. Callers list the fields it
// covers one by one, so a field added to a layer's stats later leaves
// the pinned digests unchanged.
func digest(vals ...int64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func fbits(f float64) int64 { return int64(math.Float64bits(f)) }

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func workloadOutcome(s *workload.Stats) []int64 {
	return []int64{s.Ops, s.Reads, s.Writes, s.Deletes, s.Creates, s.Errors,
		int64(s.TotalLatency), int64(s.MaxLatency)}
}

func cacheOutcome(s *pagecache.Stats) []int64 {
	return []int64{s.Hits, s.Misses, s.Inserts, s.Evictions, s.DirtyEvictions,
		s.WritebackPages, s.EventsDispatched, s.EventsFiltered}
}

// machineSeed seeds every cell's engine. The benchmark's seed draws the
// workload's inputs (rates, overlaps, kill times and fault streams), not
// the file populations and operation streams: the simulation is chaotic
// in the engine seed, and a per-seed population would move the simulated
// outcomes by more than the bounds the benchmark holds them to.
const machineSeed = 1

// jitter draws a factor in [1-f, 1+f].
func jitter(rng *rand.Rand, f float64) float64 { return 1 - f + 2*f*rng.Float64() }

// --- cow-read ----------------------------------------------------------------

// The cow-read geometry is the harness's tiny scale: 64 MiB of data,
// 16x the 4 MiB cache, on a device slowed 4x so a 30 s window holds a
// paper-like share of maintenance work.
const (
	cowDataPages    = 16384
	cowDeviceBlocks = 65536
	cowCachePages   = 1024
	cowSlow         = 4
	cowWindow       = 30 * sim.Second
)

// cowRates are webserver ops/sec near 65% device utilization at full
// overlap: the geometric means of the rates the harness's calibration
// bisection finds for 50% and 75% at tiny scale. The seed scales them,
// so the bisection stays out of the measured path. At these rates the
// page cache's reclaim path leads the CPU profile, as in fig10.
var cowRates = map[machine.DeviceKind]map[string]float64{
	machine.HDD: {"uniform": 76, "ms-dev0": 130},
	machine.SSD: {"uniform": 320, "ms-dev0": 553},
}

type cowCell struct {
	device  machine.DeviceKind
	dist    string
	overlap float64
	rate    float64
	task    string // "scrub" or "backup"
	duet    bool

	m      *machine.Machine
	gen    *workload.Generator
	report *tasks.Report
}

func cowReadCells(seed int64) []cell {
	rng := rand.New(rand.NewSource(seed))
	var out []cell
	for _, dev := range []machine.DeviceKind{machine.HDD, machine.SSD} {
		for _, dist := range []string{"uniform", "ms-dev0"} {
			for _, ov := range []float64{0.5, 1.0} {
				overlap := ov - 0.02*rng.Float64()
				rate := cowRates[dev][dist] * jitter(rng, 0.03)
				for _, task := range []string{"scrub", "backup"} {
					for _, duet := range []bool{false, true} {
						out = append(out, &cowCell{
							device: dev, dist: dist, overlap: overlap,
							rate: rate, task: task, duet: duet,
						})
					}
				}
			}
		}
	}
	return out
}

func modeName(duet bool) string {
	if duet {
		return "duet"
	}
	return "base"
}

func (c *cowCell) label() string {
	ov := "ov-lo"
	if c.overlap > 0.75 {
		ov = "ov-hi"
	}
	return fmt.Sprintf("%s/%s/%s/%s/%s", c.device, c.dist, ov, c.task, modeName(c.duet))
}

func (c *cowCell) execute(o *obs.Obs, sp *spanLog) (phaseTimes, error) {
	var pt phaseTimes
	t0 := time.Now()
	var model storage.Model = storage.DefaultHDD(cowDeviceBlocks).Slowed(cowSlow)
	if c.device == machine.SSD {
		model = storage.DefaultSSD(cowDeviceBlocks).Slowed(cowSlow)
	}
	m, err := machine.New(machine.Config{
		Seed:         machineSeed,
		DeviceBlocks: cowDeviceBlocks,
		Device:       c.device,
		Model:        model,
		CachePages:   cowCachePages,
		IdleGrace:    sim.Time(2.5 * cowSlow * float64(sim.Millisecond)),
		Obs:          o,
	})
	t1 := sp.since("machine.new", t0)
	if err != nil {
		return pt, err
	}
	c.m = m
	ps := machine.DefaultPopulateSpec("/data", cowDataPages)
	ps.MeanFilePages = 128
	ps.Files = cowDataPages / 128
	files, err := m.Populate(ps)
	if err == nil {
		c.gen, err = workload.New(m.Eng, m.FS, files, workload.Config{
			Personality: workload.Webserver,
			Dir:         "/data",
			Coverage:    c.overlap,
			Dist:        trace.ByName(c.dist),
			OpsPerSec:   c.rate,
		})
	}
	t2 := sp.since("fs.populate", t1)
	pt.setup = t2.Sub(t0)
	if err != nil {
		return pt, err
	}

	var taskErr error
	m.Eng.Go("bench-main", func(p *sim.Proc) {
		defer m.Eng.Stop()
		var run func(*sim.Proc) error
		switch c.task {
		case "scrub":
			var s *scrub.Scrubber
			if c.duet {
				s = scrub.NewOpportunistic(m.FS, scrub.DefaultConfig(), m.Duet, m.Adapter)
			} else {
				s = scrub.New(m.FS, scrub.DefaultConfig())
			}
			c.report, run = &s.Report, s.Run
		case "backup":
			snap, err := m.FS.CreateSnapshot(p, "/data", "/snap")
			if err != nil {
				taskErr = err
				return
			}
			var b *backup.Backup
			if c.duet {
				b = backup.NewOpportunistic(m.FS, snap, backup.DefaultConfig(), m.Duet, m.Adapter)
			} else {
				b = backup.New(m.FS, snap, backup.DefaultConfig())
			}
			c.report, run = &b.Report, b.Run
		}
		c.gen.Start(m.Eng)
		taskErr = run(p)
	})
	a0 := heapAllocs()
	err = m.Eng.RunFor(cowWindow)
	pt.runAlloc = heapAllocs() - a0
	pt.run = sp.since("engine.run", t2).Sub(t2)
	if err == nil {
		err = taskErr
	}
	return pt, err
}

func (c *cowCell) audit() error {
	if err := c.m.FS.CheckInvariants(); err != nil {
		return err
	}
	st := c.m.FS.Stats()
	if st.Corruptions != 0 || st.ScrubErrors != 0 {
		return fmt.Errorf("%d corruptions, %d scrub errors on a fault-free cell", st.Corruptions, st.ScrubErrors)
	}
	if n := c.gen.Stats().Errors; n != 0 {
		return fmt.Errorf("%d workload operations failed", n)
	}
	if c.report.Errors != 0 {
		return fmt.Errorf("%s reported %d errors", c.task, c.report.Errors)
	}
	return nil
}

func (c *cowCell) result() cellResult {
	ds, rp := c.m.Disk.Stats(), c.report
	r := cellResult{
		digest: digest(slices.Concat(
			[]int64{fbits(c.overlap), fbits(c.rate), int64(c.m.Eng.Now()), ds.Requests, int64(ds.BusyTime)},
			[]int64{rp.WorkTotal, rp.WorkDone, rp.Saved, rp.ReadBlocks, rp.WrittenBlocks, rp.Errors,
				rp.Degraded, rp.RescanBlocks, b2i(rp.Completed), int64(rp.Start), int64(rp.End)},
			workloadOutcome(c.gen.Stats()), cacheOutcome(c.m.Cache.Stats()))...),
		simSeconds: c.m.Eng.Now().Seconds(),
		maintSum:   c.report.Duration().Seconds(),
		maintN:     1,
	}
	if c.duet {
		r.ioNum = float64(c.report.Saved)
	} else {
		r.ioDen = float64(c.report.WorkTotal)
	}
	return r
}

func (c *cowCell) collect(r *obs.Registry) {
	c.m.CollectMetrics(r)
	r.SetCounter("workload.ops", c.gen.Stats().Ops)
	r.SetCounter("storage.wait_us", waitMicros(c.m.Disk))
}

// waitMicros sums, over request owners, the time requests spent queued
// before service: submit-to-complete latency minus service time.
func waitMicros(d *storage.Disk) int64 {
	var w sim.Time
	for _, o := range d.Stats().ByOwner {
		w += o.TotalLatency - o.BusyTime
	}
	return int64(w / sim.Microsecond)
}

// --- lfs-write ---------------------------------------------------------------

// The lfs-write geometry is tab6's at tiny scale: a 64 MiB log of 2 MiB
// segments, filled to 70% with 1.5 MiB files and aged by random 32 KiB
// overwrites, with a 2 MiB cache that starts cold.
const (
	lfsDeviceBlocks = 16384
	lfsSegBlocks    = 512
	lfsFilePages    = 384
	lfsFiles        = lfsDeviceBlocks * 7 / 10 / lfsFilePages
	lfsAgeOps       = 2 * lfsFiles
	lfsCachePages   = 512
	lfsSlow         = 4
	lfsWindow       = 30 * sim.Second
)

// lfsRates are fileserver ops/sec from 40 to 70% device utilization on
// the aged log: the harness's calibration at 40, 50, 60 and 70% and
// their geometric means. Seven levels average out the cleaner's
// sensitivity to small changes in its input.
var lfsRates = []float64{6.4, 7.5, 8.8, 9.9, 11.1, 14.0, 17.6}

type lfsCell struct {
	level, rate float64 // the rate level and its seed-drawn value
	duet        bool

	m   *machine.LFSMachine
	gc  *lfs.GC
	gen *workload.Generator
}

func lfsWriteCells(seed int64) []cell {
	rng := rand.New(rand.NewSource(seed))
	var out []cell
	for _, base := range lfsRates {
		rate := base * jitter(rng, 0.03)
		for _, duet := range []bool{false, true} {
			out = append(out, &lfsCell{level: base, rate: rate, duet: duet})
		}
	}
	return out
}

func (c *lfsCell) label() string {
	return fmt.Sprintf("fileserver/%.1f/%s", c.level, modeName(c.duet))
}

func (c *lfsCell) execute(o *obs.Obs, sp *spanLog) (phaseTimes, error) {
	var pt phaseTimes
	t0 := time.Now()
	m, err := machine.NewLFS(machine.Config{
		Seed:         machineSeed,
		DeviceBlocks: lfsDeviceBlocks,
		Model:        storage.DefaultHDD(lfsDeviceBlocks).Slowed(lfsSlow),
		CachePages:   lfsCachePages,
		Obs:          o,
	}, lfs.Config{SegBlocks: lfsSegBlocks, ReservedSegs: 8})
	t1 := sp.since("machine.new", t0)
	if err != nil {
		return pt, err
	}
	c.m = m
	// Ageing needs simulated I/O, so it runs inside the engine; the
	// benchmark's process marks the host instant it ends, which splits
	// the one engine run into set-up and measured run.
	var aged time.Time
	var a0 uint64
	var simErr error
	m.Eng.Go("bench-main", func(p *sim.Proc) {
		defer m.Eng.Stop()
		files, err := ageLFS(p, m)
		if err == nil {
			c.gen, err = workload.NewLFS(m.Eng, m.FS, files, workload.Config{
				Personality: workload.Fileserver,
				OpsPerSec:   c.rate,
				Name:        "fileserver-lfs",
			})
		}
		aged = time.Now()
		a0 = heapAllocs()
		if err != nil {
			simErr = err
			return
		}
		c.gen.Start(m.Eng)
		gcCfg := lfs.GCConfig{
			Interval:       100 * sim.Millisecond,
			IdleAfter:      sim.Time(5*lfsSlow) * sim.Millisecond,
			UrgentFreeSegs: 4,
			WindowSegs:     4096,
		}
		if c.duet {
			c.gc, _, err = gcduet.StartGC(m.Eng, m.Duet, m.Adapter, m.FS, gcCfg)
			if err != nil {
				simErr = err
				return
			}
		} else {
			c.gc = m.FS.StartGC(gcCfg)
		}
		p.Sleep(lfsWindow)
	})
	err = m.Eng.Run()
	end := time.Now()
	if aged.IsZero() {
		aged = end
		a0 = heapAllocs()
	}
	pt.runAlloc = heapAllocs() - a0
	sp.add("fs.populate", t1, aged)
	sp.add("engine.run", aged, end)
	pt.setup, pt.run = aged.Sub(t0), end.Sub(aged)
	if err == nil {
		err = simErr
	}
	return pt, err
}

// ageLFS fills the log and punches holes into its segments with random
// overwrites, then drops the cache so the measured run starts cold.
func ageLFS(p *sim.Proc, m *machine.LFSMachine) ([]*lfs.Inode, error) {
	var files []*lfs.Inode
	for i := 0; i < lfsFiles; i++ {
		f, err := m.FS.Create(fmt.Sprintf("f%05d", i))
		if err != nil {
			return nil, err
		}
		if err := m.FS.Write(p, f.Ino, 0, lfsFilePages); err != nil {
			return nil, err
		}
		files = append(files, f)
		if i%8 == 7 {
			m.FS.Sync(p)
		}
	}
	m.FS.Sync(p)
	rng := m.Eng.DeriveRand("lfs-age")
	for i := 0; i < lfsAgeOps; i++ {
		f := files[rng.Intn(len(files))]
		if err := m.FS.Write(p, f.Ino, rng.Int63n(lfsFilePages-8), 8); err != nil {
			return nil, err
		}
		if i%16 == 15 {
			m.FS.Sync(p)
		}
	}
	m.FS.Sync(p)
	for _, f := range files {
		m.Cache.RemoveFile(m.FS.ID(), uint64(f.Ino))
	}
	return files, nil
}

func (c *lfsCell) audit() error {
	if err := c.m.FS.CheckInvariants(); err != nil {
		return err
	}
	if n := c.gen.Stats().Errors; n != 0 {
		return fmt.Errorf("%d workload operations failed", n)
	}
	st := c.m.FS.Stats()
	if st.GCReadErrors != 0 || st.GCSyncErrors != 0 || st.WritebackErrors != 0 {
		return fmt.Errorf("lfs errors on a fault-free cell: %d gc read, %d gc sync, %d writeback",
			st.GCReadErrors, st.GCSyncErrors, st.WritebackErrors)
	}
	if len(c.gc.Records) == 0 {
		return fmt.Errorf("the cleaner cleaned no segment")
	}
	return nil
}

func (c *lfsCell) result() cellResult {
	var clean sim.Time
	var cleans []int64
	for _, r := range c.gc.Records {
		clean += r.Duration
		cleans = append(cleans, int64(r.Start), int64(r.Duration), int64(r.SegIdx),
			int64(r.BlocksMoved), int64(r.BlocksRead), int64(r.BlocksCached), b2i(r.Urgent))
	}
	st := c.m.FS.Stats()
	r := cellResult{
		digest: digest(slices.Concat(
			[]int64{fbits(c.rate), int64(c.m.Eng.Now()), st.WritesPages, st.ReadsPages, st.MissPages,
				st.WritebackPages, st.Invalidations, st.SegsFreed, st.SegsCleaned, st.GCBlocksMoved,
				st.GCBlocksRead, st.GCBlocksCached, st.InPlaceWrites},
			cleans, workloadOutcome(c.gen.Stats()), cacheOutcome(c.m.Cache.Stats()))...),
		simSeconds: c.m.Eng.Now().Seconds(),
	}
	if c.duet {
		r.ioNum, r.ioDen = float64(st.GCBlocksCached), float64(st.GCBlocksMoved)
		r.maintSum, r.maintN = clean.Seconds(), len(c.gc.Records)
	}
	return r
}

func (c *lfsCell) collect(r *obs.Registry) {
	c.m.CollectMetrics(r)
	r.SetCounter("workload.ops", c.gen.Stats().Ops)
	r.SetCounter("storage.wait_us", waitMicros(c.m.Disk))
}

// --- cluster-repair ----------------------------------------------------------

// The cluster geometry is the harness's tiny cluster cell: four nodes
// with 16 MiB devices and 1 MiB caches, three-way replication, four
// 64-page shards.
const (
	clusterNodes        = 4
	clusterReplicas     = 3
	clusterShards       = 4
	clusterShardPages   = 64
	clusterDeviceBlocks = 4096
	clusterCachePages   = 256
	clusterWindow       = 30 * sim.Second
)

type clusterCell struct {
	plan     string
	mode     cluster.RepairMode
	cfg      cluster.Config
	c        *cluster.Cluster
	stats    cluster.Stats
	auditRep cluster.AuditReport
}

type namedPlan struct {
	name string
	plan faults.ClusterPlan
}

// knownDefects restores the cluster cells that hit two known defects of
// the cluster tier, on which the audit fails for some seeds:
//
//   - Naive repair captures each page's sequence number when its disk
//     scan reaches the page but ships the batch later, so a client write
//     that reaches the destination first through the learner stream is
//     overwritten by the older page: stale primary reads or lost acked
//     blocks on 15 of seeds 1-40 (3, 5 and 9 among them). Duet repair
//     ships this geometry's resident shards from memory with no device
//     read in between, so it does not hit this.
//   - A follower applies replicated writes in arrival order, so when a
//     network partition heals, a retried write can overwrite a newer one
//     to the same page: one lost acked block under the torn-log plan
//     with a partition on about one seed in 400 (973206041, 202373533).
//
// With it, cluster-repair runs naive beside Duet repair and adds the
// partition to the torn-log plan.
var knownDefects bool

// clusterPlans builds the three fault plans with seed-drawn kill times.
func clusterPlans(rng *rand.Rand) []namedPlan {
	w := clusterWindow
	at := func(frac float64) sim.Time { return sim.Time(float64(w) * frac * jitter(rng, 0.2)) }
	single := at(0.2)
	k1, k2 := at(0.2), at(0.25)
	torn := at(0.2)
	tornLog := namedPlan{"torn-log", faults.ClusterPlan{
		Kills:          []faults.KillEvent{{Node: 1, At: torn, RecoverAt: torn + w/4}},
		TornLogRate:    1.0,
		CorruptLogRate: 0.5,
		Disk: faults.Plan{
			TransientReadRate:  0.01,
			TransientWriteRate: 0.01,
			StallRate:          0.005,
			StallDelay:         2 * sim.Millisecond,
		},
	}}
	if knownDefects {
		tornLog.name = "torn-log+net"
		tornLog.plan.Partitions = []faults.Partition{{A: 2, B: 3, From: w / 15, To: 2 * w / 15}}
	}
	return []namedPlan{
		{"single-kill", faults.ClusterPlan{
			Kills: []faults.KillEvent{{Node: 1, At: single, RecoverAt: single + w/4}},
		}},
		{"double-kill", faults.ClusterPlan{
			Kills: []faults.KillEvent{
				{Node: 1, At: k1, RecoverAt: k1 + w/4},
				{Node: 2, At: k2, RecoverAt: k2 + w/4},
			},
		}},
		tornLog,
	}
}

func clusterRepairCells(seed int64) []cell {
	rng := rand.New(rand.NewSource(seed))
	modes := []cluster.RepairMode{cluster.RepairDuet}
	if knownDefects {
		modes = []cluster.RepairMode{cluster.RepairNaive, cluster.RepairDuet}
	}
	var out []cell
	for _, p := range clusterPlans(rng) {
		p.plan.Seed = uint64(seed)*0x9e3779b97f4a7c15 + 0xb5
		for _, mode := range modes {
			out = append(out, &clusterCell{plan: p.name, mode: mode, cfg: cluster.Config{
				Config: machine.Config{
					Seed:         machineSeed,
					DeviceBlocks: clusterDeviceBlocks,
					CachePages:   clusterCachePages,
				},
				Nodes:      clusterNodes,
				Replicas:   clusterReplicas,
				Shards:     clusterShards,
				ShardPages: clusterShardPages,
				Window:     clusterWindow,
				Mode:       mode,
				Plan:       p.plan,
			}})
		}
	}
	return out
}

func (c *clusterCell) label() string { return c.plan + "/" + c.mode.String() }

func (c *clusterCell) execute(o *obs.Obs, sp *spanLog) (phaseTimes, error) {
	var pt phaseTimes
	t0 := time.Now()
	cfg := c.cfg
	cfg.Obs = o
	cl, err := cluster.New(cfg)
	t1 := sp.since("machine.new", t0)
	pt.setup = t1.Sub(t0)
	if err != nil {
		return pt, err
	}
	c.c = cl
	cl.Eng.SetWorkers(domainWorkers)
	a0 := heapAllocs()
	err = cl.Eng.RunFor(cfg.Window)
	pt.runAlloc = heapAllocs() - a0
	pt.run = sp.since("engine.run", t1).Sub(t1)
	return pt, err
}

func (c *clusterCell) audit() error {
	c.stats, c.auditRep = c.c.Stats(), c.c.Audit()
	rep, st := c.auditRep, c.stats
	switch {
	case len(rep.NodeErrors) > 0:
		return fmt.Errorf("node failed to recover: %v", rep.NodeErrors[0])
	case rep.LostBlocks != 0:
		return fmt.Errorf("%d acked blocks lost", rep.LostBlocks)
	case rep.UnsyncedReplicas != 0 || rep.DeadNodes != 0:
		return fmt.Errorf("not re-replicated: %d unsynced replicas, %d dead nodes", rep.UnsyncedReplicas, rep.DeadNodes)
	case rep.MediumErrors != 0:
		return fmt.Errorf("%d medium checksum failures", rep.MediumErrors)
	case st.ConsistencyViolations != 0:
		return fmt.Errorf("%d stale primary reads", st.ConsistencyViolations)
	case st.ShardRepairs == 0:
		return fmt.Errorf("no shard was repaired")
	}
	return nil
}

func (c *clusterCell) result() cellResult {
	st, a := c.stats, c.auditRep
	var kills []int64
	for _, k := range c.cfg.Plan.Kills {
		kills = append(kills, int64(k.Node), int64(k.At), int64(k.RecoverAt))
	}
	r := cellResult{
		digest: digest(slices.Concat(kills, []int64{
			int64(c.c.Eng.Now()), st.WritesIssued, st.WritesAcked, st.WriteRejects, st.WriteFailures,
			st.ReadsIssued, st.ReadsOK, st.ReadFallbacks, st.ReadFailures, st.RPCRetries, st.RPCTimeouts,
			st.ConsistencyViolations, st.KillsDetected, st.ShardRepairs, st.DegradedUs, st.RepairWindowUs,
			st.Kills, st.Recoveries, st.RecordsAppended, st.RecordsReplayed, st.TornLogs, st.CorruptLogs,
			st.PagesShipped, st.RepairDiskReads, st.RepairCacheHits,
			a.LostBlocks, a.DivergentPages, a.UnsyncedReplicas, a.DeadNodes, a.MediumErrors,
		})...),
		simSeconds: c.c.Eng.Now().Seconds(),
		maintSum:   (sim.Time(c.stats.RepairWindowUs) * sim.Microsecond).Seconds(),
		maintN:     1,
	}
	if c.mode == cluster.RepairDuet {
		r.ioNum, r.ioDen = float64(c.stats.RepairCacheHits), float64(c.stats.PagesShipped)
	}
	return r
}

func (c *clusterCell) collect(r *obs.Registry) {
	c.c.CollectMetrics(r)
	var wait int64
	for _, n := range c.c.Nodes {
		// Node stacks keep their histograms in private registries.
		r.Merge(n.Stack().Obs.Metrics)
		wait += waitMicros(n.Stack().Disk)
	}
	r.SetCounter("storage.wait_us", wait)
}
