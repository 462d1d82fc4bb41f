package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pbuf encodes just enough protobuf to write synthetic profiles.
type pbuf []byte

func (b *pbuf) key(field, wire int) { *b = binary.AppendUvarint(*b, uint64(field<<3|wire)) }

func (b *pbuf) varint(field int, v uint64) {
	b.key(field, 0)
	*b = binary.AppendUvarint(*b, v)
}

func (b *pbuf) msg(field int, data []byte) {
	b.key(field, 2)
	*b = binary.AppendUvarint(*b, uint64(len(data)))
	*b = append(*b, data...)
}

func (b *pbuf) packed(field int, vs ...uint64) {
	var d pbuf
	for _, v := range vs {
		d = binary.AppendUvarint(d, v)
	}
	b.msg(field, d)
}

// synthProfile builds a gzipped CPU profile. Each stack lists location
// ids leaf first; each location lists function names innermost first
// (several names make an inlined location).
func synthProfile(t *testing.T, locs map[uint64][]string, samples [][]uint64, nanos []int64, packed bool) []byte {
	t.Helper()
	var p pbuf
	strs := []string{""}
	intern := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m pbuf
		m.varint(fValueTypeType, intern(vt[0]))
		m.varint(2, intern(vt[1]))
		p.msg(fProfileSampleType, m)
	}
	for i, st := range samples {
		var m pbuf
		if packed {
			m.packed(fSampleLocation, st...)
			m.packed(fSampleValue, 1, uint64(nanos[i]))
		} else {
			for _, id := range st {
				m.varint(fSampleLocation, id)
			}
			m.varint(fSampleValue, 1)
			m.varint(fSampleValue, uint64(nanos[i]))
		}
		p.msg(fProfileSample, m)
	}
	fnID := uint64(0)
	for id := uint64(1); id <= uint64(len(locs)); id++ {
		var loc pbuf
		loc.varint(fLocationID, id)
		for _, name := range locs[id] {
			fnID++
			var fn pbuf
			fn.varint(fFunctionID, fnID)
			fn.varint(fFunctionName, intern(name))
			p.msg(fProfileFunction, fn)
			var line pbuf
			line.varint(fLineFunction, fnID)
			line.varint(2, 42)
			loc.msg(fLocationLine, line)
		}
		p.msg(fProfileLocation, loc)
	}
	for _, s := range strs {
		p.msg(fProfileString, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestCPUByLayerSynthetic(t *testing.T) {
	locs := map[uint64][]string{
		1: {"runtime.mallocgc"},
		2: {"duet/internal/pagecache.(*Cache).makeRoom"},
		3: {"duet/internal/sim.runProc"},
		4: {"runtime.chanrecv1"},
		5: {"duet/internal/sim.(*Proc).park"},
		6: {"duet/internal/tasks/scrub.(*Scrubber).Run"},
		// rbtree inlined into lfs: the innermost line wins.
		7:  {"duet/internal/rbtree.(*Tree).Insert", "duet/internal/lfs.(*FS).Write"},
		8:  {"runtime.scanobject"},
		9:  {"runtime.gcDrain"},
		10: {"runtime.gcBgMarkWorker"},
		11: {"runtime.findRunnable"},
		12: {"runtime.schedule"},
		13: {"duet/internal/tasks/gcduet.(*Tracker).Cost"},
		14: {"duet/internal/sim.(*Port[go.shape.struct { Kind uint8 }]).Send"},
		15: {"duet/perfbench.main"},
	}
	samples := [][]uint64{
		{1, 2, 3},  // malloc under pagecache: pagecache
		{4, 5, 6},  // a proc parking inside a task: sim
		{7, 3},     // inlined rbtree: rbtree
		{8, 9, 10}, // background marking: runtime.gc
		{11, 12},   // scheduler: runtime.sched
		{13, 3},    // tasks/* folds into tasks
		{14},       // generic method: sim
		{1, 15},    // no internal frame, no GC frame: runtime.sched
	}
	nanos := []int64{10e6, 20e6, 5e6, 7e6, 3e6, 1e6, 2e6, 4e6}
	want := map[string]float64{
		"pagecache": 0.010, "sim": 0.022, "rbtree": 0.005, "runtime.gc": 0.007,
		"runtime.sched": 0.007, "tasks": 0.001,
	}
	for _, packed := range []bool{false, true} {
		got, err := cpuByLayer(synthProfile(t, locs, samples, nanos, packed))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Errorf("packed=%v: buckets %v, want %v", packed, got, want)
		}
		for k, v := range want {
			if math.Abs(got[k]-v) > 1e-12 {
				t.Errorf("packed=%v: %s = %v, want %v", packed, k, got[k], v)
			}
		}
	}
}

func TestCPUByLayerRejectsTruncated(t *testing.T) {
	p := synthProfile(t, map[uint64][]string{1: {"f"}}, [][]uint64{{1}}, []int64{1}, true)
	raw, err := gzip.NewReader(bytes.NewReader(p))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(raw); err != nil {
		t.Fatal(err)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(buf.Bytes()[:buf.Len()-2])
	zw.Close()
	if _, err := cpuByLayer(gz.Bytes()); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}

var spinSink uint64

// TestCPUByLayerRuntimeProfile decodes a profile the Go runtime wrote.
func TestCPUByLayerRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			spinSink = spinSink*6364136223846793005 + 1
		}
	}
	pprof.StopCPUProfile()
	got, err := cpuByLayer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range got {
		total += v
	}
	if total <= 0 || got["runtime.sched"] <= 0 {
		t.Fatalf("spin loop not charged to runtime.sched: %v", got)
	}
}
