package main

import (
	"slices"
	"testing"
)

// TestKnownClusterDefects checks that --known-defects still reproduces
// the two cluster-tier defects that keep its cells out of the default
// workload (see knownDefects), and that the default cells pass on the
// same seeds. Once the defective cells pass, the defects are fixed: make
// those cells the default and drop the flag.
func TestKnownClusterDefects(t *testing.T) {
	defer func(v bool) { knownDefects = v }(knownDefects)
	for _, c := range []struct {
		seed   int64
		failed []string
	}{
		{3, []string{"single-kill/naive"}},
		{973206041, []string{"torn-log+net/naive", "torn-log+net/duet"}},
	} {
		for _, kd := range []bool{false, true} {
			knownDefects = kd
			var failed []string
			for _, cl := range clusterRepairCells(c.seed) {
				if _, err := cl.execute(nil, nil); err != nil {
					t.Fatalf("seed %d %s: %v", c.seed, cl.label(), err)
				}
				if cl.audit() != nil {
					failed = append(failed, cl.label())
				}
			}
			var want []string
			if kd {
				want = c.failed
			}
			if !slices.Equal(failed, want) {
				t.Errorf("seed %d, known defects %v: cells failing the audit %v, want %v", c.seed, kd, failed, want)
			}
		}
	}
}
