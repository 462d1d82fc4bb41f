package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile (runtime/pprof) is a gzipped profile.proto message. The
// reader below decodes only the fields bucketing needs: sample types,
// samples, locations, functions and the string table.

const internalPrefix = "duet/internal/"

// layerOf names the bucket a stack is charged to: the package of its
// innermost duet/internal frame ("tasks" for every tasks/* package), or,
// for stacks with no such frame, runtime.gc when any frame belongs to the
// collector and runtime.sched otherwise. Frames are leaf first.
func layerOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			if i := strings.IndexAny(rest, "/."); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	for _, f := range frames {
		if isGCFrame(f) {
			return "runtime.gc"
		}
	}
	return "runtime.sched"
}

var gcFramePrefixes = []string{
	"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
	"runtime.scanstack", "runtime.greyobject", "runtime.bgsweep", "runtime.sweepone",
	"runtime.bgscavenge", "runtime.(*gcWork)", "runtime.(*gcControllerState)",
	"runtime.(*mspan).sweep", "runtime.(*sweepLocked)",
}

func isGCFrame(f string) bool {
	for _, p := range gcFramePrefixes {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

// cpuByLayer decodes a gzipped CPU profile and sums its CPU time, in
// seconds, per layerOf bucket.
func cpuByLayer(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	cpu := -1
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	var frames []string
	for _, s := range p.samples {
		frames = frames[:0]
		for _, id := range s.locs {
			for _, fn := range p.locations[id] {
				frames = append(frames, p.str(p.functions[fn]))
			}
		}
		if cpu < len(s.values) {
			out[layerOf(frames)] += float64(s.values[cpu]) / 1e9
		}
	}
	return out, nil
}

type profile struct {
	sampleTypes []int64 // string index of each ValueType's type
	samples     []sample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]int64    // function id -> string index of its name
	strings     []string
}

type sample struct {
	locs   []uint64
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileString     = 6
	fSampleLocation    = 1
	fSampleValue       = 2
	fLocationID        = 1
	fLocationLine      = 4
	fLineFunction      = 1
	fFunctionID        = 1
	fFunctionName      = 2
	fValueTypeType     = 1
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case fProfileSampleType:
			var t int64
			err := eachField(data, func(n int, v uint64, _ []byte) error {
				if n == fValueTypeType {
					t = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, t)
			return err
		case fProfileSample:
			var s sample
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case fSampleLocation:
					return appendVarints(&s.locs, v, d)
				case fSampleValue:
					var vals []uint64
					if err := appendVarints(&vals, v, d); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(d, func(n int, v uint64, _ []byte) error {
						if n == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fProfileString:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped; profile.proto uses none that matter.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field that arrives either as
// one value (v) or packed (data).
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
