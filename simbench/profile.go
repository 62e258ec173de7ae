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

// cpuShares attributes CPU profile samples to the simulator's modules.
// A sample taken in the benchmark's own code (output checks, digests:
// a main.* frame and no call into the program below it) goes to
// "bench". Any other sample goes to its innermost
// repro/internal/<module> frame (inlined frames included); one with no
// such frame goes to "runtime.gc" when any frame is garbage-collector
// work and to "runtime.sched" otherwise: goroutine switches, the
// scheduler and allocator paths reached without a simulator frame.
type cpuShares struct {
	samples map[string]int64
	total   int64
}

const reproPrefix = "repro/internal/"

// entryPoints are the program calls the benchmark times.
var entryPoints = map[string]bool{
	reproPrefix + "core.New":           true,
	reproPrefix + "core.(*Engine).Run": true,
	reproPrefix + "pattern.Generate":   true,
}

// gcFrames mark a stack as garbage-collector work.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.markroot", "runtime.gcAssistAlloc",
	"runtime.gcMarkTermination", "runtime.gcStart", "runtime.GC",
}

// add decodes one gzipped profile.proto CPU profile and accumulates
// its samples.
func (s *cpuShares) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	if s.samples == nil {
		s.samples = map[string]int64{}
	}
	for _, smp := range p.samples {
		if len(smp.values) == 0 {
			continue
		}
		n := smp.values[0]
		s.samples[p.classify(smp.locs)] += n
		s.total += n
	}
	return nil
}

// share is the fraction of the simulator's samples (everything except
// the benchmark's own code) charged to bucket.
func (s *cpuShares) share(bucket string) float64 {
	den := s.total - s.samples["bench"]
	if den <= 0 {
		return 0
	}
	return float64(s.samples[bucket]) / float64(den)
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples []profSample
	// locFuncs maps a location id to its function names, innermost
	// (inlined) frame first.
	locFuncs map[uint64][]string
}

func (p *profile) classify(locs []uint64) string {
	var module string
	var gc, bench, program bool
	for _, id := range locs {
		for _, fn := range p.locFuncs[id] {
			if rest, ok := strings.CutPrefix(fn, reproPrefix); ok && module == "" {
				module = rest
				if i := strings.IndexAny(rest, "./"); i > 0 {
					module = rest[:i]
				}
			}
			program = program || entryPoints[fn]
			bench = bench || strings.HasPrefix(fn, "main.")
			for _, g := range gcFrames {
				gc = gc || strings.HasPrefix(fn, g)
			}
		}
	}
	switch {
	case bench && !program:
		return "bench"
	case module != "":
		return module
	case gc:
		return "runtime.gc"
	}
	return "runtime.sched"
}

// decodeProfile reads the subset of profile.proto that attribution
// needs: samples (field 2), locations (4), functions (5) and the
// string table (6).
func decodeProfile(b []byte) (*profile, error) {
	var (
		samples   []profSample
		locLines  = map[uint64][]uint64{} // location id -> function ids
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		switch {
		case num == 2 && wire == 2:
			var smp profSample
			err := eachField(sub, func(num, wire int, v uint64, sub []byte) error {
				switch num {
				case 1:
					return appendVarints(&smp.locs, wire, v, sub)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, wire, v, sub); err != nil {
						return err
					}
					for _, x := range vs {
						smp.values = append(smp.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, smp)
			return err
		case num == 4 && wire == 2:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(num, wire int, v uint64, sub []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 4 && wire == 2:
					return eachField(sub, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 && wire == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case num == 5 && wire == 2:
			var id uint64
			var name int64
			err := eachField(sub, func(num, wire int, v uint64, _ []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 2 && wire == 0:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case num == 6 && wire == 2:
			strs = append(strs, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{samples: samples, locFuncs: make(map[uint64][]string, len(locLines))}
	for id, fns := range locLines {
		names := make([]string, 0, len(fns))
		for _, f := range fns {
			if i := funcNames[f]; i >= 0 && i < int64(len(strs)) {
				names = append(names, strs[i])
			}
		}
		p.locFuncs[id] = names
	}
	return p, nil
}

var errProto = errors.New("malformed protobuf")

// eachField walks the fields of one protobuf message. For varint
// fields (wire type 0) v holds the value; for length-delimited fields
// (wire type 2) sub holds the payload. Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return errProto
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, sub []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errProto
		}
		*dst = append(*dst, x)
		sub = sub[n:]
	}
	return nil
}
