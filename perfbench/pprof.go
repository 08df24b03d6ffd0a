package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuSample is one stack of a CPU profile: the CPU time charged to it and
// its function names, innermost first (inlined frames included).
type cpuSample struct {
	ns     int64
	frames []string
}

// parseProfile decodes the subset of the gzipped pprof protobuf that
// attribution needs: samples, locations, functions and the string table.
func parseProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id → string index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.values = appendVarints(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errors.New("profile: sample without values")
		}
		cs := cpuSample{ns: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				idx := fnName[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("profile: string index %d out of range", idx)
				}
				cs.frames = append(cs.frames, strs[idx])
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// eachField calls fn for every field of a protobuf message: v holds a
// varint field's value, b a length-delimited field's bytes.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num := int(key >> 3)
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", key&7)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked (one
// value in v) or packed (all values in b).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// moduleOf maps a function name to the layer that owns it: the module of
// a repro/internal/<module> function, "bench" for the benchmark's own
// package (the seam wrappers), "" for anything else (runtime, standard
// library).
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		if i := strings.IndexByte(rest, '.'); i >= 0 {
			return rest[:i]
		}
		return rest
	}
	// The benchmark's package links as main, and as repro/perfbench in its
	// test binary.
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/perfbench.") {
		return "bench"
	}
	return ""
}

// selfModule is the attribution rule of the profile-based *.self_frac
// metrics: a sample belongs to the module of its innermost frame that is
// either repro/internal/<module> or the benchmark's own package, so time
// in the runtime or the standard library (allocation, map access, GC
// assists) is charged to the layer that called it, wrapper time is never
// charged to a layer, and stacks with neither (background GC, scheduler)
// are "other".
func selfModule(frames []string) string {
	for _, f := range frames {
		if m := moduleOf(f); m != "" {
			return m
		}
	}
	return "other"
}
