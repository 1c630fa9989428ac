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

// cpuLayers are the program packages whose CPU share the traced run
// reports; see attribute for how a sample is charged.
var cpuLayers = []string{
	"sim", "cpu", "kernel", "mpi", "netsim", "perturb", "smm",
	"obs", "durable", "serve", "scenario", "report", "runner",
}

const firstParty = "smistudy/internal/"

// chargeStack names the layer a CPU sample is charged to. frames are
// function names, leaf first. The first smistudy/internal/<pkg> frame
// wins: a listed layer is charged by name, any other internal package
// goes to "other". A stack without such a frame goes to "bench" when the
// benchmark's own code is on it and to "runtime" otherwise, so GC and
// allocation work lands on the layer whose call caused it.
func chargeStack(frames []string) string {
	bench := false
	for _, fn := range frames {
		if pkg, ok := strings.CutPrefix(fn, firstParty); ok {
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, l := range cpuLayers {
				if l == pkg {
					return pkg
				}
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") {
			bench = true
		}
	}
	if bench {
		return "bench"
	}
	return "runtime"
}

// cpuShares decodes a runtime/pprof CPU profile and returns each
// charged layer's share of sampled CPU time.
func cpuShares(profile []byte) (map[string]float64, error) {
	stacks, err := decodeProfile(profile)
	if err != nil {
		return nil, err
	}
	byLayer := map[string]float64{}
	var total float64
	for _, s := range stacks {
		byLayer[chargeStack(s.frames)] += s.weight
		total += s.weight
	}
	if total > 0 {
		for k := range byLayer {
			byLayer[k] /= total
		}
	}
	return byLayer, nil
}

// stack is one decoded profile sample: its function names, leaf first,
// and its weight (CPU nanoseconds when recorded, else sample count).
type stack struct {
	frames []string
	weight float64
}

// decodeProfile parses the gzip-compressed profile.proto encoding that
// runtime/pprof writes, keeping only what attribution needs: samples,
// locations, functions and the string table.
func decodeProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string index
		strs      []string
		nTypes    int
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			nTypes++
		case 2: // sample
			var s sample
			if err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, wire, v, b)
				case 2:
					for _, x := range appendPacked(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// CPU profiles record [samples/count, cpu/nanoseconds]; weigh by
	// the last value type.
	vi := nTypes - 1
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if vi < 0 || vi >= len(s.values) {
			continue
		}
		st := stack{weight: float64(s.values[vi])}
		for _, l := range s.locs {
			for _, fid := range locFuncs[l] {
				if i := funcNames[fid]; i >= 0 && int(i) < len(strs) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// appendPacked appends a repeated varint field's values, whether the
// encoder packed them (wire type 2) or not.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("pprof: malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			if err := fn(num, wire, binary.LittleEndian.Uint64(b), nil); err != nil {
				return err
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			if err := fn(num, wire, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			if err := fn(num, wire, uint64(binary.LittleEndian.Uint32(b)), nil); err != nil {
				return err
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}
