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

// modulePath is the import path prefix whose packages count as layers.
const modulePath = "mptcpgo"

// profileLayers lists every bucket a CPU sample can be charged to, in report
// order: the repository's internal packages, the root facade, this
// benchmark's own code, the Go runtime (stacks without a module frame) and
// other (module packages outside this list).
var profileLayers = []string{
	"sim", "netem", "packet", "tcp", "cc", "core", "buffer", "pool",
	"httpsim", "workload", "capacity", "faults", "middlebox", "fleet",
	"experiments", "telemetry", "probe", "trace", "facade", "perfbench",
	"runtime", "other",
}

// cpuProfile is the subset of a pprof profile.proto that module attribution
// needs: samples as leaf-first location lists, locations as inner-first
// function lists, and function names.
type cpuProfile struct {
	valueIndex int // index of the cpu/nanoseconds value in every sample
	samples    []profSample
	locations  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames  map[uint64]int64    // function id -> string table index
	strs       []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes a gzipped (or raw) profile.proto as written by
// runtime/pprof.
func parseProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: gunzip: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("profile: gunzip: %w", err)
		}
		data = raw
	}
	p := &cpuProfile{locations: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	var sampleTypes [][2]int64
	err := walkFields(data, func(field int, wire int, v uint64, b []byte) error {
		switch {
		case field == 1 && wire == 2: // sample_type
			var vt [2]int64
			err := walkFields(b, func(f, w int, v uint64, _ []byte) error {
				if w == 0 && (f == 1 || f == 2) {
					vt[f-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, vt)
			return err
		case field == 2 && wire == 2: // sample
			var s profSample
			err := walkFields(b, func(f, w int, v uint64, pb []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, pb)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, pb); err != nil {
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
		case field == 4 && wire == 2: // location
			var id uint64
			var funcs []uint64
			err := walkFields(b, func(f, w int, v uint64, lb []byte) error {
				switch {
				case f == 1 && w == 0:
					id = v
				case f == 4 && w == 2: // line
					return walkFields(lb, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 && lw == 0 {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = funcs
			return err
		case field == 5 && wire == 2: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f, w int, v uint64, _ []byte) error {
				if w == 0 && f == 1 {
					id = v
				}
				if w == 0 && f == 2 {
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case field == 6 && wire == 2: // string_table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.valueIndex = len(sampleTypes) - 1
	for i, vt := range sampleTypes {
		if p.str(vt[0]) == "cpu" {
			p.valueIndex = i
		}
	}
	if p.valueIndex < 0 {
		return nil, errors.New("profile: no sample types")
	}
	return p, nil
}

func (p *cpuProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// layerShares charges every sample's CPU time to the innermost frame on its
// stack that belongs to a module package (so runtime.memmove under
// buffer.(*ByteQueue).Append counts as buffer) and returns each layer's
// share of the total, plus the number of profiler samples (the first value
// of every sample is its count). Stacks with no module
// frame count as runtime. The shares of all layers sum to 1.
func (p *cpuProfile) layerShares() (map[string]float64, int) {
	sums := make(map[string]float64, len(profileLayers))
	for _, l := range profileLayers {
		sums[l] = 0
	}
	var total float64
	count := 0
	for _, s := range p.samples {
		if p.valueIndex >= len(s.values) {
			continue
		}
		v := float64(s.values[p.valueIndex])
		sums[p.sampleLayer(s)] += v
		total += v
		count += int(s.values[0])
	}
	if total > 0 {
		for l := range sums {
			sums[l] /= total
		}
	}
	return sums, count
}

func (p *cpuProfile) sampleLayer(s profSample) string {
	for _, loc := range s.locs {
		for _, fn := range p.locations[loc] {
			if l, ok := funcLayer(p.str(p.funcNames[fn])); ok {
				return l
			}
		}
	}
	return "runtime"
}

// funcLayer maps a symbol name to its layer; ok is false for frames outside
// the module. The benchmark's own package is main in the binary.
func funcLayer(name string) (string, bool) {
	pkg := funcPackage(name)
	switch {
	case pkg == "main":
		return "perfbench", true
	case pkg == modulePath:
		return "facade", true
	case !strings.HasPrefix(pkg, modulePath+"/"):
		return "", false
	}
	rest := strings.TrimPrefix(pkg, modulePath+"/")
	if inner, ok := strings.CutPrefix(rest, "internal/"); ok {
		inner, _, _ = strings.Cut(inner, "/")
		for _, l := range profileLayers {
			if l == inner {
				return l, true
			}
		}
	}
	if rest == "perfbench" {
		return "perfbench", true
	}
	return "other", true
}

// funcPackage returns the import path of a symbol such as
// "mptcpgo/internal/buffer.(*ByteQueue).Append". Type arguments are cut
// first because they may contain slashes and dots of their own.
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// walkFields calls fn for every top-level field of a protobuf message: the
// varint value for wire type 0, the bytes for wire type 2 and the raw
// little-endian value for fixed-width types.
func walkFields(b []byte, fn func(field, wire int, v uint64, bytes []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends one repeated-varint field occurrence, packed (wire
// type 2) or not (wire type 0).
func appendVarints(dst *[]uint64, wire int, v uint64, packed []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}
