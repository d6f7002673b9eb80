package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
)

// protoBuf is a minimal protobuf encoder for hand-built test profiles.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *protoBuf) bytes(field int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *protoBuf) msg(field int, fill func(*protoBuf)) {
	var m protoBuf
	fill(&m)
	p.bytes(field, m.b)
}

func (p *protoBuf) packed(field int, vs ...uint64) {
	var m []byte
	for _, v := range vs {
		m = binary.AppendUvarint(m, v)
	}
	p.bytes(field, m)
}

// handProfile builds a gzipped CPU profile with three samples:
//   - runtime.memmove called from buffer.(*ByteQueue).Append (30 ms),
//   - runtime.gcBgMarkWorker alone (10 ms),
//   - tcp frames with runtime.memmove inlined into them (20 ms, one
//     location with two lines, innermost first; the tcp sample's locations
//     are written unpacked to cover both encodings).
func handProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.memmove",
		"mptcpgo/internal/buffer.(*ByteQueue).Append",
		"runtime.gcBgMarkWorker",
		"mptcpgo/internal/tcp.(*Endpoint).transmit",
	}
	var p protoBuf
	p.msg(1, func(m *protoBuf) { m.varint(1, 1); m.varint(2, 2) })
	p.msg(1, func(m *protoBuf) { m.varint(1, 3); m.varint(2, 4) })
	p.msg(2, func(m *protoBuf) { m.packed(1, 1, 2); m.packed(2, 3, 30e6) })
	p.msg(2, func(m *protoBuf) { m.packed(1, 3); m.packed(2, 1, 10e6) })
	p.msg(2, func(m *protoBuf) { m.varint(1, 4); m.packed(2, 2, 20e6) })
	for id, fns := range map[uint64][]uint64{1: {1}, 2: {2}, 3: {3}, 4: {1, 4}} {
		id, fns := id, fns
		p.msg(4, func(m *protoBuf) {
			m.varint(1, id)
			for _, fn := range fns {
				fn := fn
				m.msg(4, func(l *protoBuf) { l.varint(1, fn); l.varint(2, 7) })
			}
		})
	}
	for id, name := range []uint64{5, 6, 7, 8} {
		id, name := id, name
		p.msg(5, func(m *protoBuf) { m.varint(1, uint64(id+1)); m.varint(2, name) })
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestLayerSharesHandBuiltProfile(t *testing.T) {
	p, err := parseProfile(handProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	shares, n := p.layerShares()
	if n != 6 {
		t.Fatalf("samples = %d, want 6", n)
	}
	want := map[string]float64{"buffer": 0.5, "runtime": 1.0 / 6, "tcp": 1.0 / 3}
	sum := 0.0
	for l, v := range shares {
		sum += v
		if math.Abs(v-want[l]) > 1e-9 {
			t.Errorf("%s share = %v, want %v", l, v, want[l])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

func TestFuncLayer(t *testing.T) {
	cases := map[string]string{
		"mptcpgo/internal/buffer.(*ByteQueue).Append":                          "buffer",
		"mptcpgo/internal/fleet.Run[go.shape.struct { mptcpgo/internal/x.y }]": "fleet",
		"mptcpgo.(*Network).Dial":                                              "facade",
		"main.(*bulkApp).verify":                                               "perfbench",
		"mptcpgo/internal/sched.(*Heap).Push":                                  "other",
		"mptcpgo/internal/faults.(*Checker).Fill.func1":                        "faults",
	}
	for name, want := range cases {
		if got, ok := funcLayer(name); !ok || got != want {
			t.Errorf("funcLayer(%q) = %q, %v; want %q", name, got, ok, want)
		}
	}
	for _, name := range []string{"runtime.memmove", "bytes.Equal", "mptcpgofoo/x.F"} {
		if got, ok := funcLayer(name); ok {
			t.Errorf("funcLayer(%q) = %q, want no module frame", name, got)
		}
	}
}

// TestParseRuntimeProfile reads a profile the Go runtime wrote itself.
func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	x := 0
	for i := 0; i < 20_000_000; i++ {
		x += i * i
	}
	pprof.StopCPUProfile()
	sink = x
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares, _ := p.layerShares()
	if len(shares) != len(profileLayers) {
		t.Fatalf("got %d layers, want %d", len(shares), len(profileLayers))
	}
}

var sink int
