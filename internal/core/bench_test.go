package core

import (
	"testing"
	"time"

	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/sim"
)

// fullBufferConn establishes a two-subflow connection (1 Gbps + 100 Mbps,
// 1 ms each way) with fixed 512 KiB buffers, a server that reads
// everything as it arrives, and the client's send buffer filled to the
// brim. It returns the client connection and its simulator.
func fullBufferConn(tb testing.TB) (*Connection, *sim.Simulator) {
	tb.Helper()
	s := sim.New(1)
	n := netem.Build(s,
		netem.Symmetric("gbe", netem.Gbps(1), time.Millisecond, 0, 0),
		netem.Symmetric("fe", netem.Mbps(100), time.Millisecond, 0, 0))
	cfg := DefaultConfig()
	cfg.AutoTuneBuffers = false // hold the send buffer at its 512 KiB maximum
	readBuf := make([]byte, 64<<10)
	if _, err := NewManager(n.Server).Listen(80, cfg, func(c *Connection) {
		c.OnReadable = func() {
			for c.ReadInto(readBuf) > 0 {
			}
		}
	}); err != nil {
		tb.Fatal(err)
	}
	conn, err := NewManager(n.Client).Dial(n.Client.Interfaces()[0], packet.Endpoint{Addr: n.ServerAddr(0), Port: 80}, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	// Run past the join of the second subflow and through slow start.
	if err := s.RunUntil(500 * time.Millisecond); err != nil {
		tb.Fatal(err)
	}
	if !conn.Established() || len(conn.Subflows()) != 2 {
		tb.Fatalf("connection not up: established=%v subflows=%d", conn.Established(), len(conn.Subflows()))
	}
	fill := make([]byte, 64<<10)
	for conn.Write(fill) > 0 {
	}
	return conn, s
}

// writeMSS writes one MSS into a full send buffer: the simulation runs until
// DATA_ACKs have freed room for it, then Write copies it into the store.
func writeMSS(tb testing.TB, conn *Connection, s *sim.Simulator, payload []byte) {
	for conn.sendBufferSpace() < len(payload) {
		if !s.Step() {
			tb.Fatal("simulation ran dry with a full send buffer")
		}
	}
	if conn.Write(payload) != len(payload) {
		tb.Fatal("write rejected with room in the buffer")
	}
}

// BenchmarkConnectionWrite measures a closed-loop writer on a full 512 KiB
// connection send buffer: each op writes one MSS and runs the simulation
// until DATA_ACKs free the room for it, so it covers Write, mapping the
// bytes onto subflows (DSS checksum included), their transmission and the
// trim on DATA_ACK — every step whose cost once grew with the window.
func BenchmarkConnectionWrite(b *testing.B) {
	conn, s := fullBufferConn(b)
	payload := make([]byte, 1460)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		writeMSS(b, conn, s, payload)
	}
}
