package core

import (
	"testing"
	"time"

	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/pool"
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

// receiveRig is an established two-subflow connection whose server side is
// fed hand-built data segments. The server's interfaces transmit into a sink
// that releases every segment, so its ACKs never reach the client and the
// simulation need not run: each delivery exercises only the receive path —
// tcp.HandleSegment, the mapping lookup and DSS checksum, reassembly, the
// receive store — and the application's read.
type receiveRig struct {
	conn    *Connection // the server side
	subOff  [2]uint32   // next subflow-relative offset per subflow
	nextDSN uint64      // next data sequence number (relative)
	readBuf []byte
}

// releaseSink is a netem.Sender that drops everything it is given.
type releaseSink struct{}

func (releaseSink) Send(seg *packet.Segment) { seg.Release() }

func newReceiveRig(tb testing.TB) *receiveRig {
	tb.Helper()
	s := sim.New(1)
	n := netem.Build(s,
		netem.Symmetric("gbe", netem.Gbps(1), time.Millisecond, 0, 0),
		netem.Symmetric("fe", netem.Mbps(100), time.Millisecond, 0, 0))
	cfg := DefaultConfig()
	cfg.AutoTuneBuffers = false
	var srv *Connection
	if _, err := NewManager(n.Server).Listen(80, cfg, func(c *Connection) { srv = c }); err != nil {
		tb.Fatal(err)
	}
	if _, err := NewManager(n.Client).Dial(n.Client.Interfaces()[0], packet.Endpoint{Addr: n.ServerAddr(0), Port: 80}, cfg); err != nil {
		tb.Fatal(err)
	}
	if err := s.RunUntil(500 * time.Millisecond); err != nil {
		tb.Fatal(err)
	}
	if srv == nil || !srv.Established() || len(srv.subflows) != 2 {
		tb.Fatal("server connection not up with two subflows")
	}
	for _, ifc := range n.Server.Interfaces() {
		ifc.AttachSender(releaseSink{})
	}
	r := &receiveRig{conn: srv, nextDSN: srv.dataRcvNxt, readBuf: make([]byte, 64<<10)}
	for i := range r.subOff {
		r.subOff[i] = srv.subflows[i].ep.RelativeRcvNxt()
	}
	return r
}

// segment builds the next in-sequence data segment of subflow i carrying
// data sequence numbers [dsn, dsn+n) in a pool-owned payload buffer, as a
// sending peer would.
func (r *receiveRig) segment(i int, dsn uint64, n int) *packet.Segment {
	c, ep := r.conn, r.conn.subflows[i].ep
	seg := packet.NewSegment()
	seg.Src, seg.Dst = ep.RemoteEndpoint(), ep.LocalEndpoint()
	seg.Seq = ep.IRS().Add(1 + r.subOff[i])
	seg.Ack = ep.ISS().Add(1 + ep.RelativeSndUna())
	seg.Flags = packet.FlagACK | packet.FlagPSH
	seg.Window = 0xffff
	buf := pool.Bytes(n)
	for j := range buf {
		buf[j] = byte(dsn) + byte(j)
	}
	seg.AttachPayload(buf)
	dss := seg.AppendDSS()
	dss.HasMapping = true
	dss.DataSeq = c.remoteIDSN + 1 + packet.DataSeq(dsn)
	dss.SubflowOffset = r.subOff[i]
	dss.Length = uint16(n)
	if c.cfg.UseDSSChecksum {
		dss.HasChecksum = true
		dss.Checksum = packet.DSSChecksum(dss.DataSeq, dss.SubflowOffset, dss.Length, buf)
	}
	r.subOff[i] += uint32(n)
	return seg
}

// deliver hands seg to its subflow endpoint the way the host does.
func (r *receiveRig) deliver(i int, seg *packet.Segment) {
	ep := r.conn.subflows[i].ep
	ep.HandleSegment(ep.Interface(), seg)
	seg.Release()
}

// inOrder delivers one MSS in sequence on subflow 0 and reads it.
func (r *receiveRig) inOrder(tb testing.TB) {
	const mss = 1448
	r.deliver(0, r.segment(0, r.nextDSN, mss))
	r.nextDSN += mss
	if got := r.conn.ReadInto(r.readBuf); got != mss {
		tb.Fatalf("read %d bytes after an in-order segment, want %d", got, mss)
	}
}

// reordered delivers the second MSS first (on subflow 1, so it waits in the
// connection's out-of-order queue), then the first on subflow 0, and reads
// both.
func (r *receiveRig) reordered(tb testing.TB) {
	const mss = 1448
	r.deliver(1, r.segment(1, r.nextDSN+mss, mss))
	r.deliver(0, r.segment(0, r.nextDSN, mss))
	r.nextDSN += 2 * mss
	if got := r.conn.ReadInto(r.readBuf); got != 2*mss {
		tb.Fatalf("read %d bytes after filling the gap, want %d", got, 2*mss)
	}
}

// BenchmarkConnectionReceive measures the receive path of an established
// MPTCP connection per data segment: tcp.HandleSegment, the DSS mapping and
// checksum, reassembly into the receive store, the ACK it triggers and the
// application's read. "in-order" delivers and reads one MSS per op;
// "reordered" delivers an out-of-order MSS and then the one that fills the
// gap, and reads both.
func BenchmarkConnectionReceive(b *testing.B) {
	for _, bc := range []struct {
		name string
		op   func(*receiveRig, testing.TB)
		segs int
	}{
		{"in-order", (*receiveRig).inOrder, 1},
		{"reordered", (*receiveRig).reordered, 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := newReceiveRig(b)
			b.SetBytes(int64(1448 * bc.segs))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.op(r, b)
			}
		})
	}
}

// TestConnectionReceiveSteadyState guards the copy-once receive path: once
// warm, delivering and reading a data segment — in order, or out of order
// and then in order — allocates nothing, takes no pool buffer (the arriving
// segment's buffer is the receive store), and returns every segment buffer
// to the pool once the application has read it.
func TestConnectionReceiveSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(*receiveRig, testing.TB)
		segs int
	}{
		{"in-order", (*receiveRig).inOrder, 1},
		{"reordered", (*receiveRig).reordered, 2},
	} {
		r := newReceiveRig(t)
		for i := 0; i < 64; i++ {
			tc.op(r, t)
		}
		if avg := testing.AllocsPerRun(500, func() { tc.op(r, t) }); avg != 0 && !raceEnabled {
			t.Errorf("%s: receive cycle allocates %.2f allocs/op; want 0", tc.name, avg)
		}
		// Deliver prebuilt segments so the pool counters see only the
		// receive path.
		const ops = 100
		segs := make([]*packet.Segment, 0, ops*tc.segs)
		order := make([]int, 0, ops*tc.segs)
		for i := 0; i < ops; i++ {
			if tc.segs == 2 {
				segs = append(segs, r.segment(1, r.nextDSN+1448, 1448), r.segment(0, r.nextDSN, 1448))
				order = append(order, 1, 0)
			} else {
				segs = append(segs, r.segment(0, r.nextDSN, 1448))
				order = append(order, 0)
			}
			r.nextDSN += uint64(1448 * tc.segs)
		}
		before := pool.Stats()
		read := 0
		for i, seg := range segs {
			r.deliver(order[i], seg)
			read += r.conn.ReadInto(r.readBuf)
		}
		after := pool.Stats()
		if want := ops * tc.segs * 1448; read != want {
			t.Fatalf("%s: read %d bytes, want %d", tc.name, read, want)
		}
		if gets := (after.Gets + after.Misses) - (before.Gets + before.Misses); gets != 0 {
			t.Errorf("%s: receive path took %d pool buffers for %d segments; want 0", tc.name, gets, len(segs))
		}
		if puts := (after.Puts + after.Drops) - (before.Puts + before.Drops); puts != uint64(len(segs)) {
			t.Errorf("%s: %d buffers went back to the pool for %d segments read; want one each", tc.name, puts, len(segs))
		}
	}
}
