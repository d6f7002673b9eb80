package buffer

import (
	"bytes"
	"encoding/binary"
	"testing"

	"mptcpgo/internal/pool"
)

// handOver returns a pool buffer holding p at byte offset at, as an arriving
// segment's payload would (at > 0 models a payload whose already-delivered
// head was trimmed off), and the data slice inside it.
func handOver(p []byte, at int) (data, buf []byte) {
	buf = pool.Bytes(at + len(p))
	copy(buf[at:], p)
	return buf[at:], buf
}

func TestRecvQueueHandOverAndCopy(t *testing.T) {
	before := pool.Stats()
	var q RecvQueue
	stream := pattern(0, 3000)
	data, buf := handOver(stream[:1448], 0)
	q.Push(data, buf) // queued in place
	q.Append(stream[1448:1500])
	q.Push(stream[1500:1600], nil) // no buffer of its own: copied
	data, buf = handOver(stream[1600:3000], 52)
	q.Push(data, buf)
	if q.Len() != 3000 || q.Buffers() != 3 {
		t.Fatalf("len=%d buffers=%d, want 3000 bytes in 3 buffers (the two copies share one block)", q.Len(), q.Buffers())
	}
	if data[0] != stream[1600] {
		t.Fatal("a handed-over buffer was written to")
	}
	got := make([]byte, 0, 3000)
	for _, n := range []int{1000, 448, 1, 151, 1400} {
		p := make([]byte, n)
		if m := q.Read(p); m != n {
			t.Fatalf("Read(%d) = %d", n, m)
		}
		got = append(got, p...)
	}
	if !bytes.Equal(got, stream) {
		t.Fatal("read bytes differ from the stream")
	}
	if q.Len() != 0 || q.Buffers() != 0 {
		t.Fatalf("drained queue: len=%d buffers=%d", q.Len(), q.Buffers())
	}
	if b := poolBalance(before); b != 0 {
		t.Fatalf("%d pool buffers not returned after reading everything", b)
	}
}

func TestRecvQueueResetReleases(t *testing.T) {
	before := pool.Stats()
	var q RecvQueue
	for i := 0; i < 100; i++ {
		data, buf := handOver(pattern(uint64(i)*1448, 1448), 0)
		q.Push(data, buf)
		q.Append(pattern(0, 100))
	}
	q.Read(make([]byte, 5000))
	q.Reset()
	if q.Len() != 0 || q.Buffers() != 0 {
		t.Fatalf("reset queue: len=%d buffers=%d", q.Len(), q.Buffers())
	}
	if b := poolBalance(before); b != 0 {
		t.Fatalf("%d pool buffers not returned by Reset", b)
	}
	// An empty handed-over payload is recycled at once.
	_, buf := handOver(nil, 0)
	q.Push(buf[:0], buf)
	if q.Buffers() != 0 || poolBalance(before) != 0 {
		t.Fatal("an empty handed-over payload was kept")
	}
}

// FuzzRecvQueue runs random sequences of handed-over pushes, copied pushes,
// partial reads, pops and resets against a flat []byte model of the unread
// bytes, then checks that a final Reset returns every buffer to the pool.
func FuzzRecvQueue(f *testing.F) {
	f.Add([]byte{0, 0xa8, 0x05, 1, 0x40, 0x00, 3, 0x00, 0x03, 0, 0x10, 0x00, 3, 0xff, 0xff})
	f.Add([]byte{2, 0x00, 0x01, 1, 0xff, 0x07, 0, 0x00, 0x02, 4, 0x00, 0x00, 5, 0x30, 0x00})
	f.Fuzz(func(t *testing.T, ops []byte) {
		before := pool.Stats()
		var q RecvQueue
		var model []byte
		var next uint64 // stream offset of the next byte pushed
		for steps := 0; len(ops) >= 3 && steps < 256; steps++ {
			op, arg := ops[0]%6, int(binary.LittleEndian.Uint16(ops[1:3]))
			ops = ops[3:]
			switch op {
			case 0, 1, 2: // push: handed over (at an offset), appended, or without a buffer
				if len(model) >= 128<<10 {
					break
				}
				p := pattern(next, arg%(2*blockSize))
				next += uint64(len(p))
				switch op {
				case 0:
					q.Push(handOver(p, arg%61))
				case 1:
					q.Append(p)
				case 2:
					q.Push(p, nil)
				}
				model = append(model, p...)
			case 3: // partial read
				dst := make([]byte, arg%(3*blockSize))
				n := q.Read(dst)
				if want := min(len(dst), len(model)); n != want || !bytes.Equal(dst[:n], model[:n]) {
					t.Fatalf("Read(%d) = %d bytes, want %d matching the model", len(dst), n, want)
				}
				model = model[n:]
			case 4: // pop
				got := q.Pop(arg % (3 * blockSize))
				if !bytes.Equal(got, model[:len(got)]) || len(got) != min(arg%(3*blockSize), len(model)) {
					t.Fatalf("Pop(%d) returned %d bytes, mismatch", arg%(3*blockSize), len(got))
				}
				model = model[len(got):]
			case 5: // reset
				q.Reset()
				model = model[:0]
			}
			if q.Len() != len(model) {
				t.Fatalf("len=%d, model holds %d", q.Len(), len(model))
			}
			if (q.Len() == 0) != (q.Buffers() == 0) {
				t.Fatalf("len=%d held in %d buffers", q.Len(), q.Buffers())
			}
		}
		q.Reset()
		if b := poolBalance(before); b != 0 {
			t.Fatalf("%d pool buffers not returned after Reset", b)
		}
	})
}
