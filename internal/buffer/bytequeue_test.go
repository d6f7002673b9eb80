package buffer

import (
	"bytes"
	"encoding/binary"
	"testing"

	"mptcpgo/internal/pool"
)

// pattern returns n bytes whose values depend on their absolute stream
// offset, so any misplaced block shows up as a content mismatch.
func pattern(off uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		o := off + uint64(i)
		b[i] = byte(o*131 + o>>8)
	}
	return b
}

// poolBalance returns how many pool buffers have been taken but not handed
// back since the given snapshot (Recycle calls that the pool dropped count
// as handed back: the queue released them).
func poolBalance(since pool.Counters) int64 {
	now := pool.Stats()
	taken := (now.Gets - since.Gets) + (now.Misses - since.Misses)
	returned := (now.Puts - since.Puts) + (now.Drops - since.Drops)
	return int64(taken) - int64(returned)
}

func TestByteQueueStraddlingReads(t *testing.T) {
	const base = 1000
	q := NewByteQueue(base)
	data := pattern(base, 3*blockSize+123)
	// Append in odd-sized pieces so block edges fall mid-piece.
	for rest := data; len(rest) > 0; {
		n := min(len(rest), 777)
		q.Append(rest[:n])
		rest = rest[n:]
	}
	if q.Len() != len(data) || q.Blocks() != 4 {
		t.Fatalf("len=%d blocks=%d, want %d and 4", q.Len(), q.Blocks(), len(data))
	}
	for _, tc := range []struct{ off, n int }{
		{0, 1}, {blockSize - 1, 2}, {blockSize - 3, 7}, {blockSize, 1},
		{1, 2*blockSize + 1}, {blockSize + 5, blockSize + 11}, {0, len(data)},
		{len(data) - 1, 1}, {len(data) - 5, 100}, // clipped at the tail
	} {
		want := data[tc.off:min(len(data), tc.off+tc.n)]
		if got := q.Peek(base+uint64(tc.off), tc.n); !bytes.Equal(got, want) {
			t.Fatalf("Peek(%d,%d) mismatch", tc.off, tc.n)
		}
		dst := make([]byte, tc.n)
		if got := q.CopyTo(dst, base+uint64(tc.off)); got != len(want) || !bytes.Equal(dst[:got], want) {
			t.Fatalf("CopyTo(%d,%d) copied %d bytes, mismatch", tc.off, tc.n, got)
		}
		var joined []byte
		for _, p := range q.Slices(nil, base+uint64(tc.off), tc.n) {
			joined = append(joined, p...)
		}
		if !bytes.Equal(joined, want) {
			t.Fatalf("Slices(%d,%d) mismatch", tc.off, tc.n)
		}
	}
	if q.CopyTo(make([]byte, 4), base-1) != 0 || q.Slices(nil, q.TailOffset(), 4) != nil {
		t.Fatal("out-of-range CopyTo/Slices must read nothing")
	}
}

func TestByteQueueTrimMidBlockAndReset(t *testing.T) {
	before := pool.Stats()
	q := NewByteQueue(0)
	data := pattern(0, 5*blockSize)
	q.Append(data)
	// Trim to the middle of the second block: the head block goes back to
	// the pool, the rest stays readable in place.
	q.TrimTo(blockSize + 300)
	if q.HeadOffset() != blockSize+300 || q.Len() != len(data)-blockSize-300 {
		t.Fatalf("after trim head=%d len=%d", q.HeadOffset(), q.Len())
	}
	if q.Blocks() != 4 {
		t.Fatalf("blocks=%d, want 4", q.Blocks())
	}
	got := q.Pop(blockSize)
	if !bytes.Equal(got, data[blockSize+300:2*blockSize+300]) {
		t.Fatal("Pop across a block edge returned wrong bytes")
	}
	// Appending after a trim must continue the stream seamlessly.
	more := pattern(uint64(len(data)), blockSize+17)
	q.Append(more)
	all := append(append([]byte(nil), data...), more...)
	head := q.HeadOffset()
	if got := q.Peek(head, q.Len()); !bytes.Equal(got, all[head:]) {
		t.Fatal("stream mismatch after trim + append")
	}
	q.Reset(42)
	if q.Len() != 0 || q.Blocks() != 0 || q.HeadOffset() != 42 || q.TailOffset() != 42 {
		t.Fatalf("after Reset: len=%d blocks=%d head=%d", q.Len(), q.Blocks(), q.HeadOffset())
	}
	if b := poolBalance(before); b != 0 {
		t.Fatalf("%d pool blocks not returned after Reset", b)
	}
}

// TestByteQueueDrainReturnsBlocks checks through pool.Stats that trimming a
// queue to empty — the teardown path of every store — hands back every
// block it took.
func TestByteQueueDrainReturnsBlocks(t *testing.T) {
	before := pool.Stats()
	q := NewByteQueue(0)
	chunk := pattern(0, 1460)
	for i := 0; i < 200; i++ {
		q.Append(chunk)
		if i%3 == 2 {
			q.TrimTo(q.HeadOffset() + 2000)
		}
	}
	if poolBalance(before) == 0 {
		t.Fatal("a non-empty queue must hold blocks")
	}
	q.TrimTo(q.TailOffset())
	if q.Blocks() != 0 {
		t.Fatalf("empty queue holds %d blocks", q.Blocks())
	}
	if b := poolBalance(before); b != 0 {
		t.Fatalf("%d pool blocks not returned after draining", b)
	}
}

// fullWindowQueue returns a queue holding a full 512 KiB window, cycled
// until its ring has settled, and an MSS-sized segment.
func fullWindowQueue() (*ByteQueue, []byte) {
	const window, mss = 512 << 10, 1460
	q := NewByteQueue(0)
	q.Append(make([]byte, window))
	seg := make([]byte, mss)
	for i := 0; i < 2*window/mss; i++ {
		q.Append(seg)
		q.TrimTo(q.HeadOffset() + mss)
	}
	return q, seg
}

// BenchmarkByteQueueFullWindow measures the send-store cycle of a
// closed-loop writer: a 512 KiB window kept full, one MSS appended and one
// MSS trimmed per op.
func BenchmarkByteQueueFullWindow(b *testing.B) {
	q, seg := fullWindowQueue()
	b.SetBytes(int64(len(seg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Append(seg)
		q.TrimTo(q.HeadOffset() + uint64(len(seg)))
	}
}

// FuzzByteQueue runs random Append/Peek/CopyTo/Slices/TrimTo/Reset
// sequences against a flat []byte model of the stream and checks every read
// and every offset, then that draining returns every block to the pool.
func FuzzByteQueue(f *testing.F) {
	f.Add([]byte{0, 0x40, 0x10, 1, 0x05, 0x30, 2, 0x80, 0x00, 3, 0x07, 0x01})
	f.Add([]byte{0, 0xff, 0xff, 0, 0xff, 0xff, 4, 0x08, 0x01, 2, 0x00, 0x09, 5, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		before := pool.Stats()
		q := NewByteQueue(7)
		head := uint64(7)
		var model []byte // model[i] is the byte at offset head+i
		// Bound the work per input: long inputs of appends would otherwise
		// grow the model without limit.
		for steps := 0; len(ops) >= 3 && steps < 256; steps++ {
			op, arg := ops[0]%6, int(binary.LittleEndian.Uint16(ops[1:3]))
			ops = ops[3:]
			tail := head + uint64(len(model))
			off := head + uint64(arg%(len(model)+1))
			switch op {
			case 0: // append, up to a 128 KiB stream
				if len(model) >= 128<<10 {
					break
				}
				p := pattern(tail, arg%(3*blockSize))
				q.Append(p)
				model = append(model, p...)
			case 1: // peek
				n := arg%blockSize + 1
				got := q.Peek(off, n)
				if off == tail {
					if got != nil {
						t.Fatalf("Peek at tail returned %d bytes", len(got))
					}
					break
				}
				rel := off - head
				if !bytes.Equal(got, model[rel:min(uint64(len(model)), rel+uint64(n))]) {
					t.Fatalf("Peek(%d,%d) mismatch", off, n)
				}
			case 2: // copy
				dst := make([]byte, arg%(2*blockSize))
				n := q.CopyTo(dst, off)
				rel := off - head
				if want := model[rel:min(uint64(len(model)), rel+uint64(len(dst)))]; !bytes.Equal(dst[:n], want) {
					t.Fatalf("CopyTo(%d,%d) copied %d bytes, mismatch", off, len(dst), n)
				}
			case 3: // slices
				n := arg % (2 * blockSize)
				var joined []byte
				for _, p := range q.Slices(nil, off, n) {
					joined = append(joined, p...)
				}
				rel := off - head
				if want := model[rel:min(uint64(len(model)), rel+uint64(n))]; !bytes.Equal(joined, want) {
					t.Fatalf("Slices(%d,%d) mismatch", off, n)
				}
			case 4: // trim, sometimes past the tail
				to := head + uint64(arg%(len(model)+blockSize+1))
				q.TrimTo(to)
				if to > head {
					if to >= tail {
						model = model[:0]
					} else {
						model = model[to-head:]
					}
					head = to
				}
			case 5: // reset
				q.Reset(tail + uint64(arg%5))
				head, model = tail+uint64(arg%5), model[:0]
			}
			if q.HeadOffset() != head || q.Len() != len(model) || q.TailOffset() != head+uint64(len(model)) {
				t.Fatalf("offsets head=%d len=%d, model head=%d len=%d", q.HeadOffset(), q.Len(), head, len(model))
			}
			if limit := (len(model)+2*blockSize-1)/blockSize + 1; q.Blocks() > limit {
				t.Fatalf("%d blocks hold %d bytes", q.Blocks(), len(model))
			}
		}
		q.TrimTo(q.TailOffset())
		if b := poolBalance(before); b != 0 {
			t.Fatalf("%d pool blocks not returned after draining", b)
		}
	})
}
