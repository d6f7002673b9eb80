// Package buffer provides the byte queues and reassembly structures used by
// the TCP and MPTCP endpoints: application send queues, in-order receive
// queues and the four out-of-order reassembly algorithms evaluated in §4.3 of
// the paper (Regular, Tree, Shortcuts, AllShortcuts).
package buffer

import "mptcpgo/internal/pool"

// blockShift sizes the blocks a ByteQueue stores its bytes in: 2 KiB, the
// pool's MSS class. A segment's payload then spans at most two blocks, and a
// short flow pins only a few KiB (larger blocks sped up bulk transfers just
// as much but inflated the heap of workloads with many small open flows).
const (
	blockShift = 11
	blockSize  = 1 << blockShift
	blockMask  = blockSize - 1
)

// ByteQueue is a FIFO byte stream with an absolute offset for its head. It
// backs the MPTCP connection's send store (offsets are data sequence
// numbers), a plain TCP endpoint's send queue (offsets count payload bytes
// from the first one) and the in-order receive queues.
//
// Bytes live in fixed-size blocks taken from internal/pool: Append fills the
// tail block and takes a fresh one when it is full, and the head block goes
// back to the pool as soon as every byte in it has been consumed. No
// operation ever moves live bytes, so a full window costs the same per byte
// as an empty one. An empty queue holds no blocks.
type ByteQueue struct {
	// ring holds the live blocks (each blockSize bytes long) in stream
	// order, starting at ring[first]; its length is zero or a power of two.
	ring  [][]byte
	first int
	nblk  int
	// head indexes the first live byte within the head block; n counts the
	// live bytes, so byte i of the stream sits at block (head+i)>>blockShift.
	head int
	n    int
	// headOffset is the absolute stream offset of the first live byte.
	headOffset uint64
}

// NewByteQueue returns an empty queue whose head sits at the given absolute
// stream offset.
func NewByteQueue(headOffset uint64) *ByteQueue {
	return &ByteQueue{headOffset: headOffset}
}

// Len returns the number of buffered bytes.
func (q *ByteQueue) Len() int { return q.n }

// Blocks returns the number of pool blocks the queue currently holds.
func (q *ByteQueue) Blocks() int { return q.nblk }

// HeadOffset returns the absolute offset of the first buffered byte.
func (q *ByteQueue) HeadOffset() uint64 { return q.headOffset }

// TailOffset returns the absolute offset one past the last buffered byte.
func (q *ByteQueue) TailOffset() uint64 { return q.headOffset + uint64(q.n) }

// blockAt returns the i-th live block (0 is the head block).
func (q *ByteQueue) blockAt(i int) []byte {
	return q.ring[(q.first+i)&(len(q.ring)-1)]
}

// Append adds data at the tail of the stream.
func (q *ByteQueue) Append(b []byte) {
	for len(b) > 0 {
		end := q.head + q.n
		if end == q.nblk<<blockShift {
			q.pushBlock()
		}
		c := copy(q.blockAt(end >> blockShift)[end&blockMask:], b)
		q.n += c
		b = b[c:]
	}
}

// pushBlock appends a fresh pool block to the ring, doubling the ring when
// it is full.
func (q *ByteQueue) pushBlock() {
	if q.nblk == len(q.ring) {
		ring := make([][]byte, max(8, 2*len(q.ring)))
		for i := 0; i < q.nblk; i++ {
			ring[i] = q.blockAt(i)
		}
		q.ring, q.first = ring, 0
	}
	q.ring[(q.first+q.nblk)&(len(q.ring)-1)] = pool.Bytes(blockSize)
	q.nblk++
}

// locate returns the position of absolute offset off as a (block, byte)
// index pair and the number of live bytes from off to the tail; avail is 0
// when off lies outside the buffered range.
func (q *ByteQueue) locate(off uint64) (blk, at, avail int) {
	if off < q.headOffset || off >= q.TailOffset() {
		return 0, 0, 0
	}
	rel := int(off - q.headOffset)
	idx := q.head + rel
	return idx >> blockShift, idx & blockMask, q.n - rel
}

// CopyTo copies up to len(dst) bytes starting at absolute offset off into
// dst, reading straight from the blocks, and returns the number copied (0
// when off is outside the buffered range). The queue is not modified.
func (q *ByteQueue) CopyTo(dst []byte, off uint64) int {
	blk, at, avail := q.locate(off)
	if len(dst) > avail {
		dst = dst[:avail]
	}
	n := 0
	for n < len(dst) {
		n += copy(dst[n:], q.blockAt(blk)[at:])
		blk, at = blk+1, 0
	}
	return n
}

// Slices appends to dst the block-resident pieces that together hold up to
// n bytes starting at absolute offset off, and returns the extended slice.
// The pieces alias the queue's blocks: they are valid only until the bytes
// are trimmed.
func (q *ByteQueue) Slices(dst [][]byte, off uint64, n int) [][]byte {
	blk, at, avail := q.locate(off)
	if n > avail {
		n = avail
	}
	for n > 0 {
		p := q.blockAt(blk)[at:min(blockSize, at+n)]
		dst = append(dst, p)
		n -= len(p)
		blk, at = blk+1, 0
	}
	return dst
}

// Peek returns up to n bytes starting at absolute offset off without removing
// them, or nil if off is outside the buffered range. A range inside one
// block is returned in place; one that straddles blocks is returned as a
// freshly allocated copy. Hot paths use CopyTo or Slices instead.
func (q *ByteQueue) Peek(off uint64, n int) []byte {
	blk, at, avail := q.locate(off)
	if avail == 0 {
		return nil
	}
	n = min(n, avail)
	if at+n <= blockSize {
		return q.blockAt(blk)[at : at+n]
	}
	out := make([]byte, n)
	q.CopyTo(out, off)
	return out
}

// Pop removes and returns up to n bytes from the head of the queue. The
// returned slice is freshly allocated; zero-allocation consumers use CopyTo
// + TrimTo instead.
func (q *ByteQueue) Pop(n int) []byte {
	out := make([]byte, min(n, q.n))
	q.CopyTo(out, q.headOffset)
	q.discard(len(out))
	return out
}

// TrimTo discards all bytes before absolute offset off (typically the
// cumulative acknowledgement point). Trimming past the tail empties the
// queue and moves its head to off.
func (q *ByteQueue) TrimTo(off uint64) {
	if off <= q.headOffset {
		return
	}
	if off >= q.TailOffset() {
		q.Reset(off)
		return
	}
	q.discard(int(off - q.headOffset))
}

// discard consumes n <= Len() bytes from the head, returning every block
// emptied by it to the pool.
func (q *ByteQueue) discard(n int) {
	if n == q.n {
		q.Reset(q.headOffset + uint64(n))
		return
	}
	q.headOffset += uint64(n)
	q.n -= n
	q.head += n
	for q.head >= blockSize {
		q.releaseHead()
		q.head -= blockSize
	}
}

// releaseHead returns the head block to the pool.
func (q *ByteQueue) releaseHead() {
	pool.Recycle(q.ring[q.first])
	q.ring[q.first] = nil
	q.first = (q.first + 1) & (len(q.ring) - 1)
	q.nblk--
}

// Reset empties the queue, returning all of its blocks to the pool, and
// moves its head to the given offset.
func (q *ByteQueue) Reset(headOffset uint64) {
	for q.nblk > 0 {
		q.releaseHead()
	}
	q.first, q.head, q.n = 0, 0, 0
	q.headOffset = headOffset
}

// CompactPrefix removes the first n elements of q in place: survivors shift
// to the front, the vacated tail slots are zeroed — load-bearing for
// pointer elements, so freed objects are not pinned (or aliased by free
// lists) through the backing array — and the shortened slice keeps its
// capacity. This is the shared drain primitive for the endpoint chunk
// queues and the connection-level in-flight list; re-slicing with q[n:]
// instead would leak capacity off the front and reallocate every window.
func CompactPrefix[T any](q []T, n int) []T {
	m := copy(q, q[n:])
	var zero T
	for i := m; i < len(q); i++ {
		q[i] = zero
	}
	return q[:m]
}
