package buffer

import "mptcpgo/internal/pool"

// RecvQueue is the in-order receive store: bytes delivered to the
// application but not yet read, kept as a FIFO of segment payloads. It backs
// the MPTCP connection's receive buffer and a plain TCP endpoint's receive
// queue.
//
// A payload handed over with its pool buffer (Push with a non-nil buf) is
// queued in place, so the buffer the segment arrived in is the only copy of
// its bytes on the receive side and the application's read is the one copy
// out. Payload without a buffer of its own is copied into queue-owned blocks
// (Append), filling the tail block before taking a new one. A buffer goes
// back to the pool as soon as the reader has consumed every byte in it. An
// empty queue holds no buffers.
type RecvQueue struct {
	// ring holds the queued pieces in stream order, starting at
	// ring[first]; its length is zero or a power of two.
	ring  []recvPiece
	first int
	count int
	// n counts the unread bytes.
	n int
}

// recvPiece is one queued payload.
type recvPiece struct {
	// data is the piece's unread bytes; it lies inside buf.
	data []byte
	// buf is the pool buffer that holds data.
	buf []byte
	// block marks a queue-owned block whose room after data Append may
	// fill; a handed-over buffer is never written to.
	block bool
}

// Len returns the number of unread bytes.
func (q *RecvQueue) Len() int { return q.n }

// Buffers returns the number of pool buffers the queue currently holds.
func (q *RecvQueue) Buffers() int { return q.count }

// Push queues data at the tail. When buf is non-nil it is the pool buffer
// holding data, and the queue takes ownership of it: the bytes are queued in
// place and buf is recycled once they have all been read (or right away if
// data is empty). When buf is nil the bytes are copied, as by Append.
func (q *RecvQueue) Push(data, buf []byte) {
	if buf == nil {
		q.Append(data)
		return
	}
	if len(data) == 0 {
		pool.Recycle(buf)
		return
	}
	q.push(recvPiece{data: data, buf: buf})
	q.n += len(data)
}

// Append copies data to the tail of the queue.
func (q *RecvQueue) Append(b []byte) {
	q.n += len(b)
	if q.count > 0 {
		if t := &q.ring[(q.first+q.count-1)&(len(q.ring)-1)]; t.block {
			c := min(cap(t.data)-len(t.data), len(b))
			t.data = append(t.data, b[:c]...)
			b = b[c:]
		}
	}
	for len(b) > 0 {
		blk := pool.Bytes(blockSize)
		c := copy(blk, b)
		q.push(recvPiece{data: blk[:c], buf: blk, block: true})
		b = b[c:]
	}
}

// push appends a piece to the ring, doubling the ring when it is full.
func (q *RecvQueue) push(p recvPiece) {
	if q.count == len(q.ring) {
		ring := make([]recvPiece, max(2, 2*len(q.ring)))
		for i := 0; i < q.count; i++ {
			ring[i] = q.ring[(q.first+i)&(len(q.ring)-1)]
		}
		q.ring, q.first = ring, 0
	}
	q.ring[(q.first+q.count)&(len(q.ring)-1)] = p
	q.count++
}

// Read copies up to len(p) bytes from the head of the queue into p,
// consuming them, and returns the number copied. Every buffer it empties
// goes back to the pool.
func (q *RecvQueue) Read(p []byte) int {
	n := 0
	for n < len(p) && q.count > 0 {
		h := &q.ring[q.first]
		c := copy(p[n:], h.data)
		n += c
		if c < len(h.data) {
			h.data = h.data[c:]
			break
		}
		q.popHead()
	}
	q.n -= n
	return n
}

// Pop removes and returns up to n bytes from the head of the queue in a
// freshly allocated slice; allocation-free readers use Read.
func (q *RecvQueue) Pop(n int) []byte {
	out := make([]byte, min(n, q.n))
	q.Read(out)
	return out
}

// popHead recycles the head piece's buffer and drops the piece.
func (q *RecvQueue) popHead() {
	pool.Recycle(q.ring[q.first].buf)
	q.ring[q.first] = recvPiece{}
	q.first = (q.first + 1) & (len(q.ring) - 1)
	q.count--
}

// Reset discards every unread byte and returns the buffers to the pool.
func (q *RecvQueue) Reset() {
	for q.count > 0 {
		q.popHead()
	}
	q.first, q.n = 0, 0
}
