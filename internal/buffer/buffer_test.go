package buffer

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"mptcpgo/internal/pool"
)

func TestByteQueueBasics(t *testing.T) {
	q := NewByteQueue(100)
	q.Append([]byte("hello "))
	q.Append([]byte("world"))
	if q.Len() != 11 || q.HeadOffset() != 100 || q.TailOffset() != 111 {
		t.Fatalf("unexpected state: len=%d head=%d tail=%d", q.Len(), q.HeadOffset(), q.TailOffset())
	}
	if got := q.Peek(106, 5); string(got) != "world" {
		t.Fatalf("Peek = %q", got)
	}
	if got := pop(q, 6); string(got) != "hello " {
		t.Fatalf("Pop = %q", got)
	}
	if q.HeadOffset() != 106 {
		t.Fatalf("head after pop = %d", q.HeadOffset())
	}
	q.TrimTo(109)
	if q.Len() != 2 || string(q.Peek(109, 2)) != "ld" {
		t.Fatalf("trim result wrong: %q", q.Peek(109, 2))
	}
	q.TrimTo(200) // beyond tail
	if q.Len() != 0 || q.HeadOffset() != 200 {
		t.Fatalf("trim past tail: len=%d head=%d", q.Len(), q.HeadOffset())
	}
}

func TestByteQueuePeekOutOfRange(t *testing.T) {
	q := NewByteQueue(0)
	q.Append([]byte("abc"))
	if q.Peek(10, 1) != nil || q.Peek(3, 1) != nil {
		t.Fatal("out-of-range peeks must return nil")
	}
}

// streamModel checks an OfoQueue implementation against a trivial reference:
// random segments of a contiguous stream are inserted in random order, and
// the reassembled output must equal the original stream.
func streamModel(t *testing.T, alg Algorithm, segments int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const segSize = 100
	total := segments * segSize
	stream := make([]byte, total)
	rng.Read(stream)

	items := make([]Item, segments)
	for i := 0; i < segments; i++ {
		items[i] = Item{
			Seq:     uint64(i * segSize),
			Data:    stream[i*segSize : (i+1)*segSize],
			Subflow: i % 3,
		}
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })

	q := NewOfoQueue(alg)
	var out []byte
	var next uint64
	deliver := func(its []Item, _ []Drop) {
		for _, it := range its {
			out = append(out, it.Data...)
			next = it.End()
		}
	}
	for _, it := range items {
		if it.Seq == next {
			out = append(out, it.Data...)
			next = it.End()
			deliver(q.PopContiguous(next))
			continue
		}
		q.Insert(it)
		deliver(q.PopContiguous(next))
	}
	deliver(q.PopContiguous(next))

	if !bytes.Equal(out, stream) {
		t.Fatalf("%s: reassembled stream differs (got %d bytes, want %d)", alg, len(out), len(stream))
	}
	if q.Len() != 0 || q.Bytes() != 0 {
		t.Fatalf("%s: queue not empty after full reassembly: len=%d bytes=%d", alg, q.Len(), q.Bytes())
	}
}

func TestOfoQueueReassemblesAllAlgorithms(t *testing.T) {
	for _, alg := range Algorithms() {
		for seed := int64(1); seed <= 5; seed++ {
			streamModel(t, alg, 200, seed)
		}
	}
}

func TestOfoQueueDuplicatesAndOverlaps(t *testing.T) {
	for _, alg := range Algorithms() {
		q := NewOfoQueue(alg)
		q.Insert(Item{Seq: 100, Data: make([]byte, 50)})
		q.Insert(Item{Seq: 100, Data: make([]byte, 50)}) // exact duplicate
		q.Insert(Item{Seq: 125, Data: make([]byte, 50)}) // overlaps tail
		if q.Bytes() > 75 {
			t.Fatalf("%s: overlapping inserts should not double-count bytes, got %d", alg, q.Bytes())
		}
		out, _ := q.PopContiguous(100)
		var n int
		for _, it := range out {
			n += len(it.Data)
		}
		if n != 75 {
			t.Fatalf("%s: expected 75 contiguous bytes, got %d", alg, n)
		}
	}
}

func TestOfoQueueStepsOrdering(t *testing.T) {
	// For a workload with a persistent hole, Regular must do more work than
	// AllShortcuts (this is the §4.3 claim in miniature).
	build := func(alg Algorithm) uint64 {
		q := NewOfoQueue(alg)
		// Hole at 0; two interleaved subflows deliver batches above it.
		seq := uint64(1000)
		for i := 0; i < 600; i++ {
			q.Insert(Item{Seq: seq, Data: make([]byte, 10), Subflow: i % 2})
			seq += 10
		}
		return q.Steps()
	}
	regular := build(AlgRegular)
	all := build(AlgAllShortcuts)
	if all >= regular {
		t.Fatalf("AllShortcuts (%d steps) should be cheaper than Regular (%d steps)", all, regular)
	}
}

// TestOfoQueueEquivalenceQuick is a property test: all four algorithms must
// produce identical reassembled streams for arbitrary insertion orders.
func TestOfoQueueEquivalenceQuick(t *testing.T) {
	f := func(order []uint8, holdFirst bool) bool {
		if len(order) == 0 {
			return true
		}
		if len(order) > 60 {
			order = order[:60]
		}
		segCount := len(order)
		const segSize = 8
		stream := make([]byte, segCount*segSize)
		for i := range stream {
			stream[i] = byte(i * 7)
		}
		results := make([][]byte, 0, 4)
		for _, alg := range Algorithms() {
			q := NewOfoQueue(alg)
			var out []byte
			var next uint64
			insert := func(idx int) {
				it := Item{Seq: uint64(idx * segSize), Data: stream[idx*segSize : (idx+1)*segSize], Subflow: idx % 2}
				if it.Seq == next {
					out = append(out, it.Data...)
					next = it.End()
				} else {
					q.Insert(it)
				}
				run, _ := q.PopContiguous(next)
				for _, d := range run {
					out = append(out, d.Data...)
					next = d.End()
				}
			}
			// Insertion order derived from the fuzzed slice.
			perm := make([]int, segCount)
			for i := range perm {
				perm[i] = i
			}
			for i, o := range order {
				j := int(o) % segCount
				perm[i], perm[j] = perm[j], perm[i]
			}
			for _, idx := range perm {
				insert(idx)
			}
			results = append(results, out)
		}
		for i := 1; i < len(results); i++ {
			if !bytes.Equal(results[0], results[i]) {
				return false
			}
		}
		return bytes.Equal(results[0], stream)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

func TestAlgorithmNames(t *testing.T) {
	want := map[Algorithm]string{
		AlgRegular:      "Regular",
		AlgTree:         "Tree",
		AlgShortcuts:    "Shortcuts",
		AlgAllShortcuts: "AllShortcuts",
	}
	for alg, name := range want {
		if alg.String() != name || NewOfoQueue(alg).Name() != name {
			t.Errorf("algorithm %d name mismatch", alg)
		}
	}
}

// TestOfoQueueReportsStoredAndDropped checks the byte accounting every queue
// reports: what Insert stored, minus what PopContiguous returned and
// dropped, is always what the queue holds — through exact duplicates,
// overlaps, items overtaken by the delivery point and a Reset — and every
// buffer, front-trimmed or not, goes back to the pool whole.
func TestOfoQueueReportsStoredAndDropped(t *testing.T) {
	for _, alg := range Algorithms() {
		before := pool.Stats()
		q := NewOfoQueue(alg)
		held := 0
		insert := func(seq uint64, n int, handed bool, want int) {
			t.Helper()
			it := Item{Seq: seq, Data: pattern(seq, n), Subflow: int(seq % 3)}
			if handed {
				it.Data, it.Buf = handOver(it.Data, 0)
			}
			if _, stored := q.Insert(it); stored != want {
				t.Fatalf("%s: Insert(%d,+%d) stored %d, want %d", alg, seq, n, stored, want)
			}
			held += want
			if q.Bytes() != held {
				t.Fatalf("%s: queue holds %d bytes, accounting says %d", alg, q.Bytes(), held)
			}
		}
		insert(100, 50, true, 50)
		insert(100, 50, true, 0)  // exact duplicate, handed over
		insert(110, 20, false, 0) // inside a queued item
		insert(125, 50, true, 25) // overlaps the tail of [100,150)
		insert(300, 10, false, 10)
		insert(305, 20, true, 15) // front-trimmed, left for Reset
		insert(400, 10, true, 10)
		run, dropped := q.PopContiguous(120) // drops [100,120), returns [120,175)
		out, gone := 0, 0
		for _, it := range run {
			if !bytes.Equal(it.Data, pattern(it.Seq, len(it.Data))) {
				t.Fatalf("%s: item at %d carries the wrong bytes", alg, it.Seq)
			}
			out += len(it.Data)
			pool.Recycle(it.Buf)
		}
		for _, d := range dropped {
			gone += d.Bytes
		}
		if out != 55 || gone != 20 || q.Bytes() != held-out-gone {
			t.Fatalf("%s: popped %d and dropped %d bytes, queue holds %d of %d", alg, out, gone, q.Bytes(), held)
		}
		q.Reset()
		if q.Len() != 0 || q.Bytes() != 0 {
			t.Fatalf("%s: reset queue holds %d items, %d bytes", alg, q.Len(), q.Bytes())
		}
		if b := poolBalance(before); b != 0 {
			t.Fatalf("%s: %d pool buffers not returned", alg, b)
		}
		// The front-trimmed items went back whole, not to the GC.
		if d := pool.Stats().Drops - before.Drops; d != 0 {
			t.Fatalf("%s: the pool dropped %d recycled buffers", alg, d)
		}
	}
}
