package buffer

import "mptcpgo/internal/pool"

// Item is one out-of-order segment held at the connection level, keyed by its
// data sequence number.
type Item struct {
	// Seq is the absolute stream offset (data sequence number) of Data[0].
	Seq uint64
	// Data is the segment payload (already trimmed of any overlap with
	// delivered data).
	Data []byte
	// Buf is the pool buffer that holds Data, or nil when Data is borrowed.
	// Every item a queue stores or returns carries its Buf, and whoever ends
	// up holding the item recycles Buf — never Data, which may have been
	// trimmed from the front and so no longer matches a pool size class.
	Buf []byte
	// Subflow identifies the subflow the segment arrived on; the Shortcuts
	// algorithms exploit the fact that arrivals on one subflow are usually
	// in data-sequence order.
	Subflow int
}

// End returns the stream offset one past the item's last byte.
func (it *Item) End() uint64 { return it.Seq + uint64(len(it.Data)) }

// OfoQueue is an out-of-order reassembly queue. Implementations differ only
// in how they locate the insertion point for a new segment, which is exactly
// the cost §4.3 of the paper optimizes.
type OfoQueue interface {
	// Insert adds an item arriving on the given subflow, trimmed against
	// its queued neighbours; fully duplicate items are dropped. It returns
	// the number of elementary search steps (node visits / comparisons)
	// performed, the proxy used for CPU cost, and the number of payload
	// bytes it stored (0 for a duplicate).
	//
	// When it.Buf is non-nil the queue takes ownership of it: it stores the
	// buffer, or recycles it when it drops the item, so the caller must not
	// touch it.Data afterwards. When it.Buf is nil the queue stores a
	// pool-owned copy of it.Data and the caller keeps its slice.
	Insert(it Item) (steps, stored int)
	// PopContiguous removes and returns the maximal run of items that starts
	// exactly at nextSeq, in order. Items entirely below nextSeq are
	// discarded (their buffers recycled) and an item reaching below nextSeq
	// loses that prefix; dropped reports every such discard or trim, so
	// stored bytes minus returned bytes minus dropped bytes is always what
	// the queue still holds. Ownership of each returned item's Buf passes to
	// the caller, which recycles it once the bytes are consumed. Both slices
	// stay owned by the queue and are reused by the next PopContiguous call:
	// consume (or copy) them before touching the queue again.
	PopContiguous(nextSeq uint64) (run []Item, dropped []Drop)
	// Reset discards every queued item and recycles its buffer.
	Reset()
	// Len returns the number of queued items.
	Len() int
	// Bytes returns the number of queued payload bytes.
	Bytes() int
	// Steps returns the cumulative number of search steps since creation.
	Steps() uint64
	// Name returns the algorithm name used in reports.
	Name() string
}

// Drop is payload the queue discarded because it already lay below the
// delivery point, attributed to the subflow it arrived on.
type Drop struct {
	Subflow int
	Bytes   int
}

// Algorithm selects an out-of-order reassembly implementation.
type Algorithm int

// The four receive algorithms compared in Figure 8.
const (
	// AlgRegular scans the queue linearly from the head, as the unmodified
	// Linux receive path does for out-of-order arrivals.
	AlgRegular Algorithm = iota
	// AlgTree keeps the queue in a balanced search tree (logarithmic
	// insertion).
	AlgTree
	// AlgShortcuts keeps a per-subflow pointer to the expected insertion
	// point; a correct prediction inserts in constant time.
	AlgShortcuts
	// AlgAllShortcuts additionally groups in-sequence items into batches and
	// scans batches rather than items when the shortcut misses.
	AlgAllShortcuts
)

// String returns the algorithm's display name.
func (a Algorithm) String() string {
	switch a {
	case AlgRegular:
		return "Regular"
	case AlgTree:
		return "Tree"
	case AlgShortcuts:
		return "Shortcuts"
	case AlgAllShortcuts:
		return "AllShortcuts"
	default:
		return "Unknown"
	}
}

// Algorithms lists all implementations in the order Figure 8 reports them.
func Algorithms() []Algorithm {
	return []Algorithm{AlgRegular, AlgTree, AlgShortcuts, AlgAllShortcuts}
}

// NewOfoQueue constructs an out-of-order queue using the given algorithm.
func NewOfoQueue(a Algorithm) OfoQueue {
	switch a {
	case AlgTree:
		return newTreeQueue()
	case AlgShortcuts:
		return newListQueue(true, false)
	case AlgAllShortcuts:
		return newListQueue(true, true)
	default:
		return newListQueue(false, false)
	}
}

// trimItem clips it against the already-delivered prefix ending at nextSeq.
// It returns false if nothing remains.
func trimItem(it *Item, nextSeq uint64) bool {
	if it.End() <= nextSeq {
		return false
	}
	if it.Seq < nextSeq {
		cut := nextSeq - it.Seq
		it.Data = it.Data[cut:]
		it.Seq = nextSeq
	}
	return len(it.Data) > 0
}

// adoptItemData makes the item's payload pool-owned: a handed-over buffer is
// kept as it is, borrowed data is copied. Implementations call it right
// before storing a new item.
func adoptItemData(it *Item) {
	if it.Buf == nil {
		it.Buf = pool.Copy(it.Data)
		it.Data = it.Buf
	}
}

// discardItemData recycles the buffer of an item the queue is dropping
// (fully duplicate or below the delivery point); a borrowed item has none.
func discardItemData(it *Item) {
	if it.Buf != nil {
		pool.Recycle(it.Buf)
	}
	it.Data, it.Buf = nil, nil
}

// popItem files an item just removed from the head of a queue against the
// delivery point nextSeq: an item wholly below it is discarded, one
// reaching below it loses that prefix, and whatever remains joins the run.
// It returns the extended slices and the new delivery point.
func popItem(it Item, nextSeq uint64, run []Item, drops []Drop) ([]Item, []Drop, uint64) {
	if it.End() <= nextSeq {
		drops = append(drops, Drop{Subflow: it.Subflow, Bytes: len(it.Data)})
		discardItemData(&it)
		return run, drops, nextSeq
	}
	if it.Seq < nextSeq {
		drops = append(drops, Drop{Subflow: it.Subflow, Bytes: int(nextSeq - it.Seq)})
		trimItem(&it, nextSeq)
	}
	return append(run, it), drops, it.End()
}
